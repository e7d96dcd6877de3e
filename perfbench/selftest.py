"""Self-test of the benchmark's own checks.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. A small task list, one per oracle kind, passes every oracle and the
   byte-determinism check between an untraced and a traced pass.
2. The traced ``divide --erdos 3 --parts 2 --digits 50`` in a fresh worker
   makes exactly 89 tanh_sinh calls and 30,885 integrand evaluations.
3. Changing one digit of one checked output field makes each oracle fail.
4. Changing one digit of one traced stdout makes the determinism check fail.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction

import run
import tracer
from workloads import Task

F = Fraction
SAMPLES = [
    # first: the tracer check needs it to run in a fresh worker
    Task(["divide", "--erdos", "3", "--parts", "2", "--digits", "50"], "divide_leaf", 50,
         {"q": F(3), "parts": 2}),
    Task(["divide", "--sinusoidal", "3/2", "--parts", "3", "--digits", "30"],
         "divide_leaf", 30, {"q": F(3, 2), "parts": 3}),
    Task(["divide", "--cassini", "a=4/5", "--n", "2", "--digits", "30"],
         "divide_cassini", 30, {"a": F(4, 5), "n": 2}),
    Task(["length", "--erdos", "2", "--digits", "30"], "length", 30,
         {"family": "erdos", "q": F(2)}),
    Task(["length", "--sinusoidal", "2/3", "--digits", "30"], "length", 30,
         {"family": "sinusoidal", "q": F(2, 3)}),
    Task(["length", "--regular", "a=3/5", "k=3", "--digits", "30"], "length", 30,
         {"family": "regular", "a": F(3, 5), "k": 3}),
    Task(["length", "--cassini", "a=5/4", "--digits", "30"], "length", 30,
         {"family": "regular", "a": F(5, 4), "k": 2}),
    Task(["identities", "--digits", "20"], "identities", 20),
    Task(["minpoly", "1.2599210498948731647672106072782283505702514647015079800819751",
          "--max-degree", "4", "--max-height", "2", "--digits", "40"], "certify", 40,
         {"expect": "found", "generator": [1, 0, 0, -2]}),
    Task(["minpoly", "--const", "e", "--max-degree", "4", "--max-height", "2",
          "--digits", "36"], "certify", 36,
         {"expect": "none", "const": "e", "generator": None}),
]
# the field whose digit each perturbation changes, by task kind
FIELDS = {"divide_leaf": "s", "divide_cassini": "v_u", "length": "closed_form",
          "identities": "grid_size", "certify": "value"}


def _flip(text: str) -> str:
    """Change the middle digit of ``text`` by 5 (mod 10)."""
    positions = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = positions[len(positions) // 2]
    return text[:i] + str((int(text[i]) + 5) % 10) + text[i + 1:]


def perturb(stdout: str, field: str) -> str:
    doc = json.loads(stdout)
    row = doc["results"][min(1, len(doc["results"]) - 1)]  # an interior division point
    value = row[field]
    row[field] = int(_flip(str(value))) if isinstance(value, int) else _flip(value)
    return json.dumps(doc, indent=2) + "\n"


def main() -> int:
    problems = []
    tasks = list(SAMPLES)
    timed = run.run_pass(False, tasks)
    traced = run.run_pass(True, tasks)
    for i, _, why in run.score(tasks, timed["results"], traced["results"]):
        problems.append(f"task {i} ({' '.join(tasks[i].argv)}) failed: {why}")

    first = [s for s in traced["spans"] if s[0] == 0]
    counts = tracer.layer_metrics(first, {0: 50}, ())
    got = (counts["quadrature.calls"], counts["quadrature.evals"])
    print(f"traced divide --erdos 3 --parts 2 --digits 50: {got[0]} tanh_sinh calls, "
          f"{got[1]} integrand evaluations, {counts['division.f_per_point']:g} F per point")
    if got != (89, 30885):
        problems.append(f"tracer counts {got}, expected (89, 30885)")

    for i, (task, res) in enumerate(zip(tasks, timed["results"])):
        fields = [FIELDS[task.kind]]
        if task.params.get("expect") == "found":
            fields.append("minpoly")
        for field in fields:
            bad = perturb(res["stdout"], field)
            reason = run.oracles.check(task, res["code"], bad)
            print(f"perturbed {field!r} of task {i} ({task.kind}): "
                  f"{'caught: ' + reason if reason else 'NOT CAUGHT'}")
            if reason is None:
                problems.append(f"oracle missed a perturbed {field!r} in task {i}")

    altered = copy.deepcopy(traced["results"])
    altered[3]["stdout"] = _flip(altered[3]["stdout"])
    flagged = run.score(tasks, timed["results"], altered)
    print(f"perturbed traced stdout of task 3: {flagged}")
    if [(i, wrong) for i, wrong, _ in flagged] != [(3, True)]:
        problems.append("determinism check missed a perturbed stdout")

    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
