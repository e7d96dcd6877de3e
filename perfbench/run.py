"""serretlab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload divide|certify|lengths --seed N \
        --seconds S --trace 0|1

One client drives ``serretlab.cli.main(argv)`` in one worker process, one
task at a time (a closed loop).  A run:

1. generates the workload's tasks from the seed (``workloads.py``);
2. times cold starts of fresh worker interpreters (``setup_s``);
3. timed pass, tracing off: the workload's preamble, then a number of whole
   rounds of tasks that grows with ``--seconds`` (``workloads.rounds_for``:
   a count fixed by the arguments, so every run attempts the same mix);
   with ``--trace 1``, the preamble and the first round only, so that the
   traced counts depend on the seed alone;
4. with ``--trace 1`` only, traced pass: the same tasks in a fresh worker
   with the outside-in tracer (``tracer.py``), for the per-layer metrics
   and the tracing overhead, and a byte-for-byte comparison of every stdout
   with the timed pass;
5. checks every output of the timed pass against an mpmath oracle
   (``oracles.py``).

Times are CPU seconds of the worker (user plus system): the worker is
single-threaded, so on a core of its own that is its wall time, and on a
shared VM it leaves out the time the vCPU was given to other guests.  The
report file keeps the wall times too.

A task fails on an unexpected exit code, an output outside the oracle's
tolerance, or (traced runs) stdout that differs from the traced pass.
``correct`` is false when an output the program printed was wrong or
nondeterministic; a task that stops with an error exit counts in
``failed`` only.  The last line of stdout is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COLD_STARTS = 5  # the timed pass's worker is one of them
# the package uses numpy elementwise only; one BLAS thread keeps the worker
# single-threaded, so that its CPU time is the time a task takes on one core
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class Worker:
    """A worker interpreter speaking the line protocol of ``worker.py``."""

    def __init__(self, trace: bool):
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=WORKER_ENV)
        try:
            ready = self._recv()
        except RuntimeError:
            self.kill()
            raise
        self.setup_wall_s = perf_counter() - start
        self.setup_s = ready["cpu_s"]
        self.import_s = ready["import_s"]

    def _recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def run(self, task_id, argv):
        self.proc.stdin.write(json.dumps({"id": task_id, "argv": argv}) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def close(self):
        self.proc.stdin.write('{"quit": true}\n')
        self.proc.stdin.flush()
        final = self._recv()
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        return final

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_pass(trace, tasks):
    """Run ``tasks`` one after another in a fresh worker."""
    worker = Worker(trace)
    try:
        results = [worker.run(i, task.argv) for i, task in enumerate(tasks)]
        final = worker.close()
    except BaseException:
        worker.kill()
        raise
    return {"results": results, "busy_s": sum(r["cpu"] for r in results),
            "wall_s": sum(r["wall"] for r in results), "setup_s": worker.setup_s,
            "setup_wall_s": worker.setup_wall_s,
            "import_s": worker.import_s, "peak_rss_mb": final["peak_rss_mb"],
            "spans": final["spans"]}


def score(tasks, timed, traced=None):
    """(task, wrong, reason) for every failed task.

    ``wrong`` marks outputs that were printed but wrong or nondeterministic,
    as opposed to a task that stopped with an error exit.
    """
    failures = []
    for i, (task, res) in enumerate(zip(tasks, timed)):
        if traced is not None and (res["stdout"], res["code"]) != (
                traced[i]["stdout"], traced[i]["code"]):
            failures.append((i, True, "stdout differs between the timed and traced passes"))
            continue
        reason = oracles.check(task, res["code"], res["stdout"])
        if reason is not None:
            failures.append((i, res["code"] == 0, reason))
    return failures


def tail(samples):
    """(percentile, value): the highest whole percentile, at most 99, with at
    least ten samples beyond it; the median (percentile 50) when fewer than
    twenty samples leave no such percentile at or above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered)


def measure(workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob(f"{workload}-{seed}-*"):
        stale.unlink()
    preamble, rounds = workloads.tasks(workload, seed, OUT)
    setup, setup_wall, imports = [], [], []
    for _ in range(COLD_STARTS - 1):
        worker = Worker(trace=False)
        setup.append(worker.setup_s)
        setup_wall.append(worker.setup_wall_s)
        imports.append(worker.import_s)
        worker.close()
    # with tracing, one round, so that the traced counts depend on the seed only
    count = 1 if trace else workloads.rounds_for(workload, seconds)
    tasks = preamble + list(itertools.chain.from_iterable(itertools.islice(rounds, count)))
    timed = run_pass(False, tasks)
    traced = run_pass(True, tasks) if trace else None
    setup.append(timed["setup_s"])
    setup_wall.append(timed["setup_wall_s"])
    imports.append(timed["import_s"])
    failures = score(tasks, timed["results"], traced and traced["results"])
    cpus = [r["cpu"] for r in timed["results"]]
    pct, tail_s = tail(cpus)
    n = len(tasks)
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "tasks_per_s": (n / timed["busy_s"], "1/s"),
        "task_s.p50": (statistics.median(cpus), "s"),
        "task_s.tail": (tail_s, "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    report = {
        "workload": workload, "seed": seed, "tasks": n,
        "error_rate": len(failures) / n, "tail_percentile": pct,
        "cold_starts": len(setup),
        "failures": [{"task": i, "argv": tasks[i].argv, "reason": why}
                     for i, _, why in failures],
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        # wall-clock figures, for reference: on a shared VM they include
        # time the vCPU was given to others
        "wall": {"setup_s": statistics.median(setup_wall),
                 "tasks_per_s": n / timed["wall_s"]},
        "task_times": [[t.argv, r["cpu"], r["wall"]]
                       for t, r in zip(tasks, timed["results"])],
    }
    if traced:
        digits = {i: t.digits for i, t in enumerate(tasks)}
        per_layer = tracer.layer_metrics(traced["spans"], digits, workloads.LENGTHS_LADDER)
        per_layer["cli.import_s"] = statistics.median(imports)
        per_layer["trace.overhead_frac"] = traced["busy_s"] / timed["busy_s"] - 1
        report["per_layer"] = per_layer
        (OUT / f"{workload}-{seed}-spans.json").write_text(json.dumps(traced["spans"]))
    (OUT / f"{workload}-{seed}-report.json").write_text(json.dumps(report, indent=1))
    return tasks, report, end_to_end, failures


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.startswith("quadrature.us_per_eval"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_per_point", "_per_call")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "serretlab" / "cli.py").is_file():
        print(f"error: no serretlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tasks, report, end_to_end, failures = measure(args.workload, args.seed, args.seconds,
                                                  args.trace)
    n = report["tasks"]
    print(f"workload {args.workload} seed {args.seed}: {n} tasks, "
          f"{len(failures)} failed (error_rate {report['error_rate']:.4f}), "
          f"task_s.tail is p{report['tail_percentile']:g} of {n} samples, "
          f"setup_s median of {report['cold_starts']} cold starts")
    for i, _, why in failures:
        print(f"  failed task {i}: {' '.join(tasks[i].argv)}: {why}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<34} {value:14.6g} {unit}")
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:<34} {value:14.6g}")
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in report["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    print(json.dumps({"correct": not any(wrong for _, wrong, _ in failures),
                      "attempted": n, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
