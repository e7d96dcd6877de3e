"""Benchmark worker: one interpreter that imports serretlab.cli and runs tasks.

Usage: python3 worker.py <checkout-root> <trace 0|1>

Protocol, one JSON object per line: the worker first writes
``{"ready": true, "import_s": ..., "cpu_s": ...}``, ``cpu_s`` being the CPU
time the interpreter has used since it started; then for each
``{"id": i, "argv": [...]}`` read from stdin it runs
``serretlab.cli.main(argv)`` with stdout and stderr captured and answers
``{"id", "code", "wall", "cpu", "stdout", "stderr"}``, ``cpu`` being the
task's CPU time (user plus system, ``time.process_time``).  On
``{"quit": true}`` it answers with its peak resident memory and, when traced,
every span recorded, then exits.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time


def main() -> int:
    root, trace = Path(sys.argv[1]).resolve(), sys.argv[2] == "1"
    proto = sys.stdout
    t0 = perf_counter()
    sys.path.insert(0, str(root / "src"))
    from serretlab import cli
    import_s = perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise ImportError(f"serretlab.cli imported from {cli.__file__}, not {root / 'src'}")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    send({"ready": True, "import_s": import_s, "cpu_s": process_time()})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("quit"):
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            send({"peak_rss_mb": rss_kb / 1024.0,
                  "spans": tracer.spans if tracer else []})
            return 0
        if tracer:
            tracer.task = msg["id"]
        out, err = io.StringIO(), io.StringIO()
        start, start_cpu = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(msg["argv"])
        except Exception:
            # an exception escaping main() is a program failure, not a
            # benchmark failure: report it as its own exit status
            code = -1
            err.write(traceback.format_exc())
        wall, cpu = perf_counter() - start, process_time() - start_cpu
        send({"id": msg["id"], "code": code, "wall": wall, "cpu": cpu,
              "stdout": out.getvalue(), "stderr": err.getvalue()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
