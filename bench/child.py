"""One benchmark iteration: a fresh process that calls `expodom.cli.main`.

Reads a job from stdin, {"calls": [argv, ...], "spans": path or null}, runs
each argv through `cli.main` with stdout captured, and prints one JSON
object with the captured outputs and CLOCK_MONOTONIC timestamps, which the
parent compares against its own launch time:

- "ready": the end of set-up, i.e. when the sweep's start-up gate returns
  (import, catalog check, cache load done) or when the first `params` call
  reaches the solver;
- "calls": per argv, exit code, stdout, start and end;
- "rss_kb": peak resident set size of this process;
- "speed": the machine-speed samples of bench/speed.py, taken from before
  the package is imported until the last call returns.

With "spans" set, every layer boundary is traced and the spans are written
to that path after the last call.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import speed


def _mark_ready(marks: dict, fn, on_return: bool):
    def hooked(*args, **kwargs):
        if not on_return:
            marks.setdefault("ready", time.monotonic())
        result = fn(*args, **kwargs)
        if on_return:
            marks.setdefault("ready", time.monotonic())
        return result

    return hooked


def main() -> int:
    job = json.load(sys.stdin)
    speed.start()
    from expodom import cli, hereditary

    tracer = None
    if job["spans"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    marks: dict = {}
    hereditary._obstruction_self_check = _mark_ready(
        marks, hereditary._obstruction_self_check, on_return=True)
    cli.compute_all = _mark_ready(marks, cli.compute_all, on_return=False)

    calls = []
    for argv in job["calls"]:
        out = io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        calls.append({"code": code, "stdout": out.getvalue(),
                      "start": start, "end": time.monotonic()})
    samples = speed.stop()
    if tracer is not None:
        tracer.write(job["spans"])
    print(json.dumps({
        "ready": marks.get("ready"),
        "calls": calls,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "speed": samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
