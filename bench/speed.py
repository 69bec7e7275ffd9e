"""Machine speed, sampled inside the measured process while it works.

The benchmark's host is a 2-core VM on a shared machine, whose speed moves
by 30% and more within seconds: consecutive runs of the same child took
1.7 s and 3.2 s with CPU time equal to wall time, and hardware counters are
not available in the VM.  So each child times a fixed probe loop every
`PERIOD_S` of wall time, from a SIGALRM handler that runs between the
program's own bytecodes, and the harness divides every duration by the
program's slowdown over that same interval: the median probe time inside
the interval over `REF_PROBE_S`, the probe's time on the reference
machine, raised to `ELASTICITY`.

The program slows more than the probe when the host is busy: across 40
runs of the four workloads, the run's median wall time grew as the 1.25th
to 1.4th power of its median probe time.  `ELASTICITY` is fixed at 1.35
for every workload; bench/README.md has the measurements.

A probe costs about 0.1 ms every 5 ms, 2% of the child's time, on every
commit alike.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.005
PROBE_LOOPS = 1000
#: median probe time on the reference machine (README.md, "Measured")
REF_PROBE_S = 1.0e-4
#: the program's slowdown is the probe's raised to this power
ELASTICITY = 1.35

_samples: list[tuple[float, float]] = []
_busy = False


def probe() -> float:
    """Seconds taken by a fixed loop of integer arithmetic."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def _on_alarm(signum, frame) -> None:
    global _busy
    if _busy:  # a handler may start inside a delayed one; skip it
        return
    _busy = True
    try:
        at = time.monotonic()
        _samples.append((at, probe()))
    finally:
        _busy = False


def start() -> None:
    """Sample every `PERIOD_S` from now on; call once, before the work."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> list[tuple[float, float]]:
    """Stop sampling; the (CLOCK_MONOTONIC time, probe seconds) samples."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    return list(_samples)


def slowdown(samples, begin: float, end: float) -> float:
    """How much slower than on the reference machine [begin, end] ran.

    The median probe time of the samples taken in the interval, or of all
    samples when the interval holds none, over `REF_PROBE_S`, raised to
    `ELASTICITY`.
    """
    inside = [d for t, d in samples if begin <= t <= end]
    median = statistics.median(inside or [d for _, d in samples])
    return (median / REF_PROBE_S) ** ELASTICITY
