"""Outside-in benchmark for expodom: four workloads, each led by one kernel.

Usage, from the repository root:

    python3 bench/run.py --workload trees11 --seed 1 --seconds 28 --trace 0

Each iteration is a fresh process (bench/child.py) that calls
`expodom.cli.main`; one child runs at a time.  Every output is checked (see
the `check_*` functions), and the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 untraced and traced iterations
alternate and the metrics are the per-layer ones from bench/tracer.py.
Every duration is scaled to the reference machine's speed, sampled inside
the child over that same interval (bench/speed.py).
See bench/README.md for why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

#: least iterations per run (per kind in a traced run), however short --seconds
MIN_ITERATIONS = 3
MIN_TRACED = 2
#: a single child that runs longer than this is killed and counted failed
CHILD_TIMEOUT_S = 120

# Frozen class counts per order, as pinned by the acceptance tests.
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
               10: 106, 11: 235, 12: 551}
THEOREM1_STREAM_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 23, 7: 57,
                          8: 184, 9: 665}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

#: the `params` pool: order-20 trees plus 2-3 edges with gamma_e = 4, as
#: graph6 with (gamma, gamma_e, gamma_e_star); every call gets a fresh
#: labeling, and --seed picks the call order within each process
PARAMS_POOL = [
    ("SsoGPA?G?O@??CO?OAC???_?A???C@???", (6, 4, 4)),
    ("SsP@C?O?OC?GO??C_?G?C?c?O??C??C??", (6, 4, 4)),
    ("SsGOSGP?OA?O?@_???_?O@??C??_????_", (7, 4, 4)),
    ("SpCP?CO?H?CC_??OG??@?_???QC???@??", (7, 4, 4)),
    ("SpPA?H??OcO?_??C?OO_??C_??`????_?", (6, 4, 4)),
    ("Sk_Gc?OOCCC?O?CO?O?@?_???G?C??@??", (8, 4, 4)),
    ("SpQ?S?OOAGA?_??OA???@A??AA?_???@?", (7, 4, 4)),
    ("Sk_PC@?@@?A?_?_?A_@??_??O@?P??@??", (5, 4, 4)),
    ("SpIC?_CGC??CC??A?GO?AG?C?@C??@???", (5, 4, 4)),
    ("Sk_K@@?A?_A?A?aAO??_?@O?@????G?_?", (7, 4, 4)),
    ("ShCS?`??aCG?_G?G??_AGO??@??A??A??", (6, 4, 4)),
    ("SkQ@CCGO@?G??CG??G?@??O?_@A??__??", (7, 4, 4)),
]
PARAMS_ORDER = 20
#: the labelings come from one fixed stream, the same in every run: a call's
#: cost depends on the labeling (0.05-0.22 s for one graph), and with
#: seeded labelings the median call moved by up to 24% between seeds
LABELING_SEED = 0

#: per-layer units of counts and of ratios between counts, which must repeat
EXACT_UNITS = ("count", "ratio", "bytes")

END_TO_END = {"wall_s": "s", "setup_s": "s", "graphs_per_s": "1/s",
              "peak_rss_mb": "MB", "latency_p50_s": "s", "latency_p90_s": "s"}


@dataclass(frozen=True)
class Sweep:
    """`verify --sweep NAME --max-n N`, one sweep per process."""

    sweep: str
    order: int
    counts: dict
    cache: str  # "none", "fresh" (new empty file per run) or "warm"

    def argv(self) -> list[str]:
        return ["verify", "--sweep", self.sweep, "--max-n", str(self.order)]


@dataclass(frozen=True)
class Params:
    """`params <g6>` on each pool graph, one pass over the pool per process.

    Below order 20 each pool graph is cut down to its first `order` vertices.
    """

    order: int


WORKLOADS = {
    "trees11": Sweep("corollary2", 11, TREE_COUNTS, "fresh"),
    "restricted8": Sweep("theorem1", 8, THEOREM1_STREAM_COUNTS, "none"),
    "connected7_warm": Sweep("conjecture3", 7, CONNECTED_COUNTS, "warm"),
    "params20": Params(PARAMS_ORDER),
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def graph6_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Order and edge list of a graph6 string with fewer than 63 vertices."""
    order = ord(text[0]) - 63
    bits = [(ord(c) - 63) >> k & 1 for c in text[1:] for k in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, order) for i in range(j)]
    return order, [p for p, bit in zip(pairs, bits) if bit]


def graph6(order: int, edges) -> str:
    """graph6 text of a graph with fewer than 63 vertices."""
    adjacent = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in adjacent for j in range(1, order) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    chunks = (bits[k:k + 6] for k in range(0, len(bits), 6))
    return chr(63 + order) + "".join(
        chr(63 + int("".join("1" if b else "0" for b in c), 2))
        for c in chunks)


# ----------------------------------------------------------------------
# Correctness gates: each returns a list of problems, empty when correct
# ----------------------------------------------------------------------

def check_sweep(w: Sweep, call: dict) -> list[str]:
    if call["code"] != 0:
        return [f"exit code {call['code']}"]
    try:
        report = json.loads(call["stdout"])
    except ValueError:
        return ["sweep output is not JSON"]
    problems = []
    want = {str(n): c for n, c in w.counts.items() if n <= w.order}
    if report.get("counts") != want:
        problems.append(f"counts {report.get('counts')} != {want}")
    if report.get("verified") is not True:
        problems.append("not verified")
    lists = ("counterexamples", "divergences", "chain_violations") \
        if w.sweep == "conjecture3" else ("counterexamples",)
    for key in lists:
        if report.get(key) != []:
            problems.append(f"{key}: {report.get(key)!r}, expected []")
    return problems


def check_params(order: int, edges, values, call: dict) -> list[str]:
    from expodom.domination import is_dominating, \
        is_exponential_dominating, is_porous_exponential_dominating
    from expodom.graphs import from_edge_list

    if call["code"] != 0:
        return [f"exit code {call['code']}"]
    try:
        record = json.loads(call["stdout"])
        g = from_edge_list(order, edges)
        got = []
        problems = []
        for key, accept in (("gamma", is_dominating),
                            ("gamma_e", is_exponential_dominating),
                            ("gamma_e_star",
                             is_porous_exponential_dominating)):
            value, cert = record[key]["value"], record[key]["certificate"]
            got.append(value)
            if len(cert) != value or len(set(cert)) != value:
                problems.append(f"{key}: certificate size != {value}")
            if not accept(g, cert):
                problems.append(f"{key}: certificate {cert} rejected")
    except (ValueError, KeyError, TypeError) as exc:
        return [f"params output unusable: {exc!r}"]
    if record.get("graph6") != graph6(order, edges):
        problems.append("graph6 echo differs from the input")
    if not got[2] <= got[1] <= got[0]:
        problems.append(f"chain violated: {got}")
    if values is not None and tuple(got) != tuple(values):
        problems.append(f"values {got} != pinned {values}")
    return problems


# ----------------------------------------------------------------------
# Running children
# ----------------------------------------------------------------------

def launch(calls: list[list[str]], spans: Path | None = None):
    """Run one child; (launch time, its JSON reply or None, stderr)."""
    env = dict(os.environ, EXPODOM_CACHE="", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    job = json.dumps({"calls": calls, "spans": str(spans) if spans else None})
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD)], input=job,
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return started, None, "child timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return started, None, proc.stderr
    try:
        return started, json.loads(lines[-1]), proc.stderr
    except ValueError:
        return started, None, proc.stderr


@dataclass
class Iteration:
    """What one child process measured, and how many of its ops failed."""

    ops: int
    failed: int
    problems: list
    wall_s: float = 0.0
    setup_s: float = 0.0
    rate: float = 0.0
    rss_mb: float = 0.0
    latencies: tuple = ()
    slowdown: float = 1.0
    layers: dict | None = None


def _timings(it: Iteration, started: float, reply: dict, graphs: int) -> None:
    """Durations from the child's timestamps, at the reference speed."""
    samples = reply["speed"]

    def scaled(begin: float, end: float) -> float:
        return (end - begin) / speed.slowdown(samples, begin, end)

    end = reply["calls"][-1]["end"]
    ready = reply["ready"] if reply["ready"] is not None else started
    it.wall_s = scaled(started, end)
    it.setup_s = scaled(started, ready)
    it.rate = graphs / scaled(ready, end)
    it.rss_mb = reply["rss_kb"] / 1024
    it.latencies = tuple(scaled(c["start"], c["end"]) for c in reply["calls"])
    it.slowdown = speed.slowdown(samples, started, end)


def _layers(spans: Path | None, slowdown: float) -> dict | None:
    """Per-layer metrics of a traced child, times at the reference speed."""
    if spans is None:
        return None
    with open(spans, encoding="ascii") as fh:
        layers = tracing.summarize(json.load(fh))
    spans.unlink()
    layers = {name: (value / slowdown if unit == "s" else value, unit)
              for name, (value, unit) in layers.items()}
    layers["speed.slowdown"] = (slowdown, "x")
    return layers


def _size(path: Path | None) -> int:
    return path.stat().st_size if path is not None and path.exists() else 0


class SweepRunner:
    def __init__(self, w: Sweep, work: Path, seed: int):
        self.w = w
        self.work = work
        self.cache = work / "warm.tsv" if w.cache == "warm" else None

    def prepare(self) -> Iteration | None:
        """Fill the warm workload's cache with one untimed run."""
        if self.w.cache != "warm":
            return None
        return self.iteration(0, None, warm_up=True)

    def iteration(self, index: int, spans: Path | None,
                  warm_up: bool = False) -> Iteration:
        argv = self.w.argv()
        cache = self.cache
        if self.w.cache == "fresh":
            cache = self.work / f"fresh-{index}.tsv"
            cache.write_text("")
        if cache is not None:
            argv += ["--cache", str(cache)]
        before = _size(cache)
        started, reply, err = launch([argv], spans)
        after = _size(cache)
        if self.w.cache == "fresh":
            cache.unlink()
        if reply is None:
            return Iteration(1, 1, [f"child failed: {err.strip()[-500:]}"])
        problems = check_sweep(self.w, reply["calls"][0])
        if self.w.cache == "warm" and not warm_up and after != before:
            problems.append("the solver ran on a warm cache")
        if self.w.cache == "fresh" and after == before:
            problems.append("nothing was written to the cache")
        it = Iteration(1, 1 if problems else 0, problems)
        _timings(it, started, reply,
                 sum(c for n, c in self.w.counts.items() if n <= self.w.order))
        it.layers = _layers(spans, it.slowdown)
        if it.layers is not None:
            it.layers["cache.bytes_read"] = (before, "bytes")
            it.layers["cache.bytes_written"] = (after - before, "bytes")
        return it


class ParamsRunner:
    def __init__(self, w: Params, work: Path, seed: int):
        self.order = w.order
        self.pool = []
        for text, values in PARAMS_POOL:
            _, edges = graph6_edges(text)
            self.pool.append(([(u, v) for u, v in edges if v < w.order],
                              values if w.order == PARAMS_ORDER else None))
        self.rng = random.Random(seed)
        self.labelings = random.Random(LABELING_SEED)

    def prepare(self) -> None:
        return None

    def iteration(self, index: int, spans: Path | None) -> Iteration:
        relabeled = []
        for edges, _ in self.pool:
            perm = list(range(self.order))
            self.labelings.shuffle(perm)
            relabeled.append([(perm[u], perm[v]) for u, v in edges])
        picks = list(range(len(self.pool)))
        self.rng.shuffle(picks)
        inputs = [(k, relabeled[k]) for k in picks]
        calls = [["params", graph6(self.order, e)] for _, e in inputs]
        started, reply, err = launch(calls, spans)
        if reply is None:
            return Iteration(len(calls), len(calls),
                             [f"child failed: {err.strip()[-500:]}"])
        problems = []
        failed = 0
        for (k, edges), call in zip(inputs, reply["calls"]):
            bad = check_params(self.order, edges, self.pool[k][1], call)
            failed += bool(bad)
            problems += [f"pool graph {k}: {p}" for p in bad]
        it = Iteration(len(calls), failed, problems)
        _timings(it, started, reply, len(calls))
        it.layers = _layers(spans, it.slowdown)
        if it.layers is not None:
            it.layers["cache.bytes_read"] = (0, "bytes")
            it.layers["cache.bytes_written"] = (0, "bytes")
        return it


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------

def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(its: list[Iteration]) -> dict:
    ok = [it for it in its if it.wall_s > 0]
    if not ok:
        return {}
    latencies = [x for it in ok for x in it.latencies]
    values = {
        "wall_s": statistics.median(it.wall_s for it in ok),
        "setup_s": statistics.median(it.setup_s for it in ok),
        "graphs_per_s": statistics.median(it.rate for it in ok),
        "peak_rss_mb": statistics.median(it.rss_mb for it in ok),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": _p90(latencies),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(plain: list[Iteration], traced: list[Iteration],
              problems: list[str]) -> dict:
    runs = [it.layers for it in traced if it.layers is not None]
    if not runs:
        return {}
    out = {}
    for name, (_, unit) in runs[0].items():
        values = [r[name][0] for r in runs]
        if unit in EXACT_UNITS and len(set(values)) > 1:
            problems.append(f"{name} differs between traced runs: {values}")
        out[name] = {"value": statistics.median(values), "unit": unit}
    walls = [it.wall_s for it in plain if it.wall_s > 0]
    traced_walls = [it.wall_s for it in traced if it.wall_s > 0]
    if walls and traced_walls:
        out["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(walls),
            "unit": "s"}
    return out


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of a workload; the result object to print."""
    runner_type = SweepRunner if isinstance(workload, Sweep) else ParamsRunner
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir()
    try:
        runner = runner_type(workload, work, seed)
        warm = runner.prepare()
        plain: list[Iteration] = []
        traced: list[Iteration] = []
        deadline = time.monotonic() + seconds
        index = 0
        while True:
            want_trace = trace and len(traced) < len(plain)
            if want_trace:
                traced.append(runner.iteration(index,
                                               work / f"spans-{index}.json"))
            else:
                plain.append(runner.iteration(index, None))
            index += 1
            if trace:
                enough = min(len(plain), len(traced)) >= MIN_TRACED
            else:
                enough = len(plain) >= MIN_ITERATIONS
            if enough and time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK.rmdir()
    its = plain + traced + ([warm] if warm is not None else [])
    problems = [p for it in its for p in it.problems]
    metrics = per_layer(plain, traced, problems) if trace else end_to_end(plain)
    attempted = sum(it.ops for it in its)
    failed = sum(it.failed for it in its)
    return {"correct": failed == 0 and not problems and bool(metrics),
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "expodom" / "cli.py").is_file():
        print(f"bench: no expodom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    for problem in result.pop("problems"):
        print(f"bench: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:32} {m['value']:14.6f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
