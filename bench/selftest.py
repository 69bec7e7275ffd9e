"""Self-test of the benchmark harness, at orders small enough to take seconds.

    python3 bench/selftest.py

Checks that every workload passes its correctness gate on the real program,
that a corrupted frozen count or a corrupted certificate makes `failed`
non-zero, that two traced runs report the same call counts, and how a
duration is scaled by the sampled machine speed.
"""

from __future__ import annotations

import json
import sys
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import speed  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = 5
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    return replace(run.WORKLOADS[name], order=TINY)


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def exact(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in run.EXACT_UNITS}


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_workload_passes_the_gate(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                result = run.run(tiny(name), seed=1, seconds=0, trace=False)
                self.assertTrue(result["correct"], result["problems"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"],
                                        run.MIN_ITERATIONS)
                self.assertEqual(units(result), declared("end_to_end"))
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_corrupted_count_fails(self):
        w = tiny("trees11")
        counts = {**w.counts, TINY: w.counts[TINY] + 1}
        result = run.run(replace(w, counts=counts), seed=1, seconds=0,
                         trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_corrupted_certificate_fails(self):
        real_launch = run.launch

        def drop_a_dominating_vertex(calls, spans=None):
            started, reply, err = real_launch(calls, spans)
            record = json.loads(reply["calls"][0]["stdout"])
            record["gamma"]["certificate"].pop()
            reply["calls"][0]["stdout"] = json.dumps(record)
            return started, reply, err

        with mock.patch.object(run, "launch", drop_a_dominating_vertex):
            result = run.run(tiny("params20"), seed=1, seconds=0, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], run.MIN_ITERATIONS)

    def test_pinned_values_are_checked(self):
        order, edges = run.graph6_edges(run.PARAMS_POOL[0][0])
        call = {"code": 0, "stdout": json.dumps({
            "graph6": run.PARAMS_POOL[0][0],
            "gamma": {"value": 7, "certificate": list(range(7))},
            "gamma_e": {"value": 4, "certificate": [0, 1, 2, 3]},
            "gamma_e_star": {"value": 4, "certificate": [0, 1, 2, 3]}})}
        problems = run.check_params(order, edges, run.PARAMS_POOL[0][1], call)
        self.assertTrue(any("pinned" in p for p in problems), problems)

    def test_slowdown_is_the_median_inside_the_interval(self):
        ref = speed.REF_PROBE_S
        samples = [(0.0, 2 * ref), (1.0, 3 * ref), (2.0, 5 * ref),
                   (3.0, 9 * ref)]
        want = 4.0 ** speed.ELASTICITY
        self.assertAlmostEqual(speed.slowdown(samples, 0.5, 2.5), want)
        self.assertAlmostEqual(speed.slowdown(samples, 5.0, 6.0), want)

    def test_traced_call_counts_repeat(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                first = run.run(tiny(name), seed=1, seconds=0, trace=True)
                second = run.run(tiny(name), seed=1, seconds=0, trace=True)
                self.assertTrue(first["correct"], first["problems"])
                self.assertTrue(second["correct"], second["problems"])
                self.assertEqual(exact(first), exact(second))
                self.assertEqual(units(first), declared("per_layer"))


if __name__ == "__main__":
    unittest.main()
