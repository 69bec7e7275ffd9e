"""End-to-end acceptance gates.

One test per numbered criterion; each prints a single [ACCEPTANCE] line so
a -v run shows one pass/fail verdict per criterion.  These intentionally
re-verify from independent angles (fresh oracles, networkx, frozen
constants) rather than trusting the unit suite.
"""

import random
import types
from contextlib import contextmanager
from fractions import Fraction

import networkx as nx
import pytest

from expodom.domination import (
    constrained_distance,
    domination_number,
    exponential_domination_number,
    parameter_values,
    porous_weight_table,
    weight_table,
)
from expodom.enumeration import StreamMode
from expodom.graphs import (
    decode_graph6,
    encode_graph6,
    from_edge_list,
    is_connected,
)
from expodom.hereditary import (
    SWEEPS,
    ClassKind,
    ParamStore,
    in_class,
    is_minimal_forbidden,
)
from expodom.patterns import OBSTRUCTION_NAMES, catalog, find_induced, pattern
from conftest import cycle_graph, enumerated, path_graph, \
    random_connected_graph, random_graph

import oracles

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
               10: 106, 11: 235, 12: 551}
THEOREM1_STREAM_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 23, 7: 57,
                          8: 184, 9: 665}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] criterion {number}: FAIL - {description}")
        raise
    print(f"\n[ACCEPTANCE] criterion {number}: PASS - {description}")


def to_networkx(g):
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    return gx


def test_criterion_1_inequality_chain_exhaustive(store):
    with criterion(1, "parameter chain on all connected graphs n <= 8"):
        for n in range(1, 9):
            count = 0
            for _, g in enumerated(StreamMode.CONNECTED)(n):
                count += 1
                gamma, gamma_e, gamma_e_star = store.params(g)
                assert gamma_e_star <= gamma_e <= gamma, encode_graph6(g)
            assert count == CONNECTED_COUNTS[n], n
        for n in range(1, 7):
            assert oracles.class_count_oracle(n) == CONNECTED_COUNTS[n], n


def test_criterion_2_restricted_equivalence_sweep(store):
    with criterion(2, "membership equals obstruction-freeness, "
                      "restricted hosts n <= 9"):
        report = SWEEPS["theorem1"].run(max_n=9, store=store)
        assert report.verified
        assert report.counterexamples == []
        assert report.counts == THEOREM1_STREAM_COUNTS


def test_criterion_3_tree_equivalence_sweep(store):
    with criterion(3, "tree membership equals path/caterpillar-freeness, "
                      "n <= 12"):
        report = SWEEPS["corollary2"].run(max_n=12, store=store)
        assert report.verified
        assert report.counterexamples == []
        assert report.counts == TREE_COUNTS


def test_criterion_4_obstruction_catalog_self_check(store, monkeypatch):
    with criterion(4, "catalog graphs have parameters (3, 2), gate runs at "
                      "sweep startup, and every entry is minimal"):
        for name in OBSTRUCTION_NAMES:
            g = pattern(name).graph
            gamma = domination_number(g).value
            gamma_e = exponential_domination_number(g).value
            assert (gamma, gamma_e) == (3, 2), name

        # the gate must actually fire: corrupt the catalog and watch a
        # sweep refuse to start
        fake = types.SimpleNamespace(graph=cycle_graph(6))
        with monkeypatch.context() as mp:
            mp.setattr("expodom.patterns.pattern", lambda name: fake)
            with pytest.raises(AssertionError):
                SWEEPS["corollary2"].run(max_n=3, store=ParamStore())

        not_minimal = []
        for name in OBSTRUCTION_NAMES:
            g = pattern(name).graph
            if not is_minimal_forbidden(g, ClassKind.EXPONENTIAL, store):
                witness = in_class(g, ClassKind.EXPONENTIAL, store).witness
                not_minimal.append(f"{name} (proper induced violator "
                                   f"{witness})")
        assert not not_minimal, \
            "catalog entries that are not minimal violators: " + \
            "; ".join(not_minimal)


def test_criterion_5_spot_values_and_weight_laws(store):
    with criterion(5, "known parameter values and exact weight laws on "
                      "randomized instances"):
        c6 = cycle_graph(6)
        assert domination_number(c6).value == 2
        assert exponential_domination_number(c6).value == 2
        prism = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                   (5, 3), (0, 3), (1, 4), (2, 5)])
        assert domination_number(prism).value == 2
        assert exponential_domination_number(prism).value == 2

        rng = random.Random(0xACCE5501)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randrange(2, 9))
            d = set(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
            u = rng.choice(sorted(d))
            assert weight_table(g, d)[u] == 2
            for v in range(g.n):
                if v not in d and any((g.adj[v] >> x) & 1 for x in d):
                    assert weight_table(g, d)[v] >= 1


def test_criterion_6_solver_and_matcher_oracle_equivalence(store):
    with criterion(6, "solvers and matcher agree with brute-force "
                      "references"):
        for n in range(1, 8):
            for _, g in enumerated(StreamMode.CONNECTED)(n):
                assert domination_number(g).value == \
                    oracles.gamma_oracle(g)[0], encode_graph6(g)

        rng = random.Random(0xACCE5506)
        pairs = 0
        for n in range(1, 7):
            for _, g in enumerated(StreamMode.CONNECTED)(n):
                for _ in range(7):
                    d = set(rng.sample(range(g.n),
                                       rng.randrange(1, g.n + 1)))
                    u = rng.randrange(g.n)
                    for v in d:
                        assert constrained_distance(g, d, u, v) == \
                            oracles.dist_constrained_oracle(g, d, u, v)
                    assert weight_table(g, d)[u] == \
                        oracles.weight_oracle(g, d, u)
                    pairs += 1
        assert pairs >= 1000

        for n in range(1, 7):
            for _, g in enumerated(StreamMode.CONNECTED)(n):
                for p in catalog():
                    assert (find_induced(g, p.graph) is not None) == \
                        (oracles.find_induced_oracle(g, p.graph)
                         is not None), (encode_graph6(g), p.name)

        # orders 7 and 8 against the k-subset oracle, one pass per host and
        # pattern order; at order 7 networkx's GraphMatcher checks that
        # oracle too
        by_order: dict[int, list] = {}
        for p in catalog():
            by_order.setdefault(p.graph.n, []).append(
                (p, to_networkx(p.graph)))
        for n in (7, 8):
            for _, g in enumerated(StreamMode.CONNECTED)(n):
                gx = to_networkx(g)
                for group in by_order.values():
                    wants = oracles.induced_nx_oracle(
                        gx, [px for _, px in group])
                    for (p, px), want in zip(group, wants):
                        assert (find_induced(g, p.graph) is not None) == \
                            want, (encode_graph6(g), p.name)
                        if n == 7:
                            matcher = nx.algorithms.isomorphism.GraphMatcher(
                                gx, px)
                            assert matcher.subgraph_is_isomorphic() == \
                                want, (encode_graph6(g), p.name)


def test_criterion_7_weight_monotonicity_contrast():
    with criterion(7, "blocking weight can drop when the set grows; porous "
                      "weight never does"):
        star = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        before = weight_table(star, {1, 2, 3})[4]
        after = weight_table(star, {0, 1, 2, 3})[4]
        assert before == Fraction(3, 2) and after == 1
        assert after < before

        rng = random.Random(0xACCE5507)
        for _ in range(10000):
            g = random_connected_graph(rng, rng.randrange(2, 7))
            d = set(rng.sample(range(g.n), rng.randrange(1, g.n)))
            extra = rng.choice([v for v in range(g.n) if v not in d])
            u = rng.randrange(g.n)
            assert porous_weight_table(g, d | {extra})[u] >= \
                porous_weight_table(g, d)[u]


def test_criterion_8_class_comparison_probe(store):
    with criterion(8, "class-comparison probe n <= 8 is deterministic with "
                      "no chain violations"):
        first = SWEEPS["conjecture3"].run(max_n=8, store=store)
        second = SWEEPS["conjecture3"].run(max_n=8, store=store)
        assert first.to_json(include_timing=False) == \
            second.to_json(include_timing=False)
        assert first.counts == CONNECTED_COUNTS
        assert first.extras["chain_violations"] == []
        assert first.extras["divergences"] == []
        assert first.verified


def test_criterion_9_graph6_round_trip():
    with criterion(9, "graph6 round-trip identity, enumerated and random"):
        for n in range(1, 9):
            for _, g in enumerated(StreamMode.CONNECTED)(n):
                assert decode_graph6(encode_graph6(g)) == g
        rng = random.Random(0xACCE5509)
        for _ in range(1000):
            g = random_graph(rng, rng.randrange(1, 65))
            assert decode_graph6(encode_graph6(g)) == g
