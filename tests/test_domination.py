import hashlib
import math
import random
from fractions import Fraction

import pytest

from expodom.domination import (
    _first,
    compute_all,
    constrained_distance,
    domination_number,
    exponential_domination_number,
    is_dominating,
    is_exponential_dominating,
    is_porous_exponential_dominating,
    parameter_values,
    porous_exponential_domination_number,
    porous_weight_table,
    weight_table,
)
from expodom.enumeration import StreamMode
from expodom.graphs import Graph, decode_graph6, encode_graph6, \
    from_edge_list, relabel
from expodom.patterns import catalog
from conftest import cycle_graph, enumerated, path_graph, \
    random_connected_graph, random_graph

import oracles


def prism() -> Graph:
    return from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                              (5, 3), (0, 3), (1, 4), (2, 5)])


class TestConstrainedDistance:
    def test_path_hand_values(self):
        p7 = path_graph(7)
        d = {1, 5}
        assert constrained_distance(p7, d, 3, 1) == 2
        assert constrained_distance(p7, d, 3, 5) == 2
        assert constrained_distance(p7, d, 1, 1) == 0
        # distinct set vertices block each other entirely
        assert constrained_distance(p7, d, 1, 5) == math.inf

    def test_blocking(self):
        # 0-1-2-3 with d={0,2}: 3 can only reach 0 through 2
        p4 = path_graph(4)
        assert constrained_distance(p4, {0, 2}, 3, 0) == math.inf
        assert constrained_distance(p4, {0, 2}, 3, 2) == 1

    def test_rejects_vertex_outside_set(self):
        with pytest.raises(ValueError):
            constrained_distance(path_graph(3), {0}, 1, 2)

    def test_matches_path_enumeration_oracle(self, rng):
        # random_graph may be disconnected: some vertices no walk reaches
        for draw in [random_connected_graph] * 150 + [random_graph] * 150:
            g = draw(rng, rng.randrange(2, 7))
            k = rng.randrange(1, g.n + 1)
            d = set(rng.sample(range(g.n), k))
            u = rng.randrange(g.n)
            for v in d:
                assert constrained_distance(g, d, u, v) == \
                    oracles.dist_constrained_oracle(g, d, u, v)


class TestWeights:
    def test_path_weight_spot_values(self):
        p7 = path_graph(7)
        tbl = weight_table(p7, {1, 5})
        assert tbl[3] == 1
        assert tbl[1] == 2
        assert tbl[2] == Fraction(5, 4)
        far = weight_table(p7, {0})
        assert far[6] == Fraction(1, 32)

    def test_set_members_weigh_two(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, rng.randrange(2, 8))
            d = set(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
            u = rng.choice(sorted(d))
            assert weight_table(g, d)[u] == 2

    def test_neighbor_of_set_weighs_at_least_one(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, rng.randrange(3, 8))
            d = set(rng.sample(range(g.n), rng.randrange(1, g.n)))
            outside = [u for u in range(g.n) if u not in d
                       and any((g.adj[u] >> v) & 1 for v in d)]
            for u in outside:
                assert weight_table(g, d)[u] >= 1

    def test_matches_oracle(self, rng):
        # random_graph may be disconnected: some vertices no walk reaches
        for draw in [random_connected_graph] * 80 + [random_graph] * 80:
            g = draw(rng, rng.randrange(2, 7))
            d = set(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
            u = rng.randrange(g.n)
            assert weight_table(g, d)[u] == oracles.weight_oracle(g, d, u)
            assert porous_weight_table(g, d)[u] == \
                oracles.porous_weight_oracle(g, d, u)

    def test_porous_dominates_constrained(self, rng):
        # removing the blocking rule can only raise contributions
        for _ in range(60):
            g = random_connected_graph(rng, rng.randrange(2, 8))
            d = set(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
            w = weight_table(g, d)
            ws = porous_weight_table(g, d)
            for u in range(g.n):
                assert ws[u] >= w[u]

    @pytest.mark.parametrize("u", [-1, 4])
    @pytest.mark.parametrize("query", [
        lambda g, d, u: constrained_distance(g, d, u, 0),
    ], ids=["constrained_distance"])
    def test_rejects_vertex_outside_graph(self, query, u):
        # negative indices must not wrap round to the last vertices
        with pytest.raises(ValueError, match=f"vertex {u} outside"):
            query(path_graph(4), {0}, u)


class TestNonMonotonicity:
    def test_star_witness(self):
        # K_{1,4}: three leaves dominate; adding the center cuts the
        # fourth leaf's weight from 3/2 to 1 because the center now
        # blocks every leaf-to-leaf path.
        star = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        before = weight_table(star, {1, 2, 3})[4]
        after = weight_table(star, {0, 1, 2, 3})[4]
        assert before == Fraction(3, 2)
        assert after == 1
        assert after < before

    def test_porous_weight_is_monotone(self, rng):
        for _ in range(400):
            g = random_connected_graph(rng, rng.randrange(2, 7))
            d = set(rng.sample(range(g.n), rng.randrange(1, g.n)))
            extra = rng.choice([v for v in range(g.n) if v not in d])
            u = rng.randrange(g.n)
            assert porous_weight_table(g, d | {extra})[u] >= \
                porous_weight_table(g, d)[u]


class TestPredicates:
    def test_dominating(self):
        c6 = cycle_graph(6)
        assert is_dominating(c6, {0, 3})
        assert not is_dominating(c6, {0, 1})

    def test_exponential(self):
        p7 = path_graph(7)
        assert is_exponential_dominating(p7, {1, 5})
        assert not is_exponential_dominating(p7, {0, 1})
        assert is_porous_exponential_dominating(p7, {1, 5})


class TestSolvers:
    def test_gamma_matches_subset_oracle(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randrange(1, 8))
            value, cert = oracles.gamma_oracle(g)
            res = domination_number(g)
            assert res.value == value
            assert res.certificate == cert  # lexicographically smallest

    def test_gamma_e_matches_subset_oracle_small(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randrange(1, 6))
            assert exponential_domination_number(g).value == \
                oracles.gamma_e_oracle(g)

    def test_gamma_e_star_matches_subset_oracle_small(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randrange(1, 6))
            uncapped = porous_exponential_domination_number(g)
            assert uncapped.value == oracles.gamma_e_star_oracle(g)
            assert uncapped == compute_all(g)[2]

    def test_known_parameter_triples(self):
        assert parameter_values(Graph(1, (0,))) == (1, 1, 1)
        assert parameter_values(path_graph(2)) == (1, 1, 1)
        assert parameter_values(cycle_graph(6)) == (2, 2, 2)
        assert parameter_values(cycle_graph(7)) == (3, 2, 2)
        assert parameter_values(path_graph(7)) == (3, 2, 2)
        assert parameter_values(prism()) == (2, 2, 2)
        star = from_edge_list(7, [(0, i) for i in range(1, 7)])
        assert parameter_values(star) == (1, 1, 1)

    def test_path_certificates(self):
        gamma, gamma_e, gamma_e_star = compute_all(path_graph(7))
        assert gamma.value == 3 and gamma.certificate == (0, 2, 5)
        assert gamma_e.value == 2 and gamma_e.certificate == (1, 5)
        assert gamma_e_star.value == 2

    def test_certificates_are_feasible(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng, rng.randrange(1, 8))
            gamma, gamma_e, gamma_e_star = compute_all(g)
            assert len(gamma.certificate) == gamma.value
            assert is_dominating(g, set(gamma.certificate))
            assert len(gamma_e.certificate) == gamma_e.value
            assert is_exponential_dominating(g, set(gamma_e.certificate))
            assert len(gamma_e_star.certificate) == gamma_e_star.value
            assert is_porous_exponential_dominating(
                g, set(gamma_e_star.certificate))

    def test_chain_holds(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 9))
            a, b, c = parameter_values(g)
            assert c <= b <= a

    def test_component_additivity(self, rng):
        for _ in range(25):
            left = random_connected_graph(rng, rng.randrange(1, 6))
            right = random_connected_graph(rng, rng.randrange(1, 6))
            n = left.n + right.n
            edges = list(left.edges()) + [(u + left.n, v + left.n)
                                          for u, v in right.edges()]
            union = from_edge_list(n, edges)
            la, lb, lc = parameter_values(left)
            ra, rb, rc = parameter_values(right)
            assert parameter_values(union) == (la + ra, lb + rb, lc + rc)

    def test_values_invariant_under_relabeling(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, rng.randrange(2, 8))
            order = list(range(g.n))
            rng.shuffle(order)
            assert parameter_values(relabel(g, order)) == parameter_values(g)


def _solved(results) -> list[tuple[int, tuple[int, ...]]]:
    return [(r.value, r.certificate) for r in results]


#: Every tree to order 11 with gamma_e > gamma_e_star, so the porous walk
#: goes on past the level of gamma_e_star's certificate.  No connected
#: graph to order 7 has it.
PAST_POROUS = ("H?CaC?N", "I??G`@?`w", "I??G`B?@w", "J???GOO?~?_",
               "J???GOOGEF_", "J???GOOWCF_", "J???GOoo?F_", "J??G`@?_?N_")
#: The smallest trees whose gamma_e_star certificate, as labeled here, is
#: not exponential dominating although gamma_e = gamma_e_star: the walk
#: goes on from that certificate to a later set at the same level.
REWALKED = ("G?CaC[", "H??G`BF", "H??GbAF")


class TestLexWalk:
    """The pruned walk against every k-subset in `combinations` order."""

    PREDICATES = (is_dominating, is_exponential_dominating,
                  is_porous_exponential_dominating)

    def check(self, g: Graph) -> None:
        reference = [oracles.lex_first_oracle(g, accepts)
                     for accepts in self.PREDICATES]
        assert _solved(compute_all(g)) == reference, encode_graph6(g)
        uncapped = [domination_number(g), exponential_domination_number(g),
                    porous_exponential_domination_number(g)]
        assert _solved(uncapped) == reference, encode_graph6(g)
        assert parameter_values(g) == tuple(k for k, _ in reference), \
            encode_graph6(g)

    def check_relabeled(self, g: Graph, rng: random.Random) -> None:
        # the cuts depend on the vertex order: the canonical one and another
        self.check(g)
        order = list(range(g.n))
        rng.shuffle(order)
        self.check(relabel(g, order))

    def test_connected_graphs_to_order_7(self, rng):
        for n in range(1, 8):
            for _, g in enumerated(StreamMode.CONNECTED)(n):
                self.check_relabeled(g, rng)

    def test_trees_to_order_10(self, rng):
        for n in range(1, 11):
            for _, g in enumerated(StreamMode.TREES)(n):
                self.check_relabeled(g, rng)

    @pytest.mark.parametrize("code", PAST_POROUS + REWALKED)
    def test_exact_walk_after_porous(self, code, rng):
        g = decode_graph6(code)
        gamma_e, gamma_e_star = compute_all(g)[1:]
        if code in PAST_POROUS:
            assert gamma_e.value > gamma_e_star.value
        else:
            assert gamma_e.value == gamma_e_star.value
            assert gamma_e.certificate != gamma_e_star.certificate
        self.check(g)
        for _ in range(5):
            order = list(range(g.n))
            rng.shuffle(order)
            self.check(relabel(g, order))

    def test_values_match_compute_all(self):
        for mode, top in ((StreamMode.CONNECTED, 7), (StreamMode.TREES, 11)):
            for n in range(1, top + 1):
                for _, g in enumerated(mode)(n):
                    assert parameter_values(g) == tuple(
                        r.value for r in compute_all(g)), encode_graph6(g)

    def test_rejecting_walk_raises(self):
        # the whole vertex set is always accepted, so a walk that rejects
        # every k up to the order is a bug: it must fail, not loop
        asked = []
        with pytest.raises(RuntimeError):
            _first(lambda k: asked.append(k) or False, [], 4)
        assert asked == [0, 1, 2, 3, 4]

    def test_empty_graph(self):
        empty = Graph(0, ())
        assert _solved(compute_all(empty)) == [(0, ())] * 3
        self.check(empty)

    def test_triples_digest(self):
        # compute_all over connected n <= 7 and trees n <= 11 in stream
        # order, one line per graph: its code, then value:certificate per
        # parameter.  Pinned from the combinations-loop solver
        digest = hashlib.sha256()
        count = 0
        for mode, top in ((StreamMode.CONNECTED, 7), (StreamMode.TREES, 11)):
            for n in range(1, top + 1):
                for _, g in enumerated(mode)(n):
                    line = " ".join(
                        [encode_graph6(g)]
                        + [f"{value}:{','.join(map(str, cert))}"
                           for value, cert in _solved(compute_all(g))])
                    digest.update(line.encode() + b"\n")
                    count += 1
        assert count == 1432
        assert digest.hexdigest() == (
            "c97ce7610f8bde8fc3826fbe758f2afc87fb315d63d6327a0c6c95691a76ad24")

    @pytest.mark.parametrize("graphs, count, expected", [
        (lambda: [g for _, g in enumerated(StreamMode.CONNECTED)(8)],
         11117,
         "7c4b5551e7be6a51f49d22a0248e3667d1f0c6699ed7d1373c156265764ce392"),
        (lambda: _random_order_20(random.Random(20)), 200,
         "4527c4114ce9cdf3a1d5744dba3af8b0fafb50e919f401eee21021a4b5b70924"),
    ], ids=["connected8", "gnp20"])
    def test_gamma_digest(self, graphs, count, expected):
        # domination_number over graphs beyond the subset oracles' reach,
        # one line per graph: its code, then value:certificate.  Pinned
        # from the branch and bound that preceded the walk
        digest = hashlib.sha256()
        seen = 0
        for g in graphs():
            res = domination_number(g)
            line = (f"{encode_graph6(g)} {res.value}:"
                    f"{','.join(map(str, res.certificate))}")
            digest.update(line.encode() + b"\n")
            seen += 1
        assert seen == count
        assert digest.hexdigest() == expected


def _near_tree(rng: random.Random, n: int) -> Graph:
    """A random tree on n vertices plus 1-3 edges outside it."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    missing = [(i, j) for j in range(n) for i in range(j)
               if (i, j) not in edges]
    edges.update(rng.sample(missing, rng.randint(1, 3)))
    return from_edge_list(n, sorted(edges))


class TestFrozenSolver:
    def test_matches_frozen_reference(self, rng):
        # the walks against their form before the packing cut, the single
        # porous walk and the layer-mask set-up: the same values and the
        # same certificates for all three parameters
        corpus = [g for n in range(1, 8)
                  for _, g in enumerated(StreamMode.CONNECTED)(n)]
        corpus += [t for n in range(1, 13)
                   for _, t in enumerated(StreamMode.TREES)(n)]
        corpus += [p.graph for p in catalog()]
        for n in range(9, 17):
            corpus += [random_graph(rng, n, p) for p in (0.15, 0.5, 0.85)]
        for n in range(13, 21):
            for _ in range(2):
                g = _near_tree(rng, n)
                order = list(range(n))
                rng.shuffle(order)
                corpus += [g, relabel(g, order)]
        for g in corpus:
            assert compute_all(g) == oracles.solver_oracle(g), \
                encode_graph6(g)


def _random_order_20(rng: random.Random):
    # G(20, p), 50 graphs per p, in their generated labeling
    for p in (0.1, 0.15, 0.25, 0.4):
        for _ in range(50):
            yield random_graph(rng, 20, p)
