import math
import random
from fractions import Fraction

import pytest

from expodom.domination import (
    compute_all,
    constrained_distance,
    domination_number,
    exponential_domination_number,
    is_dominating,
    is_exponential_dominating,
    is_porous_exponential_dominating,
    parameter_values,
    porous_exponential_domination_number,
    porous_weight,
    porous_weight_table,
    weight,
    weight_table,
)
from expodom.graphs import Graph, from_edge_list, relabel
from conftest import cycle_graph, path_graph, random_connected_graph, \
    random_graph

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
        for _ in range(150):
            g = random_connected_graph(rng, rng.randrange(2, 7))
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
            assert weight(g, d, u) == 2

    def test_neighbor_of_set_weighs_at_least_one(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, rng.randrange(3, 8))
            d = set(rng.sample(range(g.n), rng.randrange(1, g.n)))
            outside = [u for u in range(g.n) if u not in d
                       and any((g.adj[u] >> v) & 1 for v in d)]
            for u in outside:
                assert weight(g, d, u) >= 1

    def test_matches_oracle(self, rng):
        for _ in range(80):
            g = random_connected_graph(rng, rng.randrange(2, 7))
            d = set(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
            u = rng.randrange(g.n)
            assert weight(g, d, u) == oracles.weight_oracle(g, d, u)
            assert porous_weight(g, d, u) == \
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


class TestNonMonotonicity:
    def test_star_witness(self):
        # K_{1,4}: three leaves dominate; adding the center cuts the
        # fourth leaf's weight from 3/2 to 1 because the center now
        # blocks every leaf-to-leaf path.
        star = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        before = weight(star, {1, 2, 3}, 4)
        after = weight(star, {0, 1, 2, 3}, 4)
        assert before == Fraction(3, 2)
        assert after == 1
        assert after < before

    def test_porous_weight_is_monotone(self, rng):
        for _ in range(400):
            g = random_connected_graph(rng, rng.randrange(2, 7))
            d = set(rng.sample(range(g.n), rng.randrange(1, g.n)))
            extra = rng.choice([v for v in range(g.n) if v not in d])
            u = rng.randrange(g.n)
            assert porous_weight(g, d | {extra}, u) >= porous_weight(g, d, u)


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
