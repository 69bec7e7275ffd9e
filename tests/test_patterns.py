import hashlib
import math
import random
from functools import cache

import networkx as nx
import pytest

from expodom.enumeration import StreamMode, _augment, connected_graphs, \
    levels, trees
from expodom.graphs import canonical_code, from_edge_list, girth, \
    encode_graph6, relabel, without_vertex
from expodom.patterns import (
    OBSTRUCTION_NAMES,
    RESTRICTION_NAMES,
    TRIANGLE_RESTRICTION_NAMES,
    _degree_masks,
    _extend,
    _meetings,
    catalog,
    extension_table,
    find_any_pattern,
    find_induced,
    is_free,
    is_free_with_new_vertex,
    pattern,
    pattern_names,
    verify_catalog,
)
from conftest import cycle_graph, path_graph, random_connected_graph, \
    random_graph

import oracles


class TestCatalog:
    def test_names_and_shapes(self):
        sizes = {p.name: (p.graph.n, sum(1 for _ in p.graph.edges())) for p in catalog()}
        assert sizes["P7"] == (7, 6)
        assert sizes["C7"] == (7, 7)
        assert sizes["F1"] == (6, 5)
        assert sizes["F2"] == (7, 7)
        assert sizes["F3"] == (7, 8)
        assert sizes["F4"] == (7, 8)
        assert sizes["F5"] == (7, 8)
        assert sizes["K3"] == (3, 3)
        assert sizes["K4"] == (4, 6)
        assert sizes["DIAMOND"] == (4, 5)
        assert sizes["BULL"] == (5, 5)
        assert sizes["K23"] == (5, 6)
        assert sizes["P2xP3"] == (6, 7)
        assert sizes["P2xC3"] == (6, 9)

    def test_name_groups(self):
        assert set(OBSTRUCTION_NAMES) == \
            {"P7", "C7", "F1", "F2", "F3", "F4", "F5"}
        assert set(TRIANGLE_RESTRICTION_NAMES) <= set(pattern_names())
        assert len(pattern_names()) == len(set(pattern_names()))

    def test_girths(self):
        expected = {
            "P7": math.inf, "F1": math.inf,
            "F2": 4, "F3": 4, "F4": 4, "F5": 4,
            "C7": 7,
            "K3": 3, "K4": 3, "DIAMOND": 3, "BULL": 3, "P2xC3": 3,
            "K23": 4, "P2xP3": 4,
        }
        for name, want in expected.items():
            assert girth(pattern(name).graph) == want, name

    def test_self_check_passes(self):
        verify_catalog()

    def test_catalog_graphs_connected(self):
        for p in catalog():
            g = p.graph
            seen = {0}
            frontier = [0]
            while frontier:
                u = frontier.pop()
                for v in range(g.n):
                    if (g.adj[u] >> v) & 1 and v not in seen:
                        seen.add(v)
                        frontier.append(v)
            assert len(seen) == g.n, p.name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            pattern("F9")
        with pytest.raises(ValueError):
            find_any_pattern(path_graph(8), ["F1", "NOSUCH"])


class TestFindInduced:
    def test_path_in_longer_path(self):
        hit = find_induced(path_graph(8), pattern("P7").graph)
        assert hit is not None
        assert len(hit) == 7

    def test_no_induced_cycle_in_larger_cycle(self):
        # C7 sits in C8 only as a subgraph, never induced
        assert find_induced(cycle_graph(8), pattern("C7").graph) is None

    def test_caterpillar_inside_cycle_with_tail(self):
        hit = find_induced(pattern("F5").graph, pattern("F1").graph)
        assert hit is not None

    def test_caterpillar_in_cycle_with_tail_is_the_only_containment(self):
        # pairwise check over the equality obstructions: exactly one
        # proper induced containment exists among them
        contained = set()
        for a in OBSTRUCTION_NAMES:
            for b in OBSTRUCTION_NAMES:
                if a == b:
                    continue
                if find_induced(pattern(b).graph, pattern(a).graph):
                    contained.add((a, b))
        assert contained == {("F1", "F5")}

    def test_triangle_hosts(self):
        k4 = pattern("K4").graph
        assert find_induced(k4, pattern("K3").graph) is not None
        assert find_induced(pattern("DIAMOND").graph,
                            pattern("K3").graph) is not None
        assert find_induced(pattern("BULL").graph,
                            pattern("K3").graph) is not None
        # K4 minus an edge is the diamond, but K4 itself has no induced one
        assert find_induced(k4, pattern("DIAMOND").graph) is None

    def test_embedding_is_induced(self, rng):
        for _ in range(80):
            host = random_graph(rng, rng.randrange(1, 8))
            for p in catalog():
                hit = find_induced(host, p.graph)
                if hit is None:
                    continue
                assert len(set(hit)) == p.graph.n
                for i in range(p.graph.n):
                    for j in range(i + 1, p.graph.n):
                        want = (p.graph.adj[i] >> j) & 1
                        got = (host.adj[hit[i]] >> hit[j]) & 1
                        assert want == got

    def test_matches_permutation_oracle(self, rng):
        small = [p for p in catalog() if p.graph.n <= 5]
        for _ in range(60):
            host = random_graph(rng, rng.randrange(1, 7))
            for p in small:
                assert (find_induced(host, p.graph) is not None) == \
                    (oracles.find_induced_oracle(host, p.graph) is not None)

    def test_embeddings_pinned(self):
        # the first embedding of every catalog pattern in every connected
        # graph of order <= 7; digest measured on the per-pair matcher that
        # the candidate-mask search replaced
        digest = hashlib.sha256()
        calls = 0
        for n in range(1, 8):
            for g in connected_graphs(n):
                code = encode_graph6(g)
                for p in catalog():
                    digest.update(
                        f"{code} {p.name} - {find_induced(g, p)}\n".encode())
                    calls += 1
        assert calls == 13944
        assert digest.hexdigest() == ("0c7bf4de321a6f88b359a2d51d866dde"
                                      "5b068dc77f8ccc41c93706a03c178e34")

    def test_ad_hoc_graph_patterns_match_oracle(self):
        # patterns outside the catalog get a plan per call
        rng = random.Random(6)
        other = random_connected_graph(rng, 6)
        hosts = [random_graph(rng, 7, 0.5) for _ in range(300)]
        hosts += [g for n in range(1, 7) for g in connected_graphs(n)]
        for p in (cycle_graph(5), other):
            for host in hosts:
                hit = find_induced(host, p)
                assert (hit is None) == \
                    (oracles.find_induced_oracle(host, p) is None), \
                    (encode_graph6(host), encode_graph6(p))
                if hit is not None:
                    assert all(((host.adj[hit[i]] >> hit[j]) & 1)
                               == ((p.adj[i] >> j) & 1)
                               for i in range(p.n) for j in range(p.n)
                               if i != j)
                    assert len(set(hit)) == p.n

    def test_matches_networkx_on_medium_hosts(self, rng):
        for _ in range(25):
            host = random_graph(rng, rng.randrange(6, 9))
            hx = nx.Graph()
            hx.add_nodes_from(range(host.n))
            hx.add_edges_from(host.edges())
            for p in catalog():
                px = nx.Graph()
                px.add_nodes_from(range(p.graph.n))
                px.add_edges_from(p.graph.edges())
                gm = nx.algorithms.isomorphism.GraphMatcher(hx, px)
                assert (find_induced(host, p.graph) is not None) == \
                    gm.subgraph_is_isomorphic(), (encode_graph6(host), p.name)


class TestFreeness:
    def test_is_free_basic(self):
        assert is_free(cycle_graph(6), OBSTRUCTION_NAMES)
        assert not is_free(path_graph(7), OBSTRUCTION_NAMES)
        assert not is_free(path_graph(9), ["P7"])
        assert is_free(cycle_graph(5), ["K3"])

    def test_find_any_pattern_reports_first_hit(self):
        hit = find_any_pattern(path_graph(7), ["C7", "P7"])
        assert hit is not None
        name, embedding = hit
        assert name == "P7"
        assert list(embedding) == [0, 1, 2, 3, 4, 5, 6]

    def test_free_of_union_is_conjunction(self, rng):
        names = list(OBSTRUCTION_NAMES)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 8))
            assert is_free(g, names) == \
                all(is_free(g, [nm]) for nm in names)

    def test_incremental_freeness_matches_full_check(self, rng):
        # add a vertex anywhere in a free graph; the check through that
        # vertex must agree with a from-scratch check
        names = ["K3", "K23"]
        for _ in range(40):
            g = random_graph(rng, rng.randrange(2, 8))
            v = rng.randrange(g.n)
            if not is_free(without_vertex(g, v), names):
                continue
            assert is_free_with_new_vertex(g, names, v) == \
                is_free(g, names)

    def test_freeness_through_vertex_matches_oracle(self, rng):
        # with no premise on the rest of the graph
        small = [p for p in catalog() if p.graph.n <= 5]
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 7))
            v = rng.randrange(g.n)
            for p in small:
                hit = oracles.find_induced_oracle(g, p.graph, through=v)
                assert is_free_with_new_vertex(g, [p.name], v) == \
                    (hit is None), (encode_graph6(g), v, p.name)

    def test_new_vertex_outside_graph_rejected(self):
        g = from_edge_list(4, [(1, 2), (2, 3), (1, 3), (0, 1)])
        for v in (-1, g.n):
            with pytest.raises(ValueError, match="vertex v outside the graph"):
                is_free_with_new_vertex(g, ["K3"], v)


class TestExtensionTable:
    @staticmethod
    def check(p, parent_orders, contains):
        # the blocked masks of each parent of p's own free stream are
        # exactly the masks whose child contains p; p is connected, so a
        # new isolated vertex completes nothing.  A table with reach 1
        # agrees on the single-vertex masks.
        source = levels(StreamMode.CONNECTED, [p.name], max(parent_orders))
        children = blocked = 0
        for k in parent_orders:
            for _, parent in source(k):
                table = extension_table(parent, [p.name], k)
                assert 0 <= table < 1 << (1 << k) and not table & 1
                leaves = extension_table(parent, [p.name], 1)
                for mask in range(1, 1 << k):
                    child = _augment(parent, mask)
                    hit = table >> mask & 1
                    assert hit == contains(child, p.graph), \
                        (p.name, encode_graph6(parent), mask)
                    if mask.bit_count() == 1:
                        assert leaves >> mask & 1 == hit
                    children += 1
                    blocked += hit
        return children, blocked

    def test_matches_oracle_to_order_5(self):
        children = blocked = 0
        for p in catalog():
            c, b = self.check(p, range(1, 6), lambda child, pg:
                              oracles.find_induced_oracle(child, pg)
                              is not None)
            children += c
            blocked += b
        assert (children, blocked) == (9645, 594)

    def test_matches_find_induced_at_order_6(self):
        children = blocked = 0
        for p in catalog():
            c, b = self.check(p, [6], lambda child, pg:
                              find_induced(child, pg) is not None)
            children += c
            blocked += b
        assert (children, blocked) == (84798, 6708)


@cache
def symmetry_hosts(max_connected: int, max_tree: int,
                   max_random: int) -> tuple:
    """The connected graphs and the trees to the given orders, and seeded
    G(n, p) graphs to order `max_random`."""
    rng = random.Random(28)
    hosts = [g for n in range(1, max_connected + 1)
             for g in connected_graphs(n)]
    hosts += [g for n in range(1, max_tree + 1) for g in trees(n)]
    hosts += [random_graph(rng, n, p) for n in range(1, max_random + 1)
              for p in (0.2, 0.35, 0.5) for _ in range(4)]
    return tuple(hosts)


#: every parent of the connected levels to order 7 and of the tree levels
#: to order 12, and G(n, p) graphs to order 12
PARENTS = (6, 11, 12)


class CountingSet(set):
    """A set that counts every `add`, repeated or not."""
    adds = 0

    def add(self, item):
        self.adds += 1
        super().add(item)


class TestSymmetryBreaking:
    """Forms go one per vertex orbit and plans are broken by the pattern's
    automorphisms; every (S, T) set, count and freeness verdict stays."""

    NAME_SETS = (RESTRICTION_NAMES, TRIANGLE_RESTRICTION_NAMES, ("P7", "F1"),
                 OBSTRUCTION_NAMES) + tuple((n,) for n in pattern_names())

    def test_one_form_per_vertex_orbit(self):
        assert {p.name: len(p._forms) for p in catalog()} == {
            "K3": 1, "K4": 1, "DIAMOND": 2, "BULL": 3, "K23": 2,
            "P2xP3": 2, "P7": 4, "C7": 1, "F1": 4, "F2": 6, "F3": 4,
            "F4": 3, "F5": 5, "P2xC3": 1}

    def test_meetings_match_frozen_reference(self):
        # the reference runs once per name at full reach: a form's pairs
        # have |T| = q's degree, so its pairs at reach r are those with
        # |T| <= r, and a name set's are the union of its names'
        rng = random.Random(2028)
        # reach 4 is the largest degree of a catalog vertex: it takes every
        # form
        reaches = range(1 + max(max(p.graph.degree(v)
                                    for v in range(p.graph.n))
                                for p in catalog()))
        for host in symmetry_hosts(*PARENTS):
            noise = rng.getrandbits(host.n) & rng.getrandbits(host.n)
            for skip in (0, 1 << rng.randrange(host.n) | noise):
                full = {name: oracles.meetings_oracle(host, [name], skip,
                                                      reaches[-1])
                        for name in pattern_names()}
                for names in self.NAME_SETS:
                    want = set().union(*(full[name] for name in names))
                    for reach in reaches:
                        assert _meetings(host, names, skip, reach) == \
                            {(s, t) for s, t in want
                             if t.bit_count() <= reach}, \
                            (encode_graph6(host), names, skip, reach)

    def test_each_pair_completes_once(self):
        # embeddings of H-q with one (S, T) differ by an automorphism that
        # fixes q, and those of forms in different orbits differ in (S, T)
        pairs = 0
        for host in symmetry_hosts(*PARENTS):
            at_least = _degree_masks(host)
            for p in catalog():
                out = CountingSet()
                for plan, near in p._forms:
                    if len(plan) <= host.n:
                        _extend(plan, host.adj, at_least, [-1] * len(plan),
                                0, 0, near, out)
                assert out.adds == len(out), (encode_graph6(host), p.name)
                pairs += len(out)
        # measured when forms went one per orbit; the reference's forms
        # reach the same pairs (test_meetings_match_frozen_reference)
        assert pairs == 294633

    def test_broken_plans_find_the_unbroken_first_embedding(self):
        # a bare Graph pattern gets the unbroken plan
        rng = random.Random(1428)
        for host in symmetry_hosts(7, 12, 14):
            order = list(range(host.n))
            rng.shuffle(order)
            for g in (host, relabel(host, order)):
                for p in catalog():
                    first = find_induced(g, p.graph)
                    assert find_induced(g, p) == first, \
                        (encode_graph6(g), p.name)
                    assert is_free(g, [p.name]) == (first is None)


class TestCanonicalRole:
    def test_obstructions_pairwise_distinct(self):
        codes = {canonical_code(pattern(n).graph) for n in OBSTRUCTION_NAMES}
        assert len(codes) == len(OBSTRUCTION_NAMES)
