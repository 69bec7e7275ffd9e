import hashlib
import math
import random

import pytest

import networkx as nx

from expodom.graphs import (
    Graph,
    Graph6Error,
    SizeCapError,
    canonical_code,
    canonical_graph,
    connected_components,
    decode_graph6,
    encode_graph6,
    from_edge_list,
    girth,
    induced_subgraph,
    is_connected,
    relabel,
    set_distance,
    without_vertex,
)
from expodom.enumeration import _augment, connected_graphs
from conftest import cycle_graph, path_graph, random_graph

from oracles import plain_distance_oracle


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, (0b01, 0b10))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_stray_bits(self):
        with pytest.raises(ValueError):
            Graph(2, (0b100, 0b000))

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            Graph(3, (0, 0))

    def test_rejects_oversize(self):
        with pytest.raises(SizeCapError):
            from_edge_list(65, [])

    def test_basic_accessors(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 1)])
        assert g.n == 4
        assert g.m == 3  # duplicate edge collapsed
        assert g.degree(1) == 2
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert g.closed_neighborhood(1) == 0b0111

    def test_from_edge_list_validation(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(ValueError):
            from_edge_list(3, [(1, 1)])


class TestSurgery:
    def test_relabel_inverse_round_trip(self, rng):
        g = random_graph(rng, 9)
        order = list(range(9))
        rng.shuffle(order)
        h = relabel(g, order)
        inverse = [0] * 9
        for new, old in enumerate(order):
            inverse[old] = new
        assert relabel(h, inverse).adj != h.adj or h.adj == g.adj
        # relabel twice by matching orders reproduces the original
        back = relabel(h, [order.index(v) for v in range(9)])
        assert back.adj == g.adj

    def test_relabel_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            relabel(path_graph(3), [0, 0, 2])

    def test_induced_subgraph_renumbers_ascending(self):
        p5 = path_graph(5)
        sub = induced_subgraph(p5, [1, 2, 4])
        assert sub.n == 3
        assert list(sub.edges()) == [(0, 1)]  # 1-2 survives, 4 isolated

    def test_without_vertex(self):
        c4 = cycle_graph(4)
        assert list(without_vertex(c4, 0).edges()) == [(0, 1), (1, 2)]

    def test_induced_mask_bounds(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), 0b1000)


class TestDistances:
    def test_set_distance_matches_oracle(self, rng):
        for _ in range(40):
            g = random_graph(rng, 7)
            u, v = rng.sample(range(7), 2)
            assert set_distance(g, [u], [v]) == plain_distance_oracle(g, u, v)

    def test_set_distance_between_sets(self):
        p6 = path_graph(6)
        assert set_distance(p6, [0, 1], [4, 5]) == 3
        assert set_distance(p6, [2], [2]) == 0

    def test_needs_nonempty_sets(self):
        with pytest.raises(ValueError):
            set_distance(path_graph(3), [], [1])


class TestComponents:
    def test_components_of_disjoint_union(self):
        g = from_edge_list(6, [(0, 1), (2, 3), (3, 4)])
        comps = connected_components(g)
        assert [sorted_bits(c) for c in comps] == [[0, 1], [2, 3, 4], [5]]
        assert not is_connected(g)
        assert is_connected(path_graph(4))

    def test_single_vertex_connected(self):
        assert is_connected(Graph(1, (0,)))


def sorted_bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


class TestGirth:
    def test_known_girths(self):
        assert girth(cycle_graph(3)) == 3
        assert girth(cycle_graph(7)) == 7
        assert girth(path_graph(5)) == math.inf
        diamond = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert girth(diamond) == 3
        k23 = from_edge_list(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3),
                                 (1, 4)])
        assert girth(k23) == 4

    def test_girth_matches_networkx(self, rng):
        for _ in range(25):
            g = random_graph(rng, 8)
            G = nx.Graph(list(g.edges()))
            G.add_nodes_from(range(8))
            try:
                expected = nx.girth(G)
            except Exception:  # very old networkx
                expected = None
            if expected is not None:
                assert girth(g) == expected


class TestGraph6:
    def test_single_vertex(self):
        assert encode_graph6(Graph(1, (0,))) == "@"
        assert decode_graph6("@").n == 1

    def test_round_trip_random(self, rng):
        for n in (1, 2, 5, 13, 40, 62, 63, 64):
            g = random_graph(rng, n, 0.3)
            assert decode_graph6(encode_graph6(g)).adj == g.adj

    def test_long_form_marker(self, rng):
        g = random_graph(rng, 63, 0.2)
        assert encode_graph6(g).startswith("~")

    def test_matches_networkx_encoding(self, rng):
        orders = [rng.randrange(1, 20) for _ in range(30)]
        for n in orders + [0, 61, 62, 63, 64]:  # and the long form
            g = random_graph(rng, n)
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
            assert encode_graph6(g) == theirs

    def test_decodes_networkx_output(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randrange(1, 20))
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges())
            text = nx.to_graph6_bytes(G, header=False).decode().strip()
            assert decode_graph6(text).adj == g.adj

    def test_optional_header_prefix(self):
        assert decode_graph6(">>graph6<<@").n == 1

    def test_rejects_garbage(self):
        with pytest.raises(Graph6Error):
            decode_graph6("")
        with pytest.raises(Graph6Error):
            decode_graph6("junk(((")
        with pytest.raises(Graph6Error):
            decode_graph6("D" )  # order 5 needs bit characters
        with pytest.raises(Graph6Error):
            decode_graph6("@@")  # trailing garbage

    def test_rejects_nonzero_padding(self):
        # order 2, single bit char; low pad bits must be zero
        good = encode_graph6(from_edge_list(2, [(0, 1)]))
        bent = good[0] + chr(63 + ((ord(good[1]) - 63) | 0b1))
        with pytest.raises(Graph6Error):
            decode_graph6(bent)

    def test_oversize_order_refused(self):
        with pytest.raises(SizeCapError):
            decode_graph6("~?@@")  # long-form order 65


class TestCanonical:
    def test_invariant_under_relabeling(self, rng):
        for _ in range(60):
            n = rng.randrange(1, 9)
            g = random_graph(rng, n)
            order = list(range(n))
            rng.shuffle(order)
            assert canonical_code(relabel(g, order)) == canonical_code(g)

    def test_idempotent(self, rng):
        for _ in range(20):
            g = random_graph(rng, 7)
            rep = canonical_graph(g)
            assert canonical_graph(rep).adj == rep.adj

    def test_distinguishes_non_isomorphic(self):
        star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_code(path_graph(4)) != canonical_code(star)

    def test_agrees_with_networkx_on_classes(self, rng):
        # canonical codes equal exactly when networkx finds an isomorphism
        graphs = [random_graph(rng, 6, p) for p in (0.3, 0.5, 0.7)
                  for _ in range(6)]
        for a in graphs:
            for b in graphs:
                ga = nx.Graph(list(a.edges()))
                ga.add_nodes_from(range(a.n))
                gb = nx.Graph(list(b.edges()))
                gb.add_nodes_from(range(b.n))
                same = canonical_code(a) == canonical_code(b)
                assert same == nx.is_isomorphic(ga, gb)

    def test_candidate_children_digest(self):
        # every candidate the connected enumeration labels up to order 8:
        # each connected graph of order 1..7 in stream order, plus a new
        # vertex on each nonempty neighbourhood in mask order.  SHA-256 over
        # code + b"\n", pinned from the relabel-then-encode implementation
        digest = hashlib.sha256()
        calls = 0
        for n in range(1, 8):
            for g in connected_graphs(n):
                for mask in range(1, 1 << n):
                    digest.update(canonical_code(_augment(g, mask)) + b"\n")
                    calls += 1
        assert calls == 116_146
        assert digest.hexdigest() == (
            "3bd582446954b6c76ad180d72b4b560709df9b865556909a607acd7d74b9c944")

    def test_complete_graph_fast(self):
        # the twin skip must keep K_n from exploding into n! branches
        k12 = from_edge_list(12, [(i, j) for j in range(12)
                                  for i in range(j)])
        rep = canonical_graph(k12)
        assert rep.m == 66
