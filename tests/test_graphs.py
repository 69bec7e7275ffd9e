import hashlib
import math
import random

import pytest

import networkx as nx
from hypothesis import given, strategies as st

from expodom.graphs import (
    Graph,
    Graph6Error,
    SizeCapError,
    _is_cut,
    _search,
    _trusted,
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
from expodom.enumeration import _augment, connected_graphs, trees
from expodom.patterns import catalog
from conftest import FUZZ, cycle_graph, path_graph, \
    random_connected_graph, random_graph

from oracles import plain_distance_oracle, search_oracle


def _graph6_like(n: int):
    """A header for order n, then a body of the right length or one byte
    longer: valid unless the length is wrong or the padding is not zero."""
    need = (n * (n - 1) // 2 + 5) // 6
    body = st.text(st.characters(min_codepoint=63, max_codepoint=126),
                   min_size=need, max_size=need + 1)
    return body.map(lambda text: chr(63 + n) + text)


GRAPH6_LIKE = st.tuples(st.sampled_from(("", ">>graph6<<", " ", "~??")),
                        st.integers(0, 12).flatmap(_graph6_like)).map("".join)


def _to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def _edge_set(G: nx.Graph) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in G.edges()}


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
            from_edge_list(3, [(-1, 0)])
        with pytest.raises(ValueError):
            from_edge_list(3, [(1, 1)])

    def test_internal_graphs_pass_the_validator(self, rng):
        # the package's own constructions skip the checks; each one still
        # gives rows the public constructor accepts
        for n in range(1, 9):
            g = random_graph(rng, n, 0.5)
            order = list(range(n))
            rng.shuffle(order)
            built = [relabel(g, order), induced_subgraph(g, order[: n // 2]),
                     without_vertex(g, order[0]), canonical_graph(g),
                     decode_graph6(encode_graph6(g))]
            built += [_augment(g, mask) for mask in range(1 << n)]
            for h in built:
                assert Graph(h.n, h.adj) == h, encode_graph6(g)

    def test_graphs_carry_no_instance_dict(self):
        # a slotted Graph: no per-object __dict__ beside n and adj, however
        # it was built
        g = from_edge_list(3, [(0, 1), (1, 2)])
        for h in (Graph(3, g.adj), _trusted(g.adj),
                  decode_graph6(encode_graph6(g))):
            assert not hasattr(h, "__dict__")
            assert h == g


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

    def test_induced_subgraph_matches_networkx(self, rng):
        for n in range(1, 13):
            for _ in range(6):
                g = random_graph(rng, n)
                kept = [v for v in range(n) if rng.random() < 0.6]
                want = nx.convert_node_labels_to_integers(
                    _to_nx(g).subgraph(kept), ordering="sorted")
                for vertices in (kept, sum(1 << v for v in kept)):
                    sub = induced_subgraph(g, vertices)
                    assert sub.n == len(kept)
                    assert set(sub.edges()) == _edge_set(want)

    def test_relabel_matches_networkx(self, rng):
        for n in range(1, 13):
            for _ in range(6):
                g = random_graph(rng, n)
                order = list(range(n))
                rng.shuffle(order)
                want = nx.relabel_nodes(
                    _to_nx(g), {old: new for new, old in enumerate(order)})
                assert set(relabel(g, order).edges()) == _edge_set(want)

    def test_induced_mask_bounds(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), 0b1000)


class TestDistances:
    def test_set_distance_matches_oracle(self, rng):
        for _ in range(40):
            g = random_graph(rng, 7)
            u, v = rng.sample(range(7), 2)
            assert set_distance(g, [u], [v]) == plain_distance_oracle(g, u, v)
        # sets of several vertices, intersecting ones included
        for _ in range(40):
            g = random_graph(rng, 7, 0.25)
            xs = rng.sample(range(7), rng.randint(1, 3))
            ys = rng.sample(range(7), rng.randint(1, 3))
            assert set_distance(g, xs, ys) == min(
                plain_distance_oracle(g, x, y) for x in xs for y in ys)

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
        assert is_connected(Graph(0, ()))

    def test_components_match_networkx(self, rng):
        # sparse draws leave isolated vertices and several components
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 10),
                             rng.choice((0.05, 0.15, 0.3, 0.5)))
            want = sorted((sorted(c) for c in
                           nx.connected_components(_to_nx(g))), key=min)
            assert [sorted_bits(c) for c in connected_components(g)] == want
            assert is_connected(g) == (len(want) <= 1)

    def test_cut_vertices_match_networkx(self, rng):
        graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
        graphs += [random_connected_graph(rng, rng.randint(2, 12),
                                          rng.choice((0.2, 0.35)))
                   for _ in range(200)]
        for g in graphs:
            cut = set(nx.articulation_points(_to_nx(g)))
            assert {u for u in range(g.n) if _is_cut(g.adj, u)} == cut, \
                encode_graph6(g)


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

    @FUZZ
    @given(st.one_of(st.text(), st.binary(), GRAPH6_LIKE))
    def test_decode_fuzz(self, text):
        # any input is refused with a graph6 error or decodes to a graph
        # that the validating constructor accepts and that survives a
        # round trip
        try:
            g = decode_graph6(text)
        except (Graph6Error, SizeCapError):
            return
        assert Graph(g.n, g.adj) == g
        assert decode_graph6(encode_graph6(g)) == g


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

    def test_search_matches_frozen_reference(self, rng):
        # the labeling kernel against its earlier form: the same columns
        # and the same generator sets, and the order it returns names the
        # canonical form's vertices
        corpus = [g for n in range(1, 8) for g in connected_graphs(n)]
        corpus += [t for n in range(1, 13) for t in trees(n)]
        corpus += [p.graph for p in catalog()]
        for n in range(1, 17):
            corpus += [random_graph(rng, n, p) for p in (0.15, 0.5, 0.85)]
            corpus.append(from_edge_list(n, [(i, j) for j in range(n)
                                             for i in range(j)]))
            corpus.append(from_edge_list(n, []))
            # two random halves with no edge between them
            half = n // 2
            corpus.append(from_edge_list(n, [
                (i, j) for j in range(n) for i in range(j)
                if (i < half) == (j < half) and rng.random() < 0.5]))
        relabeled = []
        for g in corpus:
            order = list(range(g.n))
            rng.shuffle(order)
            relabeled.append(relabel(g, order))
        assert len(corpus) > 2_000
        for g in corpus + relabeled:
            want: set[tuple[int, ...]] = set()
            got: set[tuple[int, ...]] = set()
            columns, order = _search(g.adj, got)
            assert columns == search_oracle(g.adj, want), encode_graph6(g)
            assert got == want, encode_graph6(g)
            assert _search(g.adj)[0] == columns
            assert relabel(g, order) == canonical_graph(g)

    def test_search_generators_are_automorphisms(self, rng):
        graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
        graphs += [random_graph(rng, 9, p) for p in (0.2, 0.5, 0.8)
                   for _ in range(20)]
        graphs += [cycle_graph(9), from_edge_list(5, [(0, 1), (2, 3)]),
                   from_edge_list(10, [(i, j) for j in range(10)
                                       for i in range(j)])]
        found = 0
        for g in graphs:
            generators: set[tuple[int, ...]] = set()
            _search(g.adj, generators)
            found += len(generators)
            for image in generators:
                assert sorted(image) == list(range(g.n))
                for u in range(g.n):
                    row = 0
                    for v in range(g.n):
                        if g.has_edge(u, v):
                            row |= 1 << image[v]
                    assert row == g.adj[image[u]], encode_graph6(g)
        assert found

    def test_complete_graph_fast(self):
        # the twin skip must keep K_n from exploding into n! branches
        k12 = from_edge_list(12, [(i, j) for j in range(12)
                                  for i in range(j)])
        rep = canonical_graph(k12)
        assert rep.m == 66
