import hashlib
import io
from functools import cache

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from expodom import enumeration
from expodom.enumeration import (
    StreamMode,
    _augmented_rows,
    _degree_floor,
    _keeps,
    _orbit_masks,
    connected_graphs,
    levels,
    levels_from_graphs,
    read_graph6_stream,
    trees,
)
from expodom.graphs import (
    Graph,
    Graph6Error,
    SizeCapError,
    _search,
    canonical_code,
    decode_graph6,
    encode_graph6,
    is_connected,
    without_vertex,
)
from expodom.patterns import (
    OBSTRUCTION_NAMES,
    RESTRICTION_NAMES,
    TRIANGLE_RESTRICTION_NAMES,
    catalog,
    extension_table,
    is_free,
    pattern_names,
)

import oracles

# published isomorphism-class counts, frozen here as an external check
CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853,
                          8: 11117}
TREE_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23,
                     9: 47, 10: 106, 11: 235, 12: 551}


#: `canonical_code` calls of `connected_graphs(7)` on an empty level memo:
#: the order-1 graph and the candidates the augmentation filter keeps (4,160
#: with every candidate labeled)
KEPT_CONNECTED_7 = 1047

#: `_augmented_rows` calls of `connected_graphs(7)` on an empty level memo:
#: the candidates built and run through `_keeps` once the degree floor has
#: rejected its masks (4,159 with every candidate built)
BUILT_CONNECTED_7 = 1593


class TestConnectedStream:
    def test_counts_match_frozen_table(self):
        for n in range(1, 8):
            assert sum(1 for _ in connected_graphs(n)) == \
                CONNECTED_CLASS_COUNTS[n], n

    def test_counts_match_labeled_enumeration(self):
        for n in range(1, 7):
            assert CONNECTED_CLASS_COUNTS[n] == oracles.class_count_oracle(n)

    def test_no_duplicates_and_all_connected(self):
        for n in (4, 5, 6):
            seen = set()
            for g in connected_graphs(n):
                assert g.n == n
                assert is_connected(g)
                code = canonical_code(g)
                assert code not in seen
                seen.add(code)

    def test_deterministic_order(self):
        first = [encode_graph6(g) for g in connected_graphs(6)]
        second = [encode_graph6(g) for g in connected_graphs(6)]
        assert first == second

    def test_small_cases_explicit(self):
        assert [encode_graph6(g) for g in connected_graphs(1)] == ["@"]
        assert [encode_graph6(g) for g in connected_graphs(2)] == ["A_"]
        got = sorted(encode_graph6(g) for g in connected_graphs(4))
        assert got == ["CF", "CL", "CN", "C]", "C^", "C~"]

    def test_order_cap(self):
        with pytest.raises(SizeCapError):
            next(iter(connected_graphs(10)))


class TestTreeStream:
    def test_counts_match_frozen_table(self):
        for n in range(1, 11):
            assert sum(1 for _ in trees(n)) == TREE_CLASS_COUNTS[n], n

    def test_counts_match_networkx(self):
        for n in range(2, 11):
            assert TREE_CLASS_COUNTS[n] == \
                sum(1 for _ in nx.nonisomorphic_trees(n))

    def test_trees_are_trees(self):
        for n in (5, 8):
            for g in trees(n):
                assert is_connected(g)
                assert sum(1 for _ in g.edges()) == n - 1

    def test_no_duplicate_classes(self):
        for n in (7, 9):
            codes = [canonical_code(g) for g in trees(n)]
            assert len(codes) == len(set(codes))

    def test_order_cap(self):
        with pytest.raises(SizeCapError):
            next(iter(trees(15)))


class TestRestrictedStream:
    def test_pruned_equals_post_filtered(self):
        names = ("P7", "F1")
        pruned = sorted(canonical_code(g)
                        for g in trees(9, free_of=names))
        post = sorted(canonical_code(g) for g in trees(9)
                      if is_free(g, names))
        assert pruned == post

    def test_pruned_connected_stream(self):
        names = ("K3",)
        pruned = sorted(canonical_code(g)
                        for g in connected_graphs(6, free_of=names))
        post = sorted(canonical_code(g) for g in connected_graphs(6)
                      if is_free(g, names))
        assert pruned == post

    def test_order_one_is_never_filtered(self):
        # the order-1 level is built without a pattern check: no catalog
        # pattern is small enough to embed in it
        assert min(p.graph.n for p in catalog()) >= 3
        for mode in StreamMode:
            assert [g.n for _, g in levels(mode, pattern_names(), 1)(1)] \
                == [1]

    def test_triangle_filter_small(self):
        # only connected triangle-free graph on 3 vertices is the path
        got = [encode_graph6(g)
               for g in connected_graphs(3, free_of=("K3",))]
        assert got == ["Bg"] or got == [encode_graph6(
            next(iter(connected_graphs(3, free_of=("K3",)))))]
        assert len(got) == 1

    def test_obstruction_free_level_counts(self):
        from expodom.patterns import OBSTRUCTION_NAMES
        # every listed pattern has >= 6 vertices, so levels 1..5 are
        # unrestricted; at n=6 exactly one class (the caterpillar itself)
        # is excluded
        want = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 111, 7: 809}
        for n, count in want.items():
            assert sum(1 for _ in connected_graphs(
                n, free_of=OBSTRUCTION_NAMES)) == count, n

    def test_fully_filtered_difference(self):
        # relative to the restriction-only stream, adding the obstruction
        # filter removes the obstruction graphs of that order plus every
        # restricted graph properly containing a smaller obstruction
        from expodom.graphs import canonical_code
        from expodom.patterns import (
            OBSTRUCTION_NAMES,
            RESTRICTION_NAMES,
            pattern,
        )
        both = tuple(RESTRICTION_NAMES) + tuple(OBSTRUCTION_NAMES)
        for n, diff_size in ((6, 1), (7, 21)):
            restricted = {canonical_code(g)
                          for g in connected_graphs(n, RESTRICTION_NAMES)}
            filtered = {canonical_code(g)
                        for g in connected_graphs(n, both)}
            diff = restricted - filtered
            assert filtered <= restricted
            assert len(diff) == diff_size
            wanted = {canonical_code(pattern(nm).graph)
                      for nm in OBSTRUCTION_NAMES
                      if pattern(nm).graph.n == n}
            assert wanted <= diff

    def test_triangle_restriction_level_counts(self):
        from expodom.patterns import TRIANGLE_RESTRICTION_NAMES
        want = {1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 13, 7: 34}
        for n, count in want.items():
            assert sum(1 for _ in connected_graphs(
                n, free_of=TRIANGLE_RESTRICTION_NAMES)) == count, n

    @pytest.mark.parametrize("mode, free_of, max_n, count, want", [
        (StreamMode.CONNECTED, RESTRICTION_NAMES, 8, 281,
         "94e9da5a69b4e31c90f382a71b886318a3b3cc8c71ea5d0c753a6a57f7e2ca19"),
        (StreamMode.CONNECTED, TRIANGLE_RESTRICTION_NAMES, 8, 173,
         "5d3ba2f7fff04db1fa1b35f0503c4d1b27d657a9ea52bbca370bed9f6a098776"),
        (StreamMode.CONNECTED, OBSTRUCTION_NAMES, 7, 951,
         "6c6ee0af3d88d001fb130e1b66ab2f7ae58a3fcb769531d82172da0595db647a"),
        (StreamMode.CONNECTED, (), 7, 996,
         "d8c0b8acf9eb88a73627db2d1a9a217864eff88feac3aeb5196c8161bd66fcca"),
        (StreamMode.TREES, (), 11, 436,
         "8d0a7bef86d0c54b217da79b0fb160feb11f71677e085470162a9fff657a2925"),
    ], ids=["restriction", "triangle", "obstruction", "connected", "trees"])
    def test_levels_pinned(self, mode, free_of, max_n, count, want):
        # SHA-256 over code + deck per class in level order, pinned from
        # the enumeration that matched every candidate child on its own
        # (the unrestricted ones from the one that labeled every mask)
        digest = hashlib.sha256()
        classes = 0
        source = levels(mode, free_of, max_n)
        for n in range(1, max_n + 1):
            level = source(n)
            for (code, _), deck in zip(level, level.decks):
                digest.update(code + b" " + b",".join(deck) + b"\n")
                classes += 1
        assert classes == count
        assert digest.hexdigest() == want

    def test_unknown_name_rejected_before_reading(self):
        def graphs():
            raise AssertionError("read")
            yield
        with pytest.raises(ValueError, match="FOO"):
            levels_from_graphs(graphs(), 5, free_of=["FOO"])


def _burnside(g, fixed) -> int:
    """Orbit count of Aut(g) by Burnside: the mean of `fixed(automorphism)`
    over networkx's automorphisms, each a dict from vertex to image."""
    nxg = nx.Graph(list(g.edges()))
    nxg.add_nodes_from(range(g.n))
    autos = list(GraphMatcher(nxg, nxg).isomorphisms_iter())
    total = sum(fixed(a) for a in autos)
    assert total % len(autos) == 0
    return total // len(autos)


def _cycles(perm: dict) -> int:
    seen = set()
    cycles = 0
    for v in perm:
        if v not in seen:
            cycles += 1
            while v not in seen:
                seen.add(v)
                v = perm[v]
    return cycles


#: the enumerated streams the sweeps run on, at the bench depths
STREAMS = pytest.mark.parametrize("mode, free_of, max_n", [
    (StreamMode.CONNECTED, (), 7),
    (StreamMode.CONNECTED, RESTRICTION_NAMES, 8),
    (StreamMode.TREES, (), 11),
], ids=["connected", "restricted", "trees"])


@cache
def all_masks_levels(mode: StreamMode, free_of, max_n: int) -> dict:
    """`oracles.levels_oracle` of one stream, built once per session."""
    return oracles.levels_oracle(mode is StreamMode.TREES, free_of, max_n)


def own_generators(g: Graph) -> set[tuple[int, ...]]:
    """Generators of Aut(g) from a labeling search of g itself."""
    found: set[tuple[int, ...]] = set()
    _search(g.adj, found)
    return found


def candidates(mode: StreamMode, free_of, parent):
    """The masks a level augments the parent along: one per Aut(parent)
    orbit of the masks its extension table leaves unblocked."""
    k = parent.n
    if mode is StreamMode.TREES:
        masks, reach = [1 << u for u in range(k)], 1
    else:
        masks, reach = range(1, 1 << k), k
    blocked = extension_table(parent, frozenset(free_of), reach)
    return _orbit_masks(own_generators(parent),
                        [m for m in masks if not blocked >> m & 1])


class TestOrbitPruning:
    @STREAMS
    def test_levels_equal_all_masks_oracle(self, mode, free_of, max_n):
        # one mask per orbit reaches the same classes from the same
        # parents: codes and decks equal, in order
        want = all_masks_levels(mode, free_of, max_n)
        source = levels(mode, free_of, max_n)
        for n in range(1, max_n + 1):
            level = source(n)
            got = [(code, deck) for (code, _), deck in
                   zip(level, level.decks)]
            assert got == want[n], n

    def test_connected_masks_one_per_orbit(self):
        # orbits of Aut(g) on nonempty vertex sets: 2^cycles - 1 fixed
        for n in range(1, 7):
            for g in connected_graphs(n):
                kept = list(_orbit_masks(own_generators(g),
                                         range(1, 1 << n)))
                assert kept == sorted(kept)
                assert len(kept) == _burnside(
                    g, lambda a: (1 << _cycles(a)) - 1), encode_graph6(g)

    def test_tree_masks_one_per_orbit(self):
        # orbits of Aut(t) on single vertices: fixed points
        for n in range(1, 10):
            for t in trees(n):
                kept = list(_orbit_masks(own_generators(t),
                                         (1 << u for u in range(n))))
                assert kept == sorted(kept)
                assert len(kept) == _burnside(
                    t, lambda a: sum(v == w for v, w in a.items())), \
                    encode_graph6(t)

    def test_count_table_agrees_with_frozen_counts(self):
        for mode, frozen in ((StreamMode.CONNECTED, CONNECTED_CLASS_COUNTS),
                             (StreamMode.TREES, TREE_CLASS_COUNTS)):
            counts = enumeration._CLASS_COUNTS[mode][1]
            for n, count in frozen.items():
                assert counts[n - 1] == count, (mode, n)

    def test_count_gate_names_mode_order_and_counts(self, monkeypatch):
        sequence, counts = enumeration._CLASS_COUNTS[StreamMode.TREES]
        bent = counts[:5] + (counts[5] + 1,) + counts[6:]
        monkeypatch.setitem(enumeration._CLASS_COUNTS, StreamMode.TREES,
                            (sequence, bent))
        monkeypatch.setattr(enumeration, "_LEVELS", {})
        with pytest.raises(enumeration.CountGateError) as err:
            trees(6)
        assert str(err.value) == ("tree level of order 6 has 6 classes, "
                                  "expected 7 (OEIS A000055)")
        # a restricted level is not gated
        assert len(trees(6, free_of=("P7",))) == 6


class TestParentSearch:
    @pytest.mark.parametrize("mode, max_n, parents", [
        (StreamMode.TREES, 11, 201),
        (StreamMode.CONNECTED, 7, 143),
    ], ids=["trees", "connected"])
    def test_each_parent_searched_once(self, monkeypatch, mode, max_n,
                                       parents):
        # a fresh build searches each parent once, in level order, for the
        # generators of its group (candidates are labeled through
        # graphs.canonical_code, whose searches this wrapper does not see)
        searched = []
        monkeypatch.setattr(enumeration, "_search",
                            lambda adj, *rest: searched.append(adj)
                            or _search(adj, *rest))
        monkeypatch.setattr(enumeration, "_LEVELS", {})
        source = levels(mode, (), max_n)
        source(max_n)
        assert searched == [g.adj for n in range(1, max_n)
                            for _, g in source(n)]
        assert len(searched) == parents


class TestAugmentationFilter:
    @STREAMS
    def test_every_class_keeps_a_candidate(self, mode, free_of, max_n):
        # the classes of the all-masks levels, each reached from the level
        # below by a candidate that the filter keeps
        want = all_masks_levels(mode, free_of, max_n)
        for n in range(2, max_n + 1):
            kept = set()
            for pcode, _ in want[n - 1]:
                parent = decode_graph6(pcode)
                for mask in candidates(mode, free_of, parent):
                    rows = _augmented_rows(parent.adj, mask)
                    if _keeps(rows):
                        kept.add(canonical_code(Graph(n, rows)))
            assert kept == {code for code, _ in want[n]}, n

    @STREAMS
    def test_filter_matches_networkx_oracle(self, mode, free_of, max_n):
        source = levels(mode, free_of, max_n)
        for n in range(1, max_n):
            for _, parent in source(n):
                for mask in candidates(mode, free_of, parent):
                    assert _keeps(_augmented_rows(parent.adj, mask)) == \
                        oracles.augmentation_filter_oracle(parent, mask), \
                        (encode_graph6(parent), mask)

    def test_enumeration_labels_only_kept_candidates(self, monkeypatch):
        labeled = []
        monkeypatch.setattr(enumeration, "canonical_code",
                            lambda g: labeled.append(g) or canonical_code(g))
        monkeypatch.setattr(enumeration, "_LEVELS", {})
        assert len(connected_graphs(7)) == CONNECTED_CLASS_COUNTS[7]
        calls = len(labeled)
        kept = [sum(oracles.augmentation_filter_oracle(parent, mask)
                    for mask in candidates(StreamMode.CONNECTED, (), parent))
                for n in range(1, 7) for parent in connected_graphs(n)]
        # the order-1 graph is labeled too
        assert calls == 1 + sum(kept) == KEPT_CONNECTED_7

    def test_degree_floor_rejects_only_what_keeps_rejects(self):
        # called as the level build calls it, once per parent and then once
        # per orbit mask, on the connected levels to order 7 and the
        # theorem1 stream to order 8: the oracle rejects every mask it
        # rejects
        for free_of, max_n in (((), 7), (RESTRICTION_NAMES, 8)):
            source = levels(StreamMode.CONNECTED, free_of, max_n)
            floored = 0
            for n in range(1, max_n):
                for _, parent in source(n):
                    rejects = _degree_floor(parent.adj)
                    for mask in candidates(StreamMode.CONNECTED, free_of,
                                           parent):
                        if rejects(mask):
                            floored += 1
                            assert not oracles.augmentation_filter_oracle(
                                parent, mask), (encode_graph6(parent), mask)
            assert floored, free_of

    def test_degree_floor_builds_fewer_rows(self, monkeypatch):
        # a fresh build to order 7 builds BUILT_CONNECTED_7 candidates'
        # rows, and still labels KEPT_CONNECTED_7 graphs and searches 143
        # parents (TestParentSearch)
        built, labeled, searched = [], [], []
        monkeypatch.setattr(enumeration, "_augmented_rows",
                            lambda adj, mask: built.append(mask)
                            or _augmented_rows(adj, mask))
        monkeypatch.setattr(enumeration, "canonical_code",
                            lambda g: labeled.append(g) or canonical_code(g))
        monkeypatch.setattr(enumeration, "_search",
                            lambda adj, *rest: searched.append(adj)
                            or _search(adj, *rest))
        monkeypatch.setattr(enumeration, "_LEVELS", {})
        assert len(connected_graphs(7)) == CONNECTED_CLASS_COUNTS[7]
        assert len(built) == BUILT_CONNECTED_7
        assert len(labeled) == KEPT_CONNECTED_7
        assert len(searched) == 143


@pytest.mark.parametrize("mode, free_of, max_n", [
    (StreamMode.CONNECTED, (), 6),
    (StreamMode.CONNECTED, RESTRICTION_NAMES, 7),
    (StreamMode.TREES, (), 9),
], ids=["connected", "restricted", "trees"])
class TestDecks:
    def test_deck_is_the_connected_cards(self, mode, free_of, max_n):
        # each parent once, and exactly the classes of the connected cards
        source = levels(mode, free_of, max_n)
        for n in range(1, max_n + 1):
            level = source(n)
            assert len(level.decks) == len(level)
            for (code, g), deck in zip(level, level.decks):
                cards = {canonical_code(card) for card in
                         (without_vertex(g, v) for v in range(n))
                         if card.n and is_connected(card)}
                assert len(deck) == len(set(deck))
                assert set(deck) == cards, encode_graph6(g)

    def test_children_are_every_extension(self, monkeypatch, mode, free_of,
                                          max_n):
        # every mask (every leaf mask for trees), no orbit pruning and no
        # filter: the classes of the children free of the restriction
        monkeypatch.setattr(enumeration, "_LEVELS", {})
        source = levels(mode, free_of, max_n)
        built = [source(n) for n in range(1, max_n + 1)]
        labeled = []
        monkeypatch.setattr(enumeration, "canonical_code",
                            lambda g: labeled.append(g) or canonical_code(g))
        for level in built[1:]:
            for j, (_, parent) in enumerate(level.below):
                k = parent.n
                masks = ([1 << u for u in range(k)]
                         if mode is StreamMode.TREES else range(1, 1 << k))
                want = set()
                for mask in masks:
                    child = Graph(k + 1, _augmented_rows(parent.adj, mask))
                    if is_free(child, free_of):
                        want.add(canonical_code(child))
                before = len(labeled)
                assert set(level.children(j)) == want, encode_graph6(parent)
                # the first call labels each rejected candidate once
                assert len(labeled) - before == sum(
                    not _keeps(_augmented_rows(parent.adj, mask))
                    for mask in candidates(mode, free_of, parent))
        labeled.clear()
        for level in built[1:]:
            for j in range(len(level.below)):
                level.children(j)
        assert labeled == []


class TestGraph6Stream:
    def test_round_trip_with_noise(self):
        lines = [
            "# leading comment",
            "",
            ">>graph6<<C~",
            "Ch ",
            "   ",
            "# trailing comment",
            "A_",
        ]
        got = [encode_graph6(g)
               for g in read_graph6_stream(io.StringIO("\n".join(lines)))]
        assert got == ["C~", "Ch", "A_"]

    def test_bad_line_raises(self):
        with pytest.raises(Graph6Error):
            list(read_graph6_stream(io.StringIO("C~\nnot graph6!\n")))

    def test_stream_matches_enumeration(self):
        text = "\n".join(encode_graph6(g) for g in connected_graphs(5))
        back = [canonical_code(g)
                for g in read_graph6_stream(io.StringIO(text))]
        assert back == [canonical_code(g) for g in connected_graphs(5)]
