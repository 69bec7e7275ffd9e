"""Host classes, level by level: connected graphs and trees.

A host class is a `StreamMode` plus the patterns its graphs are free of,
and only this module says what one is: `levels` enumerates a class and
`levels_from_graphs` filters an external collection to it.

Level-by-level augmentation: every connected graph of order k+1 arises from
a connected graph of order k by adding one vertex with a nonempty
neighborhood (delete any non-cut vertex to see this), and every tree arises
from a tree by attaching a leaf.  Each parent is augmented along one
neighbourhood mask per orbit of its automorphism group, since masks in one
orbit give isomorphic children; the group's generators come from one
labeling search of the parent, made when its level above is built.  A
canonical augmentation filter (`_keeps`) then rejects, before any labeling,
each candidate whose new vertex is beaten by a non-cut vertex with a larger
(degree, sorted neighbour degrees) invariant; every class still keeps at
least one candidate.  In a connected level a per-parent degree floor
(`_degree_floor`) rejects most masks before their child is built: a non-cut
vertex of the parent stays non-cut in every child but the one hung on it
alone, and its degree never falls, so the filter would reject, among
others, every mask of two or more vertices that has fewer vertices than the
largest such degree (connected levels to order 8: 21,489 of 71,300
candidates built, the same 13,033 kept).  The kept candidates are
deduplicated by canonical code, and each level is kept in memory while the
next is produced.  An unrestricted level's class count is checked against
the published one (OEIS A001349, A000055) and a mismatch raises
`CountGateError`.

A connected graph's parents are exactly the classes of its connected cards
G-v, so a sweep reads its membership off them instead of labeling every
card again (`hereditary.ParamStore.fill_violators`).  Each enumerated level
keeps one record per parent: the codes of its kept candidates and the set
of masks the floor or the filter rejected.  `Level.children(j)` gives
parent j's child classes, labeling its rejected masks on the first call
only, so `enum` labels only the kept candidates and a sweep labels the
rejected children of the parents it asks about.  Levels live for the whole
process, in `_LEVELS`.

Pattern restrictions are hereditary, so a restricted level is grown from
the restricted level below it, and a child can only hold a pattern through
its new vertex.  Each parent's `patterns.extension_table` settles all of
its neighbourhood masks in one pass.  Isomorphic children are blocked
together, so the blocked masks are whole orbits, and one unblocked mask per
orbit is augmented and filtered.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import Graph, SizeCapError, _is_cut, _search, _trusted, \
    canonical_code, decode_graph6, is_connected, iter_bits
from .graphs import canonical_graph  # kept for bench/tracer.py to patch
from . import patterns

#: Order 9 (261,080 classes) takes minutes; order 10 has 45 times as many.
MAX_CONNECTED_ORDER = 9
MAX_TREE_ORDER = 14


class StreamMode(Enum):
    """A host class before its pattern restriction."""

    CONNECTED = "connected"
    TREES = "trees"


#: Per mode, the noun of its cap message and the largest order enumerated.
_CAPS = {StreamMode.CONNECTED: ("connected", MAX_CONNECTED_ORDER),
         StreamMode.TREES: ("tree", MAX_TREE_ORDER)}

#: Per mode, the published class counts of the unrestricted levels from
#: order 1: connected graphs (OEIS A001349) and trees (OEIS A000055).
_CLASS_COUNTS = {
    StreamMode.CONNECTED: ("A001349", (1, 1, 2, 6, 21, 112, 853, 11117,
                                       261080)),
    StreamMode.TREES: ("A000055", (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235,
                                   551, 1301, 3159)),
}


class CountGateError(patterns.GateError):
    """An unrestricted level's class count differs from the published one."""


#: A sweep's graphs of one order: (canonical code, graph) pairs, each graph
#: its class's canonical representative, in code order.
LevelSource = Callable[[int], Iterable[tuple[bytes, Graph]]]


class Level(list):
    """An enumerated order: (code, graph) pairs in code order.

    `below` is the level one order down, whose classes are the parents.
    `children(j)` gives the classes of parent j's connected one-vertex
    extensions in the host class; `decks` inverts it.
    """

    __slots__ = ("below", "_records")

    def __init__(self, pairs: Iterable[tuple[bytes, Graph]],
                 below: list[tuple[bytes, Graph]],
                 records: list[tuple[tuple[bytes, ...], int]]):
        super().__init__(pairs)
        self.below = below
        # per parent: the codes of its kept candidates, and its rejected
        # masks as one set, bit m set for mask m
        self._records = records

    def children(self, j: int) -> tuple[bytes, ...]:
        """The codes of parent j's children, each class at least once.

        The first call labels the rejected masks and moves their codes
        into the record, so later calls label nothing.
        """
        codes, rejected = self._records[j]
        if rejected:
            parent = self.below[j][1]
            codes += tuple(canonical_code(_augment(parent, mask))
                           for mask in iter_bits(rejected))
            self._records[j] = (codes, 0)
        return codes

    @property
    def decks(self) -> list[list[bytes]]:
        """Per class, every parent whose augmentations give it, in order.
        The sweeps need only `children`; the tests check decks with it."""
        found: dict[bytes, set[bytes]] = {code: set() for code, _ in self}
        for j, (pcode, _) in enumerate(self.below):
            for code in self.children(j):
                found[code].add(pcode)
        return [sorted(found[code]) for code, _ in self]


def levels(mode: StreamMode, free_of: Iterable[str],
           max_n: int) -> LevelSource:
    """The enumerated levels of one host class, for orders 1..max_n.

    The order, the stream's cap and the pattern names are checked here,
    before any level is built.
    """
    if max_n < 1:
        raise ValueError("order must be at least 1")
    noun, cap = _CAPS[mode]
    if max_n > cap:
        raise SizeCapError(f"{noun} enumeration capped at order {cap}")
    names = frozenset(free_of)
    patterns._named(names)  # raises on an unknown name
    # _level_pairs is looked up per call, so a patch of it applies
    return lambda n: _level_pairs(mode, names, n)


def connected_graphs(n: int, free_of: Iterable[str] = ()) -> list[Graph]:
    """All connected graphs of order exactly n, one per isomorphism class."""
    return [g for _, g in levels(StreamMode.CONNECTED, free_of, n)(n)]


def trees(n: int, free_of: Iterable[str] = ()) -> list[Graph]:
    """All trees of order exactly n, one per isomorphism class."""
    return [g for _, g in levels(StreamMode.TREES, free_of, n)(n)]


def levels_from_graphs(graphs: Iterable[Graph], max_n: int,
                       free_of: Iterable[str] = (),
                       mode: StreamMode = StreamMode.CONNECTED
                       ) -> LevelSource:
    """Adapt an external graph collection to a sweep source.

    Keeps the graphs of order 1..max_n in the host class (connected, a tree
    for TREES, free of `free_of`), canonicalizes and dedups them.  The
    source returns each level as (canonical code, representative) pairs
    sorted by code.  No stream cap applies.  `graphs` is read on the
    source's first call, so a sweep refuses a bad order before it reads.
    """
    names = tuple(free_of)
    patterns._named(frozenset(names))  # raises on an unknown name

    @cache
    def buckets() -> dict[int, dict[bytes, Graph]]:
        found: dict[int, dict[bytes, Graph]] = {}
        for g in graphs:
            if g.n < 1 or g.n > max_n or not is_connected(g):
                continue
            if mode is StreamMode.TREES and g.m != g.n - 1:
                continue
            if names and not patterns.is_free(g, names):
                continue
            code = canonical_code(g)
            level = found.setdefault(g.n, {})
            if code not in level:
                level[code] = decode_graph6(code)
        return found

    return lambda n: sorted(buckets().get(n, {}).items())


# ----------------------------------------------------------------------
# Level construction (memoized per mode/restriction)
# ----------------------------------------------------------------------

#: Every level built in this process, with its parent records, so later
#: sweeps and streams reuse them.  Each level holds the one below through
#: `below`, so this memo does not raise the peak; the records do.  Peak
#: RSS (CPython 3.11, x86-64 Linux, two fresh runs each): 26.3-26.4 MB for
#: `verify --sweep conjecture3` (max-n 8), 19.4 MB for `enum --n 8` and
#: 143.9 MB for `enum --n 9`.
_LEVELS: dict[tuple[StreamMode, frozenset[str], int], Level] = {}


def _level_pairs(mode: StreamMode, free_of: frozenset[str],
                 n: int) -> Level:
    key = (mode, free_of, n)
    got = _LEVELS.get(key)
    if got is not None:
        return got
    if n == 1:
        single = _trusted((0,))
        # every catalog pattern has at least 3 vertices, so none filters it
        level = Level([(canonical_code(single), single)], [], [])
        _LEVELS[key] = level
        return level
    below = _level_pairs(mode, free_of, n - 1)
    classes: dict[bytes, bytes] = {}
    records: list[tuple[tuple[bytes, ...], int]] = []
    for _, parent in below:
        k = parent.n
        if mode is StreamMode.TREES:
            masks: Iterable[int] = (1 << u for u in range(k))
            reach = 1
        else:
            masks = range(1, 1 << k)
            reach = k
        blocked = patterns.extension_table(parent, free_of, reach)
        generators: set[tuple[int, ...]] = set()
        _search(parent.adj, generators)
        floored = (_degree_floor(parent.adj)
                   if mode is StreamMode.CONNECTED else None)
        kept = []
        rejected = 0
        for mask in _orbit_masks(generators,
                                 (m for m in masks if not blocked >> m & 1)):
            if floored is not None and floored(mask):
                rejected |= 1 << mask
                continue
            rows = _augmented_rows(parent.adj, mask)
            if _keeps(rows):
                code = canonical_code(_trusted(rows))
                # one bytes object per class, however often it is reached
                kept.append(classes.setdefault(code, code))
            else:
                rejected |= 1 << mask
        records.append((tuple(kept), rejected))
    codes = sorted(classes)
    del classes  # freed before the graphs are decoded, to lower the peak
    level = Level([(code, decode_graph6(code)) for code in codes], below,
                  records)
    if not free_of:
        _check_count(mode, n, len(level))
    _LEVELS[key] = level
    return level


def _keeps(rows: tuple[int, ...]) -> bool:
    """The canonical augmentation filter on a candidate child's rows.

    The candidate's new vertex v is its last.  It is kept unless a non-cut
    vertex u has a larger invariant (degree, sorted neighbour degrees),
    compared lexicographically; ties are kept.  Every class C keeps a
    candidate: take a non-cut vertex w of C with the largest invariant.
    C-w is connected and, restrictions being hereditary, in the host class,
    so its class is a parent; the orbit of that parent's masks that gives C
    back puts the new vertex in w's place (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998).

    `_degree_floor` is a cheaper pre-test of this rule: in a connected
    level it rejects, from the parent's degrees and cut vertices alone, the
    masks whose children a non-cut vertex beats on degree, and only the
    rest reach this test.
    """
    v = len(rows) - 1
    degrees = [row.bit_count() for row in rows]
    dv = degrees[v]
    # a tree has v edges, and its non-cut vertices are its leaves
    tree = sum(degrees) == 2 * v
    mine = None
    for u in range(v):
        du = degrees[u]
        if du < dv:
            continue
        if du == dv:
            if mine is None:
                mine = sorted(degrees[w] for w in iter_bits(rows[v]))
            if sorted(degrees[w] for w in iter_bits(rows[u])) <= mine:
                continue
        if du == 1 if tree else not _is_cut(rows, u):
            return False
    return True


def _degree_floor(adj: tuple[int, ...]) -> Callable[[int], bool]:
    """A test of a neighbourhood mask of the connected parent with these
    rows: True only where `_keeps` rejects the child.

    A non-cut vertex u of the parent stays non-cut in every child whose
    mask is not {u}, and its degree there is deg(u) + [u in mask].  With lo
    the largest degree of a non-cut vertex, a mask of c >= 2 vertices is
    beaten when lo > c, or when lo = c and the mask holds a non-cut vertex
    of degree lo; a mask {w} is beaten by any other non-cut vertex of
    degree two or more.  Degrees and cut vertices are invariant under
    Aut(parent), so the test rejects whole orbits.
    """
    degrees = [row.bit_count() for row in adj]
    uncut = [u for u in range(len(adj)) if not _is_cut(adj, u)]
    lo = max(degrees[u] for u in uncut)
    top = sum(1 << u for u in uncut if degrees[u] == lo)
    wide = sum(1 << u for u in uncut if degrees[u] >= 2)

    def floored(mask: int) -> bool:
        c = mask.bit_count()
        if c == 1:
            return wide & ~mask != 0
        return lo > c or lo == c and mask & top != 0

    return floored


def _orbit_masks(generators: Iterable[Sequence[int]],
                 masks: Iterable[int]) -> Iterator[int]:
    """The least mask of each orbit among `masks` of the group generated
    by `generators`, each a sequence whose entry v is the image of v.

    For a parent, the generators are those of Aut(parent) that one labeling
    search of it found.  `masks` must be ascending and closed under the
    group; masks in one orbit give isomorphic children.
    """
    # per generator: the bits it fixes, and (source bit, image bit) of the
    # vertices it moves
    moves = []
    for image in generators:
        moved = [(1 << v, 1 << w) for v, w in enumerate(image) if v != w]
        moves.append((~sum(src for src, _ in moved), moved))
    if not moves:
        yield from masks
        return
    seen = set()
    for mask in masks:
        if mask in seen:
            continue
        yield mask
        seen.add(mask)
        stack = [mask]
        while stack:
            m = stack.pop()
            for fixed, moved in moves:
                img = m & fixed
                for src, dst in moved:
                    if m & src:
                        img |= dst
                if img not in seen:
                    seen.add(img)
                    stack.append(img)


def _check_count(mode: StreamMode, n: int, found: int) -> None:
    """Raise CountGateError unless an unrestricted level has the published
    number of classes (where the table reaches)."""
    sequence, counts = _CLASS_COUNTS[mode]
    if n <= len(counts) and found != counts[n - 1]:
        raise CountGateError(
            f"{_CAPS[mode][0]} level of order {n} has {found} classes, "
            f"expected {counts[n - 1]} (OEIS {sequence})")


def _augment(parent: Graph, neighborhood: int) -> Graph:
    """Parent plus one new vertex adjacent to the masked vertices."""
    return _trusted(_augmented_rows(parent.adj, neighborhood))


def _augmented_rows(adj: tuple[int, ...],
                    neighborhood: int) -> tuple[int, ...]:
    new_bit = 1 << len(adj)
    return (*(row | new_bit if neighborhood >> u & 1 else row
              for u, row in enumerate(adj)), neighborhood)


def read_graph6_stream(lines: Iterable[str]) -> Iterator[Graph]:
    """Decode a graph6 text stream, skipping blanks and comment lines."""
    for line in lines:
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        yield decode_graph6(s)
