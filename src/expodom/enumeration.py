"""Streams of pairwise non-isomorphic connected graphs and trees.

Level-by-level augmentation: every connected graph of order k+1 arises from
a connected graph of order k by adding one vertex with a nonempty
neighborhood (delete any non-cut vertex to see this), and every tree arises
from a tree by attaching a leaf.  Candidates are deduplicated by canonical
code, and each level is kept in memory while the next is produced.

Pattern restrictions are hereditary, so a restricted level can be grown
from the restricted level below it; only embeddings through the new vertex
need checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .graphs import Graph, SizeCapError, canonical_code, decode_graph6
from .graphs import canonical_graph  # kept for bench/tracer.py to patch
from . import patterns

MAX_CONNECTED_ORDER = 10
MAX_TREE_ORDER = 14


class StreamMode(Enum):
    CONNECTED = "connected"
    TREES = "trees"


@dataclass(frozen=True)
class GraphStream:
    """Deterministic stream of the canonical representatives of one order."""

    order: int
    mode: StreamMode
    free_of: frozenset[str]

    def __iter__(self) -> Iterator[Graph]:
        return (g for _, g in self.pairs())

    def pairs(self) -> Iterator[tuple[bytes, Graph]]:
        """(canonical code, graph) per class, in code order."""
        return iter(_level_pairs(self.mode, self.free_of, self.order))


def connected_graphs(n: int, free_of: Iterable[str] = ()) -> GraphStream:
    """All connected graphs of order exactly n, one per isomorphism class."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > MAX_CONNECTED_ORDER:
        raise SizeCapError(
            f"connected enumeration capped at order {MAX_CONNECTED_ORDER}")
    return GraphStream(n, StreamMode.CONNECTED, _normalize_names(free_of))


def trees(n: int, free_of: Iterable[str] = ()) -> GraphStream:
    """All trees of order exactly n, one per isomorphism class."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > MAX_TREE_ORDER:
        raise SizeCapError(f"tree enumeration capped at order {MAX_TREE_ORDER}")
    return GraphStream(n, StreamMode.TREES, _normalize_names(free_of))


def _normalize_names(names: Iterable[str]) -> frozenset[str]:
    out = frozenset(names)
    known = set(patterns.pattern_names())
    unknown = out - known
    if unknown:
        raise ValueError(f"unknown pattern name(s): {sorted(unknown)}")
    return out


# ----------------------------------------------------------------------
# Level construction (memoized per mode/restriction)
# ----------------------------------------------------------------------

_LEVELS: dict[tuple[StreamMode, frozenset[str], int], list[tuple[bytes, Graph]]] = {}


def _level_pairs(mode: StreamMode, free_of: frozenset[str],
                 n: int) -> list[tuple[bytes, Graph]]:
    key = (mode, free_of, n)
    got = _LEVELS.get(key)
    if got is not None:
        return got
    if n == 1:
        single = Graph(1, (0,))
        level = [(canonical_code(single), single)]
        # patterns all have >= 3 vertices, but stay honest about the filter
        if free_of and not patterns.is_free(single, free_of):
            level = []
        _LEVELS[key] = level
        return level
    seen: dict[bytes, Graph] = {}
    for _, parent in _level_pairs(mode, free_of, n - 1):
        k = parent.n
        if mode is StreamMode.TREES:
            masks: Iterable[int] = (1 << u for u in range(k))
        else:
            masks = range(1, 1 << k)
        for mask in masks:
            child = _augment(parent, mask)
            if free_of and not patterns.is_free_with_new_vertex(child, free_of, k):
                continue
            code = canonical_code(child)
            if code not in seen:
                seen[code] = decode_graph6(code)
    level = sorted(seen.items())
    _LEVELS[key] = level
    return level


def _augment(parent: Graph, neighborhood: int) -> Graph:
    """Parent plus one new vertex adjacent to the masked vertices."""
    k = parent.n
    new_bit = 1 << k
    rows = [row | new_bit if (neighborhood >> u) & 1 else row
            for u, row in enumerate(parent.adj)]
    rows.append(neighborhood)
    return Graph(k + 1, tuple(rows))


def read_graph6_stream(lines: Iterable[str]) -> Iterator[Graph]:
    """Decode a graph6 text stream, skipping blanks and comment lines."""
    for line in lines:
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        yield decode_graph6(s)
