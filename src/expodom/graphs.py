"""Immutable graphs on at most 64 vertices with bitmask adjacency.

Vertices are 0..n-1.  Adjacency is a tuple of n ints; bit v of row u is set
iff uv is an edge.  Vertex sets are plain ints used as bitmasks throughout,
which keeps neighborhood unions, BFS frontiers and induced-subgraph masks to
single integer operations.

Distances, components, cut vertices and girth all come from one BFS layer
walk, `_layers`, whose entry d is the mask of the vertices at distance d.
Also provides the graph6 codec (read/write) and the canonical code that
names an isomorphism class everywhere else: the least graph6 bit string
over the labeling search's leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64

#: Sentinel for "no path"; compares correctly against int distances.
INFINITY = math.inf


class Graph6Error(ValueError):
    """Malformed graph6 input (bad header, bad byte, truncation, garbage)."""


class SizeCapError(ValueError):
    """Input exceeds a documented size cap."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_from(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_list(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph; rows must be symmetric and irreflexive."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= n <= MAX_VERTICES:
            raise SizeCapError(f"order {n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != n:
            raise ValueError("adjacency length != n")
        for u, row in enumerate(self.adj):
            if row >> n:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"self-loop at {u}")
            # symmetry: check the upper half only
            rest = row >> (u + 1) << (u + 1)
            for v in iter_bits(rest):
                if not (self.adj[v] >> u) & 1:
                    raise ValueError(f"asymmetric pair {u},{v}")

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def closed_neighborhood(self, u: int) -> int:
        return self.adj[u] | (1 << u)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={tuple(self.edges())})"


def _trusted(adj: tuple[int, ...]) -> Graph:
    """A Graph on rows the package built itself, symmetric and irreflexive
    by construction, so the public constructor's checks are skipped.
    Validation stays at `Graph(...)`, `from_edge_list` and graph6 parsing.
    """
    g = object.__new__(Graph)
    # the frozen dataclass's __setattr__ raises; set the slots directly
    object.__setattr__(g, "n", len(adj))
    object.__setattr__(g, "adj", adj)
    return g


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph; duplicate edges collapse, self-loops are rejected."""
    if not 0 <= n <= MAX_VERTICES:
        raise SizeCapError(f"order {n} outside 0..{MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def relabel(g: Graph, order: Iterable[int]) -> Graph:
    """Relabeled copy; position i of `order` holds the old vertex renamed i."""
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    return _renamed(g, order)


def induced_subgraph(g: Graph, vertices: int | Iterable[int]) -> Graph:
    """Induced subgraph; kept vertices are renumbered in ascending order."""
    mask = vertices if isinstance(vertices, int) else mask_from(vertices)
    if mask >> g.n:
        raise ValueError("vertex mask outside the graph")
    return _renamed(g, bits_list(mask))


def _renamed(g: Graph, kept: tuple[int, ...]) -> Graph:
    """The graph induced on the distinct vertices `kept`, kept[i] renamed i."""
    pos = {v: i for i, v in enumerate(kept)}
    mask = mask_from(kept)
    rows = []
    for v in kept:
        row = 0
        for w in iter_bits(g.adj[v] & mask):
            row |= 1 << pos[w]
        rows.append(row)
    return _trusted(tuple(rows))


def without_vertex(g: Graph, v: int) -> Graph:
    return induced_subgraph(g, g.vertex_mask ^ (1 << v))


# ----------------------------------------------------------------------
# Distances and components
# ----------------------------------------------------------------------

def _layers(adj: tuple[int, ...], start: int, allowed: int) -> list[int]:
    """Entry d: the mask of the vertices at distance d from `start`.

    Walks stay inside `allowed`, which must contain `start`.  The layers are
    disjoint, so their sum is the set of vertices reached.
    """
    layers = []
    seen = frontier = start
    while frontier:
        layers.append(frontier)
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= adj[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return layers


def _distance(adj: tuple[int, ...], start: int, allowed: int, target: int):
    """Index of the first layer that meets `target`, INFINITY if none does."""
    for d, layer in enumerate(_layers(adj, start, allowed)):
        if layer & target:
            return d
    return INFINITY


def set_distance(g: Graph, xs: int | Iterable[int], ys: int | Iterable[int]):
    """Minimum distance between the two vertex sets; 0 if they intersect."""
    xm = xs if isinstance(xs, int) else mask_from(xs)
    ym = ys if isinstance(ys, int) else mask_from(ys)
    if xm == 0 or ym == 0:
        raise ValueError("set_distance needs two nonempty sets")
    if (xm | ym) >> g.n:
        raise ValueError("vertex mask outside the graph")
    return _distance(g.adj, xm, g.vertex_mask, ym)


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the components, ordered by least member."""
    comps = []
    todo = g.vertex_mask
    while todo:
        comp = sum(_layers(g.adj, todo & -todo, todo))
        comps.append(comp)
        todo ^= comp
    return comps


def is_connected(g: Graph) -> bool:
    full = g.vertex_mask
    return g.n == 0 or sum(_layers(g.adj, 1, full)) == full


def _is_cut(adj: tuple[int, ...], u: int) -> bool:
    """Whether deleting u disconnects the connected graph with these rows."""
    rest = ((1 << len(adj)) - 1) ^ (1 << u)
    return sum(_layers(adj, rest & -rest, rest)) != rest


def girth(g: Graph):
    """Length of a shortest cycle, INFINITY for forests.

    For each edge uv, the shortest cycle through uv has length
    dist(u,v) in g-uv plus one; minimizing over edges is exact and keeps
    the correctness argument one line long.
    """
    best = INFINITY
    for u, v in g.edges():
        rows = list(g.adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        d = _distance(tuple(rows), 1 << u, g.vertex_mask, 1 << v)
        if d + 1 < best:
            best = d + 1
    return best


# ----------------------------------------------------------------------
# graph6 codec
# ----------------------------------------------------------------------

def _column(row: int, order, j: int) -> int:
    """graph6 column j: bits order[0..j-1] of `row`, the first one highest."""
    col = 0
    for i in range(j):
        col = (col << 1) | ((row >> order[i]) & 1)
    return col


def _pack(n: int, columns: Iterable[int]) -> bytes:
    """graph6 bytes of an order-n graph from its columns 1..n-1, in order."""
    bits = 0
    for j, col in enumerate(columns, start=1):
        bits = (bits << j) | col
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    bits <<= 6 * need - nbits
    head = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
    body = [(bits >> (6 * k)) & 63 for k in range(need - 1, -1, -1)]
    return bytes(63 + x for x in head + body)


def encode_graph6(g: Graph) -> str:
    """Standard graph6 line (no trailing newline)."""
    n = g.n
    order = range(n)
    return _pack(n, (_column(g.adj[j], order, j)
                     for j in range(1, n))).decode("ascii")


def graph6_bit_stream(text: str | bytes) -> tuple[int, int, int]:
    """Order, bit stream and bit count (padding included) of a graph6 line.

    Strict about the byte range, length and padding: a line this accepts
    always decodes.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise Graph6Error("empty graph6 input")
    for ch in line:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)} outside graph6 range")
    if line[0] == "~":
        if len(line) >= 2 and line[1] == "~":
            raise SizeCapError("order beyond 258047 exceeds the 64-vertex cap")
        if len(line) < 4:
            raise Graph6Error("truncated long-form order")
        n = ((ord(line[1]) - 63) << 12) | ((ord(line[2]) - 63) << 6) | (ord(line[3]) - 63)
        body = line[4:]
    else:
        n = ord(line[0]) - 63
        body = line[1:]
    if n > MAX_VERTICES:
        raise SizeCapError(f"order {n} exceeds the {MAX_VERTICES}-vertex cap")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error("truncated graph6 bit stream")
    if len(body) > need:
        raise Graph6Error("trailing garbage after graph6 bit stream")
    bits = 0
    for ch in body:
        bits = (bits << 6) | (ord(ch) - 63)
    if bits & ((1 << (6 * need - nbits)) - 1):
        raise Graph6Error("nonzero padding bits")
    return n, bits, 6 * need


def decode_graph6(text: str | bytes) -> Graph:
    """Parse one graph6 line; strict about length and padding."""
    n, bits, shift = graph6_bit_stream(text)
    # column-major upper triangle, the order encode_graph6 writes
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            shift -= 1
            if (bits >> shift) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return _trusted(tuple(rows))


# ----------------------------------------------------------------------
# Canonical form
# ----------------------------------------------------------------------
#
# Refined-partition backtracking: refine the ordered partition by neighbor
# counts until equitable, then individualize each vertex of the first
# non-singleton cell and recurse.  Every discrete leaf is an ordering, and
# its graph6 columns, read in order, are a graph6 bit string.  The canonical
# code is the least of these strings, packed.  Prefix pruning against the
# best string so far keeps the tree small; a transposition-automorphism
# (twin) skip inside the branch cell stops K_n-like cells exploding.
#
# The same search yields generators of the automorphism group: a leaf whose
# string equals the best one differs from the best leaf by an automorphism,
# and so does each twin skip's transposition.  Refinement commutes with
# automorphisms and neither pruning rule can hide every leaf of the best
# string below a vertex of the first best leaf's orbit in its cell, so at
# each node of that leaf's path the generators found move its vertex to
# every vertex of that orbit: they generate the whole group (McKay and
# Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60, 2014).

def _refine(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """Split cells by neighbour counts into every cell until equitable.

    After each split the scan restarts from the first cell.
    """
    idx = 0
    while idx < len(cells):
        cell = cells[idx]
        if cell & (cell - 1):
            groups: dict[tuple[int, ...], int] = {}
            rest = cell
            while rest:
                b = rest & -rest
                rest ^= b
                av = adj[b.bit_length() - 1]
                sig = tuple([(av & c).bit_count() for c in cells])
                groups[sig] = groups.get(sig, 0) | b
            if len(groups) > 1:
                cells[idx:idx + 1] = [groups[s] for s in sorted(groups)]
                idx = 0
                continue
        idx += 1
    return cells


def _search(adj: tuple[int, ...],
            generators: set[tuple[int, ...]] | None = None
            ) -> tuple[list[int], list[int]]:
    """The least leaf's graph6 columns, and its order.

    Position i of the order holds the vertex that the canonical form
    names i.  With a `generators` set, also adds generators of the graph's
    automorphism group to it, each a tuple whose entry v is the image of v.
    """
    n = len(adj)
    best: list[int] | None = None
    best_order: list[int] = list(range(n))

    def dfs(cells: list[int]) -> None:
        nonlocal best, best_order
        order = []
        for c in cells:
            if c & (c - 1) == 0:
                order.append(c.bit_length() - 1)
            else:
                break
        p = len(order)
        rows = [_column(adj[order[i]], order, i) for i in range(1, p)]
        if best is not None and rows > best[: len(rows)]:
            return
        if p == n:
            if best is None or rows < best:
                best, best_order = rows, order
            elif generators is not None:
                # same relabeled graph: best_order[i] -> order[i] is an
                # automorphism
                image = [0] * n
                for u, v in zip(best_order, order):
                    image[u] = v
                generators.add(tuple(image))
            return
        target = cells[p]
        tried: list[int] = []
        for v in iter_bits(target):
            vb = 1 << v
            skip = False
            for u in tried:
                # transposition (u v) is an automorphism: branches coincide
                if (adj[u] & ~vb) == (adj[v] & ~(1 << u)):
                    if generators is not None:
                        image = list(range(n))
                        image[u], image[v] = v, u
                        generators.add(tuple(image))
                    skip = True
                    break
            if skip:
                continue
            tried.append(v)
            dfs(_refine(adj, cells[:p] + [vb, target ^ vb] + cells[p + 1:]))

    if n > 1:
        dfs(_refine(adj, [(1 << n) - 1]))
    return best or [], best_order


def canonical_code(g: Graph) -> bytes:
    """graph6 bytes of g's canonical form; equal iff isomorphic."""
    return _pack(g.n, _search(g.adj)[0])


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return decode_graph6(canonical_code(g))
