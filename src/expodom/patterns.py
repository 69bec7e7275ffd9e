"""Named small graphs used as forbidden patterns, plus an induced matcher.

The catalog is transcribed by hand, so it is guarded twice: `catalog()`
checks order/size/structure on first use, and `verify_catalog()` (run at
the start of every sweep) additionally recomputes the domination parameters
of the seven obstruction patterns with the exact solvers.

The matcher backtracks over pattern vertices in descending-degree order
and tries host vertices in ascending order, so its first embedding is
deterministic.  Each step's candidates are one bitmask: host vertices not
yet used, of at least the pattern vertex's degree, adjacent to the images
of its earlier neighbours and to none of the images of its earlier
non-neighbours.  What a step needs from the pattern (its degree, earlier
neighbours and non-neighbours) is a search plan, built once per catalog
pattern on first use; a bare `Graph` pattern gets a plan per call.

A catalog pattern's plan also breaks its automorphism group (the closure
of the labeling search's generators) along a stabiliser chain in plan
order: each step the subgroup still moves must take a smaller host vertex
than the rest of its orbit.  Of each class of embeddings only the first
in search order completes, so the first embedding found is the unbroken
plan's, and a free host costs one branch per class.

Embeddings through one vertex are found without that vertex.  A graph
contains a pattern H through its vertex v exactly when, for some vertex q
of H, the graph minus v has an induced embedding of H-q whose image S
meets v's neighbourhood in T, the image of q's neighbours.  An
automorphism taking q to q' maps the embeddings of H-q' onto those of H-q
with the same (S, T), and two embeddings of H-q with the same (S, T)
differ by an automorphism fixing q.  So each catalog pattern keeps one
form per vertex orbit (the plan of H-q, broken by the automorphisms
fixing q, and the steps adjacent to q), and `_meetings` runs the
matcher's one recursion, `_extend`, to collect each (S, T) pair of every
form exactly once.  Since T has one vertex per neighbour of q, forms
whose q has more neighbours than v can have are skipped: a new leaf meets
only the forms of H's leaves.  `is_free_with_new_vertex` tests v's row
against the pairs, and `extension_table` marks, for a pattern-free
parent, every neighbourhood of a new vertex that would complete a
pattern, so an enumeration settles all of a parent's children in one
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Optional, Sequence

from .graphs import Graph, _search, from_edge_list, girth, \
    without_vertex, INFINITY
from . import domination

#: A found embedding: position i holds the host vertex that pattern vertex i
#: maps to.
Embedding = tuple[int, ...]


class GateError(AssertionError):
    """A gate found a wrong result: parameter values at startup (solved or
    cached), or a level's class count (`enumeration.CountGateError`)."""


@dataclass(frozen=True)
class Pattern:
    name: str
    graph: Graph

    # search plans depend only on the pattern: built on first use, kept
    # for the life of the pattern
    @cached_property
    def _group(self) -> "tuple[Embedding, ...]":
        return _automorphisms(self.graph)

    @cached_property
    def _plan(self) -> "_Plan":
        return _match_plan(self.graph, self._group)

    @cached_property
    def _forms(self) -> "tuple[_Form, ...]":
        return _vertex_forms(self.graph, self._group)


_EDGE_LISTS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "K3": (3, ((0, 1), (1, 2), (0, 2))),
    "K4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    # K4 minus one edge; 0 and 1 are the degree-3 pair
    "DIAMOND": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))),
    # triangle 0,1,2 with horns 3 on 0 and 4 on 1
    "BULL": (5, ((0, 1), (1, 2), (0, 2), (0, 3), (1, 4))),
    "K23": (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
    # 2x3 grid: rails 0-1-2 and 3-4-5
    "P2xP3": (6, ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5))),
    "P7": (7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6))),
    "C7": (7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6))),
    # path 0-1-2 with a pendant on each of 0, 1, 2
    "F1": (6, ((0, 1), (1, 2), (0, 3), (1, 4), (2, 5))),
    # 4-cycle 0-1-2-3 with the tail 1-4-5-6
    "F2": (7, ((0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (4, 5), (5, 6))),
    # 4-cycle 0-1-2-3 and a 5-cycle 1-4-6-5-2 glued along the edge 1-2
    "F3": (7, ((0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (2, 5), (4, 6), (5, 6))),
    # two 4-cycles sharing only vertex 0
    "F4": (7, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6))),
    # 4-cycle 0-1-2-3, second path 1-4-5-3 around it, pendant 6 on 2
    "F5": (7, ((0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (4, 5), (3, 5), (2, 6))),
    # two triangles 0-1-2 and 3-4-5 joined by a perfect matching
    "P2xC3": (6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                  (0, 3), (1, 4), (2, 5))),
}

#: (order, size) every catalog entry must exhibit.
_EXPECTED_ORDER_SIZE: dict[str, tuple[int, int]] = {
    "K3": (3, 3), "K4": (4, 6), "DIAMOND": (4, 5), "BULL": (5, 5),
    "K23": (5, 6), "P2xP3": (6, 7), "P7": (7, 6), "C7": (7, 7),
    "F1": (6, 5), "F2": (7, 7), "F3": (7, 8), "F4": (7, 8), "F5": (7, 8),
    "P2xC3": (6, 9),
}

#: Patterns whose presence is the obstruction the sweeps look for.
OBSTRUCTION_NAMES: tuple[str, ...] = ("P7", "C7", "F1", "F2", "F3", "F4", "F5")

#: Patterns excluded by the main restricted sweep.
RESTRICTION_NAMES: tuple[str, ...] = ("BULL", "DIAMOND", "K4", "K23", "P2xP3")

#: Restriction of the triangle-free corollary sweep.
TRIANGLE_RESTRICTION_NAMES: tuple[str, ...] = ("K3", "K23", "P2xP3")


@cache
def catalog() -> tuple[Pattern, ...]:
    """All named patterns, structure-checked against the expected table."""
    out = []
    for name, (n, edges) in _EDGE_LISTS.items():
        g = from_edge_list(n, edges)
        want_n, want_m = _EXPECTED_ORDER_SIZE[name]
        if g.n != want_n or g.m != want_m:
            raise AssertionError(
                f"catalog entry {name}: got order {g.n} size {g.m}, "
                f"expected {want_n},{want_m}")
        out.append(Pattern(name, g))
    # F1 must be a tree; the glued/shared-cycle shapes must have girth 4
    by_name = {p.name: p.graph for p in out}
    if girth(by_name["F1"]) is not INFINITY:
        raise AssertionError("catalog entry F1 is not acyclic")
    for name in ("F2", "F3", "F4", "F5"):
        if girth(by_name[name]) != 4:
            raise AssertionError(f"catalog entry {name} has wrong girth")
    return tuple(out)


def pattern(name: str) -> Pattern:
    for p in catalog():
        if p.name == name:
            return p
    raise ValueError(f"unknown pattern name: {name!r}")


def pattern_names() -> tuple[str, ...]:
    return tuple(p.name for p in catalog())


@cache
def verify_catalog() -> None:
    """Solver-backed self-check of the obstruction patterns.

    Each of P7, C7, F1..F5 must have domination number 3 and exponential
    domination number 2.  Raises GateError if a transcription slipped.
    It stays apart from the sweeps' gate because bench/tracer.py patches it.
    """
    catalog()
    for name in OBSTRUCTION_NAMES:
        g = pattern(name).graph
        gamma = domination._gamma_value(g)
        gamma_e = domination.exponential_domination_number(g).value
        if (gamma, gamma_e) != (3, 2):
            raise GateError(
                f"obstruction {name}: expected parameters (3, 2), "
                f"got ({gamma}, {gamma_e})")


# ----------------------------------------------------------------------
# Induced-subgraph matcher
# ----------------------------------------------------------------------

#: One step of a search plan: the pattern vertex placed at this step, its
#: degree, the earlier steps whose images must be adjacent (then
#: non-adjacent) to this step's image, and the earlier step, if any, whose
#: image must be smaller.
_Step = tuple[int, int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]
_Plan = tuple[_Step, ...]

def _automorphisms(g: Graph) -> tuple[Embedding, ...]:
    """Every automorphism of g, as an embedding of g in itself: the
    closure of the labeling search's generators."""
    generators: set[Embedding] = set()
    _search(g.adj, generators)
    group = [tuple(range(g.n))]
    for s in group:  # appending while walking reaches every product
        for t in generators:
            ts = tuple(t[v] for v in s)
            if ts not in group:
                group.append(ts)
    return tuple(group)


def _match_plan(pg: Graph, group: Sequence[Embedding] = ()) -> _Plan:
    """The search plan of pg, broken by `group`, automorphisms of pg.

    Each step b that the subgroup fixing the earlier steps moves must map
    below the rest of its orbit, all later steps; a vertex in several such
    orbits keeps the last b, which already lies above the earlier ones.
    """
    # highest degree first fails fastest; ties broken by index for
    # deterministic output
    order = sorted(range(pg.n), key=lambda v: (-pg.degree(v), v))
    above: list[tuple[int, ...]] = [()] * pg.n
    for i, b in enumerate(order):
        for s in group:
            if s[b] != b:
                above[s[b]] = (i,)
        group = [s for s in group if s[b] == b]
    steps = []
    for i, q in enumerate(order):
        row = pg.adj[q]
        steps.append((q, row.bit_count(),
                      tuple(j for j in range(i) if (row >> order[j]) & 1),
                      tuple(j for j in range(i) if not (row >> order[j]) & 1),
                      above[q]))
    return tuple(steps)


#: A pattern H seen from one of its vertices q: the plan of H-q, and the
#: plan steps whose pattern vertices are q's neighbours.
_Form = tuple[_Plan, tuple[int, ...]]


def _vertex_forms(pg: Graph, group: Sequence[Embedding]) -> tuple[_Form, ...]:
    """One form per orbit of `group`, pg's automorphisms, on its vertices:
    for the orbit's least vertex q, the plan of pg-q broken by the
    automorphisms that fix q."""
    forms = []
    seen = 0
    for q in range(pg.n):
        if (seen >> q) & 1:
            continue
        fixing = []
        for s in group:
            seen |= 1 << s[q]
            if s[q] == q:
                # without_vertex renumbers the vertices after q down by one
                fixing.append(tuple(r - (r > q) for r in s[:q] + s[q + 1:]))
        plan = _match_plan(without_vertex(pg, q), fixing)
        near = tuple(i for i, (r, *_) in enumerate(plan)
                     if (pg.adj[q] >> (r + (r >= q))) & 1)
        forms.append((plan, near))
    return tuple(forms)


def _degree_masks(host: Graph) -> list[int]:
    """Entry d is the mask of host vertices of degree at least d."""
    at_least = [0] * (host.n + 1)
    for v, row in enumerate(host.adj):
        at_least[row.bit_count()] |= 1 << v
    for d in range(host.n - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    return at_least


def _extend(plan: _Plan, adj: tuple[int, ...], at_least: list[int],
            image: list[int], idx: int, used: int,
            near: tuple[int, ...] = (), out: Optional[set] = None) -> bool:
    """Fill image[idx:] along the plan; image[i] is step i's host vertex.

    True at the first completion, unless `out` is given: then every
    completion adds (used, touched) to it, the vertices of the image and
    of the steps in `near`."""
    if idx == len(plan):
        if out is None:
            return True
        touched = 0
        for i in near:
            touched |= 1 << image[i]
        out.add((used, touched))
        return False
    _, deg, adjacent, apart, above = plan[idx]
    cand = at_least[deg] & ~used
    for j in adjacent:
        cand &= adj[image[j]]
    for j in apart:
        cand &= ~adj[image[j]]
    for j in above:
        cand &= -2 << image[j]
    while cand:
        b = cand & -cand
        image[idx] = b.bit_length() - 1
        if _extend(plan, adj, at_least, image, idx + 1, used | b, near, out):
            return True
        cand ^= b
    return False


def _embedding(plan: _Plan, image: list[int]) -> Embedding:
    out = [0] * len(plan)
    for (q, *_), h in zip(plan, image):
        out[q] = h
    return tuple(out)


def _first(host: Graph, at_least: list[int], plan: _Plan
           ) -> Optional[Embedding]:
    k = len(plan)
    if k == 0:
        return ()
    if k > host.n:
        return None
    image = [-1] * k
    if _extend(plan, host.adj, at_least, image, 0, 0):
        return _embedding(plan, image)
    return None


def find_induced(host: Graph, p: Pattern | Graph) -> Optional[Embedding]:
    """First induced embedding of the pattern in the host, or None.

    Backtracks over pattern vertices in descending-degree order with host
    candidates ascending, so the result is deterministic.  A catalog
    pattern's symmetry-broken plan finds what its graph's unbroken plan
    finds.
    """
    plan = p._plan if isinstance(p, Pattern) else _match_plan(p)
    return _first(host, _degree_masks(host), plan)


@cache
def _named(names: frozenset[str]) -> tuple[Pattern, ...]:
    """The named catalog patterns in catalog order; one entry per name set."""
    unknown = names.difference(pattern_names())
    if unknown:
        raise ValueError(f"unknown pattern name(s): {sorted(unknown)}")
    return tuple(p for p in catalog() if p.name in names)


def find_any_pattern(host: Graph, names: Iterable[str]
                     ) -> Optional[tuple[str, Embedding]]:
    """First (catalog order) pattern from `names` embedded in the host."""
    wanted = _named(frozenset(names))
    at_least = _degree_masks(host)
    for p in wanted:
        emb = _first(host, at_least, p._plan)
        if emb is not None:
            return (p.name, emb)
    return None


def is_free(host: Graph, names: Iterable[str]) -> bool:
    """True iff the host contains none of the named patterns induced."""
    return find_any_pattern(host, names) is None


# ----------------------------------------------------------------------
# Embeddings through one vertex
# ----------------------------------------------------------------------

def _meetings(host: Graph, names: Iterable[str], skip: int,
              reach: int) -> set[tuple[int, int]]:
    """The (S, T) pairs of the named patterns' forms in the host.

    For every named pattern H, vertex q of H with at most `reach`
    neighbours, and induced embedding of H-q in the host that avoids the
    vertices in `skip`: S is the image and T the image of q's neighbours.
    A vertex with at most `reach` neighbours can only meet these.
    """
    at_least = [m & ~skip for m in _degree_masks(host)]
    out: set[tuple[int, int]] = set()
    for p in _named(frozenset(names)):
        for plan, near in p._forms:
            # a longer plan would overrun at_least with its degrees
            if len(near) <= reach and len(plan) <= host.n:
                _extend(plan, host.adj, at_least, [-1] * len(plan), 0, 0,
                        near, out)
    return out


def is_free_with_new_vertex(host: Graph, names: Iterable[str], v: int) -> bool:
    """True iff no named pattern has an induced embedding through vertex v.
    No package code calls it; it stays because bench/tracer.py patches it."""
    if not 0 <= v < host.n:
        raise ValueError("vertex v outside the graph")
    row = host.adj[v]
    return all(row & s != t for s, t in
               _meetings(host, names, 1 << v, row.bit_count()))


@cache
def _mask_columns(k: int) -> tuple[tuple[int, int], ...]:
    """Per vertex u < k, two sets of masks in range(1 << k), each an int
    whose bit m stands for mask m: the masks without u, then those with u."""
    every = (1 << (1 << k)) - 1
    columns = []
    for u in range(k):
        half = 1 << u
        # ones in the upper half of every period of 2 * half bits
        with_u = (((1 << half) - 1) << half) * (every // ((1 << 2 * half) - 1))
        columns.append((every ^ with_u, with_u))
    return tuple(columns)


def extension_table(parent: Graph, names: Iterable[str], reach: int) -> int:
    """Bit `mask`, for a mask of at most `reach` vertices, is set iff the
    parent plus one new vertex adjacent to the masked vertices contains a
    named pattern.

    The parent must be free of the named patterns.  Then every pattern in
    a child passes through the new vertex, and the child holds one exactly
    when `mask & S == T` for one of the parent's (S, T) pairs.
    """
    columns = _mask_columns(parent.n)
    table = 0
    for s, t in _meetings(parent, names, 0, reach):
        hit = -1
        while s:
            b = s & -s
            u = b.bit_length() - 1
            hit &= columns[u][(t >> u) & 1]
            s ^= b
        table |= hit
    return table
