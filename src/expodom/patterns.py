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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Optional

from .graphs import Graph, from_edge_list, girth, INFINITY
from . import domination

#: A found embedding: position i holds the host vertex that pattern vertex i
#: maps to.
Embedding = tuple[int, ...]


class GateError(AssertionError):
    """A startup gate found wrong parameter values (solved or cached)."""


@dataclass(frozen=True)
class Pattern:
    name: str
    graph: Graph

    # search plans depend only on the pattern: built on first use, kept
    # for the life of the pattern
    @cached_property
    def _plan(self) -> "_Plan":
        return _match_plan(self.graph)

    @cached_property
    def _through_plans(self) -> "tuple[_Plan, ...]":
        return _anchored_plans(self.graph)


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
#: degree, and the earlier steps whose images must be adjacent (then
#: non-adjacent) to this step's image.
_Step = tuple[int, int, tuple[int, ...], tuple[int, ...]]
_Plan = tuple[_Step, ...]


def _match_order(pg: Graph) -> list[int]:
    # highest degree first fails fastest; ties broken by index for
    # deterministic output
    return sorted(range(pg.n), key=lambda v: (-pg.degree(v), v))


def _search_plan(pg: Graph, order: list[int]) -> _Plan:
    steps = []
    for i, q in enumerate(order):
        row = pg.adj[q]
        steps.append((q, row.bit_count(),
                      tuple(j for j in range(i) if (row >> order[j]) & 1),
                      tuple(j for j in range(i) if not (row >> order[j]) & 1)))
    return tuple(steps)


def _match_plan(pg: Graph) -> _Plan:
    return _search_plan(pg, _match_order(pg))


def _anchored_plans(pg: Graph) -> tuple[_Plan, ...]:
    """One plan per pattern vertex pinned first, in match order."""
    order = _match_order(pg)
    return tuple(_search_plan(pg, [q] + [r for r in order if r != q])
                 for q in order)


def _degree_masks(host: Graph) -> list[int]:
    """Entry d is the mask of host vertices of degree at least d."""
    at_least = [0] * (host.n + 1)
    for v, row in enumerate(host.adj):
        at_least[row.bit_count()] |= 1 << v
    for d in range(host.n - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    return at_least


def _extend(plan: _Plan, adj: tuple[int, ...], at_least: list[int],
            image: list[int], idx: int, used: int) -> bool:
    """Fill image[idx:] along the plan; image[i] is step i's host vertex."""
    if idx == len(plan):
        return True
    _, deg, adjacent, apart = plan[idx]
    cand = at_least[deg] & ~used
    for j in adjacent:
        cand &= adj[image[j]]
    for j in apart:
        cand &= ~adj[image[j]]
    while cand:
        b = cand & -cand
        image[idx] = b.bit_length() - 1
        if _extend(plan, adj, at_least, image, idx + 1, used | b):
            return True
        cand ^= b
    return False


def _embedding(plan: _Plan, image: list[int]) -> Embedding:
    out = [0] * len(plan)
    for (q, _, _, _), h in zip(plan, image):
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


def _first_through(host: Graph, at_least: list[int],
                   plans: tuple[_Plan, ...], anchor: int
                   ) -> Optional[Embedding]:
    k = len(plans)
    if k == 0 or k > host.n:
        return None
    hdeg_anchor = host.adj[anchor].bit_count()
    image = [-1] * k
    image[0] = anchor
    for plan in plans:
        if plan[0][1] > hdeg_anchor:
            continue
        if _extend(plan, host.adj, at_least, image, 1, 1 << anchor):
            return _embedding(plan, image)
    return None


def find_induced(host: Graph, p: Pattern | Graph) -> Optional[Embedding]:
    """First induced embedding of the pattern in the host, or None.

    Backtracks over pattern vertices in descending-degree order with host
    candidates ascending, so the result is deterministic.
    """
    plan = p._plan if isinstance(p, Pattern) else _match_plan(p)
    return _first(host, _degree_masks(host), plan)


def _find_induced_through(host: Graph, p: Pattern | Graph,
                          anchor: int) -> Optional[Embedding]:
    """Like find_induced, but the image must contain host vertex `anchor`.

    Tries every pattern vertex as the one pinned to the anchor; used by
    hereditary-pruned enumeration, where the host minus `anchor` is already
    known pattern-free, so any embedding must pass through it.
    """
    plans = (p._through_plans if isinstance(p, Pattern)
             else _anchored_plans(p))
    return _first_through(host, _degree_masks(host), plans, anchor)


@cache
def _named(names: frozenset[str]) -> tuple[Pattern, ...]:
    """The named catalog patterns in catalog order; one entry per name set."""
    unknown = names.difference(pattern_names())
    if unknown:
        raise ValueError(f"unknown pattern name(s): {sorted(unknown)}")
    return tuple(p for p in catalog() if p.name in names)


def find_any_pattern(host: Graph, names: Iterable[str],
                     required_vertex: Optional[int] = None
                     ) -> Optional[tuple[str, Embedding]]:
    """First (catalog order) pattern from `names` embedded in the host."""
    wanted = _named(frozenset(names))
    at_least = _degree_masks(host)
    for p in wanted:
        if required_vertex is None:
            emb = _first(host, at_least, p._plan)
        else:
            emb = _first_through(host, at_least, p._through_plans,
                                 required_vertex)
        if emb is not None:
            return (p.name, emb)
    return None


def is_free(host: Graph, names: Iterable[str]) -> bool:
    """True iff the host contains none of the named patterns induced."""
    return find_any_pattern(host, names) is None


def is_free_with_new_vertex(host: Graph, names: Iterable[str], v: int) -> bool:
    """Freeness check restricted to embeddings through host vertex v."""
    return find_any_pattern(host, names, required_vertex=v) is None
