"""Domination, exponential domination, and the porous variant, exactly.

All weight arithmetic is fixed-point over a common power-of-two scale: a
weight on a graph of order n is an integer numerator over 2^n.  A single
set vertex at distance d contributes (1/2)^(d-1) = 2^(n+1-d) / 2^n, so the
threshold test "weight >= 1" is the integer test "numerator >= 2^n".  The
public weight functions return these values as exact `Fraction`s.  No
floating point is involved anywhere in this module.

The distance feeding the non-porous weight is constrained: it is the length
of a shortest path from the set vertex v whose internal vertices all avoid
the set.  Distinct set vertices therefore never see each other (distance
INFINITY), and a set vertex sees itself at distance 0.

Every parameter comes from the same search: for k = 0, 1, ..., n a
depth-first walk over the k-subsets in lexicographic order, stopped at the
first accepted set.  The whole vertex set is always accepted, so a walk
that accepts nothing by k = n is a bug and raises RuntimeError.  gamma's
walk is cut by closed neighborhoods: by the vertices still able to
dominate each undominated vertex, and by a packing of undominated vertices
no two of which one pick can dominate.  gamma_e
and gamma_e_star share one walk, cut by the porous bound.  The bound is
sound for both parameters.  A constrained distance is never shorter than
the plain one, so the weight is at most the porous weight at every vertex
and every exponential dominating set is porous dominating.  The porous
weight is additive over the set, so when the chosen prefix plus the best
contributions the remaining picks could make still leaves some vertex below
1, no completion of the prefix is accepted.  Every solver returns the
lexicographically least optimal set as its certificate.

`compute_all` and `parameter_values` build that walk's rows once per graph
from BFS layer masks and walk it once: its first porous dominating leaf is
gamma_e_star's certificate, and it goes on from there to the first leaf
that passes the full weight check, gamma_e's.  Every exact leaf is a
porous leaf, so nothing before gamma_e_star's certificate is skipped.
gamma's walk shares nothing with it and starts at k = 0, so that the chain
gamma >= gamma_e >= gamma_e_star, which the sweeps and the results cache
check, compares independent searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from .graphs import (
    Graph,
    _as_mask,
    _distance,
    _layers,
    iter_bits,
)

if TYPE_CHECKING:  # the weight tables import it when called
    from fractions import Fraction


@dataclass(frozen=True)
class ParamResult:
    value: int
    certificate: tuple[int, ...]


# ----------------------------------------------------------------------
# Distances seen from a set
# ----------------------------------------------------------------------

def constrained_distance(g: Graph, d: int | Iterable[int], u: int, v: int):
    """Shortest u-v path length with v the only set vertex on the path.

    v must belong to d.  Returns 0 for u == v, INFINITY when u is a
    different set vertex or when every path is blocked.  No package code
    calls it: the tests check the weights against it.
    """
    dmask = _as_mask(g, d)
    for w in (u, v):
        if not 0 <= w < g.n:
            raise ValueError(f"vertex {w} outside the graph")
    if not (dmask >> v) & 1:
        raise ValueError(f"vertex {v} is not in the set")
    allowed = (g.vertex_mask & ~dmask) | (1 << v)
    return _distance(g.adj, 1 << v, allowed, 1 << u)


def _numerators(g: Graph, dmask: int, porous: bool) -> list[int]:
    """Weight numerator at every vertex, scale 2^n.

    One BFS layer walk per set vertex v: a vertex in layer d gets
    2^(n+1-d).  Porous walks run anywhere; constrained ones stay inside
    (V \\ dmask) + v, so they avoid the other set vertices.
    """
    nums = [0] * g.n
    blocked = 0 if porous else dmask
    for v in iter_bits(dmask):
        allowed = (g.vertex_mask & ~blocked) | (1 << v)
        num = 2 << g.n
        for layer in _layers(g.adj, 1 << v, allowed):
            for u in iter_bits(layer):
                nums[u] += num
            num >>= 1
    return nums


def weight_table(g: Graph, d: int | Iterable[int]) -> list[Fraction]:
    """The exponential-domination weight the set d exerts on each vertex."""
    from fractions import Fraction

    scale = 1 << g.n
    return [Fraction(num, scale)
            for num in _numerators(g, _as_mask(g, d), False)]


def porous_weight_table(g: Graph, d: int | Iterable[int]) -> list[Fraction]:
    """The porous weight d exerts on each vertex: distances ignore
    blocking by other set vertices."""
    from fractions import Fraction

    scale = 1 << g.n
    return [Fraction(num, scale)
            for num in _numerators(g, _as_mask(g, d), True)]


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------

def is_dominating(g: Graph, d: int | Iterable[int]) -> bool:
    dmask = _as_mask(g, d)
    covered = 0
    for v in iter_bits(dmask):
        covered |= g.closed_neighborhood(v)
    return covered == g.vertex_mask


def is_exponential_dominating(g: Graph, d: int | Iterable[int]) -> bool:
    one = 1 << g.n
    return all(num >= one for num in _numerators(g, _as_mask(g, d), False))


def is_porous_exponential_dominating(g: Graph, d: int | Iterable[int]) -> bool:
    one = 1 << g.n
    return all(num >= one for num in _numerators(g, _as_mask(g, d), True))


# ----------------------------------------------------------------------
# All three parameters: one lexicographic walk over k-subsets
# ----------------------------------------------------------------------
#
# Each parameter is the least k with an accepted k-subset, and its
# certificate is the first such subset in `combinations` order.  The search
# takes k = 0, 1, 2, ... and walks the k-subsets depth first in that order,
# so the first accepted set is the lexicographically least optimal one.
# The whole vertex set is accepted by all three, so the search ends by
# k = n, and the empty set is accepted only on the empty graph.  Each walk
# picks from the vertices >= j with `remaining` picks left, and cuts a
# branch once no completion of its prefix can be accepted.  The cut on j
# only grows as j grows, so it also ends the loop over j.
#
# gamma's walk carries the undominated set U as a bitmask.  It cuts a
# branch when some vertex of U has no closed neighbour >= j, and by a
# packing: it keeps each vertex of U, in ascending order, whose candidate
# dominators (its closed neighbours >= j) miss those of the vertices kept
# before it.  No pick dominates two kept vertices, so when more are kept
# than picks remain, no completion dominates.  The last pick must dominate
# the least vertex of U, so only that vertex's candidates are tried.
#
# Exponential domination is not monotone under adding vertices to the set,
# so no superset pruning is sound for it.  The porous weight bounds it
# instead: a constrained distance is never shorter than the plain one, so
# at every vertex the weight is at most the porous weight, and every
# exponential dominating set is porous dominating.  The porous weight is
# additive over the set.  So one walk serves gamma_e and gamma_e_star; it
# cuts a branch as soon as some vertex u has
#
#     porous(prefix, u) + remaining * best[j][u] < 2^n,
#
# where best[j][u] is the largest numerator any vertex >= j puts on u.  A
# leaf left standing is porous dominating.  The first one is gamma_e_star's
# certificate, and the walk goes on from it to the first leaf that also
# passes the full weight check, gamma_e's.  That is exact with no theorem
# behind it: every exact leaf is a porous leaf, and the walk meets the
# leaves in the order a separate gamma_e walk would.

def _dominating_walk(g: Graph, chosen: list[int]):
    n = g.n
    closed = [g.closed_neighborhood(v) for v in range(n)]
    # reach[j]: every vertex that some pick from the vertices >= j dominates
    reach = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        reach[j] = reach[j + 1] | closed[j]

    def walk(undom: int, start: int, remaining: int) -> bool:
        if not remaining:
            return not undom
        if undom & ~reach[start]:
            return False
        # U is not empty: the walk at k runs only once every walk below k
        # has failed, so no prefix dominates
        above = -1 << start  # the vertices still to pick from
        if remaining == 1:
            least = (undom & -undom).bit_length() - 1
            for v in iter_bits(closed[least] & above):
                if not undom & ~closed[v]:
                    chosen.append(v)
                    return True
            return False
        kept = used = 0
        rest = undom
        while rest:
            u = rest & -rest
            rest ^= u
            dominators = closed[u.bit_length() - 1] & above
            if not dominators & used:
                used |= dominators
                kept += 1
                if kept > remaining:
                    return False
        for v in range(start, n - remaining + 1):
            if undom & ~reach[v]:
                return False
            chosen.append(v)
            if walk(undom & ~closed[v], v + 1, remaining - 1):
                return True
            chosen.pop()
        return False

    return lambda k: walk(g.vertex_mask, 0, k)


def _porous_walk(g: Graph, chosen: list[int], leaf: Callable[[], bool]):
    """A walk for each k that stops where `leaf` accepts a porous leaf."""
    n = g.n
    # Porous numerators are packed one per vertex into a lane of an int, so
    # adding a set vertex and testing all n bounds are a few int operations.
    # A lane never holds more than n * 2^(n+1) (n vertices, 2^(n+1) at most
    # each), which leaves its top bit clear.  The walk starts every lane at
    # 2^(lane-1) - 2^n, so that its top bit is set exactly when the
    # numerator is >= 2^n.
    lane = n + 2 + n.bit_length()
    ones = sum(1 << (u * lane) for u in range(n))
    high = ones << (lane - 1)
    # layers[d], lane u: the vertices at distance d from u, from a BFS out
    # of every vertex at once.  Lane u of `(frontier >> w) & ones` is 1 when
    # w is in u's frontier, and times adj[w] it puts w's row into lane u.
    frontier = seen = sum(1 << (u * lane + u) for u in range(n))
    layers = []
    while frontier:
        layers.append(frontier)
        nxt = 0
        for w in range(n):
            nxt |= ((frontier >> w) & ones) * g.adj[w]
        frontier = nxt & ~seen
        seen |= frontier
    # reach[v], lane u: 2^(n+1-d) with d the distance from v to u, the
    # porous numerator v alone puts on u.  Distances are symmetric, so lane
    # u of `(layers[d] >> v) & ones` says whether u is at distance d from v.
    # best[j], lane u: the largest reach[v] lane u over v >= j, which is
    # 2^(n+1-d) with d the distance from {j, ..., n-1} to u.
    reach = [0] * n
    best = [0] * n
    within = [0] * len(layers)  # lanes at distance d from some v >= j
    for j in range(n - 1, -1, -1):
        closer = 0  # lanes nearer than d to some v >= j
        for d, layer in enumerate(layers):
            lanes = (layer >> j) & ones
            reach[j] |= lanes << (n + 1 - d)
            within[d] |= lanes
            best[j] |= (within[d] & ~closer) << (n + 1 - d)
            closer |= within[d]
    bounds: list[list[int]] = []  # bounds[r][j]: r * best[j]

    def walk(nums: int, start: int, remaining: int) -> bool:
        if not remaining:
            return nums & high == high and leaf()
        bound = bounds[remaining]
        for v in range(start, n - remaining + 1):
            if (nums + bound[v]) & high != high:
                return False
            chosen.append(v)
            if walk(nums + reach[v], v + 1, remaining - 1):
                return True
            chosen.pop()
        return False

    def walk_k(k: int) -> bool:
        for r in range(len(bounds), k + 1):
            bounds.append([r * b for b in best])
        return walk(high - (ones << n), 0, k)

    return walk_k


def _first(walk, chosen: list[int], n: int) -> ParamResult:
    """Least k with an accepted k-subset, and the first such subset."""
    for k in range(n + 1):  # the whole vertex set is always accepted
        if walk(k):
            return ParamResult(k, tuple(chosen))
    raise RuntimeError(f"a walk accepted no set of at most {n} vertices")


def _exponential_pair(g: Graph) -> tuple[ParamResult, ParamResult]:
    """gamma_e and gamma_e_star from one porous walk."""
    chosen: list[int] = []
    star: list[ParamResult] = []

    def leaf() -> bool:
        if not star:  # the first porous dominating set
            star.append(ParamResult(len(chosen), tuple(chosen)))
        return is_exponential_dominating(g, chosen)

    return _first(_porous_walk(g, chosen, leaf), chosen, g.n), star[0]


def _gamma_value(g: Graph) -> int:
    return domination_number(g).value


def domination_number(g: Graph) -> ParamResult:
    chosen: list[int] = []
    return _first(_dominating_walk(g, chosen), chosen, g.n)


def exponential_domination_number(g: Graph) -> ParamResult:
    return _exponential_pair(g)[0]


def porous_exponential_domination_number(g: Graph) -> ParamResult:
    return _exponential_pair(g)[1]


def compute_all(g: Graph) -> tuple[ParamResult, ParamResult, ParamResult]:
    """All three parameters, each with its certificate."""
    return (domination_number(g), *_exponential_pair(g))


def parameter_values(g: Graph) -> tuple[int, int, int]:
    """The three values; the same walks as `compute_all`."""
    gamma = _gamma_value(g)
    gamma_e, gamma_e_star = _exponential_pair(g)
    return gamma, gamma_e.value, gamma_e_star.value
