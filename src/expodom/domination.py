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

gamma comes from a branch and bound over closed neighborhoods.  gamma_e and
gamma_e_star share one search: for k = 0, 1, 2, ... a depth-first walk over
the k-subsets in lexicographic order, cut by the porous bound.  The bound is
sound for both parameters.  A constrained distance is never shorter than
the plain one, so the weight is at most the porous weight at every vertex
and every exponential dominating set is porous dominating.  The porous
weight is additive over the set, so when the chosen prefix plus the best
contributions the remaining picks could make still leaves some vertex below
1, no completion of the prefix is accepted.  Every solver returns the
lexicographically least optimal set as its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .graphs import (
    Graph,
    INFINITY,
    bfs_levels,
    iter_bits,
    mask_from,
)


class ParamKind(Enum):
    DOMINATION = "gamma"
    EXPONENTIAL = "gamma_e"
    POROUS_EXPONENTIAL = "gamma_e_star"


@dataclass(frozen=True)
class ParamResult:
    value: int
    certificate: tuple[int, ...]
    kind: ParamKind


def _as_mask(g: Graph, s: int | Iterable[int]) -> int:
    mask = s if isinstance(s, int) else mask_from(s)
    if mask >> g.n:
        raise ValueError("vertex set outside the graph")
    return mask


# ----------------------------------------------------------------------
# Distances seen from a set
# ----------------------------------------------------------------------

def constrained_distance(g: Graph, d: int | Iterable[int], u: int, v: int):
    """Shortest u-v path length with v the only set vertex on the path.

    v must belong to d.  Returns 0 for u == v, INFINITY when u is a
    different set vertex or when every path is blocked.
    """
    dmask = _as_mask(g, d)
    if not (dmask >> v) & 1:
        raise ValueError(f"vertex {v} is not in the set")
    levels = _punctured_levels(g, dmask, v)
    return levels[u] if levels[u] >= 0 else INFINITY


def _punctured_levels(g: Graph, dmask: int, v: int) -> list[int]:
    # BFS from v in the subgraph induced on (V \ d) + v
    allowed = (g.vertex_mask & ~dmask) | (1 << v)
    return bfs_levels(g, 1 << v, allowed)


def _weight_numerators(g: Graph, dmask: int) -> list[int]:
    """Numerator of the non-porous weight at every vertex, scale 2^n."""
    n = g.n
    nums = [0] * n
    for v in iter_bits(dmask):
        levels = _punctured_levels(g, dmask, v)
        for u in range(n):
            d = levels[u]
            if d >= 0:
                nums[u] += 1 << (n + 1 - d)
    return nums


def _porous_numerators(g: Graph, dmask: int) -> list[int]:
    """Same, with plain distances: one BFS per vertex of the set."""
    n = g.n
    nums = [0] * n
    for v in iter_bits(dmask):
        levels = bfs_levels(g, 1 << v)
        for u in range(n):
            d = levels[u]
            if d >= 0:
                nums[u] += 1 << (n + 1 - d)
    return nums


def weight_table(g: Graph, d: int | Iterable[int]) -> list[Fraction]:
    """`weight` at every vertex, from one pass over the set."""
    scale = 1 << g.n
    return [Fraction(num, scale)
            for num in _weight_numerators(g, _as_mask(g, d))]


def porous_weight_table(g: Graph, d: int | Iterable[int]) -> list[Fraction]:
    """`porous_weight` at every vertex, from one pass over the set."""
    scale = 1 << g.n
    return [Fraction(num, scale)
            for num in _porous_numerators(g, _as_mask(g, d))]


def weight(g: Graph, d: int | Iterable[int], u: int) -> Fraction:
    """Exponential-domination weight that the set d exerts on u."""
    return weight_table(g, d)[u]


def porous_weight(g: Graph, d: int | Iterable[int], u: int) -> Fraction:
    """Porous variant: distances ignore blocking by other set vertices."""
    return porous_weight_table(g, d)[u]


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
    dmask = _as_mask(g, d)
    one = 1 << g.n
    return all(num >= one for num in _weight_numerators(g, dmask))


def is_porous_exponential_dominating(g: Graph, d: int | Iterable[int]) -> bool:
    dmask = _as_mask(g, d)
    one = 1 << g.n
    return all(num >= one for num in _porous_numerators(g, dmask))


# ----------------------------------------------------------------------
# gamma: branch and bound
# ----------------------------------------------------------------------

def _min_dominating_size(g: Graph, forced: int, available: int, cap: int):
    """Smallest dominating set size with forced <= D <= forced|available.

    Returns the exact minimum if it is <= cap, else None.  Branches on the
    least undominated vertex over its closed neighborhood; prunes with the
    coverage bound ceil(undominated / max coverage).
    """
    n = g.n
    full = g.vertex_mask
    closed = [g.closed_neighborhood(v) for v in range(n)]
    dominated = 0
    for v in iter_bits(forced):
        dominated |= closed[v]
    base = forced.bit_count()
    best = cap + 1

    def search(dominated: int, size: int) -> None:
        nonlocal best
        if dominated == full:
            if size < best:
                best = size
            return
        if size + 1 >= best:
            return
        undom = full & ~dominated
        maxcover = 0
        for v in iter_bits(available):
            c = (closed[v] & undom).bit_count()
            if c > maxcover:
                maxcover = c
        if maxcover == 0:
            return  # some vertex can never be dominated on this branch
        if size + (undom.bit_count() + maxcover - 1) // maxcover >= best:
            return
        u = (undom & -undom).bit_length() - 1
        for v in iter_bits(closed[u] & available):
            search(dominated | closed[v], size + 1)

    search(dominated, base)
    return best if best <= cap else None


def _lex_min_dominating(g: Graph, k: int) -> tuple[int, ...]:
    """Lexicographically least (as a sorted tuple) dominating set of size k."""
    n = g.n
    full = g.vertex_mask
    chosen_mask = 0
    chosen: list[int] = []
    start = 0
    while len(chosen) < k:
        for v in range(start, n):
            vb = 1 << v
            avail = full >> (v + 1) << (v + 1)  # strictly larger vertices
            if (chosen_mask | vb | avail).bit_count() < k:
                continue  # not enough room to reach size k
            found = _min_dominating_size(g, chosen_mask | vb, avail, k)
            if found is not None:
                chosen.append(v)
                chosen_mask |= vb
                start = v + 1
                break
        else:  # pragma: no cover - k is known feasible
            raise AssertionError("no dominating set of the optimal size")
    return tuple(chosen)


def _gamma_value(g: Graph) -> int:
    if g.n == 0:
        return 0
    value = _min_dominating_size(g, 0, g.vertex_mask, g.n)
    assert value is not None  # the whole vertex set always dominates
    return value


def domination_number(g: Graph) -> ParamResult:
    value = _gamma_value(g)
    return ParamResult(value, _lex_min_dominating(g, value), ParamKind.DOMINATION)


# ----------------------------------------------------------------------
# gamma_e and gamma_e_star: one pruned walk over k-subsets
# ----------------------------------------------------------------------
#
# Exponential domination is not monotone under adding vertices to the set,
# so no superset pruning is sound for it.  The porous weight bounds it
# instead: a constrained distance is never shorter than the plain one, so
# at every vertex the weight is at most the porous weight, and every
# exponential dominating set is porous dominating.  The porous weight is
# additive over the set.  So the search takes k = 0, 1, 2, ... and walks
# the k-subsets depth first in lexicographic order, cutting a branch as
# soon as some vertex u has
#
#     porous(prefix, u) + remaining * best[j][u] < 2^n,
#
# where `remaining` picks are left, all from the vertices >= j, and
# best[j][u] is the largest numerator any of them puts on u: no completion
# of the prefix reaches porous weight 1 at u, so neither solver accepts
# one.  best[j] only falls as j grows, so the cut also ends the loop over
# j.  A leaf left standing is porous dominating, which is all gamma_e_star
# asks; gamma_e runs its full weight check there.  The walk visits sets in
# `combinations` order, so the certificate is the lexicographically least
# optimal set.  The search stops at latest at k = gamma (a minimum
# dominating set puts weight >= 1 everywhere), and the empty set is
# accepted only on the empty graph.

def _smallest(g: Graph, cap: int, kind: ParamKind) -> ParamResult:
    """Least k <= cap with an accepted k-subset, and the first such subset."""
    n = g.n
    one = 1 << n
    # Porous numerators are packed one per vertex into a lane of an int, so
    # adding a set vertex and testing all n bounds are a few int operations.
    # A lane never holds more than n * 2^(n+1) (n vertices, 2^(n+1) at most
    # each), which leaves its top bit clear; `covered` biases every lane so
    # that its top bit is set exactly when the lane is >= 2^n.
    lane = n + 2 + n.bit_length()

    def pack(values) -> int:
        return sum(x << (u * lane) for u, x in enumerate(values))

    high = pack([1 << (lane - 1)] * n)
    bias = high - pack([one] * n)

    def covered(nums: int) -> bool:
        return (nums + bias) & high == high

    # rows[v][u]: the porous numerator that v alone puts on u
    rows = [[1 << (n + 1 - d) if d >= 0 else 0 for d in bfs_levels(g, 1 << v)]
            for v in range(n)]
    reach = [pack(row) for row in rows]
    # best[j], lane u: the largest rows[v][u] over v >= j
    best = [0] * n
    top = [0] * n
    for j in range(n - 1, -1, -1):
        top = list(map(max, top, rows[j]))
        best[j] = pack(top)
    exact = kind is ParamKind.EXPONENTIAL
    chosen: list[int] = []

    def walk(nums: int, start: int, remaining: int) -> bool:
        if not remaining:
            return covered(nums) and (
                not exact or is_exponential_dominating(g, chosen))
        for v in range(start, n - remaining + 1):
            if not covered(nums + remaining * best[v]):
                return False
            chosen.append(v)
            if walk(nums + reach[v], v + 1, remaining - 1):
                return True
            chosen.pop()
        return False

    for k in range(cap + 1):
        if walk(0, 0, k):
            return ParamResult(k, tuple(chosen), kind)
    raise AssertionError(f"unreachable: no {kind.value} set of size <= {cap}")


def exponential_domination_number(g: Graph, gamma: int | None = None) -> ParamResult:
    cap = _gamma_value(g) if gamma is None else gamma
    return _smallest(g, cap, ParamKind.EXPONENTIAL)


def porous_exponential_domination_number(
    g: Graph, gamma_e: int | None = None
) -> ParamResult:
    # gamma_e_star <= gamma_e <= gamma, and the search stops at its first
    # hit, so gamma is as good a cap as gamma_e and far cheaper to compute
    cap = _gamma_value(g) if gamma_e is None else gamma_e
    return _smallest(g, cap, ParamKind.POROUS_EXPONENTIAL)


def compute_all(g: Graph) -> tuple[ParamResult, ParamResult, ParamResult]:
    """All three parameters with certificates, sharing upper bounds."""
    gamma = domination_number(g)
    gamma_e = exponential_domination_number(g, gamma.value)
    gamma_e_star = porous_exponential_domination_number(g, gamma_e.value)
    return gamma, gamma_e, gamma_e_star


def parameter_values(g: Graph) -> tuple[int, int, int]:
    """Values only; skips the lexicographic pass for gamma's certificate."""
    gamma = _gamma_value(g)
    gamma_e = exponential_domination_number(g, gamma).value
    gamma_e_star = porous_exponential_domination_number(g, gamma_e).value
    return gamma, gamma_e, gamma_e_star
