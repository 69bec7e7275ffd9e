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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .graphs import (
    Graph,
    INFINITY,
    bfs_levels,
    bits_list,
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
# gamma_e and gamma_e_star: cardinality-ordered subset enumeration
# ----------------------------------------------------------------------
#
# Exponential domination is not monotone under adding vertices to the set,
# so no superset pruning is sound; the search enumerates k-subsets for
# k = 0, 1, 2, ... and stops at the first hit, which is guaranteed at latest
# at k = gamma (a minimum dominating set puts weight >= 1 everywhere).  The
# empty set is accepted only on the empty graph.

def _smallest(g: Graph, cap: int, accept, kind: ParamKind) -> ParamResult:
    """Least k <= cap with an accepted k-subset, and the first such subset."""
    for k in range(cap + 1):
        for comb in combinations(range(g.n), k):
            if accept(mask_from(comb)):
                return ParamResult(k, comb, kind)
    raise AssertionError(f"unreachable: no {kind.value} set of size <= {cap}")


def exponential_domination_number(g: Graph, gamma: int | None = None) -> ParamResult:
    cap = _gamma_value(g) if gamma is None else gamma
    one = 1 << g.n

    def accept(dmask: int) -> bool:
        return all(num >= one for num in _weight_numerators(g, dmask))

    return _smallest(g, cap, accept, ParamKind.EXPONENTIAL)


def porous_exponential_domination_number(
    g: Graph, gamma_e: int | None = None
) -> ParamResult:
    # gamma_e_star <= gamma_e <= gamma, and the search stops at its first
    # hit, so gamma is as good a cap as gamma_e and far cheaper to compute
    cap = _gamma_value(g) if gamma_e is None else gamma_e
    n = g.n
    one = 1 << n
    # plain distances do not depend on the candidate set: one matrix reused
    dist_rows = [bfs_levels(g, 1 << v) for v in range(n)]

    def accept(dmask: int) -> bool:
        members = bits_list(dmask)
        for u in range(n):
            total = 0
            for v in members:
                d = dist_rows[v][u]
                if d >= 0:
                    total += 1 << (n + 1 - d)
            if total < one:
                return False
        return True

    return _smallest(g, cap, accept, ParamKind.POROUS_EXPONENTIAL)


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
