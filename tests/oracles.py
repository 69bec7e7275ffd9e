"""Independent reference implementations used to cross-check the package.

Everything here recomputes answers from first principles: simple-path
enumeration for constrained distances and weights, subset enumeration for
domination, raw injections for induced pattern matching, and labeled
enumeration plus permutation canonicalization for isomorphism-class
counts; k-subsets and networkx isomorphism for induced matching on larger
hosts.  Slow on purpose, and deliberately free of the package's own
search machinery, apart from the all-masks level builder, which keeps the
package's labeling and extension tables to check its orbit pruning alone.
The labeling kernel's reference is its earlier form, frozen verbatim
(`_refine`, `_search`): a faster kernel must return the same columns and
the same generator sets.  So is the exact solver's (`_dominating_walk`,
`_porous_walk`, `_exponential_pair`): a faster solver must return the same
values and the same certificates.  And so are the through-vertex
matcher's one form per pattern vertex and its unbroken plans
(`meetings_oracle`): forms per vertex orbit with symmetry-broken plans
must give the same (S, T) sets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

from expodom.domination import (
    ParamResult,
    _numerators,
    is_exponential_dominating,
)
from expodom.graphs import (
    Graph,
    _column,
    canonical_code,
    connected_components,
    decode_graph6,
    induced_subgraph,
    iter_bits,
    without_vertex,
)
from expodom.patterns import pattern


def adjacency(g: Graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def simple_paths(adj: dict[int, set[int]], start: int, goal: int):
    """Yield every simple path from start to goal as a vertex tuple."""
    stack = [(start, (start,), {start})]
    while stack:
        here, path, seen = stack.pop()
        if here == goal:
            yield path
            continue
        for nxt in adj[here]:
            if nxt not in seen:
                stack.append((nxt, path + (nxt,), seen | {nxt}))


def dist_constrained_oracle(g: Graph, dset: set[int], u: int, v: int):
    """Minimum length of a u-v path with exactly one endvertex in the set
    (namely v) and no internal vertex in the set; inf when none exists."""
    if v not in dset:
        raise ValueError("second endpoint must lie in the set")
    if u == v:
        return 0
    if u in dset:
        return math.inf
    adj = adjacency(g)
    best = math.inf
    for path in simple_paths(adj, u, v):
        if any(w in dset for w in path[1:-1]):
            continue
        best = min(best, len(path) - 1)
    return best


def weight_oracle(g: Graph, dset: set[int], u: int) -> Fraction:
    total = Fraction(0)
    for v in dset:
        d = dist_constrained_oracle(g, dset, u, v)
        if d != math.inf:
            total += Fraction(1, 2) ** (d - 1)
    return total


def plain_distance_oracle(g: Graph, u: int, v: int):
    if u == v:
        return 0
    adj = adjacency(g)
    best = math.inf
    for path in simple_paths(adj, u, v):
        best = min(best, len(path) - 1)
    return best


def porous_weight_oracle(g: Graph, dset: set[int], u: int) -> Fraction:
    total = Fraction(0)
    for v in dset:
        d = plain_distance_oracle(g, u, v)
        if d != math.inf:
            total += Fraction(1, 2) ** (d - 1)
    return total


def is_dominating_oracle(g: Graph, dset: set[int]) -> bool:
    adj = adjacency(g)
    return all(u in dset or adj[u] & dset for u in range(g.n))


def gamma_oracle(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(value, lexicographically smallest optimal set) by subset search."""
    for k in range(1, g.n + 1):
        for cand in combinations(range(g.n), k):
            if is_dominating_oracle(g, set(cand)):
                return k, cand
    raise AssertionError("unreachable for n >= 1")


def lex_first_oracle(g: Graph, accepts) -> tuple[int, tuple[int, ...]]:
    """(least k, first accepted k-subset in `combinations` order).

    The reference for every solver's value and certificate: all k-subsets
    for k = 0, 1, ..., each tested by `accepts(g, subset)` alone, with no
    pruning and no cap.
    """
    for k in range(g.n + 1):
        for cand in combinations(range(g.n), k):
            if accepts(g, cand):
                return k, cand
    raise AssertionError("the whole vertex set is always accepted")


def gamma_e_oracle(g: Graph) -> int:
    for k in range(1, g.n + 1):
        for cand in combinations(range(g.n), k):
            dset = set(cand)
            if all(weight_oracle(g, dset, u) >= 1 for u in range(g.n)):
                return k
    raise AssertionError("unreachable for n >= 1")


def gamma_e_star_oracle(g: Graph) -> int:
    for k in range(1, g.n + 1):
        for cand in combinations(range(g.n), k):
            dset = set(cand)
            if all(porous_weight_oracle(g, dset, u) >= 1
                   for u in range(g.n)):
                return k
    raise AssertionError("unreachable for n >= 1")


def find_induced_oracle(g: Graph, p: Graph, through: int | None = None):
    """First injection (in index order) embedding p induced into g; with
    `through`, the first whose image holds that vertex of g."""
    if p.n > g.n:
        return None
    p_edges = {(a, b) for a, b in p.edges()}
    for cand in permutations(range(g.n), p.n):
        if through is not None and through not in cand:
            continue
        ok = True
        for a in range(p.n):
            for b in range(a + 1, p.n):
                want = (a, b) in p_edges
                if g.has_edge(cand[a], cand[b]) != want:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return cand
    return None


def induced_nx_oracle(host, patterns) -> list[bool]:
    """Whether each networkx graph of `patterns` is induced in the networkx
    graph `host`.  The patterns share one order k, and all vertices are
    0, 1, ....  One pass over the k-subsets of the host serves every
    pattern.  A subset reaches `nx.is_isomorphic` for a pattern not yet
    found only when its induced degree sequence, and then its sorted
    (degree, sorted neighbour degrees) pairs, equal the pattern's.  Both are
    isomorphism invariants, so no match is skipped; networkx decides every
    isomorphism."""
    import networkx as nx

    def rows(graph):
        return {v: sum(1 << w for w in graph[v]) for v in graph}

    def profile(adj, nodes, degree):
        return sorted((degree[v], sorted(degree[w] for w in nodes
                                         if adj[v] >> w & 1))
                      for v in nodes)

    wants = []
    for p in patterns:
        adj = rows(p)
        degree = {v: adj[v].bit_count() for v in adj}
        wants.append((sorted(degree.values()), profile(adj, adj, degree)))
    found = [False] * len(patterns)
    adj = rows(host)
    for nodes in combinations(host, len(patterns[0])):
        mask = sum(1 << v for v in nodes)
        degree = {v: (adj[v] & mask).bit_count() for v in nodes}
        have = sorted(degree.values())
        sub = pairs = None
        for i, (degrees, want) in enumerate(wants):
            if found[i] or have != degrees:
                continue
            if pairs is None:
                pairs = profile(adj, nodes, degree)
            if pairs == want:
                if sub is None:
                    sub = host.subgraph(nodes).copy()
                found[i] = nx.is_isomorphic(sub, patterns[i])
        if all(found):
            break
    return found


def augmentation_filter_oracle(parent: Graph, mask: int) -> bool:
    """Whether the canonical augmentation filter keeps the parent plus a new
    vertex joined to the masked vertices: no non-cut vertex of the child
    (networkx's articulation points are the cut ones) has a larger
    (degree, sorted neighbour degrees) than the new vertex."""
    import networkx as nx

    new = parent.n
    child = nx.Graph(list(parent.edges()))
    child.add_nodes_from(range(new + 1))
    child.add_edges_from((new, u) for u in range(new) if mask >> u & 1)

    def invariant(v):
        return child.degree(v), sorted(child.degree(w) for w in child[v])

    cut = set(nx.articulation_points(child))
    return all(invariant(u) <= invariant(new) for u in child if u not in cut)


def min_violators_oracle(g: Graph, params, memo: dict) -> tuple:
    """((order, code) or None) per kind: minimum-order connected violators.

    The reference for the membership recursion: it deletes every vertex,
    cut vertices included, and splits every disconnected card into
    components, labeling each one again.
    `params(code, g)` gives (gamma, gamma_e, gamma_e_star) of a connected
    g; `memo` holds results per canonical code.  Labeling is the package's.
    """
    if g.n == 0:
        return (None, None)
    comps = connected_components(g)
    if len(comps) > 1:
        pairs = [min_violators_oracle(induced_subgraph(g, comp), params, memo)
                 for comp in comps]
        return tuple(_least_oracle(hits) for hits in zip(*pairs))
    code = canonical_code(g)
    if code not in memo:
        gamma, gamma_e, gamma_e_star = params(code, g)
        pairs = [min_violators_oracle(without_vertex(g, v), params, memo)
                 for v in range(g.n)]
        best_e, best_p = (_least_oracle(hits) for hits in zip(*pairs))
        if best_e is None and gamma_e != gamma:
            best_e = (g.n, code)
        if best_p is None and gamma_e_star != gamma:
            best_p = (g.n, code)
        memo[code] = (best_e, best_p)
    return memo[code]


def _least_oracle(hits):
    found = [hit for hit in hits if hit is not None]
    return min(found) if found else None


def connected_oracle(g: Graph) -> bool:
    if g.n == 0:
        return False
    adj = adjacency(g)
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.n


def _labeled_bits(n: int):
    import numpy as np

    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    count = 1 << m
    bits = ((np.arange(count)[:, None] >> np.arange(m)[None, :]) & 1)
    return pairs, bits.astype(np.int64)


def class_count_oracle(n: int, trees: bool = False) -> int:
    """Connected isomorphism classes of order n by labeled enumeration.

    Canonicalizes each labeled graph as the minimum edge-bitmask over all
    n! vertex permutations; numpy keeps the n=6 case (32,768 graphs times
    720 permutations) well under a second.
    """
    import numpy as np

    if n == 1:
        return 1
    pairs, bits = _labeled_bits(n)
    m = len(pairs)
    index = {p: i for i, p in enumerate(pairs)}

    keep = []
    for row in range(bits.shape[0]):
        edges = [pairs[i] for i in range(m) if bits[row, i]]
        if trees and len(edges) != n - 1:
            continue
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) == n:
            keep.append(row)
    kept = bits[keep]

    weights = (np.int64(1) << np.arange(m, dtype=np.int64))
    best = None
    for perm in permutations(range(n)):
        pm = np.array([index[tuple(sorted((perm[a], perm[b])))]
                       for a, b in pairs])
        keys = kept[:, pm] @ weights
        best = keys if best is None else np.minimum(best, keys)
    return int(np.unique(best).size)


def levels_oracle(trees: bool, free_of, max_n: int) -> dict:
    """{order: [(code, deck), ...] in code order} for orders 1..max_n.

    The level builder before orbit pruning: every parent, in level order,
    is augmented along every neighbourhood mask (every single vertex for
    trees) that its extension table leaves unblocked, and every child is
    labeled.  A deck lists the parents that reach its class, in order.
    """
    from expodom.enumeration import _augment
    from expodom.patterns import extension_table

    names = frozenset(free_of)
    out = {1: [(canonical_code(Graph(1, (0,))), [])]}
    for n in range(2, max_n + 1):
        decks: dict[bytes, list[bytes]] = {}
        for pcode, _ in out[n - 1]:
            parent = decode_graph6(pcode)
            k = parent.n
            masks = [1 << u for u in range(k)] if trees \
                else range(1, 1 << k)
            blocked = extension_table(parent, names, 1 if trees else k)
            for mask in masks:
                if blocked >> mask & 1:
                    continue
                deck = decks.setdefault(
                    canonical_code(_augment(parent, mask)), [])
                if pcode not in deck:
                    deck.append(pcode)
        out[n] = sorted(decks.items())
    return out


# ----------------------------------------------------------------------
# The labeling kernel as it was before its inner loop was rewritten, kept
# verbatim: the reference for `graphs._refine` and `graphs._search`.
# ----------------------------------------------------------------------

def _refine(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    changed = True
    while changed:
        changed = False
        for idx, cell in enumerate(cells):
            if cell & (cell - 1) == 0:
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in iter_bits(cell):
                av = adj[v]
                sig = tuple((av & c).bit_count() for c in cells)
                groups[sig] = groups.get(sig, 0) | (1 << v)
            if len(groups) > 1:
                cells[idx:idx + 1] = [groups[s] for s in sorted(groups)]
                changed = True
                break
    return cells


def _search(adj: tuple[int, ...],
            generators: set[tuple[int, ...]] | None = None) -> list[int]:
    """The least leaf's graph6 columns.

    With a `generators` set, also adds generators of the graph's
    automorphism group to it, each a tuple whose entry v is the image of v.
    """
    n = len(adj)
    best: list[int] | None = None
    best_order: list[int] = []

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
    return best or []


def search_oracle(adj: tuple[int, ...],
                  generators: set[tuple[int, ...]] | None = None
                  ) -> list[int]:
    """The frozen labeling search: the least leaf's graph6 columns, and
    with a `generators` set, the automorphisms it finds."""
    return _search(adj, generators)


# ----------------------------------------------------------------------
# The exact solver as it was before the packing cut, the single porous walk
# and the layer-mask set-up, kept verbatim: the reference for the walks in
# `domination`.
# ----------------------------------------------------------------------

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
        if remaining == 1:  # the last pick dominates all that is left
            for v in range(start, n):
                if not undom & ~closed[v]:
                    chosen.append(v)
                    return True
            return False
        covers = sorted(map(int.bit_count, map(undom.__and__, closed[start:])))
        if sum(covers[-remaining:]) < undom.bit_count():
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


def _porous_walk(g: Graph, chosen: list[int]):
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
    rows = [_numerators(g, 1 << v, True) for v in range(n)]
    reach = [pack(row) for row in rows]
    # best[j], lane u: the largest rows[v][u] over v >= j
    best = [0] * n
    top = [0] * n
    for j in range(n - 1, -1, -1):
        top = list(map(max, top, rows[j]))
        best[j] = pack(top)

    def walk(nums: int, start: int, remaining: int, exact: bool) -> bool:
        if not remaining:
            return covered(nums) and (
                not exact or is_exponential_dominating(g, chosen))
        for v in range(start, n - remaining + 1):
            if not covered(nums + remaining * best[v]):
                return False
            chosen.append(v)
            if walk(nums + reach[v], v + 1, remaining - 1, exact):
                return True
            chosen.pop()
        return False

    return lambda k, exact: walk(0, 0, k, exact)


def _first(walk, chosen: list[int], k: int = 0) -> ParamResult:
    """Least k' >= k with an accepted k'-subset, and the first such subset."""
    while not walk(k):  # accepted by k' = n: the whole vertex set
        k += 1
    return ParamResult(k, tuple(chosen))


def _exponential_pair(g: Graph) -> tuple[ParamResult, ParamResult]:
    """gamma_e and gamma_e_star from one porous walk, its rows built once."""
    chosen: list[int] = []
    walk = _porous_walk(g, chosen)
    star = _first(lambda k: walk(k, False), chosen)
    if is_exponential_dominating(g, chosen):
        return star, star  # gamma_e >= gamma_e_star: optimal for both
    chosen.clear()
    return _first(lambda k: walk(k, True), chosen, star.value), star


def solver_oracle(g: Graph) -> tuple[ParamResult, ParamResult, ParamResult]:
    """The frozen solver's gamma, gamma_e and gamma_e_star, each with its
    certificate."""
    chosen: list[int] = []
    return (_first(_dominating_walk(g, chosen), chosen),
            *_exponential_pair(g))


# ----------------------------------------------------------------------
# The through-vertex matcher before forms went one per vertex orbit:
# one form per pattern vertex, each plan unbroken, frozen verbatim
# ----------------------------------------------------------------------

def _match_plan(pg: Graph):
    # highest degree first fails fastest; ties broken by index for
    # deterministic output
    order = sorted(range(pg.n), key=lambda v: (-pg.degree(v), v))
    steps = []
    for i, q in enumerate(order):
        row = pg.adj[q]
        steps.append((q, row.bit_count(),
                      tuple(j for j in range(i) if (row >> order[j]) & 1),
                      tuple(j for j in range(i) if not (row >> order[j]) & 1)))
    return tuple(steps)


def _vertex_forms(pg: Graph):
    """One form per pattern vertex q."""
    forms = []
    for q in range(pg.n):
        plan = _match_plan(without_vertex(pg, q))
        # without_vertex renumbers the vertices after q down by one
        near = tuple(i for i, (r, _, _, _) in enumerate(plan)
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


def _extend(plan, adj: tuple[int, ...], at_least: list[int],
            image: list[int], idx: int, used: int,
            near: tuple[int, ...] = (), out=None) -> bool:
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
    _, deg, adjacent, apart = plan[idx]
    cand = at_least[deg] & ~used
    for j in adjacent:
        cand &= adj[image[j]]
    for j in apart:
        cand &= ~adj[image[j]]
    while cand:
        b = cand & -cand
        image[idx] = b.bit_length() - 1
        if _extend(plan, adj, at_least, image, idx + 1, used | b, near, out):
            return True
        cand ^= b
    return False


@cache
def _forms(name: str):
    return _vertex_forms(pattern(name).graph)


def meetings_oracle(host: Graph, names, skip: int,
                    reach: int) -> set[tuple[int, int]]:
    """The (S, T) pairs of the named patterns' forms in the host.

    For every named pattern H, vertex q of H with at most `reach`
    neighbours, and induced embedding of H-q in the host that avoids the
    vertices in `skip`: S is the image and T the image of q's neighbours.
    A vertex with at most `reach` neighbours can only meet these.
    """
    at_least = [m & ~skip for m in _degree_masks(host)]
    out: set[tuple[int, int]] = set()
    for name in frozenset(names):
        for plan, near in _forms(name):
            # a longer plan would overrun at_least with its degrees
            if len(near) <= reach and len(plan) <= host.n:
                _extend(plan, host.adj, at_least, [-1] * len(plan), 0, 0,
                        near, out)
    return out
