"""Hereditary equality classes, minimal obstructions, exhaustive sweeps.

A graph belongs to the EXPONENTIAL class when every induced subgraph H has
gamma_e(H) = gamma(H), and to the POROUS class when every induced subgraph
has gamma_e_star(H) = gamma(H).  Component additivity of all three
parameters means only connected induced subgraphs need checking, so a
disconnected input is split into its components once, at the top.

A connected g is in the class iff equality holds for g and for every
connected card g-v.  The cards with v a cut vertex are never needed: a
connected proper induced subgraph H of g lies in some connected card,
because contracting H in a spanning tree of g that extends one of H leaves
a tree with a leaf w outside H, and g-w is connected and contains H.  The
store memoizes, per canonical class, a minimum-order connected induced
violator (or None), so witnesses come free.

That memo is filled two ways.  A sweep over an enumerated stream asks
each level for the children of its nonmember parents, all in one call
(`Level.children_of`; a parent's children are the classes whose connected
cards include it), and `ParamStore.fill_violators` takes, per class, the
minimum over the memo entries of the parents that reach it.  Member
parents cannot lower a minimum, so their rejected candidates are never
named, and nothing is recursed over.  The level names the others through
an invariant index of its classes when they are at least as many as its
classes, and by labeling otherwise.  Every other input
(`member`, `in_class`, `is_minimal_forbidden`, the startup gate, a sweep's
`graphs`) is not closed under vertex deletion, so `ParamStore.violators`
recurses over its connected cards and labels each one.  Cut vertices are
found on g's rows (`graphs._is_cut`), so no disconnected card is built.

Both ways end in `ParamStore._least_with_self`, which solves a class only
when its parents (or cards) leave some kind without a violator.  The
classes are hereditary, so a graph that contains a smaller violator of
both kinds is outside both whatever its own parameters are.  `conjecture3`
still solves every class, since its chain check reads each class's
values.

A store lives as long as its caller keeps it.  Every function here that
takes an optional `store` makes a fresh one when given none, so such a
call keeps nothing for the next; callers that share work (the CLI's
`verify` and `minimal`, the tests) pass one store to every call.  A
sweep call builds its own levels and drops them when it returns.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional

from . import __version__
from .cache import ResultsCache
from .domination import parameter_values
from .enumeration import Level, LevelSource, StreamMode, levels, \
    levels_from_graphs
from .graphs import (
    Graph,
    SizeCapError,
    _is_cut,
    canonical_code,
    canonical_graph,  # kept for bench/tracer.py to patch
    connected_components,
    induced_subgraph,
    is_connected,
    without_vertex,
)
from . import patterns
from .patterns import (
    OBSTRUCTION_NAMES,
    GateError,
    RESTRICTION_NAMES,
    TRIANGLE_RESTRICTION_NAMES,
)

#: in_class works by exhausting connected induced subgraph classes; past
#: this order the recursion footprint stops being desk-scale.
MEMBERSHIP_ORDER_CAP = 12

TREE_OBSTRUCTION_NAMES: tuple[str, ...] = ("P7", "F1")


class ClassKind(Enum):
    """Which parameter must match gamma on every induced subgraph."""

    EXPONENTIAL = "gamma_e"
    POROUS = "gamma_e_star"


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    witness: Optional[str]  # canonical graph6 of a minimum-order violator


@dataclass
class VerificationReport:
    sweep: str
    max_n: int
    stream: str
    restriction: tuple[str, ...]
    kind: str
    counts: dict[int, int]
    counterexamples: list[str]
    extras: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    config_hash: str = ""

    @property
    def verified(self) -> bool:
        return not self.counterexamples

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "sweep": self.sweep,
            "max_n": self.max_n,
            "stream": self.stream,
            "restriction": list(self.restriction),
            "kind": self.kind,
            "counts": {str(n): c for n, c in sorted(self.counts.items())},
            "counterexamples": list(self.counterexamples),
            "verified": self.verified,
            "config_hash": self.config_hash,
        }
        for key, value in self.extras.items():
            out[key] = value
        if include_timing:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2,
                          sort_keys=True)


def _config_hash(**config) -> str:
    import hashlib  # loads OpenSSL: only a report's hash pays for it

    payload = {"package": "expodom", "version": __version__}
    payload.update(config)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Parameter store
# ----------------------------------------------------------------------

class ParamStore:
    """Memo of (gamma, gamma_e, gamma_e_star) per canonical code.

    Optionally backed by an append-only results cache file; the membership
    memo lives here too so sweeps sharing a store share all derived work.
    It lives as long as its owner; the package keeps none between calls.
    """

    def __init__(self, results_cache: Optional[ResultsCache] = None):
        self.results_cache = results_cache
        self._params: dict[bytes, tuple[int, int, int]] = {}
        self._violators: dict[bytes, tuple] = {}
        self.obstructions_checked = False
        if results_cache is not None:
            for g6, vals in results_cache.items():
                self._params[g6.encode("ascii")] = vals

    def known(self, code: bytes) -> bool:
        """Whether this canonical code has values here; no package code
        asks, the tests use it to see what was solved or restored."""
        return code in self._params

    def params_for_code(self, code: bytes, g: Graph) -> tuple[int, int, int]:
        """Values for g, a connected graph whose canonical code is `code`."""
        got = self._params.get(code)
        if got is not None:
            return got
        vals = parameter_values(g)
        self.store(code, vals)
        return vals

    def params(self, g: Graph) -> tuple[int, int, int]:
        """Values for a connected graph (any labeling)."""
        return self.params_for_code(canonical_code(g), g)

    def store(self, code: bytes, vals: tuple[int, int, int]) -> None:
        self._params[code] = vals
        gamma, gamma_e, gamma_e_star = vals
        chain_ok = gamma_e_star <= gamma_e <= gamma
        if self.results_cache is not None and chain_ok:
            self.results_cache.put(code.decode("ascii"), vals)

    def violators(self, g: Graph, code: Optional[bytes] = None) -> tuple:
        """((order, code) or None) per kind: minimum-order violators of g.

        g must be connected and nonempty.  `code`, when given, is its
        canonical code, saving a labeling.  A class not in the memo is
        found by recursing over g's connected cards, labeling each (a cut
        vertex's card is never built), and g is solved only if they leave
        a kind open; a sweep's classes are already there (`fill_violators`).
        """
        if code is None:
            code = canonical_code(g)
        got = self._violators.get(code)
        if got is not None:
            return got
        result = self._least_with_self(
            g, code, [self.violators(without_vertex(g, v)) for v in range(g.n)
                      if g.n > 1 and not _is_cut(g.adj, v)])
        self._violators[code] = result
        return result

    def fill_violators(self, level: Level) -> None:
        """Memoize `violators` for every class of one enumerated level.

        A class's pair is the minimum over the memo entries of the
        nonmember parents among whose children it is, plus the class
        itself.  A member parent would add (None, None), which never lowers
        a minimum, so only nonmember parents are asked for their children,
        in one call, so that the level sees how many children it must name.
        The class itself is solved only when its parents leave a kind
        open.  The level one order down must have been filled first.
        """
        memo = self._violators
        reached: dict[bytes, list] = {}
        asked = [j for j, (pcode, _) in enumerate(level.below)
                 if memo[pcode] != (None, None)]
        for j, codes in zip(asked, level.children_of(asked)):
            pair = memo[level.below[j][0]]
            for code in codes:
                reached.setdefault(code, []).append(pair)
        for code, g in level:
            if code not in memo:
                memo[code] = self._least_with_self(g, code,
                                                   reached.get(code, []))

    def _least_with_self(self, g: Graph, code: bytes, pairs: list) -> tuple:
        """The least of the cards' `pairs` and g itself, kind by kind.

        A card's pair has order below g.n, so it beats g's own (g.n, code).
        g is solved only when the cards leave some kind undecided; once
        they decide both, g's values cannot change the result.
        """
        least = tuple(map(_least, zip((None, None), *pairs)))
        if None not in least:
            return least
        gamma, *values = self.params_for_code(code, g)
        # g itself, for each kind left open whose value differs from gamma
        return tuple(hit or (None if value == gamma else (g.n, code))
                     for hit, value in zip(least, values))

    def close(self) -> None:
        """Close the results cache's append handle; the store stays usable."""
        if self.results_cache is not None:
            self.results_cache.close()


# ----------------------------------------------------------------------
# Membership
# ----------------------------------------------------------------------

def _least(hits: Iterable) -> Optional[tuple]:
    """The smallest (order, code) among the hits that are not None."""
    return min((hit for hit in hits if hit is not None), default=None)


def _components(g: Graph) -> list[Graph]:
    """The components of g as graphs; g itself when it is connected."""
    comps = connected_components(g)
    if len(comps) == 1:
        return [g]
    return [induced_subgraph(g, comp) for comp in comps]


def equality_holds(g: Graph, store: Optional[ParamStore] = None) -> bool:
    """gamma(g) == gamma_e(g), computed per component and summed."""
    store = store or ParamStore()
    values = [store.params(h) for h in _components(g)]
    return sum(v[0] for v in values) == sum(v[1] for v in values)


#: Where a kind's violator sits in the pair `ParamStore.violators` returns.
_SLOT = {ClassKind.EXPONENTIAL: 0, ClassKind.POROUS: 1}


def _violator_for_kind(g: Graph, kind: ClassKind, store: ParamStore):
    """The minimum-order connected violator of any graph, or None."""
    return _least(store.violators(h)[_SLOT[kind]] for h in _components(g))


def _check_membership_order(n: int) -> None:
    if n > MEMBERSHIP_ORDER_CAP:
        raise SizeCapError(
            f"membership capped at order {MEMBERSHIP_ORDER_CAP}")


def in_class(g: Graph, kind: ClassKind = ClassKind.EXPONENTIAL,
             store: Optional[ParamStore] = None) -> MembershipResult:
    """Hereditary-equality membership with a minimum-order witness."""
    _check_membership_order(g.n)
    hit = _violator_for_kind(g, kind, store or ParamStore())
    if hit is None:
        return MembershipResult(True, None)
    return MembershipResult(False, hit[1].decode("ascii"))


def is_minimal_forbidden(g: Graph, kind: ClassKind = ClassKind.EXPONENTIAL,
                         store: Optional[ParamStore] = None) -> bool:
    """g violates equality but every proper induced subgraph is clean.

    Disconnected graphs are never minimal: a violating component is a
    proper induced violator, and without one the sums stay equal.
    """
    _check_membership_order(g.n)
    if not is_connected(g) or g.n == 0:
        return False
    hit = (store or ParamStore()).violators(g)[_SLOT[kind]]
    return hit is not None and hit[0] == g.n


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

def _obstruction_self_check(store: ParamStore) -> None:
    """Startup gate for every sweep: the obstruction catalog must be sane.

    Guards against mistranscribed shapes.  Every listed obstruction must be
    an equality violator with parameters (3, 2), and any smaller violator
    embedded in one must itself be a catalog member.  Exact minimality of
    every entry would be the wrong invariant: six of the seven are minimal,
    but the cycle-with-tail-and-pendant graph properly contains the
    three-pendant caterpillar.  Coherence in this form is what the
    equivalence sweeps actually rely on, since it makes freeness from the
    full list coincide with freeness from its minimal members.
    """
    patterns.verify_catalog()
    if store.obstructions_checked:
        return
    codes = {canonical_code(patterns.pattern(name).graph)
             for name in OBSTRUCTION_NAMES}
    for name in OBSTRUCTION_NAMES:
        g = patterns.pattern(name).graph
        hit = _violator_for_kind(g, ClassKind.EXPONENTIAL, store)
        if hit is None:
            raise GateError(f"obstruction {name} is not a violator")
        if hit[0] < g.n and hit[1] not in codes:
            raise GateError(
                f"obstruction {name} contains a violator from outside "
                f"the catalog")
    store.obstructions_checked = True


#: Per-graph check of a sweep: (graph, its canonical code, store, the
#: report lists by name), appending what it finds.
Check = Callable[[Graph, bytes, ParamStore, dict[str, list]], None]


@dataclass(frozen=True)
class SweepSpec:
    """One exhaustive sweep: its host class, its check and its report.

    `check` appends to the report lists named in `lists`.  A list named
    "counterexamples" becomes the report's own (it decides `verified`);
    the others, after the fixed `extras`, become report extras.  `config`
    holds the config-hash keys beyond name, order, stream and restriction.
    """

    name: str
    stream: StreamMode
    restriction: tuple[str, ...]
    kind: str
    default_max_n: int
    check: Check
    lists: tuple[str, ...]
    config: dict = field(default_factory=dict)
    extras: dict[str, tuple] = field(default_factory=dict)

    def source(self, max_n: Optional[int] = None,
               graphs: Optional[Iterable[Graph]] = None
               ) -> tuple[int, LevelSource]:
        """The order to sweep to and its levels, refusing a bad order, a cap
        or a pattern name before any work.

        The levels are the enumerated stream's or, when `graphs` is given,
        those of it in the host class, with no stream cap; nothing is built
        and `graphs` is not read until a level is asked for.
        """
        if max_n is None:
            max_n = self.default_max_n
        if max_n < 1:
            raise ValueError(f"max_n must be at least 1, got {max_n}")
        _check_membership_order(max_n)
        if graphs is None:
            return max_n, levels(self.stream, self.restriction, max_n)
        return max_n, levels_from_graphs(graphs, max_n, self.restriction,
                                         self.stream)

    def run(self, max_n: Optional[int] = None,
            store: Optional[ParamStore] = None,
            graphs: Optional[Iterable[Graph]] = None) -> VerificationReport:
        """Check every graph of the host class up to max_n.

        The graphs are those of `source(max_n, graphs)`, whose levels the
        call owns and drops when it returns.  A call without a `store`
        gets a fresh one, so it keeps nothing for the next call.
        """
        max_n, source = self.source(max_n, graphs)
        store = store or ParamStore()
        started = time.perf_counter()
        _obstruction_self_check(store)
        counts: dict[int, int] = {}
        found: dict[str, list] = {name: [] for name in self.lists}
        for n in range(1, max_n + 1):
            # the source's canonical codes serve the store and the
            # membership memo, so no scanned graph is labeled again
            level = source(n)
            counts[n] = len(level)
            if isinstance(level, Level):
                # an enumerated level knows its classes' parents: every
                # check then finds its violator pair in the memo and
                # recurses over no card
                store.fill_violators(level)
            for code, g in level:
                self.check(g, code, store, found)
        extras = {key: list(value) for key, value in self.extras.items()}
        extras.update(found)
        return VerificationReport(
            sweep=self.name,
            max_n=max_n,
            stream=self.stream.value,
            restriction=self.restriction,
            kind=self.kind,
            counts=counts,
            counterexamples=extras.pop("counterexamples", []),
            extras=extras,
            elapsed_seconds=round(time.perf_counter() - started, 3),
            config_hash=_config_hash(sweep=self.name, max_n=max_n,
                                     stream=self.stream.value,
                                     restriction=list(self.restriction),
                                     **self.config),
        )


def _equivalence(name: str, stream: StreamMode, restriction: tuple[str, ...],
                 obstructions: tuple[str, ...], default_max_n: int
                 ) -> SweepSpec:
    """Membership ⟺ freeness from `obstructions` over the host class."""

    def check(g: Graph, code: bytes, store: ParamStore,
              out: dict[str, list]) -> None:
        member = store.violators(g, code)[0] is None
        if member != patterns.is_free(g, obstructions):
            out["counterexamples"].append(code.decode("ascii"))

    return SweepSpec(name, stream, restriction, ClassKind.EXPONENTIAL.value,
                     default_max_n, check, ("counterexamples",),
                     config={"obstructions": obstructions},
                     extras={"obstructions": obstructions})


def _conjecture3_check(g: Graph, code: bytes, store: ParamStore,
                       out: dict[str, list]) -> None:
    gamma, gamma_e, gamma_e_star = store.params_for_code(code, g)
    if not gamma_e_star <= gamma_e <= gamma:
        out["chain_violations"].append(code.decode("ascii"))
    viol_e, viol_p = store.violators(g, code)
    if (viol_e is None) != (viol_p is None):
        out["divergences"].append(code.decode("ascii"))


#: Every sweep `verify` runs.  Each entry is the one place that states the
#: sweep's host class, obstructions and default depth.
SWEEPS: dict[str, SweepSpec] = {spec.name: spec for spec in (
    # membership ⟺ seven-pattern freeness over the restricted class
    _equivalence("theorem1", StreamMode.CONNECTED, RESTRICTION_NAMES,
                 OBSTRUCTION_NAMES, 9),
    # the same equivalence over the triangle-free restricted class
    _equivalence("corollary1", StreamMode.CONNECTED,
                 TRIANGLE_RESTRICTION_NAMES, OBSTRUCTION_NAMES, 9),
    # tree membership ⟺ freeness from the two tree obstructions
    _equivalence("corollary2", StreamMode.TREES, (), TREE_OBSTRUCTION_NAMES,
                 12),
    # the two hereditary classes compared over all connected graphs.  A
    # divergence would be a publishable find, so it is reported in-band,
    # never raised; a violation of the parameter chain would be a solver
    # bug and lands in its own list.
    SweepSpec("conjecture3", StreamMode.CONNECTED, (), "both", 8,
              _conjecture3_check, ("divergences", "chain_violations")),
)}


def minimal_spec(kind: ClassKind = ClassKind.EXPONENTIAL,
                 restriction: Iterable[str] = ()) -> SweepSpec:
    """The sweep listing minimal forbidden graphs of one class."""

    def check(g: Graph, code: bytes, store: ParamStore,
              out: dict[str, list]) -> None:
        hit = store.violators(g, code)[_SLOT[kind]]
        if hit is not None and hit[0] == g.n:
            gamma, gamma_e, gamma_e_star = store.params_for_code(code, g)
            out["found"].append({
                "graph6": code.decode("ascii"),
                "n": g.n,
                "gamma": gamma,
                "gamma_e": gamma_e,
                "gamma_e_star": gamma_e_star,
            })

    return SweepSpec("minimal_forbidden", StreamMode.CONNECTED,
                     tuple(restriction), kind.value, 7, check, ("found",),
                     config={"kind": kind.value})
