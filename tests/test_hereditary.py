import hashlib
import itertools
import json

import pytest

import expodom
from expodom import enumeration, hereditary
from expodom.cache import ResultsCache
from expodom.domination import parameter_values
from expodom.enumeration import (
    StreamMode,
    connected_graphs,
    levels,
    levels_from_graphs,
    trees,
)
from expodom.graphs import (
    SizeCapError,
    _search,
    canonical_code,
    decode_graph6,
    encode_graph6,
    from_edge_list,
    induced_subgraph,
    is_connected,
    relabel,
)
from expodom.hereditary import (
    ClassKind,
    DEFAULT_MAX_N,
    MEMBERSHIP_ORDER_CAP,
    SWEEPS,
    ParamStore,
    _obstruction_self_check,
    equality_holds,
    find_minimal_forbidden,
    in_class,
    is_minimal_forbidden,
    probe_conjecture3,
    verify_corollary1,
    verify_corollary2,
    verify_theorem1,
)
from expodom.patterns import (
    OBSTRUCTION_NAMES,
    RESTRICTION_NAMES,
    TRIANGLE_RESTRICTION_NAMES,
    pattern,
)
from conftest import cycle_graph, path_graph, random_connected_graph
from oracles import augmentation_filter_oracle, min_violators_oracle

# canonical graph6 of the seven obstruction classes
CODES = {
    "F1": "E@QW",
    "P7": "F?LT?",
    "F2": "F?NB_",
    "F4": "F?NF_",
    "C7": "F@Ue?",
    "F3": "F@pTG",
}
MINIMAL_SIX = set(CODES.values())
# the cycle-with-tail graph is the one catalog entry that is not minimal:
# it properly contains the caterpillar
EXTRA_MINIMAL_7 = {
    "E@UW", "FA_hg", "FCDjO", "FHQ[o", "FKCiW", "FKCmW", "FK_yw", "FOTPw",
}


def obstruction(name):
    return pattern(name).graph


class TestEqualityHolds:
    def test_basic(self, store):
        assert equality_holds(cycle_graph(6), store)
        assert not equality_holds(path_graph(7), store)
        assert not equality_holds(obstruction("F1"), store)

    def test_disconnected_sums_components(self, store):
        p7 = path_graph(7)
        g = from_edge_list(8, list(p7.edges()))  # P7 plus an isolate
        assert not equality_holds(g, store)
        p3p3 = from_edge_list(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert equality_holds(p3p3, store)


class TestMembership:
    def test_member_has_no_witness(self, store):
        res = in_class(cycle_graph(6), ClassKind.EXPONENTIAL, store)
        assert res.member and res.witness is None

    def test_obstructions_are_their_own_witness(self, store):
        for name in ("F1", "P7", "C7"):
            res = in_class(obstruction(name), ClassKind.EXPONENTIAL, store)
            assert not res.member
            assert res.witness == CODES[name]

    def test_witness_is_minimum_order(self, store):
        res = in_class(path_graph(8), ClassKind.EXPONENTIAL, store)
        assert not res.member
        assert res.witness == CODES["P7"]

    def test_cycle_with_tail_witness_is_the_caterpillar(self, store):
        # F5 violates equality itself, but already contains a smaller
        # violator, so the reported witness has order six
        res = in_class(obstruction("F5"), ClassKind.EXPONENTIAL, store)
        assert not res.member
        assert res.witness == CODES["F1"]

    def test_porous_kind(self, store):
        assert in_class(cycle_graph(6), ClassKind.POROUS, store).member
        res = in_class(obstruction("F1"), ClassKind.POROUS, store)
        assert not res.member and res.witness == CODES["F1"]

    def test_disconnected_host(self, store):
        f1 = obstruction("F1")
        g = from_edge_list(7, list(f1.edges()))  # F1 plus an isolate
        res = in_class(g, ClassKind.EXPONENTIAL, store)
        assert not res.member
        assert res.witness == CODES["F1"]
        assert not is_minimal_forbidden(g, ClassKind.EXPONENTIAL, store)

    def test_order_cap(self, store):
        with pytest.raises(SizeCapError):
            in_class(path_graph(MEMBERSHIP_ORDER_CAP + 1),
                     ClassKind.EXPONENTIAL, store)

    def test_membership_matches_naive_subset_check(self, store):
        # independent framing: walk every vertex subset, no recursion
        memo = {}

        def naive_params(g):
            code = canonical_code(g)
            if code not in memo:
                memo[code] = parameter_values(g)
            return memo[code]

        for n in range(1, 7):
            for g in connected_graphs(n):
                expected = True
                for k in range(1, g.n + 1):
                    for sub in itertools.combinations(range(g.n), k):
                        h = induced_subgraph(g, sub)
                        if not is_connected(h):
                            continue
                        gamma, gamma_e, _ = naive_params(h)
                        if gamma != gamma_e:
                            expected = False
                            break
                    if not expected:
                        break
                got = in_class(g, ClassKind.EXPONENTIAL, store)
                assert got.member == expected, encode_graph6(g)

    def test_witness_minimality_brute_force(self, store, rng):
        hits = 0
        while hits < 12:
            g = random_connected_graph(rng, 7)
            res = in_class(g, ClassKind.EXPONENTIAL, store)
            if res.member:
                continue
            hits += 1
            w = decode_graph6(res.witness)
            a, b, _ = parameter_values(w)
            assert a != b
            for k in range(1, w.n):
                for sub in itertools.combinations(range(g.n), k):
                    h = induced_subgraph(g, sub)
                    if not is_connected(h):
                        continue
                    gamma, gamma_e, _ = parameter_values(h)
                    assert gamma == gamma_e, \
                        f"smaller violator than witness in {encode_graph6(g)}"

    def test_members_closed_under_induced_subgraphs(self, store, rng):
        found = 0
        while found < 10:
            g = random_connected_graph(rng, rng.randrange(4, 8))
            if not in_class(g, ClassKind.EXPONENTIAL, store).member:
                continue
            found += 1
            for k in range(1, g.n + 1):
                for sub in itertools.combinations(range(g.n), k):
                    assert in_class(induced_subgraph(g, sub),
                                    ClassKind.EXPONENTIAL, store).member


#: the three enumerated streams the sweeps run on, at the bench depths
STREAMS = pytest.mark.parametrize("mode, free_of, max_n", [
    (StreamMode.CONNECTED, (), 7),
    (StreamMode.CONNECTED, RESTRICTION_NAMES, 8),
    (StreamMode.TREES, (), 11),
], ids=["connected7", "restricted8", "trees11"])


#: `enumeration.canonical_code` calls of a `conjecture3` sweep to order 7 on
#: an empty level memo and a fresh store: the order-1 graph, the kept
#: candidates, and the rejected candidates of the nonmember parents (4,160
#: with every candidate labeled)
LABELED_CONJECTURE3_7 = 1062


class TestConnectedCardRecursion:
    """The recursion over connected cards, and the sweep's level pass over
    the enumeration's decks, against the all-deletions recursion."""

    @pytest.fixture
    def reference(self, store):
        memo = {}
        return lambda g: min_violators_oracle(g, store.params_for_code, memo)

    @STREAMS
    def test_every_class(self, store, reference, mode, free_of, max_n):
        source = levels(mode, free_of, max_n)
        for n in range(1, max_n + 1):
            for code, g in source(n):
                assert store.violators(g, code) == reference(g), \
                    encode_graph6(g)

    @STREAMS
    def test_every_class_from_decks(self, reference, monkeypatch, mode,
                                    free_of, max_n):
        fresh = ParamStore()
        source = levels(mode, free_of, max_n)
        for n in range(1, max_n + 1):
            fresh.fill_violators(source(n))

        def no_cards(g, v):
            raise AssertionError("a card was built: the level pass missed")

        monkeypatch.setattr(hereditary, "without_vertex", no_cards)
        for n in range(1, max_n + 1):
            for code, g in source(n):
                assert fresh.violators(g, code) == reference(g), \
                    encode_graph6(g)

    def test_sweep_labels_kept_and_nonmember_children(self, reference,
                                                       monkeypatch):
        # a member parent's rejected candidates are never labeled: its
        # (None, None) cannot lower a class's minimum
        labeled = []
        monkeypatch.setattr(enumeration, "canonical_code",
                            lambda g: labeled.append(g) or canonical_code(g))
        monkeypatch.setattr(enumeration, "_LEVELS", {})
        SWEEPS["conjecture3"].run(7, store=ParamStore())
        calls = len(labeled)
        want = 1
        for n in range(1, 7):
            for parent in connected_graphs(n):
                generators: set[tuple[int, ...]] = set()
                _search(parent.adj, generators)
                masks = list(enumeration._orbit_masks(generators,
                                                      range(1, 1 << n)))
                kept = sum(augmentation_filter_oracle(parent, mask)
                           for mask in masks)
                want += kept
                if reference(parent) != (None, None):
                    want += len(masks) - kept
        assert calls == want == LABELED_CONJECTURE3_7

    def test_recursion_builds_only_connected_cards(self, store, rng,
                                                    monkeypatch):
        # a cut vertex's card is never built, and skipping them changes
        # no memo entry
        build, cards = hereditary.without_vertex, []

        def recorded(g, v):
            cards.append(build(g, v))
            return cards[-1]

        monkeypatch.setattr(hereditary, "without_vertex", recorded)
        graphs = [obstruction(name) for name in OBSTRUCTION_NAMES]
        graphs += [g for n in range(1, 11) for g in trees(n)]
        graphs += [random_connected_graph(rng, rng.randint(6, 9))
                   for _ in range(100)]
        fresh, memo = ParamStore(), {}
        for g in graphs:
            fresh.violators(g)
            min_violators_oracle(g, store.params_for_code, memo)
        assert cards and all(card.n and is_connected(card) for card in cards)
        assert fresh._violators == memo

    def test_random_labelings(self, reference, rng):
        # a fresh store meets these labelings first, not the canonical ones
        fresh = ParamStore()
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(6, 8))
            assert fresh.violators(g) == reference(g), encode_graph6(g)

    def test_disjoint_unions_through_in_class(self, reference, rng):
        fresh = ParamStore()
        pool = [obstruction(name) for name in OBSTRUCTION_NAMES]
        verdicts = set()
        for _ in range(80):
            parts = [rng.choice(pool) if rng.random() < 0.3 else
                     random_connected_graph(rng, rng.randint(1, 5))
                     for _ in range(rng.randint(1, 3))]
            n = rng.randint(len(parts) == 1, 2)  # isolated vertices
            edges = []
            for h in parts:
                edges.extend((u + n, v + n) for u, v in h.edges())
                n += h.n
            if n > MEMBERSHIP_ORDER_CAP:
                continue
            order = list(range(n))
            rng.shuffle(order)
            g = relabel(from_edge_list(n, edges), order)
            for kind, hit in zip(ClassKind, reference(g)):
                got = in_class(g, kind, fresh)
                assert got.member == (hit is None)
                assert got.witness == (hit and hit[1].decode("ascii"))
                verdicts.add(got.member)
            assert not is_minimal_forbidden(g, ClassKind.EXPONENTIAL, fresh)
        assert verdicts == {True, False}


class TestMinimalForbidden:
    def test_the_six_catalog_minimals(self, store):
        for name, code in CODES.items():
            g = decode_graph6(code)
            assert is_minimal_forbidden(g, ClassKind.EXPONENTIAL, store), name

    def test_cycle_with_tail_not_minimal(self, store):
        assert not is_minimal_forbidden(obstruction("F5"),
                                        ClassKind.EXPONENTIAL, store)

    def test_non_violators_not_minimal(self, store):
        assert not is_minimal_forbidden(cycle_graph(6),
                                        ClassKind.EXPONENTIAL, store)
        assert not is_minimal_forbidden(path_graph(8),
                                        ClassKind.EXPONENTIAL, store)

    def test_restricted_search_up_to_six(self, store):
        report = find_minimal_forbidden(6, ClassKind.EXPONENTIAL,
                                        RESTRICTION_NAMES, store=store)
        found = {rec["graph6"] for rec in report.extras["found"]}
        assert found == {CODES["F1"]}

    def test_restricted_search_up_to_seven(self, store):
        report = find_minimal_forbidden(7, ClassKind.EXPONENTIAL,
                                        RESTRICTION_NAMES, store=store)
        found = {rec["graph6"] for rec in report.extras["found"]}
        assert found == MINIMAL_SIX
        for rec in report.extras["found"]:
            assert (rec["gamma"], rec["gamma_e"], rec["gamma_e_star"]) == \
                (3, 2, 2)

    def test_unrestricted_search_up_to_seven(self, store):
        report = find_minimal_forbidden(7, ClassKind.EXPONENTIAL, (),
                                        store=store)
        found = {rec["graph6"] for rec in report.extras["found"]}
        assert found == MINIMAL_SIX | EXTRA_MINIMAL_7
        for rec in report.extras["found"]:
            assert (rec["gamma"], rec["gamma_e"], rec["gamma_e_star"]) == \
                (3, 2, 2)

    def test_porous_search_agrees_up_to_seven(self, store):
        exp = find_minimal_forbidden(7, ClassKind.EXPONENTIAL, (),
                                     store=store)
        por = find_minimal_forbidden(7, ClassKind.POROUS, (), store=store)
        assert {r["graph6"] for r in exp.extras["found"]} == \
            {r["graph6"] for r in por.extras["found"]}

    def test_order_cap(self, store):
        with pytest.raises(SizeCapError):
            find_minimal_forbidden(MEMBERSHIP_ORDER_CAP + 1,
                                   ClassKind.EXPONENTIAL, (), store=store)


class TestSweeps:
    def test_theorem1_small(self, store):
        report = verify_theorem1(max_n=7, store=store)
        assert report.verified
        assert report.counterexamples == []
        assert report.counts == {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 23, 7: 57}
        assert report.sweep == "theorem1"
        assert report.stream == "connected"

    def test_corollary1_small(self, store):
        report = verify_corollary1(max_n=7, store=store)
        assert report.verified
        assert report.counts == {1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 13, 7: 34}

    def test_corollary2_small(self, store):
        report = verify_corollary2(max_n=9, store=store)
        assert report.verified
        assert report.counts[9] == 47
        assert report.stream == "trees"

    def test_conjecture3_probe(self, store):
        report = probe_conjecture3(max_n=6, store=store)
        assert report.verified
        assert report.kind == "both"
        assert report.extras["divergences"] == []
        assert report.extras["chain_violations"] == []
        assert report.counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

    def test_enumerated_sweep_labels_no_card(self, monkeypatch):
        fresh = ParamStore()
        _obstruction_self_check(fresh)  # the gate recurses, on purpose
        calls = {}
        for name in ("canonical_code", "without_vertex"):
            def counted(*args, _name=name, _fn=getattr(hereditary, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(hereditary, name, counted)
        assert verify_theorem1(max_n=8, store=fresh).verified
        assert calls == {}

    def test_default_depths_are_sane(self):
        assert DEFAULT_MAX_N["corollary2"] > DEFAULT_MAX_N["theorem1"]
        assert all(n <= MEMBERSHIP_ORDER_CAP
                   for n in DEFAULT_MAX_N.values())


#: first 16 hex digits of the SHA-256 of to_json(include_timing=False), and
#: the config hash, of reports produced before the sweeps shared one loop
PINNED_REPORTS = {
    "theorem1": (lambda st: verify_theorem1(7, store=st),
                 "bc2a16bcfa5ea6a7", "9a3cebfa14f27742"),
    "corollary1": (lambda st: verify_corollary1(7, store=st),
                   "78f5b9e4b6cb94ff", "82a7d9c4752e0ebc"),
    "corollary2": (lambda st: verify_corollary2(9, store=st),
                   "3874115556bc24fb", "53f243f6b35736c5"),
    "conjecture3": (lambda st: probe_conjecture3(6, store=st),
                    "a2e246f790675e2b", "beeb98296d0325fd"),
    "minimal_exponential": (
        lambda st: find_minimal_forbidden(7, ClassKind.EXPONENTIAL,
                                          store=st),
        "9aec93c6f3e79da1", "0b2bdd822ea177be"),
    "minimal_porous": (
        lambda st: find_minimal_forbidden(7, ClassKind.POROUS, store=st),
        "2cb67a311993108f", "76d25f51684fd911"),
    "minimal_restricted": (
        lambda st: find_minimal_forbidden(7, ClassKind.EXPONENTIAL,
                                          RESTRICTION_NAMES, store=st),
        "dca520f835432608", "8d194a0792d6b62c"),
}


class TestReports:
    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_report_bytes_pinned(self, name):
        sweep, digest, config_hash = PINNED_REPORTS[name]
        report = sweep(ParamStore())
        blob = report.to_json(include_timing=False).encode("ascii")
        assert hashlib.sha256(blob).hexdigest()[:16] == digest
        assert report.config_hash == config_hash

    def test_deterministic_without_timing(self, store):
        a = verify_corollary2(max_n=8, store=store)
        b = verify_corollary2(max_n=8, store=store)
        assert a.to_json(include_timing=False) == \
            b.to_json(include_timing=False)

    def test_config_hash_depends_on_inputs(self, store):
        a = verify_corollary2(max_n=7, store=store)
        b = verify_corollary2(max_n=8, store=store)
        c = verify_corollary2(max_n=7, store=store)
        assert a.config_hash != b.config_hash
        assert a.config_hash == c.config_hash

    def test_json_shape(self, store):
        report = verify_corollary2(max_n=7, store=store)
        data = json.loads(report.to_json())
        assert data["verified"] is True
        assert data["counts"]["7"] == 11
        assert data["restriction"] == []
        assert "elapsed_seconds" in data
        assert "elapsed_seconds" not in \
            json.loads(report.to_json(include_timing=False))


class TestExternalSource:
    @pytest.mark.parametrize("mode, free_of", [
        (StreamMode.TREES, ()),
        (StreamMode.CONNECTED, RESTRICTION_NAMES),
        (StreamMode.CONNECTED, TRIANGLE_RESTRICTION_NAMES),
    ], ids=["trees", "restricted", "triangle_restricted"])
    def test_levels_match_internal_enumeration(self, rng, mode, free_of):
        # every connected graph, so the host-class filter has work to do
        graphs = []
        for n in range(1, 7):
            for g in connected_graphs(n):
                order = list(range(g.n))
                rng.shuffle(order)
                graphs.append(relabel(g, order))
        graphs.extend(graphs[::7])  # duplicates must collapse
        graphs.append(from_edge_list(4, [(0, 1), (2, 3)]))  # dropped
        rng.shuffle(graphs)
        source = levels_from_graphs(graphs, 6, free_of, mode)
        internal = levels(mode, free_of, 6)
        for n in range(1, 7):
            assert source(n) == internal(n)

    @pytest.mark.parametrize("name, max_n", [
        ("corollary2", 7), ("theorem1", 7), ("conjecture3", 6),
        ("conjecture3", 7),
    ])
    def test_sweep_over_external_source(self, rng, name, max_n):
        # each run on its own store, so the external source's card
        # recursion meets the enumeration's deck path report for report
        spec = SWEEPS[name]
        stream = trees if spec.stream is StreamMode.TREES else \
            connected_graphs
        graphs = [g for n in range(1, max_n + 1) for g in stream(n)]
        rng.shuffle(graphs)
        source = levels_from_graphs(graphs, max_n, spec.restriction,
                                    spec.stream)
        cards, decks = ParamStore(), ParamStore()
        external = spec.run(max_n, store=cards, graphs=graphs)
        internal = spec.run(max_n, store=decks)
        assert external.to_json(include_timing=False) == \
            internal.to_json(include_timing=False)
        # a report may not show a wrong witness (conjecture3 records only
        # whether there is one), so compare the witnesses themselves
        for n in range(1, max_n + 1):
            for code, g in source(n):
                assert cards.violators(g, code) == \
                    decks.violators(g, code), code

    def test_restriction_filter_applies(self):
        graphs = list(connected_graphs(6))
        source = levels_from_graphs(graphs, 6, free_of=OBSTRUCTION_NAMES)
        assert len(source(6)) == 111


#: `hereditary.parameter_values` calls of a serial `verify_corollary2(11)` on
#: a fresh store, the startup gate's included: a class is solved only when
#: its parents leave a kind undecided (449 when every class was solved)
SOLVED_COROLLARY2_11 = 73


class TestUndecidedClassesOnly:
    """`ParamStore` solves a class only when its cards leave a kind open."""

    @pytest.mark.parametrize("card_vals, own_vals, card_slot", [
        # chain-valid: P3 a porous violator only, P4 an exponential one
        ((2, 2, 1), (3, 2, 2), 1),
        # against the chain: P3 an exponential violator only, P4 a porous one
        ((2, 1, 2), (3, 3, 2), 0),
    ], ids=["porous_card", "exponential_card"])
    @pytest.mark.parametrize("through", ["cards", "levels"])
    def test_open_kind_solves_the_class(self, card_vals, own_vals, card_slot,
                                        through):
        # seeded values, true of neither graph: P4's only connected cards
        # are P3, which decides one kind, so P4 must still be solved for
        # the other
        fresh = ParamStore()
        p3, p4 = path_graph(3), path_graph(4)
        code3, code4 = canonical_code(p3), canonical_code(p4)
        fresh.store(code3, card_vals)
        fresh.store(code4, own_vals)
        if through == "levels":
            source = levels(StreamMode.TREES, (), 4)
            for n in range(1, 5):
                fresh.fill_violators(source(n))
        want = [(4, code4), (4, code4)]
        want[card_slot] = (3, code3)
        assert fresh.violators(p4) == tuple(want)

    def test_sweep_solves_only_undecided_classes(self, monkeypatch):
        solved = []
        monkeypatch.setattr(hereditary, "parameter_values",
                            lambda g: solved.append(g) or parameter_values(g))
        fresh = ParamStore()
        assert verify_corollary2(max_n=11, store=fresh).verified
        assert len(solved) == SOLVED_COROLLARY2_11
        source = levels(StreamMode.TREES, (), 11)
        for n in range(1, 12):
            for code, g in source(n):
                # unsolved exactly when both kinds have a smaller violator
                decided = all(hit is not None and hit[0] < n
                              for hit in fresh.violators(g, code))
                assert fresh.known(code) != decided, code


class TestStoreLifetime:
    """A call without a store gets one for that call only."""

    def test_store_less_calls_repeat_their_work(self, monkeypatch):
        solved = []
        monkeypatch.setattr(hereditary, "parameter_values",
                            lambda g: solved.append(g) or parameter_values(g))
        p7 = decode_graph6("F?LT?")
        counts = []
        for call in [lambda: verify_corollary2(max_n=11)] * 2 + \
                [lambda: in_class(p7)] * 2:
            solved.clear()
            call()
            counts.append(len(solved))
        # P7 and its six connected induced subgraph classes, P1 to P6
        assert counts == [SOLVED_COROLLARY2_11] * 2 + [7] * 2

    def test_no_module_level_store(self):
        modules = [value for value in vars(expodom).values()
                   if isinstance(value, type(expodom))]
        assert hereditary in modules
        for module in modules:
            stores = [name for name, value in vars(module).items()
                      if isinstance(value, ParamStore)]
            assert stores == [], module.__name__


class TestParamStore:
    def test_memoizes_by_canonical_code(self, rng):
        fresh = ParamStore()
        g = random_connected_graph(rng, 6)
        vals = fresh.params(g)
        assert fresh.known(canonical_code(g))
        order = list(range(g.n))
        rng.shuffle(order)
        assert fresh.params(relabel(g, order)) == vals

    def test_cache_file_round_trip(self, tmp_path):
        path = tmp_path / "params.tsv"
        cache = ResultsCache(str(path))
        writer = ParamStore(cache)
        p7 = path_graph(7)
        assert writer.params(p7) == (3, 2, 2)
        cache.close()

        reader = ParamStore(ResultsCache(str(path)))
        assert reader.known(canonical_code(p7))
        assert reader.params(p7) == (3, 2, 2)
