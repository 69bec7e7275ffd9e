import hashlib
import itertools
import json

import pytest

from expodom.cache import ResultsCache
from expodom.domination import parameter_values
from expodom.enumeration import connected_graphs, trees
from expodom.graphs import (
    SizeCapError,
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
    ParamStore,
    equality_holds,
    find_minimal_forbidden,
    in_class,
    is_minimal_forbidden,
    levels_from_graphs,
    probe_conjecture3,
    verify_corollary1,
    verify_corollary2,
    verify_theorem1,
)
from expodom.patterns import OBSTRUCTION_NAMES, RESTRICTION_NAMES, pattern
from conftest import cycle_graph, path_graph, random_connected_graph

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

    def test_parallel_run_identical(self, store):
        serial = verify_corollary2(max_n=9, jobs=1, store=store)
        parallel = verify_corollary2(max_n=9, jobs=2, store=ParamStore())
        assert serial.to_json(include_timing=False) == \
            parallel.to_json(include_timing=False)

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
    def test_levels_match_internal_enumeration(self, rng):
        graphs = []
        for n in range(1, 7):
            for g in trees(n):
                order = list(range(g.n))
                rng.shuffle(order)
                graphs.append(relabel(g, order))
        graphs.extend(graphs[:5])  # duplicates must collapse
        graphs.append(from_edge_list(4, [(0, 1), (2, 3)]))  # dropped
        source = levels_from_graphs(graphs, 6, trees_only=True)
        for n in range(1, 7):
            want = sorted(canonical_code(g) for g in trees(n))
            pairs = source(n)
            assert [code for code, _ in pairs] == want
            for code, g in pairs:
                assert code == canonical_code(g)

    def test_sweep_over_external_source(self, store, rng):
        graphs = [g for n in range(1, 8) for g in trees(n)]
        rng.shuffle(graphs)
        source = levels_from_graphs(graphs, 7, trees_only=True)
        external = verify_corollary2(max_n=7, store=store, source=source)
        internal = verify_corollary2(max_n=7, store=store)
        assert external.to_json(include_timing=False) == \
            internal.to_json(include_timing=False)

    def test_restriction_filter_applies(self):
        graphs = list(connected_graphs(6))
        source = levels_from_graphs(graphs, 6, free_of=OBSTRUCTION_NAMES)
        assert len(source(6)) == 111


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
