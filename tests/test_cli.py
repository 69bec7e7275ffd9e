import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expodom import enumeration, hereditary
from expodom.cache import ResultsCache
from expodom.cli import PARAMS_ORDER_CAP, build_parser, main
from expodom.domination import parameter_values
from expodom.graphs import decode_graph6, encode_graph6
from conftest import path_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


P7_G6 = encode_graph6(path_graph(7))  # path on vertices 0..6 in order


class TestParams:
    def test_path_record(self, capsys):
        data = run_json(capsys, "params", P7_G6)
        assert data["n"] == 7 and data["m"] == 6
        assert data["gamma"] == {"value": 3, "certificate": [0, 2, 5]}
        assert data["gamma_e"] == {"value": 2, "certificate": [1, 5]}
        assert data["gamma_e_star"]["value"] == 2
        assert data["equal_gamma_e"] is False
        assert data["equal_gamma_e_star"] is False

    def test_matches_library(self, capsys):
        for g6 in ("C~", "DQo", "EEh_"):
            data = run_json(capsys, "params", g6)
            a, b, c = parameter_values(decode_graph6(g6))
            assert data["gamma"]["value"] == a
            assert data["gamma_e"]["value"] == b
            assert data["gamma_e_star"]["value"] == c

    def test_explain_prints_weight_tables(self, capsys):
        assert P7_G6 == "FhCGG"
        code, out, _ = run(capsys, "params", P7_G6, "--explain")
        assert code == 0
        tables = out[out.index("\nweights"):].strip("\n").split("\n\n")
        want = [("weights for gamma_e certificate [1, 5]:",
                 (128, 256, 160, 128, 160, 256, 128)),
                ("porous weights for gamma_e_star certificate [1, 5]:",
                 (136, 272, 160, 128, 160, 272, 136))]
        assert tables == [
            "\n".join([title] + [f"  {v}: {p}/2^7" for v, p in enumerate(ps)])
            for title, ps in want]

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"\n{P7_G6}\n"))
        data = run_json(capsys, "params", "-")
        assert data["gamma"]["value"] == 3

    def test_stdin_read_as_bytes(self, capsys, monkeypatch):
        # stdin under an ASCII locale: its bytes, not its text, are read
        stdin = io.TextIOWrapper(io.BytesIO(f"\n{P7_G6}\n".encode()),
                                 encoding="ascii")
        monkeypatch.setattr("sys.stdin", stdin)
        data = run_json(capsys, "params", "-")
        assert data["gamma"]["value"] == 3

    def test_non_ascii_stdin_exit_3(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xc3\xa9\n"), encoding="ascii")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "params", "-")
        assert code == 3
        assert out == ""
        assert err == "expodom: parse error: <stdin>:1: non-ASCII byte\n"

    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# a 4-cycle\n0 1\n1 2\n\n2 3\n3 0\n")
        data = run_json(capsys, "params", "--edge-list", str(path))
        assert data["n"] == 4
        assert data["gamma"]["value"] == 2

    def test_edge_list_with_order_override(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n")
        data = run_json(capsys, "params", "--edge-list", str(path),
                        "--n", "4")
        assert data["n"] == 4

    def test_size_cap_exit_4(self, capsys):
        big = encode_graph6(path_graph(PARAMS_ORDER_CAP + 1))
        code, _, err = run(capsys, "params", big)
        assert code == 4
        assert "cap" in err

    def test_parse_error_exit_3(self, capsys):
        code, _, err = run(capsys, "params", "not graph6!")
        assert code == 3
        assert "parse error" in err

    def test_non_ascii_edge_list_exit_3(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"1 \xc3\xa9\n")
        code, out, err = run(capsys, "params", "--edge-list", str(path))
        assert code == 3
        assert out == ""
        assert err == f"expodom: parse error: {path}:1: non-ASCII byte\n"

    def test_self_loop_edge_line_exit_3(self, capsys, tmp_path):
        path = tmp_path / "loop.el"
        path.write_text("0 1\n1 1\n")
        code, out, err = run(capsys, "params", "--edge-list", str(path))
        assert code == 3
        assert out == ""
        assert err == f"expodom: parse error: {path}:2: self-loop at 1\n"

    def test_negative_vertex_edge_line_exit_3(self, capsys, tmp_path):
        path = tmp_path / "negative.el"
        path.write_text("0 1\n-1 2\n")
        code, out, err = run(capsys, "params", "--edge-list", str(path))
        assert code == 3
        assert out == ""
        assert err == (f"expodom: parse error: {path}:2: vertices must be "
                       f"nonnegative\n")

    def test_edge_beyond_order_override_exit_2(self, capsys, tmp_path):
        # the line is well formed; it conflicts with the --n flag
        path = tmp_path / "graph.el"
        path.write_text("0 5\n")
        code, out, err = run(capsys, "params", "--edge-list", str(path),
                             "--n", "4")
        assert code == 2
        assert out == ""
        assert "out of range" in err


class TestMember:
    def test_member_true(self, capsys):
        data = run_json(capsys, "member", "D]o")  # K_{2,3} is in the class
        assert data["member"] is True
        assert data["witness"] is None
        assert data["kind"] == "gamma_e"

    def test_member_false_with_witness(self, capsys):
        data = run_json(capsys, "member", P7_G6)
        assert data["member"] is False
        assert data["witness"] == "F?LT?"

    def test_porous_flag(self, capsys):
        data = run_json(capsys, "member", P7_G6, "--porous")
        assert data["kind"] == "gamma_e_star"
        assert data["member"] is False

    def test_membership_cap_exit_4(self, capsys):
        code, _, _ = run(capsys, "member", encode_graph6(path_graph(13)))
        assert code == 4


class TestMatch:
    def test_hit(self, capsys):
        data = run_json(capsys, "match", P7_G6, "--patterns", "P7")
        assert data["free"] is False
        assert data["hit"]["name"] == "P7"
        assert sorted(data["hit"]["embedding"]) == list(range(7))

    def test_free(self, capsys):
        data = run_json(capsys, "match", "D]o", "--patterns", "K3", "C7")
        assert data["free"] is True
        assert data["hit"] is None
        assert data["patterns"] == ["K3", "C7"]

    def test_default_patterns_whole_catalog(self, capsys):
        data = run_json(capsys, "match", "C~")
        assert "K3" in data["patterns"]
        assert data["hit"]["name"] == "K3"

    def test_comma_separated_names(self, capsys):
        data = run_json(capsys, "match", "C~", "--patterns", "K3,K4")
        assert data["patterns"] == ["K3", "K4"]

    def test_unknown_pattern_exit_2(self, capsys):
        for _ in range(2):  # the second call must not be answered from memo
            code, _, err = run(capsys, "match", "C~", "--patterns", "NOSUCH")
            assert code == 2
            assert "NOSUCH" in err


class TestEnum:
    def test_count_format(self, capsys):
        code, out, _ = run(capsys, "enum", "--n", "6", "--format", "count")
        assert code == 0
        assert out.strip() == "112"

    def test_graph6_format(self, capsys):
        code, out, _ = run(capsys, "enum", "--n", "4")
        lines = out.split()
        assert len(lines) == 6
        assert sorted(lines) == ["CF", "CL", "CN", "C]", "C^", "C~"]

    def test_trees_with_restriction(self, capsys):
        code, out, _ = run(capsys, "enum", "--n", "7", "--trees",
                           "--free", "P7", "F1", "--format", "count")
        assert code == 0
        # 11 trees on 7 vertices, 5 of which contain the path or the
        # three-pendant caterpillar induced
        assert int(out.strip()) == 6

    def test_cap_exit_4(self, capsys):
        code, _, _ = run(capsys, "enum", "--n", "11", "--format", "count")
        assert code == 4


    def test_unknown_free_name_exit_2(self, capsys):
        code, _, err = run(capsys, "enum", "--n", "4", "--free", "BOGUS")
        assert code == 2
        assert "BOGUS" in err


class TestVerify:
    def test_corollary2_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--sweep", "corollary2",
                           "--max-n", "8")
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True
        assert data["sweep"] == "corollary2"
        assert data["counts"]["8"] == 23
        assert data["counterexamples"] == []

    def test_theorem1_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--sweep", "theorem1",
                           "--max-n", "6")
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_conjecture3_probe(self, capsys):
        code, out, _ = run(capsys, "verify", "--sweep", "conjecture3",
                           "--max-n", "5")
        assert code == 0
        data = json.loads(out)
        assert data["divergences"] == []
        assert data["chain_violations"] == []

    def test_external_graphs_file(self, capsys, tmp_path):
        path = tmp_path / "trees.g6"
        lines = []
        code, out, _ = run(capsys, "enum", "--n", "6", "--trees")
        lines.extend(out.split())
        path.write_text("# six-vertex trees\n" + "\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", "--sweep", "corollary2",
                           "--max-n", "6", "--graphs", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True
        assert data["counts"]["6"] == 6
        assert data["counts"]["5"] == 0

    def test_theorem1_graphs_file_matches_internal_sweep(self, capsys,
                                                          tmp_path):
        # every connected graph of order <= 6; the sweep keeps its host class
        path = tmp_path / "connected.g6"
        lines = []
        for n in range(1, 7):
            code, out, _ = run(capsys, "enum", "--n", str(n))
            lines.extend(out.split())
        path.write_text("\n".join(lines) + "\n")
        internal = run_json(capsys, "verify", "--sweep", "theorem1",
                            "--max-n", "6")
        external = run_json(capsys, "verify", "--sweep", "theorem1",
                            "--max-n", "6", "--graphs", str(path))
        del internal["elapsed_seconds"], external["elapsed_seconds"]
        assert external == internal

    def test_non_ascii_graphs_file_exit_3(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_bytes(b"A_\n\xc3\xa9\n")
        code, out, err = run(capsys, "verify", "--sweep", "theorem1",
                             "--graphs", str(path))
        assert code == 3
        assert out == ""
        assert err == f"expodom: parse error: {path}:2: non-ASCII byte\n"

    def test_graphs_file_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("A_\nnot graph6!\n")
        code, out, err = run(capsys, "verify", "--sweep", "theorem1",
                             "--graphs", str(path))
        assert code == 3
        assert out == ""
        assert err == (f"expodom: parse error: {path}:2: byte 32 outside "
                       f"graph6 range\n")

    def test_graphs_file_order_cap_exit_4(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("A_\n~?@@\n")  # order 65
        code, out, err = run(capsys, "verify", "--sweep", "theorem1",
                             "--graphs", str(path))
        assert code == 4
        assert out == ""
        assert err == "expodom: order 65 exceeds the 64-vertex cap\n"

    @pytest.mark.parametrize("max_n, status, message", [
        ("13", 4, "expodom: membership capped at order 12\n"),
        ("0", 2, "expodom: max_n must be at least 1, got 0\n"),
    ])
    def test_graphs_file_order_refused_before_reading(self, capsys, tmp_path,
                                                      max_n, status,
                                                      message):
        # line 2 is malformed: reading the file would exit 3
        path = tmp_path / "graphs.g6"
        path.write_text("A_\nnot graph6!\n")
        code, out, err = run(capsys, "verify", "--sweep", "theorem1",
                             "--max-n", max_n, "--graphs", str(path))
        assert (code, out, err) == (status, "", message)

    @pytest.mark.parametrize("argv", [
        ("verify", "--sweep", "conjecture3", "--max-n", "10"),
        ("minimal", "--max-n", "10"),
    ])
    def test_stream_cap_refused_before_any_level(self, capsys, monkeypatch,
                                                 argv):
        def no_level(*args):
            raise AssertionError("a level was built")

        monkeypatch.setattr(enumeration, "_level_pairs", no_level)
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err == "expodom: connected enumeration capped at order 9\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--sweep", "theorem1"),
        ("minimal",),
    ], ids=["verify", "minimal"])
    @pytest.mark.parametrize("max_n, status, message", [
        ("0", 2, "expodom: max_n must be at least 1, got 0\n"),
        ("13", 4, "expodom: membership capped at order 12\n"),
    ], ids=["zero", "membership_cap"])
    def test_order_refused_before_cache_read(self, capsys, tmp_path, argv,
                                             max_n, status, message):
        # a bad line in the cache: reading it would warn on stderr
        path = tmp_path / "cache.tsv"
        path.write_text("not a record\n")
        code, out, err = run(capsys, *argv, "--max-n", max_n,
                             "--cache", str(path))
        assert (code, out, err) == (status, "", message)
        assert path.read_text() == "not a record\n"

    def test_graphs_file_default_order(self, capsys, tmp_path):
        # the sweep's own default depth and host class: only the tree counts
        path = tmp_path / "graphs.g6"
        path.write_text("A_\nBw\n")  # P2 and K3
        data = run_json(capsys, "verify", "--sweep", "corollary2",
                        "--graphs", str(path))
        assert data["max_n"] == 12
        assert data["counts"] == {"1": 0, "2": 1, **{
            str(n): 0 for n in range(3, 13)}}

    def test_graphs_file_has_no_stream_cap(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setattr(enumeration, "_level_pairs", None)
        path = tmp_path / "graphs.g6"
        path.write_text("A_\nBw\n")  # P2 and K3
        data = run_json(capsys, "verify", "--sweep", "conjecture3",
                        "--max-n", "11", "--graphs", str(path))
        assert data["max_n"] == 11
        assert data["counts"] == {"1": 0, "2": 1, "3": 1, **{
            str(n): 0 for n in range(4, 12)}}

    def test_cache_file_written(self, capsys, tmp_path):
        path = tmp_path / "cache.tsv"
        code, _, _ = run(capsys, "verify", "--sweep", "corollary2",
                         "--max-n", "6", "--cache", str(path))
        assert code == 0
        text = path.read_text()
        assert "F?LT?\t3\t2\t2" in text

    def test_cache_rerun_solves_nothing(self, capsys, tmp_path, monkeypatch):
        # a serial sweep writes only the classes it solved; a second run on
        # that file needs no other class, so it solves nothing
        solved = []
        monkeypatch.setattr(hereditary, "parameter_values",
                            lambda g: solved.append(g) or parameter_values(g))
        path = tmp_path / "cache.tsv"
        argv = ("verify", "--sweep", "corollary2", "--max-n", "9",
                "--cache", str(path))
        first = run_json(capsys, *argv)
        assert 0 < len(solved) == len(path.read_text().splitlines())
        solved.clear()
        second = run_json(capsys, *argv)
        assert solved == []
        del first["elapsed_seconds"], second["elapsed_seconds"]
        assert first == second

    def test_cache_line_with_non_graph6_key_skipped(self, capsys, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"B\xc3\xa9\t1\t1\t1\n")
        code, out, err = run(capsys, "verify", "--sweep", "corollary2",
                             "--max-n", "5", "--cache", str(path))
        assert code == 0, err
        assert json.loads(out)["verified"] is True
        assert "skipping bad cache line" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--sweep", "corollary2", "--max-n", "5"),
        ("minimal", "--max-n", "5"),
    ])
    def test_cache_closed_after_run(self, capsys, tmp_path, monkeypatch,
                                    argv):
        closed = []
        real_close = ResultsCache.close

        def close(cache):
            closed.append(cache.path)
            real_close(cache)

        monkeypatch.setattr(ResultsCache, "close", close)
        path = str(tmp_path / "cache.tsv")
        code, _, _ = run(capsys, *argv, "--cache", path)
        assert code == 0
        assert closed == [path]

    def test_wrong_cache_record_fails_gate_exit_5(self, capsys, tmp_path):
        # a well-formed record with wrong values: P3 is (1, 1, 1), not
        # (2, 1, 1), so the obstructions seem to contain a foreign violator
        path = tmp_path / "bad.tsv"
        path.write_text("BW\t2\t1\t1\n")
        code, out, err = run(capsys, "verify", "--sweep", "corollary2",
                             "--max-n", "5", "--cache", str(path))
        assert code == 5
        assert out == ""
        assert err.startswith("expodom: startup gate failed: ")
        assert "a results cache may hold wrong values" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, mode, n", [
        (("verify", "--sweep", "conjecture3", "--max-n", "5"),
         enumeration.StreamMode.CONNECTED, 5),
        (("verify", "--sweep", "corollary2", "--max-n", "6"),
         enumeration.StreamMode.TREES, 6),
        (("enum", "--n", "5"), enumeration.StreamMode.CONNECTED, 5),
        (("enum", "--n", "6", "--trees"), enumeration.StreamMode.TREES, 6),
    ], ids=["verify", "verify-trees", "enum", "enum-trees"])
    def test_wrong_class_count_fails_gate_exit_5(self, capsys, monkeypatch,
                                                 argv, mode, n):
        # a count table that disagrees with the enumeration at order n
        sequence, counts = enumeration._CLASS_COUNTS[mode]
        bent = counts[:n - 1] + (counts[n - 1] + 1,) + counts[n:]
        monkeypatch.setitem(enumeration._CLASS_COUNTS, mode, (sequence, bent))
        monkeypatch.setattr(enumeration, "_LEVELS", {})
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert out == ""
        noun = "connected" if mode is enumeration.StreamMode.CONNECTED \
            else "tree"
        assert err == (f"expodom: count gate failed: {noun} level of order "
                       f"{n} has {counts[n - 1]} classes, expected "
                       f"{counts[n - 1] + 1} (OEIS {sequence})\n")

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        # the cache file is named by --cache alone; the old variable is
        # ignored
        argv = ("verify", "--sweep", "corollary2", "--max-n", "5")
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "env-cache.tsv"
        monkeypatch.setenv("EXPODOM_CACHE", str(path))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert not path.exists()
        got, want = json.loads(out), json.loads(plain)
        got.pop("elapsed_seconds")
        want.pop("elapsed_seconds")
        assert got == want

    def test_unknown_sweep_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--sweep", "theorem9")
        assert code == 2


class TestMinimal:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "minimal", "--max-n", "6")
        assert code == 0
        assert "E@QW" in out
        assert "gamma=3" in out

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "minimal", "--max-n", "6",
                           "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "graph6,n,gamma,gamma_e,gamma_e_star"
        assert "E@QW,6,3,2,2" in lines[1:]

    def test_json_output(self, capsys):
        data = run_json(capsys, "minimal", "--max-n", "6", "--format",
                        "json")
        found = data["found"]
        assert {rec["graph6"] for rec in found} >= {"E@QW"}

    def test_restriction_flag(self, capsys):
        code, out, _ = run(capsys, "minimal", "--max-n", "6", "--free",
                           "BULL,DIAMOND,K4,K23,P2xP3")
        assert code == 0
        assert out.count("n=") == 1

    def test_empty_result_message(self, capsys):
        code, out, _ = run(capsys, "minimal", "--max-n", "5")
        assert code == 0
        assert "no minimal forbidden" in out


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("expodom ")

    def test_missing_graph_argument_exit_2(self, capsys):
        code, _, err = run(capsys, "params")
        assert code == 2
        assert "no graph given" in err

    @pytest.mark.parametrize("command", [
        ("verify", "--sweep", "corollary2", "--max-n", "4"),
        ("minimal", "--max-n", "4"),
    ])
    def test_jobs_option_removed_exit_2(self, capsys, command):
        # every sweep runs in one process; there is no worker count to set
        code, out, err = run(capsys, *command, "--jobs", "2")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err

    @pytest.mark.parametrize("command", [
        ("verify", "--sweep", "corollary2", "--max-n", "4"),
        ("minimal", "--max-n", "4"),
    ])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, capsys, command, jobs):
        # a worker count below one is refused like any other --jobs value
        code, out, err = run(capsys, *command, "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: --jobs {jobs}" in err

    @pytest.mark.parametrize("command", [
        ("verify", "--sweep", "theorem1"),
        ("verify", "--sweep", "theorem1", "--graphs", "GRAPHS"),
        ("minimal", "--format", "csv"),
    ], ids=["verify", "verify-graphs", "minimal"])
    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_max_n_below_one_exit_2(self, capsys, tmp_path, command, max_n):
        path = tmp_path / "graphs.g6"
        path.write_text("A_\n")
        argv = [str(path) if arg == "GRAPHS" else arg for arg in command]
        code, out, err = run(capsys, *argv, "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert err == f"expodom: max_n must be at least 1, got {max_n}\n"

    @pytest.mark.parametrize("command", ["params", "member", "match"])
    @pytest.mark.parametrize("graph", ["A_", "-"])
    def test_graph6_with_edge_list_exit_2(self, capsys, tmp_path, command,
                                          graph):
        # refused before either input is read: the file does not exist, and
        # pytest's stdin raises on a read
        path = tmp_path / "missing.el"
        code, out, err = run(capsys, command, graph, "--edge-list", str(path))
        assert (code, out) == (2, "")
        assert err == ("expodom: give a graph6 argument or --edge-list, "
                       "not both\n")

    @pytest.mark.parametrize("command", ["params", "member", "match"])
    @pytest.mark.parametrize("graph", ["A_", "-"])
    def test_order_without_edge_list_exit_2(self, capsys, command, graph):
        code, out, err = run(capsys, command, graph, "--n", "5")
        assert (code, out) == (2, "")
        assert err == "expodom: --n applies only with --edge-list\n"

    def test_missing_edge_list_file_exit_3(self, capsys):
        code, _, _ = run(capsys, "params", "--edge-list", "/nonexistent/x")
        assert code == 3

    def test_parser_reused_across_calls(self, capsys):
        # one parser serves every call in a process: a run of calls, with
        # usage errors after successes and a flag that the next call of the
        # same subcommand leaves out, answers as the same calls each made
        # in a fresh process
        calls = [("params", "A_"), ("verify", "--sweep", "nope"),
                 ("enum", "--n", "5", "--trees"), ("enum", "--n", "5"),
                 ("member", "--porous", P7_G6), ("member", P7_G6),
                 ("enum", "--n", "4", "--format", "count"), ("enum",),
                 ("match", P7_G6, "--patterns", "P7"), ("match", "A_")]
        build_parser.cache_clear()
        together = [run(capsys, *argv) for argv in calls]
        assert build_parser() is build_parser()
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        for argv, got in zip(calls, together):
            done = subprocess.run([sys.executable, "-m", "expodom.cli",
                                   *argv], capture_output=True, text=True,
                                  env=env)
            assert got == (done.returncode, done.stdout, done.stderr), argv
        assert [code for code, _, _ in together] == [0, 2, 0, 0, 0, 0, 0, 2,
                                                     0, 0]
