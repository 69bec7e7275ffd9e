import io
import json

import pytest

from expodom.cache import CACHE_ENV_VAR, ResultsCache
from expodom.cli import PARAMS_ORDER_CAP, main
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

    def test_cache_file_written(self, capsys, tmp_path):
        path = tmp_path / "cache.tsv"
        code, _, _ = run(capsys, "verify", "--sweep", "corollary2",
                         "--max-n", "6", "--cache", str(path))
        assert code == 0
        text = path.read_text()
        assert "F?LT?\t3\t2\t2" in text

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

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env-cache.tsv"
        monkeypatch.setenv(CACHE_ENV_VAR, str(path))
        code, _, _ = run(capsys, "verify", "--sweep", "corollary2",
                         "--max-n", "5")
        assert code == 0
        assert path.exists()

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

    def test_missing_graph_argument_exit_3(self, capsys):
        code, _, err = run(capsys, "params")
        assert code == 3
        assert "no graph given" in err

    @pytest.mark.parametrize("command", [
        ("verify", "--sweep", "corollary2", "--max-n", "4"),
        ("minimal", "--max-n", "4"),
    ])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, capsys, command, jobs):
        code, out, err = run(capsys, *command, "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert f"argument --jobs: must be at least 1, got {jobs}" in err

    def test_missing_edge_list_file_exit_3(self, capsys):
        code, _, _ = run(capsys, "params", "--edge-list", "/nonexistent/x")
        assert code == 3
