import ast
import json
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import expodom
from expodom.cli import main

ROOT = Path(__file__).resolve().parent.parent


#: Names deleted because each restated another: the sweep aliases of
#: `SWEEPS[name].run`, `find_minimal_forbidden` for `minimal_spec(...).run`,
#: `DEFAULT_MAX_N` for `SweepSpec.default_max_n`, and the single-vertex
#: weights for an index into `weight_table` / `porous_weight_table`
DELETED_NAMES = ("DyadicWeight", "verify_theorem1", "verify_corollary1",
                 "verify_corollary2", "probe_conjecture3", "DEFAULT_MAX_N",
                 "find_minimal_forbidden", "weight", "porous_weight")


def test_exports_and_readme_library_example():
    for name in expodom.__all__:
        assert hasattr(expodom, name), name
    for name in DELETED_NAMES:
        assert name not in expodom.__all__, name
        assert not hasattr(expodom, name), name

    # the README's "Library" block as written: each commented expression's
    # value is the one its comment shows, as a literal or as attributes
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S)[1]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        value = eval(source, namespace)
        text = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        text = text.removeprefix("# ")
        if "=" in text:
            want = eval(f"dict({text})")
            got = {key: getattr(value, key) for key in want}
        else:
            want, got = ast.literal_eval(text), value
        assert got == want, source
        shown.append(text)
    assert shown == ["(3, 2, 2)", 'member=False, witness="F?LT?"', "True"]


def test_package_imports_only_the_stdlib():
    src = ROOT / "src" / "expodom"
    paths = sorted(src.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # a relative import (level > 0) stays inside the package
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "expodom", \
                    (path.name, name)
                # one process: no worker pool or executor, not even locally
                assert top not in {"multiprocessing", "concurrent"}, \
                    (path.name, name)


def test_cli_import_defers_unused_modules():
    # a process pays for exact fractions only when it prints a weight
    # table, for hashlib (and OpenSSL) only when it hashes a report's
    # config, and nothing imports a worker pool
    src = ROOT / "src"
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(src)!r})",
        "import expodom.cli",
        "print(sorted({'multiprocessing', 'fractions', 'decimal', 'hashlib'}"
        " & set(sys.modules)))",
    ])
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


#: Traced counts of `verify --sweep theorem1 --max-n 6` in a fresh process.
#: A change that moves one on purpose updates it and says why.
TRACED_THEOREM1_6 = {
    # one candidate per Aut(parent) orbit of unblocked masks (134 -> 74),
    # then only those the augmentation filter keeps (74 -> 41, for 40
    # classes); every parent to order 5 is a member, so the sweep labels no
    # rejected candidate (183 -> 150).  The parents' own searches for their
    # automorphism generators call the search directly and are not counted
    "graphs.canonical.calls": 150,
    "enumeration.candidates": 41,
    # the restricted levels read per-parent extension tables, which the
    # tracer does not count, and the order-1 level needs no filter: what is
    # left is the sweep's obstruction check on each of its 40 graphs
    "patterns.match.calls": 40,
    # a class is solved only when its cards leave a kind undecided: the
    # gate's store no longer solves F5, whose card holding F1 decides both
    # kinds (46 -> 45); `patterns.verify_catalog` still solves F5 directly
    "domination.solve.calls": 45,
    "hereditary.lookup.calls": 45,
}


def test_bench_tracer_installs():
    # bench/tracer.py and bench/child.py patch package attributes by name;
    # a refactor that renames or bypasses one fails here, not only in
    # traced runs
    script = "\n".join([
        "import contextlib, io, json, sys",
        f"sys.path[:0] = [{str(ROOT / 'bench')!r}, {str(ROOT / 'src')!r}]",
        "import tracer",
        "t = tracer.Tracer()",
        "tracer.install(t)",
        "from expodom import cli, hereditary",
        "assert callable(hereditary._obstruction_self_check)",
        "assert callable(cli.compute_all)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['verify', '--sweep', 'theorem1', '--max-n', '6'])",
        "assert code == 0, code",
        "counts = {k: v for k, (v, _) in tracer.summarize(t.spans).items()}",
        "spans = [s[0] for s in t.spans]",
        "counts['gate'] = spans.count('hereditary.gate')",
        "counts['catalog'] = spans.count('patterns.catalog')",
        "print(json.dumps(counts))",
    ])
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout)
    for name, pinned in TRACED_THEOREM1_6.items():
        assert counts[name] == pinned, name
    assert counts["gate"] == 1
    assert counts["catalog"] == 1


def test_readme_command_examples(capsys):
    # every `$ expodom ...` block: its command's output, JSON compared as
    # parsed JSON (the README folds short arrays), text compared exactly
    readme = (ROOT / "README.md").read_text()
    ran = []
    for block in re.findall(r"```sh\n(\$ expodom .*?)```", readme, re.S):
        command, _, shown = block.partition("\n")
        argv = shlex.split(command[2:], comments=True)[1:]
        assert main(argv) == 0, command
        out = capsys.readouterr().out
        if shown.startswith("{"):
            assert json.loads(out) == json.loads(shown), command
        else:
            assert out == shown, command
        ran.append(argv[0])
    assert ran == ["params", "member", "match", "minimal"]


def test_sources_parse_as_python_3_10():
    # requires-python says 3.10: no newer syntax, and no compile warning
    paths = [path for top in ("src", "tests", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert paths
    for path in paths:
        text = path.read_text()
        ast.parse(text, str(path), feature_version=(3, 10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(text, str(path), "exec", dont_inherit=True)
