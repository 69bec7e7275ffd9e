import subprocess
import sys
from pathlib import Path

import expodom


def test_exports_and_readme_library_example():
    for name in expodom.__all__:
        assert hasattr(expodom, name), name
    assert "DyadicWeight" not in expodom.__all__
    assert not hasattr(expodom, "DyadicWeight")

    # the README's "Library" example
    g = expodom.decode_graph6("F?LT?")
    assert expodom.parameter_values(g) == (3, 2, 2)
    result = expodom.in_class(g, expodom.ClassKind.EXPONENTIAL)
    assert not result.member and result.witness == "F?LT?"
    assert expodom.verify_corollary2(max_n=10).verified


def test_bench_tracer_installs():
    # bench/tracer.py and bench/child.py patch package attributes by name;
    # a refactor that renames one fails here, not only in traced runs
    root = Path(__file__).resolve().parent.parent
    script = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(root / 'bench')!r}, {str(root / 'src')!r}]",
        "import tracer",
        "tracer.install(tracer.Tracer())",
        "from expodom import cli, hereditary",
        "assert callable(hereditary._obstruction_self_check)",
        "assert callable(cli.compute_all)",
    ])
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
