"""Command line front end.

Exit codes: 0 success (or membership/match query answered), 1 sweep found a
counterexample, 2 usage error, 3 input parse error, 4 size cap refused,
5 startup gate failed (a results cache may hold wrong values).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing, nullcontext
from typing import Callable, Iterable, Iterator, Optional

from . import __version__
from .cache import ResultsCache, cache_from_environment
from .domination import compute_all, porous_weight_table, weight_table
from .enumeration import connected_graphs, read_graph6_stream, trees
from .graphs import Graph, Graph6Error, SizeCapError, decode_graph6, \
    encode_graph6, from_edge_list
from .hereditary import (
    SWEEPS,
    ClassKind,
    ParamStore,
    in_class,
    levels_from_graphs,
    minimal_spec,
)
from .patterns import GateError, find_any_pattern, pattern_names

#: exact exponential solves above this order are an overnight job, not a
#: CLI call; refuse instead of hanging.
PARAMS_ORDER_CAP = 20

#: What `verify` calls per sweep name; a separate mapping so that a caller
#: can wrap a sweep without touching the table (bench/tracer.py does).
_SWEEPS = {name: spec.run for name, spec in SWEEPS.items()}


def _ascii_lines(path: str, parse: Callable[[str], Iterable]) -> Iterator:
    """What `parse` yields for each line of a file, or of stdin for '-'.

    A parse error or a non-ASCII byte, whatever the locale, names path:line.
    """
    # stdin's bytes when it has them; surrogateescape reads past a bad byte
    stdin = getattr(sys.stdin, "buffer", sys.stdin)
    name = "<stdin>" if path == "-" else path
    with (nullcontext(stdin) if path == "-" else
          open(path, "r", encoding="ascii", errors="surrogateescape")) as fh:
        for lineno, line in enumerate(fh, start=1):
            if isinstance(line, bytes):
                line = line.decode("ascii", errors="surrogateescape")
            try:
                if not line.isascii():
                    raise Graph6Error("non-ASCII byte")
                yield from parse(line)
            except Graph6Error as exc:
                raise Graph6Error(f"{name}:{lineno}: {exc}") from None


def _edge(line: str) -> list[tuple[int, int]]:
    parts = line.split()
    if not parts or parts[0].startswith("#"):
        return []
    if len(parts) != 2:
        raise Graph6Error("expected 'u v'")
    try:
        return [(int(parts[0]), int(parts[1]))]
    except ValueError:
        raise Graph6Error("vertices must be integers") from None


def _read_edge_list(path: str, n: Optional[int]) -> Graph:
    edges = list(_ascii_lines(path, _edge))
    if n is None:
        if not edges:
            raise Graph6Error(f"{path}: empty edge list needs --n")
        n = max(max(u, v) for u, v in edges) + 1
    return from_edge_list(n, edges)


def _graphs(path: str) -> Iterator[Graph]:
    """The graph6 graphs of a file, or of stdin for '-'."""
    return _ascii_lines(path, lambda line: read_graph6_stream([line]))


def _load_graph(args) -> Graph:
    if getattr(args, "edge_list", None):
        return _read_edge_list(args.edge_list, getattr(args, "n", None))
    if args.graph is None:
        raise Graph6Error("no graph given (graph6 argument or --edge-list)")
    if args.graph != "-":
        return decode_graph6(args.graph)
    g = next(_graphs("-"), None)
    if g is None:
        raise Graph6Error("stdin was empty")
    return g


def _split_names(values: list[str]) -> tuple[str, ...]:
    names = []
    for value in values:
        names.extend(p for p in value.replace(",", " ").split() if p)
    return tuple(names)


def cmd_params(args) -> int:
    g = _load_graph(args)
    if g.n > PARAMS_ORDER_CAP:
        raise SizeCapError(
            f"order {g.n} exceeds the exact-solve cap {PARAMS_ORDER_CAP}")
    gamma, gamma_e, gamma_e_star = compute_all(g)
    record = {
        "graph6": encode_graph6(g),
        "n": g.n,
        "m": g.m,
        "gamma": {"value": gamma.value,
                  "certificate": list(gamma.certificate)},
        "gamma_e": {"value": gamma_e.value,
                    "certificate": list(gamma_e.certificate)},
        "gamma_e_star": {"value": gamma_e_star.value,
                         "certificate": list(gamma_e_star.certificate)},
        "equal_gamma_e": gamma.value == gamma_e.value,
        "equal_gamma_e_star": gamma.value == gamma_e_star.value,
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.explain:
        for title, result, table in (
                ("weights for gamma_e", gamma_e, weight_table),
                ("porous weights for gamma_e_star", gamma_e_star,
                 porous_weight_table)):
            print(f"\n{title} certificate {sorted(result.certificate)}:")
            for v, w in enumerate(table(g, result.certificate)):
                print(f"  {v}: {int(w * (1 << g.n))}/2^{g.n}")
    return 0


def cmd_member(args) -> int:
    g = _load_graph(args)
    kind = ClassKind.POROUS if args.porous else ClassKind.EXPONENTIAL
    result = in_class(g, kind)
    record = {
        "graph6": encode_graph6(g),
        "kind": kind.value,
        "member": result.member,
        "witness": result.witness,
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_match(args) -> int:
    g = _load_graph(args)
    names = _split_names(args.patterns) if args.patterns else pattern_names()
    hit = find_any_pattern(g, names)
    record = {
        "graph6": encode_graph6(g),
        "patterns": list(names),
        "free": hit is None,
        "hit": None if hit is None else {"name": hit[0],
                                         "embedding": list(hit[1])},
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_enum(args) -> int:
    free = _split_names(args.free) if args.free else ()
    stream = trees(args.n, free) if args.trees else connected_graphs(args.n, free)
    if args.format == "count":
        print(sum(1 for _ in stream))
    else:
        for g in stream:
            print(encode_graph6(g))
    return 0


def _make_store(args) -> ParamStore:
    if getattr(args, "cache", None):
        return ParamStore(ResultsCache(args.cache))
    env_cache = cache_from_environment()
    return ParamStore(env_cache) if env_cache is not None else ParamStore()


def cmd_verify(args) -> int:
    spec = SWEEPS[args.sweep]
    max_n = spec.default_max_n if args.max_n is None else args.max_n
    with closing(_make_store(args)) as store:
        source = None
        if args.graphs:
            source = levels_from_graphs(list(_graphs(args.graphs)), max_n,
                                        spec.restriction,
                                        spec.stream == "trees")
        report = _SWEEPS[args.sweep](max_n=max_n, jobs=args.jobs, store=store,
                                     source=source)
    print(report.to_json())
    return 0 if report.verified else 1


def cmd_minimal(args) -> int:
    free = _split_names(args.free) if args.free else ()
    kind = ClassKind.POROUS if args.porous else ClassKind.EXPONENTIAL
    spec = minimal_spec(kind, free)
    max_n = spec.default_max_n if args.max_n is None else args.max_n
    with closing(_make_store(args)) as store:
        report = spec.run(max_n, jobs=args.jobs, store=store)
    found = report.extras["found"]
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print("graph6,n,gamma,gamma_e,gamma_e_star")
        for row in found:
            print("{graph6},{n},{gamma},{gamma_e},{gamma_e_star}"
                  .format(**row))
    else:
        if not found:
            print(f"no minimal forbidden graphs up to order {report.max_n}")
        for row in found:
            print("{graph6}  n={n}  gamma={gamma}  gamma_e={gamma_e}  "
                  "gamma_e_star={gamma_e_star}".format(**row))
    return 0


def _jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_graph_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", nargs="?",
                     help="graph6 string, or '-' to read one from stdin")
    sub.add_argument("--edge-list", metavar="FILE",
                     help="read 'u v' lines instead of graph6")
    sub.add_argument("--n", type=int, default=None,
                     help="order override for --edge-list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expodom",
        description="Exponential domination parameters, obstructions, sweeps.")
    parser.add_argument("--version", action="version",
                        version=f"expodom {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("params",
                        help="gamma, gamma_e, gamma_e_star with certificates")
    _add_graph_input(p)
    p.add_argument("--explain", action="store_true",
                   help="print per-vertex weight tables for the certificates")
    p.set_defaults(func=cmd_params)

    p = subs.add_parser("member", help="hereditary equality class membership")
    _add_graph_input(p)
    p.add_argument("--porous", action="store_true",
                   help="test the porous class instead")
    p.set_defaults(func=cmd_member)

    p = subs.add_parser("match", help="search for induced pattern copies")
    _add_graph_input(p)
    p.add_argument("--patterns", nargs="*", metavar="NAME",
                   help="pattern names to try (default: whole catalog)")
    p.set_defaults(func=cmd_match)

    p = subs.add_parser("enum", help="stream connected graphs or trees")
    p.add_argument("--n", type=int, required=True, help="order to enumerate")
    p.add_argument("--trees", action="store_true", help="trees only")
    p.add_argument("--free", nargs="*", metavar="NAME",
                   help="emit only graphs free of these patterns")
    p.add_argument("--format", choices=("graph6", "count"), default="graph6")
    p.set_defaults(func=cmd_enum)

    p = subs.add_parser("verify", help="run an exhaustive sweep")
    p.add_argument("--sweep", required=True, choices=tuple(_SWEEPS),
                   help="which claim to check")
    p.add_argument("--max-n", type=int, default=None,
                   help="largest order to scan (sweep-specific default)")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="parallel solver processes")
    p.add_argument("--cache", metavar="FILE",
                   help="append-only results cache path")
    p.add_argument("--graphs", metavar="FILE",
                   help="sweep these graph6 lines instead of enumerating")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("minimal", help="list minimal forbidden graphs")
    p.add_argument("--max-n", type=int, default=None,
                   help="largest order to scan (default 7)")
    p.add_argument("--free", nargs="*", metavar="NAME",
                   help="restrict the scan to graphs free of these patterns")
    p.add_argument("--porous", action="store_true",
                   help="scan the porous class instead")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="parallel solver processes")
    p.add_argument("--cache", metavar="FILE",
                   help="append-only results cache path")
    p.add_argument("--format", choices=("text", "json", "csv"),
                   default="text")
    p.set_defaults(func=cmd_minimal)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except Graph6Error as exc:
        print(f"expodom: parse error: {exc}", file=sys.stderr)
        return 3
    except GateError as exc:
        print(f"expodom: startup gate failed: {exc}; a results cache may "
              "hold wrong values", file=sys.stderr)
        return 5
    except SizeCapError as exc:
        print(f"expodom: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"expodom: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"expodom: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
