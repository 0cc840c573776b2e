"""Command-line interface.

Subcommands: ``verify`` a detector set, ``solve`` for a minimum set,
``reduce`` a 3-CNF to a RED:OLD instance, ``grid`` to check periodic
patterns.  ``--format json`` output is schema-stable and byte-deterministic;
text output is for humans only.  Each ``cmd_*`` returns its report and its
text lines; :func:`main` writes one of the two, the only output of a run,
and exits with the report's ``exit_code``.

Exit codes: 0 success / property holds, 1 property fails, 2 input error,
3 solver budget exceeded, 4 reduction decision disagrees with the SAT
oracle (a correctness alarm; never expected).
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import sys
from pathlib import Path

from . import grids, sat_reduction
from .errors import BudgetExceededError, InputError, decimal_int, decode_json
from .fixtures import BUILTIN_GRAPH_NAMES, builtin_graph
from .graph import Graph, graph_from_text, graph_to_json, mask_of, vertices_of
from .solve import DEFAULT_BUDGET, min_set
from .verify import (
    Kind,
    is_identifying_code,
    is_locating_dominating,
    verify_set,
)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_DISAGREE = 4

# what opening a path raises where the path names no file
_MISSING = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)


def _read_text(spec: str, what: str) -> str:
    """The UTF-8 text of the file ``spec``; a missing file or one that is not
    UTF-8 is an input error, named as the ``what`` file.  The file is
    opened with no check before it.  A path through a file, a symlink loop
    or a path with a NUL byte (a ValueError) count as missing, as they do
    for ``Path.exists``."""
    try:
        return Path(spec).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{what} file {spec!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    except (OSError, ValueError) as exc:
        if isinstance(exc, OSError) and exc.errno not in _MISSING:
            raise
        raise InputError(f"{what} file {spec!r} not found") from None


def _load_graph(spec: str) -> Graph:
    if spec.startswith("builtin:"):
        return builtin_graph(spec[len("builtin:"):])
    return graph_from_text(_read_text(spec, "graph"))


def _load_set(spec: str, g: Graph) -> int:
    if Path(spec).is_file():
        items = decode_json(_read_text(spec, "set"), "set")
        if not isinstance(items, list):
            raise InputError("set JSON must be a list of labels or indices")
    else:
        items = [part.strip() for part in spec.split(",") if part.strip()]
    return mask_of(g.index_of(str(item)) for item in items)


def _load_pattern(spec: str) -> grids.PeriodicPattern:
    if spec.startswith("builtin:"):
        return grids.builtin_pattern(spec[len("builtin:"):])
    return grids.pattern_from_json(_read_text(spec, "pattern"))


def _witness_json(report, name) -> dict | None:
    """The JSON witness of a failing :class:`VerificationReport`, from a
    graph or a lattice, each vertex written as ``name(vertex)``."""
    if report.holds:
        return None
    if report.vertex is not None:
        return {"type": "vertex", "vertex": name(report.vertex), "count": report.count}
    u, v = report.pair
    return {"type": "pair", "pair": [name(u), name(v)], "count": report.count}


def cmd_verify(args) -> tuple[dict, list[str]]:
    g = _load_graph(args.graph)
    s = _load_set(args.set, g)
    if args.kind in ("ld", "ic"):
        if args.fold is not None:
            raise InputError("--fold applies only to old/redold verification")
        holds = (is_locating_dominating if args.kind == "ld" else is_identifying_code)(g, s)
        report = {
            "command": "verify",
            "kind": args.kind,
            "holds": holds,
            "witness": None,
            "exit_code": EXIT_OK if holds else EXIT_FAILS,
        }
        return report, [f"{args.kind}: {'holds' if holds else 'fails'}"]
    fold = args.fold if args.fold is not None else Kind(args.kind).fold
    rep = verify_set(g, s, fold)
    w = _witness_json(rep, g.label)
    report = {
        "command": "verify",
        "kind": args.kind,
        "fold": fold,
        "holds": rep.holds,
        "witness": w,
        "exit_code": EXIT_OK if rep.holds else EXIT_FAILS,
    }
    lines = [f"{args.kind} (fold {fold}): {'holds' if rep.holds else 'FAILS'}"]
    if rep.vertex is not None:
        lines.append(f"  vertex {w['vertex']} dominated {w['count']} < {fold}")
    elif rep.pair is not None:
        lines.append(f"  pair {w['pair'][0]},{w['pair'][1]} distinguished {w['count']} < {fold}")
    return report, lines


def cmd_solve(args) -> tuple[dict, list[str]]:
    g = _load_graph(args.graph)
    result = min_set(g, Kind(args.kind), enumerate_all=args.enumerate, budget=args.budget)
    report: dict = {"command": "solve", "kind": args.kind, "exit_code": EXIT_OK}
    if not result.feasible:
        report.update(value="infeasible", witness=None)
        return report, [f"{args.kind}: infeasible"]
    names = g.labels if g.labels is not None else tuple(map(str, range(g.n)))
    witness = [names[v] for v in vertices_of(result.witness)]
    report.update(value=result.value, witness=witness, nodes=result.nodes)
    lines = [f"{args.kind}: minimum size {result.value}", f"  witness: {' '.join(witness)}"]
    if args.enumerate:
        optima = [[names[v] for v in vertices_of(s)] for s in result.all_minimum_sets]
        report["optima"] = optima
        report["optima_count"] = len(optima)
        lines.append(f"  optima: {len(optima)}")
        lines.extend(f"    {' '.join(o)}" for o in optima)
    return report, lines


def cmd_reduce(args) -> tuple[dict, list[str]]:
    cnf = sat_reduction.parse_dimacs(_read_text(args.cnf, "CNF"))
    out = sat_reduction.build_reduction(cnf)
    report: dict = {
        "command": "reduce",
        "num_vars": cnf.num_vars,
        "num_clauses": cnf.num_clauses,
        "vertices": out.graph.n,
        "threshold": out.threshold,
        "exit_code": EXIT_OK,
    }
    lines = [
        f"reduction: {cnf.num_vars} vars, {cnf.num_clauses} clauses "
        f"-> {out.graph.n} vertices, threshold {out.threshold}"
    ]
    if args.validate_gadgets:
        ok = sat_reduction.validate_gadget_forcing(out)
        report["gadget_validation"] = ok
        lines.append(f"  gadget forcing validation: {'pass' if ok else 'FAIL'}")
        if not ok:
            report["exit_code"] = EXIT_FAILS
    if args.decide:
        # the oracle first: it refuses large N at once, where the solve
        # could take minutes only to end in that refusal
        via_sat, _ = sat_reduction.satisfiable_bruteforce(cnf)
        via_graph = sat_reduction.decide_sat_via_redold(out, budget=args.budget)
        agree = via_graph == via_sat
        report["decide"] = {
            "sat_via_redold": via_graph,
            "sat_bruteforce": via_sat,
            "agree": agree,
        }
        lines.append(
            f"  decision: {'sat' if via_graph else 'unsat'} via graph, "
            f"{'sat' if via_sat else 'unsat'} via truth tables -> "
            f"{'agreement' if agree else 'DISAGREEMENT'}"
        )
        if not agree:
            report["exit_code"] = EXIT_DISAGREE
    # written last, so a run that ends in an error leaves no file; its line
    # still follows the reduction line
    if args.emit:
        payload = json.loads(graph_to_json(out.graph))
        payload["roles"] = {out.graph.label(v): out.roles[v] for v in range(out.graph.n)}
        payload["threshold"] = out.threshold
        Path(args.emit).write_text(json.dumps(payload, sort_keys=True) + "\n")
        report["emitted"] = args.emit
        lines.insert(1, f"  graph JSON written to {args.emit}")
    return report, lines


def cmd_grid(args) -> tuple[dict, list[str]]:
    lattice = grids.Lattice(args.lattice)
    pattern = _load_pattern(args.pattern)
    if pattern.lattice is not lattice:
        raise InputError(
            f"pattern is for lattice {pattern.lattice.value!r}, not {args.lattice!r}"
        )
    kind = Kind(args.kind)
    rep = grids.verify_pattern(pattern, kind)
    report: dict = {
        "command": "grid",
        "lattice": args.lattice,
        "kind": args.kind,
        "pattern": args.pattern,
        "holds": rep.holds,
        "density": str(pattern.density()),
        "witness": _witness_json(rep, list),
        "exit_code": EXIT_OK if rep.holds else EXIT_FAILS,
    }
    lines = [f"{args.kind} on {args.lattice}: {'holds' if rep.holds else 'FAILS'}"]
    if rep.vertex is not None:
        lines.append(f"  vertex {rep.vertex} dominated {rep.count}")
    elif rep.pair is not None:
        lines.append(f"  pair {rep.pair[0]},{rep.pair[1]} distinguished {rep.count}")
    if args.density:
        lines.append(f"  density: {pattern.density()}")
    if args.cross_check:
        try:
            w, h = (decimal_int(part) for part in args.cross_check.lower().split("x"))
        except ValueError:
            raise InputError(f"--cross-check expects WxH, got {args.cross_check!r}") from None
        # the set first: its guards, the period check included, come before
        # any mask is built
        s = grids.restrict_pattern_to_torus(pattern, w, h)
        torus = grids.build_torus(pattern.lattice, w, h)
        trep = verify_set(torus, s, kind.fold)
        agree = trep.holds == rep.holds
        report["cross_check"] = {"width": w, "height": h, "torus_holds": trep.holds, "agree": agree}
        lines.append(f"  torus {w}x{h}: {'holds' if trep.holds else 'fails'} ({'agree' if agree else 'DISAGREE'})")
        if not agree:
            report["exit_code"] = EXIT_FAILS
    return report, lines


def non_negative_int(text: str) -> int:
    value = decimal_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call rather
    than at import, and reused: parsing keeps no state in the parser, and
    each call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="oldsets",
        description="Verify and solve open-locating-dominating set problems.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (json is schema-stable)")

    p = sub.add_parser("verify", help="verify a detector set on a graph")
    p.add_argument("graph", help=f"graph file or builtin:{{{','.join(BUILTIN_GRAPH_NAMES)}}}")
    p.add_argument("set", help="comma list of labels/indices, or a JSON file")
    p.add_argument("--kind", choices=("old", "redold", "ld", "ic"), required=True)
    p.add_argument("--fold", type=decimal_int, default=None,
                   help="override the domination/distinguishing fold (old/redold only)")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="find a minimum detector set")
    p.add_argument("graph")
    p.add_argument("--kind", choices=("old", "redold"), required=True)
    p.add_argument("--enumerate", action="store_true", help="list every optimum")
    p.add_argument("--budget", type=non_negative_int, default=DEFAULT_BUDGET,
                   help="search node budget")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="build the RED:OLD instance of a 3-CNF")
    p.add_argument("cnf", help="DIMACS CNF file (clauses of exactly 3 literals)")
    p.add_argument("--emit", metavar="PATH", help="write the graph JSON (with roles) here")
    p.add_argument("--decide", action="store_true",
                   help="solve the instance and cross-check against the SAT oracle")
    p.add_argument("--validate-gadgets", action="store_true",
                   help="check the gadget forcing lemmas (no search, any size)")
    p.add_argument("--budget", type=non_negative_int, default=DEFAULT_BUDGET,
                   help="search node budget of --decide")
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("grid", help="verify a periodic pattern on an infinite lattice")
    p.add_argument("lattice", choices=[l.value for l in grids.Lattice])
    p.add_argument("pattern",
                   help="pattern JSON file or builtin:{sq,hex,tri,king}-{old,redold}")
    p.add_argument("--kind", choices=("old", "redold"), required=True)
    p.add_argument("--density", action="store_true", help="print the exact density")
    p.add_argument("--cross-check", metavar="WxH",
                   help="also verify on a WxH torus and compare")
    add_common(p)
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the input-error code
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        report, lines = args.func(args)
    except (InputError, OSError, BudgetExceededError) as exc:
        code = EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_INPUT
        report = {"command": args.subcommand, "error": str(exc), "exit_code": code}
        lines = [f"error: {exc}"]
    # the one write of every run, so the JSON exit_code is the exit code
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(*lines, sep="\n")
    return report["exit_code"]


def entry() -> None:
    sys.exit(main())
