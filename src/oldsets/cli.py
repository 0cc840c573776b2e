"""Command-line interface.

Subcommands: ``verify`` a detector set, ``solve`` for a minimum set,
``reduce`` a 3-CNF to a RED:OLD instance, ``grid`` to check periodic
patterns.  ``--format json`` output is schema-stable and byte-deterministic;
text output is for humans only.

Exit codes: 0 success / property holds, 1 property fails, 2 input error,
3 solver budget exceeded, 4 reduction decision disagrees with the SAT
oracle (a correctness alarm; never expected).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import grids, sat_reduction
from .errors import BudgetExceededError, InputError
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


def _load_graph(spec: str) -> Graph:
    if spec.startswith("builtin:"):
        return builtin_graph(spec[len("builtin:"):])
    path = Path(spec)
    if not path.exists():
        raise InputError(f"graph file {spec!r} not found")
    return graph_from_text(path.read_text())


def _load_set(spec: str, g: Graph) -> int:
    if Path(spec).is_file():
        try:
            items = json.loads(Path(spec).read_text())
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid set JSON: {exc}") from None
        if not isinstance(items, list):
            raise InputError("set JSON must be a list of labels or indices")
    else:
        items = [part.strip() for part in spec.split(",") if part.strip()]
    return mask_of(g.index_of(str(item)) for item in items)


def _load_pattern(spec: str) -> grids.PeriodicPattern:
    if spec.startswith("builtin:"):
        return grids.builtin_pattern(spec[len("builtin:"):])
    path = Path(spec)
    if not path.exists():
        raise InputError(f"pattern file {spec!r} not found")
    return grids.pattern_from_json(path.read_text())


def _witness_json(g: Graph, report) -> dict | None:
    if report.holds:
        return None
    if report.vertex is not None:
        return {"type": "vertex", "vertex": g.label(report.vertex), "count": report.count}
    u, v = report.pair
    return {"type": "pair", "pair": [g.label(u), g.label(v)], "count": report.count}


def _emit(report: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_verify(args) -> int:
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
        _emit(report, args.format, [f"{args.kind}: {'holds' if holds else 'fails'}"])
        return report["exit_code"]
    fold = args.fold if args.fold is not None else Kind(args.kind).fold
    if fold < 1:
        raise InputError("--fold must be >= 1")
    rep = verify_set(g, s, fold)
    report = {
        "command": "verify",
        "kind": args.kind,
        "fold": fold,
        "holds": rep.holds,
        "witness": _witness_json(g, rep),
        "exit_code": EXIT_OK if rep.holds else EXIT_FAILS,
    }
    lines = [f"{args.kind} (fold {fold}): {'holds' if rep.holds else 'FAILS'}"]
    if not rep.holds:
        w = report["witness"]
        if w["type"] == "vertex":
            lines.append(f"  vertex {w['vertex']} dominated {w['count']} < {fold}")
        else:
            lines.append(f"  pair {w['pair'][0]},{w['pair'][1]} distinguished {w['count']} < {fold}")
    _emit(report, args.format, lines)
    return report["exit_code"]


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    kind = Kind(args.kind)
    result = min_set(g, kind, enumerate_all=args.enumerate, budget=args.budget)
    if not result.feasible:
        report = {
            "command": "solve",
            "kind": args.kind,
            "value": "infeasible",
            "witness": None,
            "exit_code": EXIT_OK,
        }
        _emit(report, args.format, [f"{args.kind}: infeasible"])
        return EXIT_OK
    witness = [g.label(v) for v in vertices_of(result.witness)]
    report = {
        "command": "solve",
        "kind": args.kind,
        "value": result.value,
        "witness": witness,
        "nodes": result.nodes,
        "exit_code": EXIT_OK,
    }
    lines = [f"{args.kind}: minimum size {result.value}", f"  witness: {' '.join(witness)}"]
    if args.enumerate:
        optima = [[g.label(v) for v in vertices_of(s)] for s in result.all_minimum_sets]
        report["optima"] = optima
        report["optima_count"] = len(optima)
        lines.append(f"  optima: {len(optima)}")
        lines.extend(f"    {' '.join(o)}" for o in optima)
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_reduce(args) -> int:
    cnf = sat_reduction.parse_dimacs(Path(args.cnf).read_text())
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
    if args.emit:
        payload = json.loads(graph_to_json(out.graph))
        payload["roles"] = {out.graph.label(v): out.roles[v] for v in range(out.graph.n)}
        payload["threshold"] = out.threshold
        Path(args.emit).write_text(json.dumps(payload, sort_keys=True) + "\n")
        report["emitted"] = args.emit
        lines.append(f"  graph JSON written to {args.emit}")
    exit_code = EXIT_OK
    if args.validate_gadgets:
        ok = sat_reduction.validate_gadget_forcing(cnf, budget=args.budget)
        report["gadget_validation"] = ok
        lines.append(f"  gadget forcing validation: {'pass' if ok else 'FAIL'}")
        if not ok:
            exit_code = EXIT_FAILS
    if args.decide:
        via_graph = sat_reduction.decide_sat_via_redold(cnf, budget=args.budget)
        via_sat, _ = sat_reduction.satisfiable_bruteforce(cnf)
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
            exit_code = EXIT_DISAGREE
    report["exit_code"] = exit_code
    _emit(report, args.format, lines)
    return exit_code


def cmd_grid(args) -> int:
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
        "density": str(rep.density),
        "witness": None,
        "exit_code": EXIT_OK if rep.holds else EXIT_FAILS,
    }
    lines = [f"{args.kind} on {args.lattice}: {'holds' if rep.holds else 'FAILS'}"]
    if not rep.holds:
        if rep.vertex is not None:
            report["witness"] = {"type": "vertex", "vertex": list(rep.vertex), "count": rep.count}
            lines.append(f"  vertex {rep.vertex} dominated {rep.count}")
        else:
            report["witness"] = {
                "type": "pair",
                "pair": [list(rep.pair[0]), list(rep.pair[1])],
                "count": rep.count,
            }
            lines.append(f"  pair {rep.pair[0]},{rep.pair[1]} distinguished {rep.count}")
    if args.density:
        lines.append(f"  density: {rep.density}")
    if args.cross_check:
        try:
            w, h = (int(part) for part in args.cross_check.lower().split("x"))
        except ValueError:
            raise InputError(f"--cross-check expects WxH, got {args.cross_check!r}") from None
        torus = grids.build_torus(pattern.lattice, w, h)
        s = grids.restrict_pattern_to_torus(pattern, w, h)
        trep = verify_set(torus, s, kind.fold)
        agree = trep.holds == rep.holds
        report["cross_check"] = {"width": w, "height": h, "torus_holds": trep.holds, "agree": agree}
        lines.append(f"  torus {w}x{h}: {'holds' if trep.holds else 'fails'} ({'agree' if agree else 'DISAGREE'})")
        if not agree:
            report["exit_code"] = EXIT_FAILS
    _emit(report, args.format, lines)
    return report["exit_code"]


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--fold", type=int, default=None,
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
                   help="run the gadget forcing validation (small instances)")
    p.add_argument("--budget", type=non_negative_int, default=DEFAULT_BUDGET)
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
    fmt = getattr(args, "format", "text")
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        _emit(
            {"command": args.subcommand, "error": str(exc), "exit_code": EXIT_INPUT},
            fmt, [f"error: {exc}"],
        )
        return EXIT_INPUT
    except BudgetExceededError as exc:
        _emit(
            {"command": args.subcommand, "error": str(exc), "exit_code": EXIT_BUDGET},
            fmt, [f"error: {exc}"],
        )
        return EXIT_BUDGET


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
