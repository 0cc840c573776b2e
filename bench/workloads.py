"""The three seeded workloads: generated inputs, request sequences, checks.

Each workload is one client in a closed loop.  A request is either a CLI
invocation through ``oldsets.cli.main`` (its stdout captured in memory) or a
library call; its check runs after it returns, outside the timed region, and
raises :class:`CheckFailed` on a wrong or uncheckable answer.

The package is reached only through module attributes looked up at call
time (``cli.main``, ``grids.search_patterns``), so the span wrappers of the
traced pass see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from oldsets import cli, grids
from oldsets.grids import Lattice
from oldsets.verify import Kind

import oracle

DEFAULT_SEED = 0
# Distinct request sequences per seed.  A run cycles through them, so it
# samples several rounds' worth of inputs and its figures depend less on the
# luck of one draw than a run that repeats a single sequence.
ROUNDS = 4

# G(n, 0.3) with the edge count fixed at round(0.3 * C(n, 2)): fixing the
# count removes the edge-count share of the draw-to-draw spread in solve time.
GNP_DENSITY = 0.3
# (n, graphs per round, kinds solved).  Small graphs, many of them: each
# solve's time varies by a factor of ten between draws, so only a large count
# keeps a round's total steady from seed to seed.  RED:OLD is asked only from
# n = 15 on: below that over 75% of the draws are infeasible, and such
# requests (about 1 ms each) would make up the median request.
GNP_STRATA = ((13, 80, ("old",)), (14, 80, ("old",)), (15, 80, ("old", "redold")),
              (16, 48, ("old", "redold")), (17, 16, ("old", "redold")))
# graphs of this size whose answers every run also checks by brute force
GNP_ORACLE_N, GNP_ORACLE_GRAPHS = 13, 3

# (N, M, formulas per round): N = 3..5 at clause ratios 1.5, 2.5, 3.5, 4.5;
# the 4.5 draws at N = 5 are the ones that come out unsatisfiable.
SAT_STRATA = tuple((n, int(r * n + 0.5), 3 if n == 5 else 4)
                   for n in (3, 4, 5) for r in (1.5, 2.5, 3.5, 4.5))

# name -> (lattice, kind, period, exact density); the builtin tables.
BUILTINS = {
    "sq-old": ("sq", "old", (1, 5), "2/5"),
    "sq-redold": ("sq", "redold", (2, 1), "1/2"),
    "hex-old": ("hex", "old", (2, 2), "1/2"),
    "hex-redold": ("hex", "redold", (6, 2), "2/3"),
    "tri-old": ("tri", "old", (13, 13), "4/13"),
    "tri-redold": ("tri", "redold", (4, 4), "3/8"),
    "king-old": ("king", "old", (4, 4), "1/4"),
    "king-redold": ("king", "redold", (3, 3), "1/3"),
}

# (lattice, kind, max period, target density, first pattern found or None).
# The None rows lie below the known optimal densities, so no period has one;
# the others reproduce the search order the package documents.
SEARCHES = (
    ("sq", "old", (5, 5), "2/5", ((1, 5), ((0, 0), (0, 2)))),
    ("sq", "redold", (4, 4), "1/2", ((1, 2), ((0, 0),))),
    ("hex", "old", (4, 4), "1/2", ((2, 2), ((0, 0), (0, 1)))),
    ("hex", "redold", (6, 2), "2/3",
     ((6, 2), ((0, 0), (0, 1), (1, 0), (1, 1), (3, 0), (3, 1), (4, 0), (4, 1)))),
    ("tri", "redold", (4, 4), "3/8", ((4, 4), ((0, 0), (0, 1), (1, 1), (1, 3), (2, 0), (2, 3)))),
    ("king", "old", (4, 4), "1/4", ((4, 4), ((0, 0), (1, 1), (2, 3), (3, 2)))),
    ("king", "redold", (6, 6), "1/3", ((3, 3), ((0, 0), (1, 1), (2, 2)))),
    ("sq", "old", (4, 4), "1/3", None),
    ("sq", "redold", (4, 4), "2/5", None),
    ("hex", "old", (4, 4), "2/5", None),
    ("tri", "old", (4, 4), "3/10", None),
    ("tri", "redold", (4, 5), "1/3", None),
    ("king", "old", (4, 4), "1/5", None),
)
# Seeded patterns.  Each slot fixes lattice, kind and period, so the torus
# size, and with it most of the cost, is the same for every seed; the seed
# draws the cells.  A slot with a base builtin draws supersets of that
# builtin's tiling, which must hold (the conditions are monotone in the set)
# and cost a full scan of a torus of about 300 vertices; the sparse slots
# draw sets at density 0.1 to 0.25 that mostly fail fast with a witness.
RANDOM_PATTERN_SLOTS = (
    ("sq", "old", (7, 5), "sq-old"),
    ("sq", "redold", (6, 6), "sq-redold"),
    ("hex", "old", (6, 6), "hex-old"),
    ("hex", "redold", (6, 6), "hex-redold"),
    ("tri", "old", (4, 8), "tri-redold"),
    ("tri", "redold", (8, 4), "tri-redold"),
    ("king", "old", (8, 4), "king-old"),
    ("king", "redold", (6, 6), "king-redold"),
    ("sq", "redold", (4, 4), None),
    ("king", "old", (6, 3), None),
)
RANDOM_PATTERNS_PER_SLOT = 3
BASE_CELLS = {
    "sq-old": ((0, 0), (0, 2)),
    "sq-redold": ((0, 0),),
    "hex-old": ((0, 0), (1, 0)),
    "hex-redold": tuple((x, y) for x in range(6) for y in range(2) if x % 3 != 2),
    "tri-redold": ((0, 0), (0, 1), (1, 1), (1, 3), (2, 0), (2, 3)),
    "king-old": ((0, 0), (1, 1), (2, 3), (3, 2)),
    "king-redold": ((0, 0), (1, 1), (2, 2)),
}
# Besides cross_check_dims, each builtin is cross-checked on the smallest
# period multiple at least this wide and one period past cross_check_dims.
LARGE_TORUS = 24

# The g11 fixture (1-based edges) and its recorded optima.
G11_EDGES = ((1, 2), (1, 3), (2, 3), (3, 4), (4, 7), (5, 6), (5, 7), (6, 7),
             (7, 8), (8, 9), (9, 10), (9, 11), (10, 11))
G11_VALUES = {"old": 6, "redold": 9}

FOLD = {"old": 1, "redold": 2}

# Set-up each workload's first request triggers; run in a fresh interpreter
# to time setup_s and in-process before the first pass.
SETUP_CODE = {
    "gnp-enumerate": "import oldsets.cli\nfrom oldsets.fixtures import builtin_graph\nbuiltin_graph('g11')\n",
    "sat-decide": "import oldsets.cli\n",
    "lattice": "import oldsets.cli\nfrom oldsets import grids\n"
               f"for name in {tuple(BUILTINS)!r}:\n    grids.builtin_pattern(name)\n",
}

# Layers each workload must reach in the traced pass (nonzero call count).
MUST_REACH = {
    "gnp-enumerate": ("cli.main", "graph.graph_from_text", "solve.min_set", "solve.propagate",
                      "solve.find_value", "solve.collect", "verify.verify_set"),
    "sat-decide": ("cli.main", "sat_reduction.parse_dimacs", "sat_reduction.build_reduction",
                   "sat_reduction.decide_sat_via_redold", "sat_reduction.satisfiable_bruteforce",
                   "solve.min_set", "solve.propagate", "solve.find_value", "solve.collect"),
    "lattice": ("cli.main", "grids.verify_pattern", "grids.search_patterns", "grids.build_torus",
                "grids.restrict_pattern_to_torus", "grids.builtin_pattern", "verify.verify_set"),
}

WORKLOADS = tuple(SETUP_CODE)


class CheckFailed(Exception):
    """A wrong or uncheckable answer."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Request:
    key: str
    run: Callable[[], object]
    # returns the answer summary compared with the recorded answers
    check: Callable[[object], object]
    argv: list[str] | None = None  # for CLI requests


@dataclass
class Workload:
    """``rounds`` are request sequences of equal length drawn from the same
    seed; pass j of a run issues ``rounds[j % ROUNDS]``."""

    name: str
    rounds: list[list[Request]]
    setup_code: str
    must_reach: tuple[str, ...]


def build(name: str, seed: int, workdir: Path) -> Workload:
    rounds = []
    for j in range(ROUNDS):
        (workdir / f"r{j}").mkdir(parents=True, exist_ok=True)
        requests = _BUILDERS[name](f"{seed}.{j}", workdir / f"r{j}")
        for req in requests:
            req.key = f"r{j}/{req.key}"
        rounds.append(requests)
    return Workload(name, rounds, SETUP_CODE[name], MUST_REACH[name])


# -- request runners ------------------------------------------------------

def _cli(key: str, argv: list[str], check) -> Request:
    def run() -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    return Request(key, run, check, argv)


def _report(out, command: str) -> tuple[int, dict]:
    code, text = out
    lines = text.strip().splitlines()
    expect(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
    try:
        rep = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    expect(isinstance(rep, dict), "output is not a JSON object")
    expect(rep.get("command") == command, f"command {rep.get('command')!r}")
    expect(rep.get("exit_code") == code, f"exit_code {rep.get('exit_code')} != return {code}")
    return code, rep


# -- gnp-enumerate --------------------------------------------------------

def _digest(sets: list[list[int]]) -> str:
    return hashlib.sha256(json.dumps(sets).encode()).hexdigest()[:16]


def _index_tuple(s: int) -> tuple[int, ...]:
    return tuple(v for v in range(s.bit_length()) if s >> v & 1)


def _check_solve(adj: list[int], labels: list[str], kind: str, use_oracle: bool):
    k = FOLD[kind]
    index = {lab: i for i, lab in enumerate(labels)}

    def mask(items) -> int:
        expect(isinstance(items, list), "set is not a list")
        idx = [index.get(x) for x in items]
        expect(None not in idx and len(set(idx)) == len(idx), f"bad set {items!r}")
        return sum(1 << i for i in idx)

    def check(out):
        code, rep = _report(out, "solve")
        expect(code == 0, f"exit code {code}")
        expect(rep.get("kind") == kind, "kind echoed wrong")
        value = rep.get("value")
        if value == "infeasible":
            expect(rep.get("witness") is None, "infeasible answer with a witness")
            expect(not oracle.holds(adj, (1 << len(adj)) - 1, k), "V is accepted, not infeasible")
            optima: list[int] = []
        else:
            expect(isinstance(value, int), f"value {value!r}")
            witness = mask(rep.get("witness"))
            expect(witness.bit_count() == value, "witness size != value")
            expect(oracle.holds(adj, witness, k), "witness fails the reference verifier")
            raw = rep.get("optima")
            expect(isinstance(raw, list) and rep.get("optima_count") == len(raw), "optima count")
            optima = [mask(o) for o in raw]
            for s in optima:
                expect(s.bit_count() == value, "optimum size != value")
                expect(oracle.holds(adj, s, k), "optimum fails the reference verifier")
            keys = [_index_tuple(s) for s in optima]
            expect(all(a < b for a, b in zip(keys, keys[1:])), "optima not distinct and sorted")
            expect(optima and optima[0] == witness, "optima do not start with the witness")
        if use_oracle:
            ref_value, ref_optima = oracle.optima_bruteforce(adj, k)
            expect(ref_value == (None if value == "infeasible" else value), "brute force value differs")
            expect(ref_optima == optima, "brute force optima differ")
        return [value, len(optima), _digest([list(_index_tuple(s)) for s in optima])]

    return check


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _gnp_requests(seed: str, workdir: Path) -> list[Request]:
    requests = []
    for n, count, kinds in GNP_STRATA:
        pairs = list(itertools.combinations(range(n), 2))
        for i in range(count):
            rng = random.Random(f"gnp-enumerate:{seed}:{n}:{i}")
            edges = sorted(rng.sample(pairs, round(GNP_DENSITY * len(pairs))))
            # alternate the two input formats the CLI reads
            path = workdir / f"g{n}_{i}.{'json' if i % 2 == 0 else 'txt'}"
            if i % 2 == 0:
                labels = [f"x{v}" for v in range(n)]
                path.write_text(json.dumps({"n": n, "edges": edges, "labels": labels}))
            else:
                labels = [str(v) for v in range(n)]
                path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            adj = _adjacency(n, edges)
            use_oracle = n == GNP_ORACLE_N and i < GNP_ORACLE_GRAPHS
            for kind in kinds:
                requests.append(_cli(
                    f"gnp/n{n}/{i}/{kind}",
                    ["solve", str(path), "--kind", kind, "--enumerate", "--format", "json"],
                    _check_solve(adj, labels, kind, use_oracle),
                ))
    g11_adj = _adjacency(11, [(u - 1, v - 1) for u, v in G11_EDGES])
    g11_labels = [f"v{i}" for i in range(1, 12)]
    for kind, value in G11_VALUES.items():
        check = _check_solve(g11_adj, g11_labels, kind, use_oracle=True)

        def check_g11(out, check=check, value=value):
            summary = check(out)
            expect(summary[0] == value, f"g11 {kind} value {summary[0]} != {value}")
            return summary

        requests.append(_cli(
            f"gnp/g11/{kind}",
            ["solve", "builtin:g11", "--kind", kind, "--enumerate", "--format", "json"],
            check_g11,
        ))
    random.Random(f"gnp-enumerate:{seed}:order").shuffle(requests)
    return requests


# -- sat-decide -----------------------------------------------------------

def _check_reduce(num_vars: int, clauses: list[tuple[int, int, int]]):
    m = len(clauses)

    def check(out):
        code, rep = _report(out, "reduce")
        expect(code == 0, f"exit code {code}")
        expect(rep.get("num_vars") == num_vars and rep.get("num_clauses") == m, "instance size")
        expect(rep.get("vertices") == 18 * num_vars + 4 * m, "vertex count != 18N + 4M")
        expect(rep.get("threshold") == 16 * num_vars + 3 * m, "threshold != 16N + 3M")
        decide = rep.get("decide")
        expect(isinstance(decide, dict), "no decision")
        truth = oracle.satisfiable(num_vars, clauses)
        expect(decide.get("agree") is True, "decision disagrees with the package's SAT oracle")
        expect(decide.get("sat_via_redold") is truth, "RED:OLD decision != reference SAT check")
        expect(decide.get("sat_bruteforce") is truth, "package SAT oracle != reference SAT check")
        return [truth, rep["vertices"], rep["threshold"]]

    return check


def _sat_requests(seed: str, workdir: Path) -> list[Request]:
    requests = []
    for num_vars, m, count in SAT_STRATA:
        for i in range(count):
            rng = random.Random(f"sat-decide:{seed}:{num_vars}:{m}:{i}")
            clauses = []
            for _ in range(m):
                variables = rng.sample(range(1, num_vars + 1), 3)
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
            path = workdir / f"f{num_vars}_{m}_{i}.cnf"
            path.write_text(
                f"c seeded random 3-CNF, N={num_vars} M={m}\np cnf {num_vars} {m}\n"
                + "".join(f"{a} {b} {c} 0\n" for a, b, c in clauses)
            )
            requests.append(_cli(
                f"sat/N{num_vars}/M{m}/{i}",
                ["reduce", str(path), "--decide", "--format", "json"],
                _check_reduce(num_vars, clauses),
            ))
    random.Random(f"sat-decide:{seed}:order").shuffle(requests)
    return requests


# -- lattice --------------------------------------------------------------

def _check_grid(lattice: str, kind: str, period, cells, dims, density: Fraction,
                must_hold: bool = True):
    """``cells`` is None for a builtin."""
    k = FOLD[kind]
    width, height = dims

    def check(out):
        code, rep = _report(out, "grid")
        holds = rep.get("holds")
        expect(isinstance(holds, bool), "no holds flag")
        expect(code == (0 if holds else 1), f"exit code {code} with holds={holds}")
        expect(rep.get("density") == str(density), f"density {rep.get('density')} != {density}")
        cc = rep.get("cross_check")
        expect(isinstance(cc, dict) and cc.get("width") == width and cc.get("height") == height,
               "cross-check dimensions")
        expect(cc.get("agree") is True and cc.get("torus_holds") is holds, "torus cross-check disagrees")
        expect(holds or not must_hold, "pattern that must hold fails")
        if cells is not None:
            ref = oracle.pattern_holds_on_torus(lattice, period, cells, width, height, k)
            expect(holds == ref, "verdict != reference torus check")
            if not holds:
                w = rep.get("witness")
                expect(isinstance(w, dict), "failing pattern without a witness")
                if w.get("type") == "vertex":
                    got = len(oracle.pattern_code(lattice, period, cells, tuple(w["vertex"])))
                else:
                    a, b = (tuple(p) for p in w["pair"])
                    got = len(oracle.pattern_code(lattice, period, cells, a)
                              ^ oracle.pattern_code(lattice, period, cells, b))
                expect(got == w.get("count") and got < k, "witness count is wrong")
        return [holds, str(density)]

    return check


def _search(lattice: str, kind: str, max_period, target: str):
    def run():
        p = grids.search_patterns(Lattice(lattice), Kind(kind), max_period, Fraction(target))
        return None if p is None else (tuple(p.period), tuple(sorted(p.cells)))
    return run


def _check_search(lattice: str, kind: str, target: str, expected):
    def check(found):
        expect(found == expected, f"search returned {found!r}, expected {expected!r}")
        if found is not None:
            period, cells = found
            expect(Fraction(len(cells), period[0] * period[1]) <= Fraction(target), "density above target")
            w, h = oracle.cross_check_dims(period)
            expect(oracle.pattern_holds_on_torus(lattice, period, cells, w, h, FOLD[kind]),
                   "found pattern fails the reference torus check")
        return None if found is None else [list(found[0]), [list(c) for c in found[1]]]
    return check


def _lattice_requests(seed: str, workdir: Path) -> list[Request]:
    requests = []
    for name, (lattice, kind, period, dens) in BUILTINS.items():
        w, h = oracle.cross_check_dims(period)
        large = (max(w + period[0], -(-LARGE_TORUS // period[0]) * period[0]),
                 max(h + period[1], -(-LARGE_TORUS // period[1]) * period[1]))
        for dims in ((w, h), large):
            requests.append(_cli(
                f"lattice/builtin/{name}/{dims[0]}x{dims[1]}",
                ["grid", lattice, f"builtin:{name}", "--kind", kind, "--density",
                 "--cross-check", f"{dims[0]}x{dims[1]}", "--format", "json"],
                _check_grid(lattice, kind, period, None, dims, Fraction(dens)),
            ))
    for lattice, kind, max_period, target, expected in SEARCHES:
        requests.append(Request(
            f"lattice/search/{lattice}-{kind}/{max_period[0]}x{max_period[1]}/{target}",
            _search(lattice, kind, max_period, target),
            _check_search(lattice, kind, target, expected),
        ))
    slots = RANDOM_PATTERN_SLOTS * RANDOM_PATTERNS_PER_SLOT
    for i, (lattice, kind, period, base) in enumerate(slots):
        rng = random.Random(f"lattice:{seed}:{i}")
        domain = [(x, y) for x in range(period[0]) for y in range(period[1])]
        if base is None:
            cells = sorted(rng.sample(domain, max(1, round(len(domain) * rng.uniform(0.1, 0.25)))))
        else:
            bx, by = BUILTINS[base][2]
            tiled = [c for c in domain if (c[0] % bx, c[1] % by) in BASE_CELLS[base]]
            rest = [c for c in domain if c not in tiled]
            extra = rng.sample(rest, round(len(domain) * rng.uniform(0.0, 0.2)))
            cells = sorted(tiled + extra)
        count = len(cells)
        path = workdir / f"pattern{i}.json"
        path.write_text(json.dumps({"lattice": lattice, "period": list(period),
                                    "cells": [list(c) for c in cells]}))
        dims = oracle.cross_check_dims(period)
        requests.append(_cli(
            f"lattice/random/{i}",
            ["grid", lattice, str(path), "--kind", kind, "--density",
             "--cross-check", f"{dims[0]}x{dims[1]}", "--format", "json"],
            _check_grid(lattice, kind, period, cells, dims, Fraction(count, len(domain)),
                        must_hold=base is not None),
        ))
    random.Random(f"lattice:{seed}:order").shuffle(requests)
    return requests


_BUILDERS = {
    "gnp-enumerate": _gnp_requests,
    "sat-decide": _sat_requests,
    "lattice": _lattice_requests,
}
