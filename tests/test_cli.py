"""CLI surface: subcommands, exit codes, JSON schema stability."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oldsets
from oldsets import cli, grids, sat_reduction
from oldsets.cli import _build_parser, main
from oldsets.fixtures import builtin_graph
from oldsets.graph import MAX_VERTICES, graph_to_json, path_graph
from oldsets.verify import VerificationReport

TWO_CLAUSE_DIMACS = "p cnf 4 2\n1 2 -3 0\n-1 2 -4 0\n"


def run(capsys, *argv):
    # every failure path reports through stdout and the exit code: nothing,
    # a traceback least of all, may reach stderr
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_verify_g11_old_holds(capsys):
    code, rep = run_json(capsys, "verify", "builtin:g11", "v2,v3,v6,v7,v9,v10", "--kind", "old")
    assert code == 0 and rep["holds"] is True and rep["exit_code"] == 0


def test_verify_g11_redold_fails_with_witness(capsys):
    code, rep = run_json(capsys, "verify", "builtin:g11", "v2,v3,v6,v7,v9,v10", "--kind", "redold")
    assert code == 1 and rep["holds"] is False
    assert rep["witness"]["type"] == "vertex" and rep["witness"]["count"] < 2


def test_verify_unknown_label_is_input_error(capsys):
    code, rep = run_json(capsys, "verify", "builtin:g11", "w1", "--kind", "old")
    assert code == 2 and "error" in rep


def test_verify_fold_override(capsys):
    # 3-fold domination + distinguishing on K4's full vertex set fails
    code, rep = run_json(capsys, "verify", "builtin:k4", "0,1,2,3", "--kind", "old", "--fold", "3")
    assert code == 1 and rep["fold"] == 3


def test_verify_ld_and_ic(capsys):
    code, rep = run_json(capsys, "verify", "builtin:k4", "0,1,2", "--kind", "ld")
    assert code == 0 and rep["holds"] is True
    code, rep = run_json(capsys, "verify", "builtin:k4", "0", "--kind", "ic")
    assert code == 1


# How many subsets of the graph hold, and the sha256 of the concatenated
# `verify --format json` lines over every subset (in mask order, as comma
# lists of labels), recorded with the collection-route LD/IC verifier, so
# the meeting-pair walk must reproduce the reports byte for byte
VERIFY_JSON_DIGESTS = {
    ("c4", "old"): (0, "bbcc480d2469e35cc405ef35fbfc60a67f31e18175843d7c1a0c73cf5118d903"),
    ("c4", "redold"): (0, "2a9c66cacdd384f4b0bf6638eb377606fb36e253bfaafcb1d5394e36ac097893"),
    ("c4", "ld"): (9, "cb0e724772cdc7573a822470a344a1b26af70336c996f8db89910ca21b863606"),
    ("c4", "ic"): (5, "641e25dd48834ae701e8da37e9068edcbe89b1df38798cf03e5cfc1d3ce50727"),
    ("c5", "old"): (6, "f500e6eacccbff04708c81b6ab3023a532aa2f0ea78dfec02130ea36c8ef2f61"),
    ("c5", "redold"): (1, "239ac41780b55d699d0b7b55684206f106fc20b51f0992af31bb51f98845ebc5"),
    ("c5", "ld"): (21, "e8aec65c1355a2c7ffffec4cb34a5170c28dca00fd8d931f0309accafc27eb04"),
    ("c5", "ic"): (11, "0d7385297f4bd9a8675e587bc30f21018673c84d88bf5032e0d7222b2827833b"),
    ("k4", "old"): (5, "e54ea171c58cd914cdda444104e71766752d0a76d212641ba14812a1b8a56435"),
    ("k4", "redold"): (1, "0d652ee64cfaff8ea9f315528cb9e6bc446b17e79827ddc23e32d8e4c7281aa8"),
    ("k4", "ld"): (5, "a3bbc5ba1b72ff728614f18a2392e29733a2e9f61939c7f615c17231b1138d25"),
    ("k4", "ic"): (0, "44eac39a0ca2649bf5d2a3613e33b232e1764982eda72860be3786e4d9ad6fe8"),
    ("g11", "old"): (136, "e3fa9a019db6c0f445baaa05e457aac8d650e19b69332744cbf61bed7c35d46a"),
    ("g11", "redold"): (4, "747ee4318b8a9a297f500053bdf8b5b50c2e0b187349072321a75b7fc925660f"),
    ("g11", "ld"): (522, "3cc1840f37db279a2e43a7c783d874fd93a51b73451743dda0bdc4f24bb77d2c"),
    ("g11", "ic"): (0, "9410721ec7f7b4fe99ef2957e29881000352f625c9e1ba025ba25001865a9dd3"),
}


@pytest.mark.parametrize("name, kind", sorted(VERIFY_JSON_DIGESTS))
def test_verify_json_is_unchanged_on_every_subset(capsys, name, kind):
    g = builtin_graph(name)
    names = g.labels if g.labels is not None else [str(v) for v in range(g.n)]
    digest = hashlib.sha256()
    holds = 0
    for s in range(1 << g.n):
        spec = ",".join(names[v] for v in range(g.n) if s >> v & 1)
        code, out = run(capsys, "verify", f"builtin:{name}", spec, "--kind", kind, "--format", "json")
        digest.update(out.encode())
        holds += code == 0
    assert (holds, digest.hexdigest()) == VERIFY_JSON_DIGESTS[name, kind]


def test_verify_set_from_json_file(capsys, tmp_path):
    f = tmp_path / "set.json"
    f.write_text('["v2","v3","v6","v7","v9","v10"]')
    code, rep = run_json(capsys, "verify", "builtin:g11", str(f), "--kind", "old")
    assert code == 0 and rep["holds"]


@pytest.mark.parametrize("text", ['{"a": 1}', '"v2,v3"', "7"])
def test_verify_set_file_must_hold_a_list(capsys, tmp_path, text):
    f = tmp_path / "set.json"
    f.write_text(text)
    code, rep = run_json(capsys, "verify", "builtin:g11", str(f), "--kind", "old")
    assert code == 2 and rep["error"] == "set JSON must be a list of labels or indices"


def test_solve_g11(capsys):
    code, rep = run_json(capsys, "solve", "builtin:g11", "--kind", "old")
    assert code == 0 and rep["value"] == 6


def test_solve_g11_redold_enumerate(capsys):
    code, rep = run_json(capsys, "solve", "builtin:g11", "--kind", "redold", "--enumerate")
    assert code == 0 and rep["value"] == 9 and rep["optima_count"] == 1
    assert rep["optima"] == [["v1", "v2", "v3", "v5", "v6", "v7", "v9", "v10", "v11"]]


def test_solve_infeasible_is_data(capsys):
    code, rep = run_json(capsys, "solve", "builtin:c4", "--kind", "old")
    assert code == 0 and rep["value"] == "infeasible"


def test_solve_budget_exceeded(capsys):
    code, rep = run_json(capsys, "solve", "builtin:g11", "--kind", "old", "--budget", "1")
    assert code == 3 and "error" in rep


def test_solve_deep_search_exceeds_budget(capsys, tmp_path):
    # P_1200 branches more than 1000 levels deep within its first 1200 nodes
    f = tmp_path / "p1200.json"
    f.write_text(graph_to_json(path_graph(1200)))
    code, rep = run_json(capsys, "solve", str(f), "--kind", "old", "--budget", "1200")
    assert code == 3 and rep["exit_code"] == 3 and "budget exceeded" in rep["error"]


@pytest.mark.parametrize("graph, message", [
    ('{"n": "3", "edges": []}', '"n" must be an integer'),
    ('{"n": true, "edges": []}', '"n" must be an integer'),
    ('{"n": 3, "edges": 5}', '"edges" must be a list of vertex pairs'),
    ('{"n": 3, "edges": [["0", 1]]}', "expected a pair of integers"),
    ('{"n": 3, "edges": [[0.0, 1]]}', "expected a pair of integers"),
    ('{"n": 2, "edges": [[0, 1]], "labels": [1, 2]}', '"labels" must be a list of strings'),
])
def test_solve_malformed_graph_json_is_input_error(capsys, tmp_path, graph, message):
    f = tmp_path / "g.json"
    f.write_text(graph)
    code, rep = run_json(capsys, "solve", str(f), "--kind", "old")
    assert code == 2 and rep["exit_code"] == 2 and message in rep["error"]


@pytest.mark.parametrize("name, text", [
    ("g.json", '{"n": 1000000000000, "edges": []}'),
    ("g.txt", "1000000000000 0\n"),
    ("g.json", '{"n": 1000001, "edges": []}'),
    ("g.json", '{"n": %d, "edges": []}' % (MAX_VERTICES + 1)),
    ("g.txt", "%d 0\n" % (MAX_VERTICES + 1)),
])
def test_vertex_count_above_limit_is_input_error(capsys, tmp_path, name, text):
    # the count is checked before the adjacency list is allocated, so this
    # is an input error rather than a MemoryError with a traceback
    f = tmp_path / name
    f.write_text(text)
    code, rep = run_json(capsys, "solve", str(f), "--kind", "old")
    assert code == 2 and rep["exit_code"] == 2 and "above the limit" in rep["error"]


def test_cross_check_torus_above_limit_is_input_error(capsys):
    code, rep = run_json(capsys, "grid", "sq", "builtin:sq-redold", "--kind", "redold",
                         "--cross-check", "1000000x1000000")
    assert code == 2 and "above the limit" in rep["error"]


@pytest.mark.parametrize("dims", ["99x331", "1000x1000"])
def test_cross_check_torus_one_above_limit_is_input_error(capsys, dims):
    # 99 * 331 = MAX_VERTICES + 1; a 1000x1000 torus would keep tens of GB
    # of adjacency bits
    assert 99 * 331 == MAX_VERTICES + 1
    code, rep = run_json(capsys, "grid", "sq", "builtin:sq-redold", "--kind", "redold",
                         "--cross-check", dims)
    assert code == 2 and "above the limit" in rep["error"]


def test_cross_check_checks_the_period_before_building_the_torus(capsys, monkeypatch):
    # 181 * 181 is under the vertex limit but no multiple of sq-old's 1x5
    # period; the torus was built first, 0.19 s and about 90 MiB, for
    # nothing
    def no_torus(*args):
        raise AssertionError("the torus was built")

    monkeypatch.setattr(grids, "build_torus", no_torus)
    code, rep = run_json(capsys, "grid", "sq", "builtin:sq-old", "--kind", "old",
                         "--cross-check", "181x181")
    assert code == 2 and "not a multiple of the period 1x5" in rep["error"]


def test_main_calls_share_no_parser_state(capsys):
    # the parser is built once per process; every call still parses afresh
    code, rep = run_json(capsys, "solve", "builtin:g11", "--kind", "redold", "--enumerate")
    assert code == 0 and rep["optima_count"] == 1
    code, rep = run_json(capsys, "solve", "builtin:g11", "--kind", "redold")
    assert code == 0 and rep["value"] == 9 and "optima" not in rep
    assert main(["solve", "builtin:g11", "--kind", "old", "--frobnicate"]) == 2
    assert "--frobnicate" in capsys.readouterr().err
    code, rep = run_json(capsys, "solve", "builtin:g11", "--kind", "old")
    assert code == 0 and rep["value"] == 6
    assert _build_parser() is _build_parser()


GOLDEN_SOLVE = Path(__file__).with_name("solve_golden.json")


def test_solve_json_matches_golden_outputs(capsys, tmp_path, monkeypatch):
    # solve --format json, node counts included, for g11 and 40 seeded
    # G(n, 0.3) graphs (n = 10..16, both kinds, --enumerate); "nodes" pins
    # the search's visit order and pruning, every other byte its answers
    monkeypatch.chdir(tmp_path)
    cases = json.loads(GOLDEN_SOLVE.read_text())
    assert len(cases) == 84
    for case in cases:
        if case["graph"] is not None:
            Path(case["argv"][1]).write_text(json.dumps(case["graph"]))
        code, out = run(capsys, *case["argv"])
        assert (code, out) == (case["exit_code"], case["stdout"]), case["argv"]


# Each golden case's node count at the last change of search order:
# exclude before include, with bound-based fixing (None: the case prints no
# count).  A tighter valid bound prunes only states that hold no optimum,
# so re-recording "nodes" for one may lower a count but never raise one; a
# new visit order may move a count either way, and re-pins these.
GOLDEN_SOLVE_NODE_CEILINGS = (
    25, 25, 1, 1, 465, 141, None, None, 223, 33, None, None, 17, None, 71,
    None, None, None, 33, None, None, None, 125, 9, 77, None, 49, None, 15,
    None, None, None, 7, None, 7, None, 25, None, 35, 1, 11, None, 47, 5, 105,
    None, None, None, 39, None, 137, None, 75, None, 19, None, 63, None, 171,
    27, 11, None, 109, None, 71, None, 25, 5, None, None, None, None, 37, None,
    None, None, 45, None, None, None, None, None, None, None,
)
# the golden total under the include-first order without fixing
GOLDEN_SOLVE_NODES_INCLUDE_FIRST = 4421


def test_solve_golden_node_counts_stay_within_ceilings():
    cases = json.loads(GOLDEN_SOLVE.read_text())
    counts = [json.loads(case["stdout"]).get("nodes") for case in cases]
    assert len(counts) == len(GOLDEN_SOLVE_NODE_CEILINGS)
    for count, ceiling in zip(counts, GOLDEN_SOLVE_NODE_CEILINGS):
        assert (count is None) == (ceiling is None)
        assert count is None or count <= ceiling
    assert sum(filter(None, counts)) < GOLDEN_SOLVE_NODES_INCLUDE_FIRST


def test_solve_graph_from_file(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, rep = run_json(capsys, "solve", str(f), "--kind", "old")
    assert code == 0 and rep["value"] == 4


def test_reduce_emit(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(TWO_CLAUSE_DIMACS)
    out = tmp_path / "g.json"
    code, rep = run_json(capsys, "reduce", str(cnf), "--emit", str(out))
    assert code == 0 and rep["vertices"] == 80 and rep["threshold"] == 70
    payload = json.loads(out.read_text())
    assert payload["n"] == 80 and payload["threshold"] == 70
    assert payload["roles"]["u_1"] == "positive_literal"
    assert payload["roles"]["g_2_7"] == "shaded"
    assert payload["roles"]["c_2"] == "clause"


def test_reduce_emit_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    # README's example, run as written there
    monkeypatch.chdir(tmp_path)
    Path("f.cnf").write_text(TWO_CLAUSE_DIMACS)
    code, out = run(capsys, "reduce", "f.cnf", "--emit", "graph.json", "--decide",
                    "--format", "json")
    assert code == 0 and out == (
        '{"command": "reduce", "decide": {"agree": true, "sat_bruteforce": true, '
        '"sat_via_redold": true}, "emitted": "graph.json", "exit_code": 0, "num_clauses": 2, '
        '"num_vars": 4, "threshold": 70, "vertices": 80}\n')
    assert hashlib.sha256(Path("graph.json").read_bytes()).hexdigest() == (
        "335ab2d1d48d1ef742cb38b258705d95713b2d9724a208e0011637aa9c00d410")


def test_reduce_emit_text_line_follows_the_reduction_line(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 1 1 0\n")
    out = tmp_path / "g.json"
    code, text = run(capsys, "reduce", str(cnf), "--emit", str(out), "--validate-gadgets",
                     "--decide")
    lines = text.splitlines()
    assert code == 0 and out.exists() and len(lines) == 4
    assert lines[0].startswith("reduction: ")
    assert lines[1] == f"  graph JSON written to {out}"
    assert lines[2].startswith("  gadget forcing") and lines[3].startswith("  decision: ")


def test_reduce_emit_writes_nothing_when_a_later_step_fails(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(TWO_CLAUSE_DIMACS)
    out = tmp_path / "g.json"
    code, rep = run_json(capsys, "reduce", str(cnf), "--emit", str(out), "--decide",
                         "--budget", "1")
    assert code == 3 and "emitted" not in rep and not out.exists()
    # the oracle refuses N > 24
    cnf.write_text("p cnf 25 1\n1 2 3 0\n")
    code, rep = run_json(capsys, "reduce", str(cnf), "--emit", str(out), "--decide")
    assert code == 2 and "limited to N <= 24" in rep["error"] and not out.exists()


def test_reduce_decide_agreement(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(TWO_CLAUSE_DIMACS)
    code, rep = run_json(capsys, "reduce", str(cnf), "--decide")
    assert code == 0
    assert rep["decide"] == {"sat_via_redold": True, "sat_bruteforce": True, "agree": True}


def test_reduce_decide_unsat_agreement(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    code, rep = run_json(capsys, "reduce", str(cnf), "--decide")
    assert code == 0 and rep["decide"]["sat_via_redold"] is False


def test_reduce_validate_gadgets(capsys, tmp_path):
    # N = 6 is past the N <= 5 cap the validation had while it searched
    cnf = tmp_path / "f.cnf"
    for dimacs in ("p cnf 1 1\n1 1 1 0\n", "p cnf 6 0\n"):
        cnf.write_text(dimacs)
        code, rep = run_json(capsys, "reduce", str(cnf), "--validate-gadgets")
        assert code == 0 and rep["gadget_validation"] is True


def test_reduce_builds_the_reduction_once(capsys, tmp_path, monkeypatch):
    # --decide and --validate-gadgets reuse the graph the command built
    calls = []
    build = sat_reduction.build_reduction

    def counted(cnf):
        calls.append(cnf)
        return build(cnf)

    monkeypatch.setattr(sat_reduction, "build_reduction", counted)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 1 1 0\n")
    code, rep = run_json(capsys, "reduce", str(cnf), "--decide", "--validate-gadgets")
    assert code == 0 and rep["gadget_validation"] is True and rep["decide"]["agree"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("target, patched, wrong, argv, field, code, word", [
    # f.cnf is satisfiable, its gadgets are sound and builtin:king-redold
    # holds on the 9x9 torus: each patch gives the other answer
    (sat_reduction, "validate_gadget_forcing", False, ("reduce", "{cnf}", "--validate-gadgets"),
     ("gadget_validation",), 1, "FAIL"),
    (sat_reduction, "decide_sat_via_redold", False, ("reduce", "{cnf}", "--decide"),
     ("decide", "agree"), 4, "DISAGREEMENT"),
    (cli, "verify_set", VerificationReport(False, vertex=0, count=1),
     ("grid", "king", "builtin:king-redold", "--kind", "redold", "--cross-check", "9x9"),
     ("cross_check", "agree"), 1, "DISAGREE"),
], ids=["gadget-validation", "decision", "torus-cross-check"])
def test_alarm_branches_report_and_exit(capsys, tmp_path, monkeypatch,
                                        target, patched, wrong, argv, field, code, word):
    # each check that never fails on correct code, made to fail: the exit
    # code, the JSON field and the text line all carry the alarm
    monkeypatch.setattr(target, patched, lambda *args, **kwargs: wrong)
    cnf = tmp_path / "f.cnf"
    cnf.write_text(TWO_CLAUSE_DIMACS)
    argv = [arg.format(cnf=cnf) for arg in argv]
    got, rep = run_json(capsys, *argv)
    for key in field:
        rep = rep[key]
    assert (got, rep) == (code, False)
    got, out = run(capsys, *argv)
    assert got == code and re.search(rf"\b{word}\b", out)


def test_reduce_parse_error(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    code, rep = run_json(capsys, "reduce", str(cnf))
    assert code == 2


def test_an_input_path_that_names_no_file_is_not_found(capsys, tmp_path):
    # each is opened with no check first; what Path.exists reads as missing
    # is still reported as not found, with exit 2
    cnf = tmp_path / "f.cnf"
    cnf.write_text(TWO_CLAUSE_DIMACS)
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    for spec in (f"{cnf}/x", str(tmp_path / "missing.cnf"), str(tmp_path / "loop"), "f\0.cnf"):
        code, rep = run_json(capsys, "reduce", spec)
        assert (code, rep["error"]) == (2, f"CNF file {spec!r} not found")
    code, out = run(capsys, "solve", f"{cnf}/x", "--kind", "old")
    assert (code, out) == (2, f"error: graph file {f'{cnf}/x'!r} not found\n")
    # a directory is there but is no file: the OSError's own message, exit 2
    code, rep = run_json(capsys, "reduce", str(tmp_path))
    assert code == 2 and "Is a directory" in rep["error"]


def test_reduce_decide_checks_oracle_limit_before_solving(capsys, tmp_path):
    # the SAT oracle refuses N > 24; the solve must not run first
    rng = random.Random(25)
    lines = ["p cnf 25 100"]
    for _ in range(100):
        lines.append(" ".join(str(rng.choice((1, -1)) * v) for v in rng.sample(range(1, 26), 3)) + " 0")
    cnf = tmp_path / "f.cnf"
    cnf.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, rep = run_json(capsys, "reduce", str(cnf), "--decide")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "limited to N <= 24" in rep["error"]


def test_grid_tri_old_density(capsys):
    code, rep = run_json(capsys, "grid", "tri", "builtin:tri-old", "--kind", "old", "--density")
    assert code == 0 and rep["holds"] and rep["density"] == "4/13"


def test_grid_king_redold_density(capsys):
    code, rep = run_json(capsys, "grid", "king", "builtin:king-redold", "--kind", "redold", "--density")
    assert code == 0 and rep["density"] == "1/3"


def test_grid_bad_pattern_fails(capsys, tmp_path):
    f = tmp_path / "p.json"
    f.write_text('{"lattice": "sq", "period": [2, 2], "cells": []}')
    code, rep = run_json(capsys, "grid", "sq", str(f), "--kind", "old")
    assert code == 1 and rep["witness"]["type"] == "vertex"


@pytest.mark.parametrize("pattern, message", [
    ('{"lattice": "sq", "period": [2.0, 2], "cells": []}', "period must be a pair of integers"),
    ('{"lattice": "sq", "period": "ab", "cells": []}', "period must be a pair of integers"),
    ('{"lattice": "sq", "period": [true, 2], "cells": []}', "period must be a pair of integers"),
    ('{"lattice": "sq", "period": [2, 2], "cells": [["0", 0]]}', "cells must be pairs of integers"),
    ('{"lattice": "sq", "period": [2, 2], "cells": [[1, true]]}', "cells must be pairs of integers"),
    ('{"lattice": "sq", "period": [2, 2], "cells": [[0, 0, 0]]}', "cells must be pairs of integers"),
    ('{"lattice": "sq", "period": [1, 5], "cells": [[0, 0], [0, 2]], "name": ["x"]}',
     "pattern name must be a string"),
    ('{"lattice": "sq", "period": [1, 5], "cells": [[0, 0], [0, 2]], "name": 7}',
     "pattern name must be a string"),
    ('{"lattice": "sq", "period": [1, 5], "cells": [[0, 0], [0, 2]], "name": true}',
     "pattern name must be a string"),
])
def test_grid_malformed_pattern_is_input_error(capsys, tmp_path, pattern, message):
    f = tmp_path / "p.json"
    f.write_text(pattern)
    code, rep = run_json(capsys, "grid", "sq", str(f), "--kind", "old")
    assert code == 2 and rep["exit_code"] == 2 and message in rep["error"]


def test_grid_period_above_area_limit_is_input_error(capsys, tmp_path):
    # rejected when the pattern is loaded, before any residue table is built
    f = tmp_path / "p.json"
    f.write_text('{"lattice": "sq", "period": [65, 64], "cells": []}')
    before = grids._cover.cache_info()
    code, rep = run_json(capsys, "grid", "sq", str(f), "--kind", "old")
    assert code == 2 and "above the limit of 4096" in rep["error"]
    assert grids._cover.cache_info() == before


GOLDEN_GRID = Path(__file__).with_name("grid_golden.json")


def test_grid_json_matches_golden_outputs(capsys, tmp_path, monkeypatch):
    # grid --density --cross-check --format json for every builtin and for
    # seeded failing patterns (vertex and pair witnesses on all four
    # lattices), recorded before the check moved to residue tables; the
    # pattern files are written under the relative names the outputs echo
    monkeypatch.chdir(tmp_path)
    cases = json.loads(GOLDEN_GRID.read_text())
    assert len(cases) == 28
    for case in cases:
        if case["pattern"] is not None:
            Path(case["argv"][2]).write_text(json.dumps(case["pattern"]))
        code, out = run(capsys, *case["argv"])
        assert (code, out) == (case["exit_code"], case["stdout"]), case["argv"]


GOLDEN_TEXT = Path(__file__).with_name("text_golden.json")


def test_text_matches_golden_outputs(capsys, tmp_path, monkeypatch):
    # `--format text` stdout and the exit code of one invocation per report
    # shape: each verify verdict and witness, each solve outcome, a sat and
    # an unsat decision, both grid witnesses with --density and
    # --cross-check, an input error and a budget error
    monkeypatch.chdir(tmp_path)
    cases = json.loads(GOLDEN_TEXT.read_text())
    assert len(cases) == 16
    for case in cases:
        for name, text in case["files"].items():
            Path(name).write_text(text)
        code, out = run(capsys, *case["argv"])
        assert (code, out) == (case["exit_code"], case["stdout"]), case["argv"]


def test_text_goldens_hold_under_python_O(tmp_path):
    # python -O strips assert statements and sets __debug__ false, so no
    # answer, witness, error message or exit code may depend on either:
    # each text golden runs again as `python -O -m oldsets` in a fresh
    # process, its files in its own directory
    env = dict(os.environ, PYTHONPATH=str(Path(oldsets.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    for i, case in enumerate(json.loads(GOLDEN_TEXT.read_text())):
        cwd = tmp_path / str(i)
        cwd.mkdir()
        for name, text in case["files"].items():
            (cwd / name).write_text(text)
        done = subprocess.run([sys.executable, "-O", "-m", "oldsets", *case["argv"]],
                              cwd=cwd, env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (case["exit_code"], case["stdout"]), case["argv"]
        assert done.stderr == "", case["argv"]


def test_grid_lattice_mismatch(capsys):
    code, rep = run_json(capsys, "grid", "sq", "builtin:tri-old", "--kind", "old")
    assert code == 2


def test_grid_cross_check(capsys):
    code, rep = run_json(
        capsys, "grid", "king", "builtin:king-redold", "--kind", "redold",
        "--cross-check", "9x9",
    )
    assert code == 0 and rep["cross_check"]["agree"] is True


def test_grid_cross_check_bad_spec(capsys):
    code, rep = run_json(
        capsys, "grid", "king", "builtin:king-redold", "--kind", "redold",
        "--cross-check", "9by9",
    )
    assert code == 2


def test_json_output_is_byte_deterministic(capsys):
    _, first = run(capsys, "solve", "builtin:g11", "--kind", "redold", "--format", "json")
    _, second = run(capsys, "solve", "builtin:g11", "--kind", "redold", "--format", "json")
    assert first == second


def test_missing_graph_file(capsys):
    code, rep = run_json(capsys, "verify", "/nonexistent/g.json", "0", "--kind", "old")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "{bad}", "0", "--kind", "old"),
    ("verify", "builtin:g11", "{bad}", "--kind", "old"),
    ("solve", "{bad}", "--kind", "old"),
    ("grid", "sq", "{bad}", "--kind", "old"),
    ("reduce", "{bad}"),
], ids=["verify-graph", "verify-set", "solve", "grid", "reduce"])
def test_non_utf8_file_is_input_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(b'{"n": 1, \xff}')
    code = main([arg.format(bad=bad) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out.startswith("error: ") and "is not UTF-8 text" in out
    assert "Traceback" not in out + err


def test_unknown_flag_rejected(capsys):
    assert main(["solve", "builtin:g11", "--kind", "old", "--frobnicate"]) == 2


def test_text_output_human_readable(capsys):
    code, out = run(capsys, "solve", "builtin:g11", "--kind", "old")
    assert code == 0 and "minimum size 6" in out


def test_reduce_budget_exceeded(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(TWO_CLAUSE_DIMACS)
    code, rep = run_json(capsys, "reduce", str(cnf), "--decide", "--budget", "1")
    assert code == 3 and "error" in rep


@pytest.mark.parametrize("command", ["solve", "reduce"])
def test_negative_budget_is_input_error(capsys, tmp_path, command):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(TWO_CLAUSE_DIMACS)
    target = ["builtin:g11", "--kind", "old"] if command == "solve" else [str(cnf), "--decide"]
    code = main([command, *target, "--budget", "-1"])
    err = capsys.readouterr().err
    assert code == 2 and "--budget" in err and "must be >= 0" in err


def test_module_entry_point_subprocess(tmp_path):
    import os
    import subprocess
    import sys

    import oldsets

    # the child imports the same oldsets package, installed or not
    src = str(Path(oldsets.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "oldsets", "solve", "builtin:g11", "--kind", "old",
         "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 6


@pytest.mark.parametrize("argv", [
    ("verify", "builtin:g11", "{deep}", "--kind", "old"),
    ("solve", "{deep}", "--kind", "old"),
    ("grid", "sq", "{deep}", "--kind", "old"),
], ids=["verify-set", "solve", "grid"])
def test_deeply_nested_json_is_input_error(capsys, tmp_path, argv):
    # deeper than the decoder's recursion limit: an input error, not a
    # RecursionError traceback
    deep = tmp_path / "deep.json"
    deep.write_text('{"a": ' * 100_000)
    code, rep = run_json(capsys, *(arg.format(deep=deep) for arg in argv))
    assert code == 2 and rep["exit_code"] == 2 and "nested too deeply" in rep["error"]


LONG = "9" * 5000  # past int()'s default limit of 4300 digits
HUGE = "1" + "0" * 4000  # parses, but HUGE * HUGE has 8001 digits


@pytest.mark.parametrize("argv, text, message", [
    (("solve", "{file}", "--kind", "old"), f'{{"n": {LONG}, "edges": []}}', "invalid graph JSON"),
    (("verify", "builtin:g11", "{file}", "--kind", "old"), f"[{LONG}]", "invalid set JSON"),
    (("grid", "sq", "{file}", "--kind", "old"),
     f'{{"lattice": "sq", "period": [{LONG}, 1], "cells": []}}', "invalid pattern JSON"),
    (("grid", "sq", "{file}", "--kind", "old"),
     f'{{"lattice": "sq", "period": [{HUGE}, {HUGE}], "cells": []}}', "above the limit of 4096"),
], ids=["graph-n", "set-item", "pattern-period", "pattern-area"])
def test_number_too_long_is_input_error(capsys, tmp_path, argv, text, message):
    # json.dumps cannot write such an int, so the file is written as text
    path = tmp_path / "input.json"
    path.write_text(text)
    code, rep = run_json(capsys, *(arg.format(file=path) for arg in argv))
    assert code == 2 and rep["exit_code"] == 2 and message in rep["error"]


@pytest.mark.parametrize("argv, text, message", [
    (("grid", "sq", "builtin:sq-old", "--kind", "old", "--cross-check", "1_0x1_0"), None,
     "--cross-check expects WxH, got '1_0x1_0'"),
    (("solve", "{file}", "--kind", "old"), "3 1\n1 ２\n", "bad edge line"),
    (("solve", "{file}", "--kind", "old"), "1_1 1\n0 1\n", 'expected header "n m"'),
    (("reduce", "{file}"), "p cnf 1_0 1\n1 2 3 0\n", "malformed DIMACS header"),
    (("reduce", "{file}"), "p cnf 3 1\n1 -٢ 3 0\n", "malformed literal '-٢'"),
    (("verify", "builtin:k4", "0,٢", "--kind", "old"), None, "unknown vertex label '٢'"),
    (("verify", "builtin:k4", "0,1,2,3", "--kind", "old", "--fold", "1_0"), None,
     "argument --fold: invalid int value: '1_0'"),
    (("solve", "builtin:k4", "--kind", "old", "--budget", "٢"), None,
     "argument --budget: invalid non_negative_int value: '٢'"),
], ids=["cross-check", "edge-line", "edge-header", "dimacs-header", "dimacs-literal",
        "set-item", "fold", "budget"])
def test_text_integer_takes_only_ascii_decimal_digits(capsys, tmp_path, argv, text, message):
    # int() alone would read each of these as a number: 1_0 as 10, ٢ and ２
    # as 2
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code = main([*(arg.format(file=path) for arg in argv), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in out + err
    # argparse refuses a flag value on stderr; the rest is a JSON report
    assert message in (err if "--fold" in argv or "--budget" in argv else json.loads(out)["error"])
