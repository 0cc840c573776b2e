"""CLI surface: subcommands, exit codes, JSON schema stability."""

import json

import pytest

from oldsets.cli import main

TWO_CLAUSE_DIMACS = "p cnf 4 2\n1 2 -3 0\n-1 2 -4 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
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


def test_verify_set_from_json_file(capsys, tmp_path):
    f = tmp_path / "set.json"
    f.write_text('["v2","v3","v6","v7","v9","v10"]')
    code, rep = run_json(capsys, "verify", "builtin:g11", str(f), "--kind", "old")
    assert code == 0 and rep["holds"]


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
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 1 1 0\n")
    code, rep = run_json(capsys, "reduce", str(cnf), "--validate-gadgets")
    assert code == 0 and rep["gadget_validation"] is True


def test_reduce_parse_error(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    code, rep = run_json(capsys, "reduce", str(cnf))
    assert code == 2


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
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "oldsets", "solve", "builtin:g11", "--kind", "old",
         "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 6
