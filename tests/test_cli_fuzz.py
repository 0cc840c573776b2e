"""CLI fuzzing: no input, however malformed, ends in a traceback.

Every subcommand is driven with random bytes, JSON of the wrong shape or
nested too deeply, near-valid and valid graph, set, DIMACS and pattern
files, and good and bad flags.  The exit code must be one of the
documented ones, and exit 1 ("property fails") must come with the failure
it reports.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import graphs
from oldsets.cli import EXIT_DISAGREE, EXIT_FAILS, main
from oldsets.graph import MAX_VERTICES, graph_to_json

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
LATTICES = ("sq", "hex", "tri", "king")

junk = st.text(max_size=12)
small_int = st.integers(-3, 12)
json_scalar = st.none() | st.booleans() | st.integers(-5, 40) | st.floats() | junk
json_value = st.recursive(
    json_scalar,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(junk, inner, max_size=4),
    max_leaves=12,
)
# nesting past the interpreter's recursion limit
deep_json = st.integers(500, 20000).flatmap(
    lambda d: st.sampled_from(["[" * d + "]" * d, '{"a":' * d + "1" + "}" * d, "[" * d])
)

graph_json = st.fixed_dictionaries(
    {
        "n": small_int | st.just(MAX_VERTICES + 1) | json_scalar,
        "edges": st.lists(st.lists(small_int | json_scalar, max_size=3), max_size=8) | json_value,
    },
    optional={"labels": st.lists(junk, max_size=6) | json_value},
).map(json.dumps)
edge_list = st.lists(
    st.lists(small_int.map(str) | junk, max_size=3).map(" ".join), max_size=8
).map("\n".join)
set_json = st.lists(small_int | junk | json_scalar, max_size=6).map(json.dumps)
dimacs = st.lists(
    st.one_of(
        st.tuples(small_int, small_int).map(lambda h: f"p cnf {h[0]} {h[1]}"),
        st.lists(st.integers(-7, 7).map(str) | junk, max_size=5).map(" ".join),
        st.sampled_from(["c comment", "%", "0", "p cnf", "p dnf 3 1"]),
    ),
    max_size=10,
).map("\n".join)


@st.composite
def cnf_3(draw):
    # a well-formed 3-CNF small enough for --decide to finish quickly
    n = draw(st.integers(1, 5))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.tuples(literal, literal, literal), max_size=7 * n))
    lines = [f"p cnf {n} {len(clauses)}"] + [f"{a} {b} {c} 0" for a, b, c in clauses]
    return "\n".join(lines)


def pattern_json(lattice):
    near = st.fixed_dictionaries(
        {
            "lattice": st.sampled_from(LATTICES + ("cube",)) | json_scalar,
            "period": st.lists(st.integers(-1, 9) | json_scalar, max_size=3) | json_value,
            "cells": st.lists(st.lists(st.integers(-1, 9) | json_scalar, max_size=3), max_size=8)
            | json_value,
        },
        optional={"name": json_value},
    )
    # a valid period (even on HEX) with any cells inside it
    period = st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda p: [2 * p[0], 2 * p[1]] if lattice == "hex" else list(p))
    valid = period.flatmap(
        lambda p: st.fixed_dictionaries({
            "lattice": st.just(lattice),
            "period": st.just(p),
            "cells": st.lists(
                st.tuples(st.integers(0, p[0] - 1), st.integers(0, p[1] - 1)), max_size=12),
        })
    )
    return (near | valid).map(json.dumps)


def contents(*structured):
    """File contents: half of them random bytes, wrong-shape or too-deep
    JSON, the other half one of the ``structured`` texts."""
    garbage = st.one_of(
        st.binary(max_size=64),
        json_value.map(json.dumps).map(str.encode),
        deep_json.map(str.encode),
    )
    return garbage | st.one_of(*structured).map(str.encode)


def flag(name, values):
    return st.tuples(st.just(name), values).map(list)


def flags(*options):
    # a few of the options, in any order, maybe repeated, and now and then
    # an unknown flag or one without its value
    bad = st.sampled_from([[]] * 12 + [["--nope"], ["-x", "1"], ["--budget"], ["--kind"]])
    return st.tuples(st.lists(st.one_of(*options), max_size=3), bad).map(
        lambda drawn: [arg for group in drawn[0] for arg in group] + drawn[1]
    )


def kind_flag(*kinds):
    # mostly one the subcommand accepts
    return flag("--kind", st.sampled_from(kinds * 3 + ("bogus",)))


budget_flag = flag("--budget", st.integers(-2, 500).map(str) | junk)
format_flag = flag("--format", st.sampled_from(["text", "json", "json", "xml"]))


class _Files:
    """Writes each fuzzed file under one directory, by a fresh name."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def write(self, data: bytes) -> str:
        self.count += 1
        path = self.root / f"input{self.count}"
        path.write_bytes(data)
        return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return _Files(tmp_path_factory.mktemp("fuzz"))


def _graph_spec(files):
    return st.one_of(
        contents(graph_json, edge_list, graphs(max_n=8).map(graph_to_json)).map(files.write),
        st.sampled_from(["builtin:g11", "builtin:k4", "builtin:c4", "builtin:bogus", "missing.json"]),
    )


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _failure_shown(report: dict) -> bool:
    # what exit 1 must come with: a failing verdict and its witness
    # (LD and IC report only the verdict), a failed gadget validation or a
    # torus cross-check that disagrees
    if report["command"] == "reduce":
        return report.get("gadget_validation") is False
    if report.get("cross_check", {}).get("agree") is False:
        return True
    return report["holds"] is False and (
        report["witness"] is not None or report["kind"] in ("ld", "ic")
    )


def _check(argv, fmt):
    code, out, err = _run(argv + ["--format", fmt])
    assert "Traceback" not in err and "Traceback" not in out
    assert code in range(5), (argv, code)
    # exit 4 is the reduction's correctness alarm: never expected
    assert code != EXIT_DISAGREE, (argv, out)
    if fmt == "json" and out:
        report = json.loads(out)
        assert report["exit_code"] == code
        if code == EXIT_FAILS:
            assert _failure_shown(report), (argv, report)
    elif code == EXIT_FAILS:
        assert re.search("fail|disagree", out, re.IGNORECASE), (argv, out)


formats = st.sampled_from(["json", "text"])


@FUZZ
@given(data=st.data(), fmt=formats)
def test_fuzz_verify(files, data, fmt):
    graph = data.draw(_graph_spec(files))
    items = data.draw(
        contents(set_json).map(files.write)
        | st.lists(small_int.map(str) | st.sampled_from(["v1", "v2", "v3"]) | junk, max_size=5)
        .map(",".join)
        | st.lists(st.integers(0, 10), min_size=1, max_size=10).map(lambda s: ",".join(map(str, s)))
    )
    kind = data.draw(kind_flag("old", "redold", "ld", "ic"))
    opts = data.draw(flags(flag("--fold", small_int.map(str) | junk), format_flag))
    _check(["verify", graph, items, *kind, *opts], fmt)


@FUZZ
@given(data=st.data(), fmt=formats)
def test_fuzz_solve(files, data, fmt):
    graph = data.draw(_graph_spec(files))
    kind = data.draw(kind_flag("old", "redold"))
    opts = data.draw(flags(budget_flag, format_flag, st.just(["--enumerate"])))
    _check(["solve", graph, *kind, *opts], fmt)


@FUZZ
@given(data=st.data(), fmt=formats)
def test_fuzz_reduce(files, data, fmt):
    cnf = data.draw(contents(dimacs, cnf_3()).map(files.write) | st.just("missing.cnf"))
    emit = flag("--emit", st.sampled_from([str(files.root / "emitted.json"),
                                           str(files.root / "missing" / "emitted.json")]))
    opts = data.draw(flags(
        budget_flag, format_flag, emit,
        st.just(["--decide"]), st.just(["--validate-gadgets"]),
    ))
    _check(["reduce", cnf, *opts], fmt)


@FUZZ
@given(data=st.data(), fmt=formats)
def test_fuzz_grid(files, data, fmt):
    lattice = data.draw(st.sampled_from(LATTICES * 2 + ("cube",)))
    pattern = data.draw(
        contents(pattern_json(lattice)).map(files.write)
        | st.sampled_from([f"builtin:{lat}-{k}" for lat in (lattice, "sq") for k in ("old", "redold")])
        | st.sampled_from(["builtin:bogus", "missing.json"])
    )
    dims = st.tuples(small_int, small_int).map(lambda d: f"{d[0]}x{d[1]}") | junk
    kind = data.draw(kind_flag("old", "redold"))
    opts = data.draw(flags(format_flag, st.just(["--density"]), flag("--cross-check", dims)))
    _check(["grid", lattice, pattern, *kind, *opts], fmt)
