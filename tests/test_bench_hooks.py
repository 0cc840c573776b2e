"""The benchmark's span hooks still name code that exists and is reached.

``bench/spans.py`` wraps the module attributes in its ``HOOKS`` for the
traced pass, and ``bench/workloads.py``'s ``MUST_REACH`` names the spans
each workload must reach there, or ``bench/run.py`` reports the run as
incorrect.  Both tables are read from the source with ``ast.literal_eval``:
importing the harness would run its set-up.
"""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from oldsets import cli, grids
from oldsets.verify import Kind

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Hooks on code the solver no longer has; the next refresh of the benchmark
# drops them, with their spans in MUST_REACH.
STALE = {"_bound", "_Search._branch_vertex", "_Search.find_value", "_Search.collect"}


def _table(filename, name):
    tree = ast.parse((BENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in bench/{filename}")


HOOKS = _table("spans.py", "HOOKS")
MUST_REACH = _table("workloads.py", "MUST_REACH")
STALE_SPANS = {span for _, attr, span in HOOKS if attr in STALE}


def _holder(module_name, attr):
    """The object holding the hook's target and the target's name, as the
    tracer looks them up; the holder is None if it is gone."""
    owner, _, leaf = attr.rpartition(".")
    module = importlib.import_module(module_name)
    return (getattr(module, owner, None) if owner else module), leaf


def _resolves(module_name, attr):
    holder, leaf = _holder(module_name, attr)
    return holder is not None and callable(getattr(holder, leaf, None))


def test_every_hook_resolves_but_the_stale_ones():
    absent = [f"{module}.{attr}" for module, attr, _ in HOOKS if not _resolves(module, attr)]
    assert [name for name in absent if name.split(".", 2)[2] not in STALE] == []


def test_every_span_a_workload_must_reach_has_a_live_hook():
    live = {span for module, attr, span in HOOKS if _resolves(module, attr)}
    missing = {(workload, span) for workload, spans in MUST_REACH.items()
               for span in spans if span not in live | STALE_SPANS}
    assert missing == set()


C4 = "4 4\n0 1\n1 2\n2 3\n3 0\n"
CNF = "p cnf 3 2\n1 2 -3 0\n-1 2 3 0\n"


def _requests(workload, tmp_path):
    # one small request of each kind the workload sends; OLD on C4 is
    # infeasible (open twins), the only case in which min_set calls the
    # verifier
    if workload == "gnp-enumerate":
        (tmp_path / "c4.txt").write_text(C4)
        cli.main(["solve", str(tmp_path / "c4.txt"), "--kind", "old", "--enumerate"])
    elif workload == "sat-decide":
        (tmp_path / "f.cnf").write_text(CNF)
        cli.main(["reduce", str(tmp_path / "f.cnf"), "--decide"])
    else:
        cli.main(["grid", "sq", "builtin:sq-old", "--kind", "old", "--cross-check", "10x10"])
        grids.search_patterns(grids.Lattice.SQ, Kind.OLD, (2, 2), Fraction(1, 2))


@pytest.mark.parametrize("workload", sorted(MUST_REACH))
def test_each_workload_reaches_its_spans_through_the_hooks(workload, tmp_path, monkeypatch,
                                                           capsys):
    # a refactor that keeps every name but stops calling through one, such
    # as a decision that no longer calls sat_reduction.min_set, leaves the
    # traced pass short of a span
    reached = set()

    def counting(span, fn):
        def wrapper(*args, **kwargs):
            reached.add(span)
            return fn(*args, **kwargs)
        return wrapper

    for module, attr, span in HOOKS:
        if _resolves(module, attr):
            holder, leaf = _holder(module, attr)
            monkeypatch.setattr(holder, leaf, counting(span, getattr(holder, leaf)))
    _requests(workload, tmp_path)
    capsys.readouterr()
    assert set(MUST_REACH[workload]) - STALE_SPANS - reached == set()
