"""Checks on the package source itself."""

import ast
import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

import oldsets
from oldsets import cli, graph, grids, sat_reduction, solve, verify

PACKAGE = Path(oldsets.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, so no package file
    # may use later syntax such as except* or PEP 695 type parameters
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_only_cli_main_prints():
    # every command returns its report, and cli.main makes the one write
    printing = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "cli.py":
            main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
            allowed = {id(node) for node in ast.walk(main)}
        printing += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print" and id(node) not in allowed
        ]
    assert printing == []


def test_no_function_calls_itself():
    # a recursive walk would tie its depth to Python's recursion limit, so
    # every walk is an explicit loop
    recursive = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        recursive += [
            f"{path.name}:{call.lineno} {fn.name}"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == fn.name
        ]
    assert recursive == []


def test_no_module_imports_a_private_name_of_another():
    # a _-prefixed name is its module's own; another module that needs it
    # shares work that belongs behind a public function or in one place
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        private += [
            f"{path.name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "oldsets")
            for alias in node.names if alias.name.startswith("_")
        ]
    assert private == []


def test_every_exported_name_exists():
    # a name removed from a module must leave its __all__ too
    modules = [
        importlib.import_module(f"oldsets.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if not path.stem.startswith("_")
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 6
    stale = [f"{m.__name__}.{name}" for m in exporting for name in m.__all__ if not hasattr(m, name)]
    assert stale == []


# every name that ``oldsets`` offers, by the submodule that defines it: the
# names its __init__.py imported from each before it resolved them on first
# use
PACKAGE_NAMES = {
    "errors": ("BudgetExceededError", "InputError"),
    "fixtures": ("builtin_graph", "g11"),
    "graph": ("Graph", "build_graph", "complete_graph", "cycle_graph", "graph_from_json",
              "graph_from_text", "graph_to_json", "mask_of", "path_graph", "vertices_of"),
    "grids": ("Lattice", "PeriodicPattern", "build_torus", "builtin_pattern", "pattern_from_json",
              "pattern_to_json", "restrict_pattern_to_torus", "search_patterns", "verify_pattern"),
    "sat_reduction": ("CnfInstance", "ReductionOutput", "assignment_from_set", "build_reduction",
                      "decide_sat_via_redold", "parse_dimacs", "satisfiable_bruteforce",
                      "validate_gadget_forcing"),
    "solve": ("DEFAULT_BUDGET", "SolveResult", "min_set", "min_set_bruteforce", "propagate"),
    "verify": ("Kind", "VerificationReport", "is_identifying_code", "is_locating_dominating",
               "is_old", "is_open_dominating", "is_red_old", "verify_kind", "verify_set"),
}


def test_every_package_name_resolves():
    # as an attribute, by name and through import *, each the submodule's
    # own object, and each listed by dir()
    names = set()
    for module, group in PACKAGE_NAMES.items():
        defining = importlib.import_module(f"oldsets.{module}")
        for name in group:
            namespace = {}
            exec(f"from oldsets import {name}", namespace)
            assert getattr(oldsets, name) is namespace[name] is getattr(defining, name), name
            names.add(name)
    star = {}
    exec("from oldsets import *", star)
    assert set(star) - {"__builtins__"} == names
    assert names | {"__version__"} <= set(dir(oldsets))
    with pytest.raises(AttributeError, match="module 'oldsets' has no attribute 'nonesuch'"):
        oldsets.nonesuch
    with pytest.raises(ImportError):
        exec("from oldsets import nonesuch", {})


@pytest.mark.parametrize("make, field, bad, message", [
    (lambda: graph.build_graph(2, [(0, 1)]), "adj", None, None),
    (lambda: solve.SolveResult(1, 1), "value", None, None),
    (lambda: verify.VerificationReport(False, vertex=0, count=0), "holds", {"pair": (0, 1)},
     "a failing report names exactly one vertex or one pair"),
    (lambda: grids.PeriodicPattern(grids.Lattice.SQ, (1, 2), frozenset({(0, 0)})), "cells",
     {"period": (1, 0)}, r"period must be positive, got \(1, 0\)"),
    (lambda: sat_reduction.CnfInstance(1, ((1, 1, -1),)), "clauses", {"num_vars": 0},
     "a CNF instance needs at least one variable"),
    (lambda: sat_reduction.build_reduction(sat_reduction.CnfInstance(1, ((1, 1, 1),))),
     "threshold", None, None),
], ids=["Graph", "SolveResult", "VerificationReport", "PeriodicPattern", "CnfInstance",
        "ReductionOutput"])
def test_records_are_immutable_values(make, field, bad, message):
    # two records built alike are equal, hash alike and take no new value
    # for a field or for any other attribute, Graph's cached properties
    # included; one built by _replace is checked as the constructor checks it
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    for name in (field, "constraint_masks", "_label_index", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name, "absent") == getattr(b, name, "absent")
    if bad is not None:
        with pytest.raises(ValueError, match=message):
            a._replace(**bad)


def test_readme_python_blocks_run():
    # the library overview must name only functions that exist and show
    # only assertions that hold
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 1
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_tour_runs(tmp_path, monkeypatch, capsys):
    # every oldsets line of the command tour runs in a directory holding the
    # tour's f.cnf and exits as its comment says: 1 on the line that
    # "fails", else 0, and the density that a "# 2/5" comment names
    tour = re.search(r"^## Command-line tour\n\n```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    cnf = re.search(r"^cat > f\.cnf <<'EOF'\n(.*?)^EOF$", tour.group(1), re.M | re.S)
    (tmp_path / "f.cnf").write_text(cnf.group(1))
    monkeypatch.chdir(tmp_path)
    lines = [line for line in tour.group(1).splitlines() if line.startswith("oldsets ")]
    assert len(lines) == 14
    densities = 0
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == (1 if comment.strip().startswith("fails") else 0), line
        density = re.fullmatch(r"\s*(\d+/\d+)\s*", comment)
        if density:
            assert f"density: {density.group(1)}\n" in out, line
            densities += 1
        if argv[0] == "reduce":
            report = json.loads(out)
            assert (report["vertices"], report["threshold"]) == (80, 70), line
    assert densities == 8


def _uses(tree: ast.AST, imported: dict[str, str] | None = None) -> list[tuple[str, bool, int]]:
    """(name, is_attribute, line) of each Name read and each Attribute in
    ``tree``.  Given ``imported`` (local name → the package's name), only
    the uses that reach one of those names count: the name itself, or an
    attribute of it, such as ``grids.search_patterns``."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if imported is None or node.id in imported:
                uses.append((imported[node.id] if imported else node.id, False, node.lineno))
        elif isinstance(node, ast.Attribute):
            if imported is None or (isinstance(node.value, ast.Name) and node.value.id in imported):
                uses.append((node.attr, True, node.lineno))
    return uses


def _surface(tree: ast.Module) -> dict[str, tuple[str, bool, int, int]]:
    """The public surface of a module with ``__all__``, else {}: every name
    in ``__all__``, every public top-level function and every public method
    or property of an exported class, each as qualified name → (name,
    reached only as an attribute, first and last line of its definition)."""
    exported = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    if not exported:
        return {}
    surface = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        for name in names:
            if name in exported[0] or (isinstance(node, ast.FunctionDef) and not name.startswith("_")):
                surface[name] = (name, False, node.lineno, node.end_lineno)
        if isinstance(node, ast.ClassDef) and node.name in exported[0]:
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    surface[f"{node.name}.{member.name}"] = (
                        member.name, True, member.lineno, member.end_lineno)
    assert set(exported[0]) <= set(surface), "an __all__ name that is not a def, class or assignment"
    return surface


def test_every_public_name_has_a_caller():
    # the library surface is what the CLI, the benchmark and the README
    # reach, so each name of a module's _surface must be used outside its
    # own definition: in package code (an import alone is no use), in
    # bench/*.py only where it reaches the package's own object, or in
    # README.md, in backticks or a code block.  Uses in tests do not count
    uses = []  # (name, is_attribute, file, line)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += [(name, attr, path.name, line) for name, attr, line in _uses(tree)]
    for path in sorted((README.parent / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "oldsets"
            for alias in node.names
        }
        uses += [(name, attr, f"bench/{path.name}", line) for name, attr, line in _uses(tree, imported)]
    readme = README.read_text()
    blocks = re.findall(r"^```.*?\n(.*?)^```", readme, re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S))
    documented = set(re.findall(r"\w+", " ".join(blocks + spans)))

    unused = []
    exporting = 0
    for path in sorted(PACKAGE.glob("*.py")):
        surface = _surface(ast.parse(path.read_text(), filename=str(path)))
        exporting += bool(surface)
        for qualified, (name, method, first, last) in surface.items():
            used = any(
                use == name and (attr or not method)
                and not (where == path.name and first <= line <= last)
                for use, attr, where, line in uses
            )
            if not used and name not in documented:
                unused.append(f"{path.stem}.{qualified}")
    assert exporting >= 6
    assert unused == [], f"public names that nothing but tests reaches: {unused}"


def test_every_parameter_is_read():
    # a parameter that its function never reads is a knob that does
    # nothing; self and cls are exempt, and so are lambdas, whose signature
    # their caller fixes
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [
                f"{path.name}:{fn.lineno} {fn.name}({a.arg})"
                for a in params if a.arg not in read and a.arg not in ("self", "cls")
            ]
    assert unread == []


def test_only_errors_reads_text_digits():
    # errors.decimal_int is the one reader of an integer given as text: its
    # ASCII and "_" tests written anywhere else would be a second copy of
    # the rule, free to drift from the first
    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        copies += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "isascii")
            or (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
                and node.left.value == "_" and isinstance(node.ops[0], (ast.In, ast.NotIn)))
        ]
    assert copies == []
