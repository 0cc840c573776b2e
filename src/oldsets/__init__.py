"""Open-locating-dominating sets: verifiers, exact solvers, a 3-SAT
reduction, and periodic patterns on infinite grids.

The names below are imported from their submodules on first use (PEP 562),
so ``import oldsets`` loads no submodule, and a command of :mod:`oldsets.cli`
loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each public name of the package -> the submodule that defines it
_EXPORTS = {
    "BudgetExceededError": "errors",
    "InputError": "errors",
    "builtin_graph": "fixtures",
    "g11": "fixtures",
    "Graph": "graph",
    "build_graph": "graph",
    "complete_graph": "graph",
    "cycle_graph": "graph",
    "graph_from_json": "graph",
    "graph_from_text": "graph",
    "graph_to_json": "graph",
    "mask_of": "graph",
    "path_graph": "graph",
    "vertices_of": "graph",
    "Lattice": "grids",
    "PeriodicPattern": "grids",
    "build_torus": "grids",
    "builtin_pattern": "grids",
    "pattern_from_json": "grids",
    "pattern_to_json": "grids",
    "restrict_pattern_to_torus": "grids",
    "search_patterns": "grids",
    "verify_pattern": "grids",
    "CnfInstance": "sat_reduction",
    "ReductionOutput": "sat_reduction",
    "assignment_from_set": "sat_reduction",
    "build_reduction": "sat_reduction",
    "decide_sat_via_redold": "sat_reduction",
    "parse_dimacs": "sat_reduction",
    "satisfiable_bruteforce": "sat_reduction",
    "validate_gadget_forcing": "sat_reduction",
    "DEFAULT_BUDGET": "solve",
    "SolveResult": "solve",
    "min_set": "solve",
    "min_set_bruteforce": "solve",
    "propagate": "solve",
    "Kind": "verify",
    "VerificationReport": "verify",
    "is_identifying_code": "verify",
    "is_locating_dominating": "verify",
    "is_old": "verify",
    "is_open_dominating": "verify",
    "is_red_old": "verify",
    "verify_kind": "verify",
    "verify_set": "verify",
}


def __getattr__(name: str):
    # __all__ is answered here too, so that ``from oldsets import *`` sees
    # every name without a literal list to keep in step with the table
    if name == "__all__":
        return list(_EXPORTS)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
