"""Open-locating-dominating sets: verifiers, exact solvers, a 3-SAT
reduction, and periodic patterns on infinite grids."""

from .errors import BudgetExceededError, InputError
from .fixtures import builtin_graph, g11
from .graph import (
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    graph_from_json,
    graph_from_text,
    graph_to_json,
    mask_of,
    path_graph,
    vertices_of,
)
from .grids import (
    Lattice,
    PeriodicPattern,
    build_torus,
    builtin_pattern,
    pattern_from_json,
    pattern_to_json,
    restrict_pattern_to_torus,
    search_patterns,
    verify_pattern,
)
from .sat_reduction import (
    CnfInstance,
    ReductionOutput,
    assignment_from_set,
    build_reduction,
    decide_sat_via_redold,
    parse_dimacs,
    satisfiable_bruteforce,
    validate_gadget_forcing,
)
from .solve import (
    DEFAULT_BUDGET,
    SolveResult,
    min_set,
    min_set_bruteforce,
    propagate,
)
from .verify import (
    Kind,
    VerificationReport,
    is_identifying_code,
    is_locating_dominating,
    is_old,
    is_open_dominating,
    is_red_old,
    verify_kind,
    verify_set,
)

__version__ = "0.1.0"
