r"""Polynomial-time reduction from 3-SAT to the minimum RED:OLD problem.

Every variable becomes an 18-vertex gadget, every clause a 4-vertex gadget,
and the built graph has a RED:OLD set of size 16N + 3M exactly when the
formula is satisfiable.

Variable gadget: a positive literal vertex ``u``, a negated literal vertex
``nu``, a forcing vertex ``w``, and 15 shaded internals arranged as five
pendant triangles, the third vertex of each being its outward "anchor"::

    a_t -- b_t       pendant triangle t = 0..4; a_t, b_t have degree 2
     \    /
     anchor_t

    N(w)  = {u, nu, anchor_0}
    N(u)  = {w, anchor_1, anchor_2} + its clause vertices
    N(nu) = {w, anchor_3, anchor_4} + its clause vertices

Each pendant triangle has two degree-2 vertices, so a double-domination
argument forces all three of its members into every acceptable set: the 15
shaded internals are unconditionally required.  The forcing vertex ``w``
sees only {u, nu, anchor_0}, so once anchor_0 is in, double-dominating
``w`` still needs u or nu — the truth assignment.  The literal vertices are
themselves double-dominated by their two anchors, whichever polarity is
chosen.

Clause gadget: a pendant triangle t1,t2,t3 (all three forced the same way)
plus the clause vertex c adjacent to t1 only; c's second dominator must be
one of the clause's literal vertices, i.e. a satisfied literal.

The wiring is treated as untrusted and is validated computationally by
:func:`validate_gadget_forcing` and the solver sweeps in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .graph import Graph, build_graph, mask_of, vertices_of
from .solve import DEFAULT_BUDGET, min_set, propagate
from .verify import Kind, is_red_old

__all__ = [
    "CnfInstance",
    "ReductionOutput",
    "parse_dimacs",
    "satisfiable_bruteforce",
    "build_reduction",
    "validate_gadget_forcing",
    "decide_sat_via_redold",
    "assignment_from_set",
    "VAR_GADGET_SIZE",
    "CLAUSE_GADGET_SIZE",
]

VAR_GADGET_SIZE = 18
CLAUSE_GADGET_SIZE = 4

_SAT_BRUTEFORCE_MAX_VARS = 24

# Local vertex offsets inside a variable gadget.
_POS = 0  # u_i
_NEG = 1  # not_u_i
_FRC = 2  # v_i, the vertex whose double domination forces a literal choice
_ANCHORS = (5, 8, 11, 14, 17)  # third vertex of each pendant triangle

_VAR_EDGES_LOCAL: tuple[tuple[int, int], ...] = tuple(
    [(3 + 3 * t, 4 + 3 * t) for t in range(5)]
    + [(3 + 3 * t, 5 + 3 * t) for t in range(5)]
    + [(4 + 3 * t, 5 + 3 * t) for t in range(5)]
    + [(_FRC, _POS), (_FRC, _NEG), (_FRC, _ANCHORS[0])]
    + [(_POS, _ANCHORS[1]), (_POS, _ANCHORS[2])]
    + [(_NEG, _ANCHORS[3]), (_NEG, _ANCHORS[4])]
)

# Local offsets inside a clause gadget: clause vertex first, then triangle.
_CLS = 0
_CLAUSE_EDGES_LOCAL: tuple[tuple[int, int], ...] = ((1, 2), (1, 3), (2, 3), (_CLS, 1))

ROLE_POSITIVE = "positive_literal"
ROLE_NEGATIVE = "negative_literal"
ROLE_FORCING = "forcing"
ROLE_SHADED = "shaded"
ROLE_CLAUSE = "clause"
ROLE_TRIANGLE = "triangle"


@dataclass(frozen=True)
class CnfInstance:
    """A 3-CNF formula: clauses are triples of DIMACS-style signed literals
    (literal ``+v`` / ``-v`` for 1-based variable v)."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise InputError("a CNF instance needs at least one variable")
        for clause in self.clauses:
            if len(clause) != 3:
                raise InputError(f"clause {clause} does not have exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise InputError(f"literal {lit} out of range for {self.num_vars} variables")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF; every clause must have exactly three literals.

    Reading stops at a line that is exactly ``%``: SATLIB files end with
    that line and a stray ``0``.
    """
    num_vars = num_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line == "%":
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise InputError("duplicate DIMACS header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InputError(f"malformed DIMACS header {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise InputError(f"malformed DIMACS header {line!r}") from None
            continue
        if num_vars is None:
            raise InputError("clause data before the DIMACS header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise InputError(f"malformed literal {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(current))
                current.clear()
            else:
                current.append(lit)
    if num_vars is None:
        raise InputError("missing DIMACS header")
    if current:
        raise InputError("last clause is not 0-terminated")
    if num_clauses != len(clauses):
        raise InputError(f"header promises {num_clauses} clauses, found {len(clauses)}")
    for clause in clauses:
        if len(clause) != 3:
            raise InputError(
                f"clause {' '.join(map(str, clause))} has {len(clause)} literals; "
                "this construction is specific to 3-SAT"
            )
    return CnfInstance(num_vars, tuple(clauses))  # type: ignore[arg-type]


def _clause_satisfied(clause: tuple[int, int, int], assignment: tuple[bool, ...]) -> bool:
    return any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)


def satisfiable_bruteforce(cnf: CnfInstance) -> tuple[bool, tuple[bool, ...] | None]:
    """Try all 2^N assignments; returns (satisfiable, first witness or None)."""
    if cnf.num_vars > _SAT_BRUTEFORCE_MAX_VARS:
        raise InputError(f"SAT brute force is limited to N <= {_SAT_BRUTEFORCE_MAX_VARS}")
    for bits in range(1 << cnf.num_vars):
        assignment = tuple(bool(bits >> i & 1) for i in range(cnf.num_vars))
        if all(_clause_satisfied(c, assignment) for c in cnf.clauses):
            return True, assignment
    return False, None


@dataclass(frozen=True)
class ReductionOutput:
    """The reduction graph plus the bookkeeping needed to interpret it."""

    graph: Graph
    roles: tuple[str, ...]
    threshold: int
    cnf: CnfInstance

    @property
    def num_vars(self) -> int:
        return self.cnf.num_vars

    @property
    def num_clauses(self) -> int:
        return self.cnf.num_clauses

    def pos_literal_index(self, var: int) -> int:
        return VAR_GADGET_SIZE * var + _POS

    def neg_literal_index(self, var: int) -> int:
        return VAR_GADGET_SIZE * var + _NEG

    def forcing_index(self, var: int) -> int:
        return VAR_GADGET_SIZE * var + _FRC

    def clause_vertex_index(self, j: int) -> int:
        return VAR_GADGET_SIZE * self.num_vars + CLAUSE_GADGET_SIZE * j + _CLS

    def literal_index(self, lit: int) -> int:
        var = abs(lit) - 1
        return self.pos_literal_index(var) if lit > 0 else self.neg_literal_index(var)

    def forced_mask(self) -> int:
        """All vertices required in every acceptable set: shaded internals
        plus clause triangles."""
        return mask_of(
            v for v, r in enumerate(self.roles) if r in (ROLE_SHADED, ROLE_TRIANGLE)
        )


def build_reduction(cnf: CnfInstance) -> ReductionOutput:
    """Construct the reduction graph; linear in its 18N + 4M vertices."""
    n_vars, n_clauses = cnf.num_vars, cnf.num_clauses
    total = VAR_GADGET_SIZE * n_vars + CLAUSE_GADGET_SIZE * n_clauses
    edges: list[tuple[int, int]] = []
    labels: list[str] = []
    roles: list[str] = []

    for i in range(n_vars):
        base = VAR_GADGET_SIZE * i
        edges.extend((base + a, base + b) for a, b in _VAR_EDGES_LOCAL)
        labels.extend([f"u_{i + 1}", f"not_u_{i + 1}", f"v_{i + 1}"])
        labels.extend(f"g_{i + 1}_{k}" for k in range(1, 16))
        roles.extend([ROLE_POSITIVE, ROLE_NEGATIVE, ROLE_FORCING] + [ROLE_SHADED] * 15)

    clause_base = VAR_GADGET_SIZE * n_vars
    for j, clause in enumerate(cnf.clauses):
        base = clause_base + CLAUSE_GADGET_SIZE * j
        edges.extend((base + a, base + b) for a, b in _CLAUSE_EDGES_LOCAL)
        labels.append(f"c_{j + 1}")
        labels.extend(f"t_{j + 1}_{k}" for k in range(1, 4))
        roles.extend([ROLE_CLAUSE] + [ROLE_TRIANGLE] * 3)
        for lit in sorted(set(clause), key=clause.index):
            var = abs(lit) - 1
            lit_vertex = VAR_GADGET_SIZE * var + (_POS if lit > 0 else _NEG)
            edges.append((base + _CLS, lit_vertex))

    graph = build_graph(total, edges, labels)
    out = ReductionOutput(graph, tuple(roles), 16 * n_vars + 3 * n_clauses, cnf)
    _check_structure(out)
    return out


def _check_structure(out: ReductionOutput) -> None:
    g, cnf = out.graph, out.cnf
    if g.n != VAR_GADGET_SIZE * cnf.num_vars + CLAUSE_GADGET_SIZE * cnf.num_clauses:
        raise AssertionError("reduction graph has the wrong vertex count")
    for j, clause in enumerate(cnf.clauses):
        c = out.clause_vertex_index(j)
        in_gadget = g.adj[c] & mask_of(range(c, c + CLAUSE_GADGET_SIZE))
        if in_gadget.bit_count() != 1:
            raise AssertionError("clause vertex must touch exactly one triangle vertex")
        lits = {out.literal_index(lit) for lit in clause}
        if g.adj[c] & ~in_gadget != mask_of(lits):
            raise AssertionError("clause vertex attached to the wrong literals")


def decide_sat_via_redold(out: ReductionOutput, budget: int = DEFAULT_BUDGET) -> bool:
    """Is the reduced formula satisfiable?  Yes iff the reduction graph's
    minimum RED:OLD set hits the 16N + 3M threshold."""
    result = min_set(out.graph, Kind.RED_OLD, budget=budget)
    if not result.feasible:
        raise AssertionError("reduction graphs always admit a RED:OLD set")
    if result.value < out.threshold:
        raise AssertionError("minimum fell below the forced-set bound")
    return result.value == out.threshold


def validate_gadget_forcing(out: ReductionOutput, budget: int = DEFAULT_BUDGET) -> bool:
    """Computational check that the gadget tables behave as designed.

    For the reduction of a small instance (up to N=5, M=7N) this demands:

    a. every shaded internal and clause-triangle vertex is in every minimum
       RED:OLD set of the reduction graph;
    b. propagation from the empty state already forces all of them;
    c. every minimum set contains u_i or not_u_i for each variable i.
    """
    if out.num_vars > 5 or out.num_clauses > 7 * out.num_vars:
        raise InputError("gadget validation is intended for instances up to N=5, M=7N")
    g = out.graph
    required = out.forced_mask()

    fin = propagate(g, Kind.RED_OLD)
    if fin is None or fin & required != required:
        return False

    optima = min_set(g, Kind.RED_OLD, enumerate_all=True, budget=budget)
    if not optima.feasible:
        return False
    # membership in every optimum, deciding each vertex by one excluded solve
    # against the single base value
    for v in vertices_of(required):
        without = min_set(g, Kind.RED_OLD, budget=budget, forced_out=1 << v)
        if without.feasible and without.value <= optima.value:
            return False

    for s in optima.all_minimum_sets:
        for i in range(out.num_vars):
            pair = (1 << out.pos_literal_index(i)) | (1 << out.neg_literal_index(i))
            if not s & pair:
                return False
    return True


def assignment_from_set(output: ReductionOutput, s: int) -> tuple[bool, ...]:
    """Read a truth assignment off a threshold-sized RED:OLD set: variable i
    is true iff its positive literal vertex is in the set."""
    if s & ~output.graph.all_mask():
        raise InputError("set contains vertices outside the reduction graph")
    if s.bit_count() != output.threshold:
        raise InputError(
            f"set has {s.bit_count()} vertices, threshold is {output.threshold}"
        )
    if not is_red_old(output.graph, s).holds:
        raise InputError("set is not a RED:OLD set of the reduction graph")
    assignment = tuple(
        bool(s >> output.pos_literal_index(i) & 1) for i in range(output.num_vars)
    )
    if not all(_clause_satisfied(c, assignment) for c in output.cnf.clauses):
        raise AssertionError("threshold-sized RED:OLD set decoded to a non-model")
    return assignment


def all_clauses_over(num_vars: int) -> list[tuple[int, int, int]]:
    """Every 3-literal clause (as a sorted multiset) over ``num_vars``
    variables; handy for exhaustive desk-scale sweeps."""
    lits = [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]
    lits.sort(key=lambda l: (abs(l), l < 0))
    return list(itertools.combinations_with_replacement(lits, 3))
