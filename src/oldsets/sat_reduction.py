r"""Polynomial-time reduction from 3-SAT to the minimum RED:OLD problem.

Every variable becomes an 18-vertex gadget, every clause a 4-vertex gadget,
and the built graph has a RED:OLD set of size 16N + 3M exactly when the
formula is satisfiable.

Variable gadget i: a positive literal vertex ``u_i``, a negated literal
vertex ``not_u_i``, a forcing vertex ``v_i``, and 15 shaded internals
arranged as five pendant triangles, the third vertex of each being its
outward "anchor"::

    a_t -- b_t       pendant triangle t = 0..4; a_t, b_t have degree 2
     \    /
     anchor_t

    N(v_i)     = {u_i, not_u_i, anchor_0}
    N(u_i)     = {v_i, anchor_1, anchor_2} + its clause vertices
    N(not_u_i) = {v_i, anchor_3, anchor_4} + its clause vertices

The DIMACS literal +i is the vertex u_i and -i is not_u_i
(:meth:`ReductionOutput.literal_index`).

Each pendant triangle has two degree-2 vertices, so a double-domination
argument forces all three of its members into every acceptable set: the 15
shaded internals are unconditionally required.  The forcing vertex ``v_i``
sees only {u_i, not_u_i, anchor_0}, so once anchor_0 is in,
double-dominating ``v_i`` still needs u_i or not_u_i — the truth
assignment.  The literal vertices are themselves double-dominated by their
two anchors, whichever polarity is chosen.

Clause gadget j: a pendant triangle t_j_1, t_j_2, t_j_3 (all three forced
the same way) plus the clause vertex c_j adjacent to t_j_1 only; c_j's
second dominator must be one of the clause's literal vertices, i.e. a
satisfied literal.

Each gadget is stated once, as an adjacency template whose edges
:func:`~oldsets.graph.build_graph` checks at import.  ``build_reduction``
shifts N copies of the variable template and M of the clause template
into place and ORs in each clause's literal edges, so no request re-checks
an edge the templates wrote.  One rule, ``_literal_vertex``, maps a
literal to its vertex: it wires every c_j and answers
:meth:`ReductionOutput.literal_index`, so the clause wiring is stated
once.  What the wiring is meant to force is checked on the built graph,
without search, by :func:`validate_gadget_forcing`: one propagation pass
for the forced vertices, and each forcing vertex's neighbours for the
literal choice.  The solver sweeps in the test suite check the threshold
equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, decimal_int, shown
from .graph import MAX_VERTICES, Graph, build_graph, mask_of
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

# The variable gadget's adjacency template; build_graph checks its edges
# once, at import.
_VAR_ADJ: tuple[int, ...] = build_graph(VAR_GADGET_SIZE, [
    *((a + 3 * t, b + 3 * t) for t in range(5) for a, b in ((3, 4), (3, 5), (4, 5))),
    (_FRC, _POS), (_FRC, _NEG), (_FRC, _ANCHORS[0]),
    (_POS, _ANCHORS[1]), (_POS, _ANCHORS[2]), (_NEG, _ANCHORS[3]), (_NEG, _ANCHORS[4]),
]).adj

# Local offsets inside a clause gadget: clause vertex first, then triangle.
_CLS = 0
_CLAUSE_ADJ: tuple[int, ...] = build_graph(
    CLAUSE_GADGET_SIZE, ((1, 2), (1, 3), (2, 3), (_CLS, 1))).adj

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
        # one check for the DIMACS and the library paths; type(...) is int
        # rejects bool and float, which the gadget indexing cannot take
        if type(self.num_vars) is not int:
            raise InputError(f"the number of variables must be an int, got {self.num_vars!r}")
        # tuples all the way down, so the frozen instance can be hashed
        if not isinstance(self.clauses, tuple):
            raise InputError(f"clauses must be a tuple of 3-tuples, got {shown(self.clauses)}")
        for clause in self.clauses:
            if not isinstance(clause, tuple):
                raise InputError(f"clause {shown(clause)} is not a tuple")
            if len(clause) != 3:
                raise InputError(
                    f"clause {' '.join(map(shown, clause))} has {len(clause)} literals; "
                    "this construction is specific to 3-SAT"
                )
        if self.num_vars < 1:
            raise InputError("a CNF instance needs at least one variable")
        for clause in self.clauses:
            for lit in clause:
                _check_literal(lit, self.num_vars)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def _check_literal(lit, num_vars: int) -> None:
    if type(lit) is not int:
        raise InputError(f"literal {lit!r} is not an int")
    if lit == 0 or abs(lit) > num_vars:
        raise InputError(f"literal {shown(lit)} out of range for {num_vars} variables")


def _literal_vertex(lit: int) -> int:
    """The vertex of DIMACS literal ``lit``: u_i for +i, not_u_i for -i.
    Unchecked; callers pass literals already in range."""
    return VAR_GADGET_SIZE * (abs(lit) - 1) + (_POS if lit > 0 else _NEG)


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
            counts = parts[2:] if parts[:2] == ["p", "cnf"] else []
            try:
                num_vars, num_clauses = map(decimal_int, counts)
            except ValueError:
                raise InputError(f"malformed DIMACS header {line!r}") from None
            continue
        if num_vars is None:
            raise InputError("clause data before the DIMACS header")
        for tok in line.split():
            try:
                lit = decimal_int(tok)
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
    return CnfInstance(num_vars, tuple(clauses))  # type: ignore[arg-type]


def _clause_satisfied(clause: tuple[int, int, int], assignment: tuple[bool, ...]) -> bool:
    return any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)


def _check_cnf(cnf) -> None:
    if not isinstance(cnf, CnfInstance):
        raise InputError(f"expected a CnfInstance, got {type(cnf).__name__}")


def satisfiable_bruteforce(cnf: CnfInstance) -> tuple[bool, tuple[bool, ...] | None]:
    """Decide the formula over all 2^N assignments at once: (satisfiable,
    the model with the lowest index, or None).  Assignment a sets variable
    i + 1 true iff bit i of a is set.

    Each assignment is one bit of a 2^N-bit truth table.  Literal +i's
    table has bit a set where the assignment makes it true, -i's is its
    complement, a clause's table is the OR of its literals' (so a repeated
    literal counts once) and the formula's is the AND of its clauses'.  The
    N variable tables take 2^N / 8 bytes each, about 48 MiB at the limit
    N = 24, which is checked before any table is built.
    """
    _check_cnf(cnf)
    n = cnf.num_vars
    if n > _SAT_BRUTEFORCE_MAX_VARS:
        raise InputError(f"SAT brute force is limited to N <= {_SAT_BRUTEFORCE_MAX_VARS}")
    size = 1 << n
    full = (1 << size) - 1
    # variable i's table: runs of 2^i false then 2^i true assignments,
    # doubled out to all 2^N
    tables = []
    for i in range(n):
        run = 1 << i
        t, width = ((1 << run) - 1) << run, 2 * run
        while width < size:
            t |= t << width
            width *= 2
        tables.append(t)
    models = full
    for clause in cnf.clauses:
        either = 0
        for lit in clause:
            t = tables[abs(lit) - 1]
            either |= t if lit > 0 else full ^ t
        models &= either
        if not models:
            return False, None
    a = (models & -models).bit_length() - 1
    return True, tuple(bool(a >> i & 1) for i in range(n))


@dataclass(frozen=True)
class ReductionOutput:
    """The reduction graph plus the bookkeeping needed to interpret it."""

    graph: Graph
    roles: tuple[str, ...]
    threshold: int
    cnf: CnfInstance

    def literal_index(self, lit: int) -> int:
        """The vertex of DIMACS literal ``lit``, 1 <= |lit| <= N: u_i for
        +i, not_u_i for -i."""
        _check_literal(lit, self.cnf.num_vars)
        return _literal_vertex(lit)

    def clause_vertex_index(self, j: int) -> int:
        """The clause vertex c_{j+1} of the 0-based clause index j."""
        if type(j) is not int:
            raise InputError(f"clause index {j!r} is not an int")
        if not 0 <= j < self.cnf.num_clauses:
            raise InputError(
                f"clause index {shown(j)} out of range for {self.cnf.num_clauses} clauses")
        return VAR_GADGET_SIZE * self.cnf.num_vars + CLAUSE_GADGET_SIZE * j + _CLS

    def forced_mask(self) -> int:
        """All vertices required in every acceptable set: shaded internals
        plus clause triangles."""
        return mask_of(
            v for v, r in enumerate(self.roles) if r in (ROLE_SHADED, ROLE_TRIANGLE)
        )


def build_reduction(cnf: CnfInstance) -> ReductionOutput:
    """Construct the reduction graph; linear in its 18N + 4M vertices.

    The graph is assembled from the two gadget templates, whose edges were
    checked once at import: N shifted copies of ``_VAR_ADJ``, M of
    ``_CLAUSE_ADJ``, and each clause vertex's edges to its literal
    vertices.  More than MAX_VERTICES vertices is an InputError, checked
    before anything is assembled."""
    _check_cnf(cnf)
    n_vars, n_clauses = cnf.num_vars, cnf.num_clauses
    total = VAR_GADGET_SIZE * n_vars + CLAUSE_GADGET_SIZE * n_clauses
    if total > MAX_VERTICES:
        raise InputError(f"reduction of {shown(n_vars)} vars and {n_clauses} clauses has "
                         f"{shown(total)} vertices, above the limit of {MAX_VERTICES}")
    adj: list[int] = []
    labels: list[str] = []
    for i in range(n_vars):
        base = VAR_GADGET_SIZE * i
        adj.extend(m << base for m in _VAR_ADJ)
        labels.extend([f"u_{i + 1}", f"not_u_{i + 1}", f"v_{i + 1}"])
        labels.extend(f"g_{i + 1}_{k}" for k in range(1, 16))
    for j, clause in enumerate(cnf.clauses):
        base = len(adj)
        adj.extend(m << base for m in _CLAUSE_ADJ)
        labels.append(f"c_{j + 1}")
        labels.extend(f"t_{j + 1}_{k}" for k in range(1, 4))
        c = base + _CLS
        for u in map(_literal_vertex, clause):
            # a repeated literal sets the same two bits again
            adj[c] |= 1 << u
            adj[u] |= 1 << c
    roles = (((ROLE_POSITIVE, ROLE_NEGATIVE, ROLE_FORCING) + (ROLE_SHADED,) * 15) * n_vars
             + ((ROLE_CLAUSE,) + (ROLE_TRIANGLE,) * 3) * n_clauses)
    graph = Graph(total, tuple(adj), tuple(labels))
    return ReductionOutput(graph, roles, 16 * n_vars + 3 * n_clauses, cnf)


def _check_output(out) -> None:
    if not isinstance(out, ReductionOutput):
        raise InputError(f"expected a ReductionOutput, got {type(out).__name__}")


def decide_sat_via_redold(out: ReductionOutput, budget: int = DEFAULT_BUDGET) -> bool:
    """Is the reduced formula satisfiable?  Yes iff the reduction graph has
    a RED:OLD set of 16N + 3M vertices, the threshold.

    No RED:OLD set has fewer (the forced set plus a literal per variable),
    so one of threshold size is a minimum, and the search stops at the
    first it reaches (``min_set(..., at_most=threshold)``).  A set below
    the threshold would refute that bound and raises AssertionError.
    ``assignment_from_set`` decodes such a set into a model.
    """
    _check_output(out)
    result = min_set(out.graph, Kind.RED_OLD, budget=budget, at_most=out.threshold)
    if result.feasible and result.value < out.threshold:
        raise AssertionError("a RED:OLD set fell below the forced-set bound")
    return result.feasible


def validate_gadget_forcing(out: ReductionOutput) -> bool:
    """Check the reduction's two gadget lemmas, with no search.

    a. Every shaded internal and clause-triangle vertex (``forced_mask()``)
       lies in every RED:OLD set of the reduction graph.
    b. Proof of a: one ``propagate`` pass from the empty state forces all
       of them.  With nothing excluded it forces the members of each
       constraint (an N(v), or an N(u) △ N(v) whose sides meet) that has
       only two; a RED:OLD set must hold both, so what the pass forces lies
       in every RED:OLD set, not only in every minimum one.
    c. Every RED:OLD set holds u_i or not_u_i for each variable i.  Proof:
       the forcing vertex v_i has at most one neighbour in
       ``forced_mask()`` and no other neighbour but u_i and not_u_i, so
       at most one of its neighbours is neither literal.  A RED:OLD set
       double-dominates v_i, so one of its two dominators there is u_i or
       not_u_i.

    Neither check searches, so both run at any size the reduction
    accepts.  Every ``build_reduction`` output passes them.  On a
    hand-wired graph check c. is stricter than its lemma: an extra edge
    from v_1 to a vertex of the triangle of clause (1 1 1) fails it, though
    that clause forces u_1 into every set anyway.
    """
    _check_output(out)
    g = out.graph
    required = out.forced_mask()
    fin = propagate(g, Kind.RED_OLD)
    if fin is None or fin & required != required:
        return False
    for i in range(out.cnf.num_vars):
        pair = 1 << _literal_vertex(i + 1) | 1 << _literal_vertex(-(i + 1))
        seen = g.adj[VAR_GADGET_SIZE * i + _FRC]
        if seen & ~pair & ~required or (seen & required).bit_count() > 1:
            return False
    return True


def assignment_from_set(output: ReductionOutput, s: int) -> tuple[bool, ...]:
    """Read a truth assignment off a threshold-sized RED:OLD set: variable i
    is true iff its positive literal vertex is in the set."""
    _check_output(output)
    output.graph.check_set(s)
    if s.bit_count() != output.threshold:
        raise InputError(
            f"set has {s.bit_count()} vertices, threshold is {output.threshold}"
        )
    if not is_red_old(output.graph, s).holds:
        raise InputError("set is not a RED:OLD set of the reduction graph")
    assignment = tuple(
        bool(s >> _literal_vertex(i + 1) & 1) for i in range(output.cnf.num_vars)
    )
    if not all(_clause_satisfied(c, assignment) for c in output.cnf.clauses):
        raise AssertionError("threshold-sized RED:OLD set decoded to a non-model")
    return assignment

