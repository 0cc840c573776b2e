"""The 3-SAT reduction: parsing, construction, forcing, and the threshold
equivalence (spot checks here; the sweep lives in the acceptance module)."""

import itertools
import random
import re

import pytest

from conftest import random_cnf
from reference import all_clauses_over, gadget_lemmas_by_enumeration, set_from_assignment
from oldsets import sat_reduction
from oldsets.errors import InputError
from oldsets.graph import build_graph, graph_to_json, vertices_of
from oldsets.grids import pattern_to_json
from oldsets.sat_reduction import (
    CnfInstance,
    ROLE_CLAUSE,
    ROLE_FORCING,
    ROLE_NEGATIVE,
    ROLE_POSITIVE,
    ROLE_SHADED,
    ROLE_TRIANGLE,
    VAR_GADGET_SIZE,
    ReductionOutput,
    assignment_from_set,
    build_reduction,
    decide_sat_via_redold,
    parse_dimacs,
    satisfiable_bruteforce,
    validate_gadget_forcing,
)
from oldsets.solve import _scan, min_set, propagate
from oldsets.verify import Kind, verify_set

TWO_CLAUSE_DIMACS = "p cnf 4 2\n1 2 -3 0\n-1 2 -4 0\n"


def test_parse_dimacs_example():
    cnf = parse_dimacs(TWO_CLAUSE_DIMACS)
    assert cnf.num_vars == 4 and cnf.num_clauses == 2
    assert cnf.clauses == ((1, 2, -3), (-1, 2, -4))


def test_parse_repeated_literal_clause():
    cnf = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
    assert cnf.num_vars == 1 and cnf.clauses == ((1, 1, 1),)


def test_parse_rejects_short_clause():
    with pytest.raises(InputError):
        parse_dimacs("p cnf 2 1\n1 -2 0\n")


@pytest.mark.parametrize("num_vars, clauses, message", [
    (2, ((1, True, 2),), "literal True is not an int"),
    (2, ((1, 2, 2.0),), "literal 2.0 is not an int"),
    (1, ((1, 1, "1"),), "literal '1' is not an int"),
    (True, ((1, 1, 1),), "number of variables must be an int, got True"),
    (1.5, (), "number of variables must be an int, got 1.5"),
    (2.0, ((1, 2, 2),), "number of variables must be an int, got 2.0"),
    (2, ((1, 2),), "clause 1 2 has 2 literals; this construction is specific to 3-SAT"),
], ids=["bool-literal", "float-literal", "str-literal", "bool-vars", "float-vars",
        "float-vars-with-clause", "short-clause"])
def test_cnf_instance_rejects_non_int_or_short_input(num_vars, clauses, message):
    # one check for the DIMACS and the library paths, made before any
    # gadget is built: bool is not an int here, as in Graph.check_set
    with pytest.raises(InputError, match=re.escape(message)):
        CnfInstance(num_vars, clauses)


@pytest.mark.parametrize("read, message", [
    (lambda: parse_dimacs("p cnf x 1\n"), "malformed DIMACS header 'p cnf x 1'"),
    (lambda: parse_dimacs("pxyz cnf 1 1\n1 1 1 0\n"), "malformed DIMACS header 'pxyz cnf 1 1'"),
    (lambda: parse_dimacs("p_ cnf 1 1\n1 1 1 0\n"), "malformed DIMACS header 'p_ cnf 1 1'"),
    (lambda: assignment_from_set(build_reduction(CnfInstance(1, ((1, 1, 1),))), 1 << 22),
     "vertex set 0x400000 has members outside 0..21"),
], ids=["non-int-header", "long-p-tag", "underscore-p-tag", "set-outside-graph"])
def test_reduction_inputs_refused(read, message):
    with pytest.raises(InputError, match=re.escape(message)):
        read()


@pytest.mark.parametrize("call, message", [
    (lambda: build_reduction("p cnf"), "expected a CnfInstance, got str"),
    (lambda: satisfiable_bruteforce("x"), "expected a CnfInstance, got str"),
    (lambda: validate_gadget_forcing("x"), "expected a ReductionOutput, got str"),
    (lambda: decide_sat_via_redold("x"), "expected a ReductionOutput, got str"),
    (lambda: assignment_from_set("x", 1), "expected a ReductionOutput, got str"),
    (lambda: assignment_from_set(build_reduction(CnfInstance(1, ((1, 1, 1),))), 1.5),
     "vertex set must be an int bitmask, got 1.5"),
    (lambda: graph_to_json("g"), "expected a Graph, got str"),
    (lambda: pattern_to_json("p"), "expected a PeriodicPattern, got str"),
], ids=["build_reduction", "satisfiable_bruteforce", "validate_gadget_forcing",
        "decide_sat_via_redold", "assignment_from_set", "assignment_from_set-float-set",
        "graph_to_json", "pattern_to_json"])
def test_entry_points_refuse_an_argument_of_the_wrong_type(call, message):
    # an InputError with a message, where each raised an AttributeError
    # (a TypeError for the float set)
    with pytest.raises(InputError, match=re.escape(message)):
        call()


def test_parse_rejects_no_variables():
    with pytest.raises(InputError):
        parse_dimacs("p cnf 0 0\n")


def test_parse_comments_and_multiline_clauses():
    cnf = parse_dimacs("c a comment\np cnf 2 1\n1 2\n-1 0\n")
    assert cnf.clauses == ((1, 2, -1),)


def test_parse_stops_at_satlib_trailer():
    # SATLIB uf*.cnf files end with a "%" line and then "0"
    assert parse_dimacs(TWO_CLAUSE_DIMACS + "%\n0\n\n") == parse_dimacs(TWO_CLAUSE_DIMACS)


def test_parse_errors():
    for text in (
        "1 2 3 0\n",                      # clause before header
        "p cnf 2\n",                      # malformed header
        "p cnf 2 2\n1 1 1 0\n",           # clause count mismatch
        "p cnf 2 1\n1 1 1\n",             # missing terminator
        "p cnf 2 1\n1 5 1 0\n",           # literal out of range
        "p cnf 2 1\nx y z 0\n",           # junk literal
        "p cnf 2 1\n1 1 1 0\np cnf 2 1\n",  # duplicate header
    ):
        with pytest.raises(InputError):
            parse_dimacs(text)


def test_satisfiable_bruteforce_examples():
    assert satisfiable_bruteforce(parse_dimacs(TWO_CLAUSE_DIMACS))[0] is True
    sat, witness = satisfiable_bruteforce(CnfInstance(1, ((1, 1, 1), (-1, -1, -1))))
    assert sat is False and witness is None
    assert satisfiable_bruteforce(CnfInstance(1, ()))[0] is True  # vacuous


def test_satisfiable_bruteforce_guard():
    with pytest.raises(InputError):
        satisfiable_bruteforce(CnfInstance(25, ()))


def test_build_reduction_sizes():
    out = build_reduction(parse_dimacs(TWO_CLAUSE_DIMACS))
    assert out.graph.n == 80 and out.threshold == 70
    small = build_reduction(CnfInstance(1, ((1, 1, 1),)))
    assert small.graph.n == 22 and small.threshold == 19


def test_build_reduction_refuses_an_oversized_instance_before_building(monkeypatch):
    # 18 * 40,000 vertices is far above MAX_VERTICES; the limit is checked
    # before any gadget list is built, so build_graph is never reached
    def fail(*args, **kwargs):
        raise AssertionError("build_graph called for an oversized reduction")

    monkeypatch.setattr(sat_reduction, "build_graph", fail)
    with pytest.raises(InputError, match="above the limit"):
        build_reduction(CnfInstance(40_000, ((1, 2, 3),)))


def test_reduction_roles():
    out = build_reduction(parse_dimacs(TWO_CLAUSE_DIMACS))
    counts = {r: out.roles.count(r) for r in set(out.roles)}
    assert counts[ROLE_SHADED] == 15 * 4
    assert counts[ROLE_TRIANGLE] == 3 * 2
    assert counts[ROLE_CLAUSE] == 2
    assert counts[ROLE_FORCING] == 4
    assert counts[ROLE_POSITIVE] == counts[ROLE_NEGATIVE] == 4
    # spec'd deterministic labeling
    g = out.graph
    assert g.label(out.literal_index(1)) == "u_1"
    assert g.label(out.literal_index(-3)) == "not_u_3"
    assert g.label(VAR_GADGET_SIZE * 3 + 2) == "v_4"
    assert g.label(out.clause_vertex_index(1)) == "c_2"


@pytest.mark.parametrize("call, message", [
    (lambda out: out.literal_index(0), "literal 0 out of range for 2 variables"),
    (lambda out: out.literal_index(3), "literal 3 out of range for 2 variables"),
    (lambda out: out.literal_index(-3), "literal -3 out of range for 2 variables"),
    (lambda out: out.literal_index(True), "literal True is not an int"),
    (lambda out: out.literal_index(1.0), "literal 1.0 is not an int"),
    (lambda out: out.clause_vertex_index(-1), "clause index -1 out of range for 1 clauses"),
    (lambda out: out.clause_vertex_index(1), "clause index 1 out of range for 1 clauses"),
    (lambda out: out.clause_vertex_index(False), "clause index False is not an int"),
    (lambda out: out.clause_vertex_index(0.0), "clause index 0.0 is not an int"),
], ids=["literal-0", "literal-past-N", "literal-below-minus-N", "literal-bool", "literal-float",
        "clause-negative", "clause-past-M", "clause-bool", "clause-float"])
def test_index_helpers_refuse_what_names_no_vertex_of_theirs(call, message):
    # each would name a vertex of another kind or none: literal 3 is the
    # arithmetic of c_1, clause -1 of a shaded vertex, True that of u_1
    out = build_reduction(CnfInstance(2, ((1, -2, 2),)))
    with pytest.raises(InputError, match=re.escape(message)):
        call(out)


def test_clause_vertex_attachments():
    out = build_reduction(parse_dimacs(TWO_CLAUSE_DIMACS))
    g = out.graph
    c1 = out.clause_vertex_index(0)
    lits = {g.label(v) for v in vertices_of(g.adj[c1])}
    assert lits == {"t_1_1", "u_1", "u_2", "not_u_3"}


def test_repeated_literal_gets_single_edge():
    out = build_reduction(CnfInstance(1, ((1, 1, 1),)))
    c = out.clause_vertex_index(0)
    assert out.graph.adj[c].bit_count() == 2  # one triangle vertex + one literal vertex


def test_propagation_forces_exactly_the_shaded_and_triangles():
    # all clauses have three distinct literals, so nothing else is forced
    out = build_reduction(parse_dimacs(TWO_CLAUSE_DIMACS))
    fin = propagate(out.graph, Kind.RED_OLD)
    assert fin == out.forced_mask()
    assert fin.bit_count() == 15 * 4 + 3 * 2


def test_degenerate_clause_forces_its_literal():
    # {u1,u1,u1} leaves the clause vertex with 2 candidate dominators only
    out = build_reduction(CnfInstance(1, ((1, 1, 1),)))
    fin = propagate(out.graph, Kind.RED_OLD)
    assert fin & (1 << out.literal_index(1))
    assert fin & out.forced_mask() == out.forced_mask()


def test_min_redold_meets_threshold_iff_satisfiable():
    def decide(cnf):
        return decide_sat_via_redold(build_reduction(cnf))

    assert decide(parse_dimacs(TWO_CLAUSE_DIMACS)) is True
    assert decide(CnfInstance(1, ((1, 1, 1), (-1, -1, -1)))) is False
    assert decide(CnfInstance(1, ((1, 1, 1),))) is True


def test_unsat_minimum_exceeds_threshold():
    out = build_reduction(CnfInstance(1, ((1, 1, 1), (-1, -1, -1))))
    res = min_set(out.graph, Kind.RED_OLD)
    assert res.value > out.threshold == 22


def test_unsat_chain_across_variables():
    # unit propagation chain x1=F, then x2 both ways: unsatisfiable
    cnf = CnfInstance(2, ((1, 1, 2), (1, 1, -2), (-1, -1, -1)))
    assert satisfiable_bruteforce(cnf)[0] is False
    assert decide_sat_via_redold(build_reduction(cnf)) is False
    out = build_reduction(cnf)
    assert min_set(out.graph, Kind.RED_OLD).value > out.threshold


def test_root_bound_is_the_threshold():
    # the paper's counting argument, found by the solver's packing bound:
    # on top of the forced set, every variable gadget needs u or not-u, and
    # these candidate sets are disjoint across variables
    rng = random.Random(808)
    for n in range(3, 13):
        for _ in range(3):
            out = build_reduction(random_cnf(rng, n, rng.randint(1, 5 * n)))
            g = out.graph
            fin = propagate(g, Kind.RED_OLD)
            assert _scan(g.n, 2, g.constraint_masks, fin, 0)[0] == out.threshold


def test_decide_within_node_budget():
    # N = 12, M = 40 (312 vertices): deciding this draw took 2,123 nodes
    # with the domination-only bound
    cnf = random_cnf(random.Random(0), 12, 40)
    out = build_reduction(cnf)
    assert decide_sat_via_redold(out, budget=1000) == satisfiable_bruteforce(cnf)[0]


def test_formulas_over_disjoint_variables_decide_as_their_and():
    # the reduction of two formulas over disjoint variables is the disjoint
    # union of theirs up to vertex order, so its minimum exceeds its
    # threshold by the halves' gaps combined: an oracle at N = 9 + 9, twice
    # what brute force over the graph reaches
    rng = random.Random(34)
    for wanted in [(True, True), (True, False), (False, True), (False, False)]:
        halves = []
        for sat in wanted:
            cnf = random_cnf(rng, 9, 40)
            while satisfiable_bruteforce(cnf)[0] != sat:
                cnf = random_cnf(rng, 9, 40)
            halves.append(cnf)
        gaps = []
        for cnf in halves:
            out = build_reduction(cnf)
            gaps.append(min_set(out.graph, Kind.RED_OLD).value - out.threshold)
        assert [gap == 0 for gap in gaps] == list(wanted)
        a, b = halves
        shifted = tuple(tuple(lit + 9 if lit > 0 else lit - 9 for lit in c) for c in b.clauses)
        out = build_reduction(CnfInstance(18, a.clauses + shifted))
        assert decide_sat_via_redold(out) == all(wanted)
        assert min_set(out.graph, Kind.RED_OLD).value - out.threshold == sum(gaps)


def test_single_clause_value():
    out = build_reduction(CnfInstance(1, ((1, 1, 1),)))
    assert min_set(out.graph, Kind.RED_OLD).value == 19


def test_validate_gadget_forcing_examples():
    assert validate_gadget_forcing(build_reduction(CnfInstance(1, ((1, 1, 1),))))
    assert validate_gadget_forcing(build_reduction(CnfInstance(2, ((1, -2, 2),))))


def test_validate_gadget_forcing_four_variable_instance():
    assert validate_gadget_forcing(build_reduction(parse_dimacs(TWO_CLAUSE_DIMACS)))


def test_validate_gadget_forcing_fails_a_free_vertex_labelled_shaded(monkeypatch):
    # propagation leaves u_1 free when its clause has three distinct
    # literals, so roles that call it shaded fail check b., before any search
    out = build_reduction(CnfInstance(3, ((1, 2, 3),)))
    u1 = out.literal_index(1)
    assert not propagate(out.graph, Kind.RED_OLD) >> u1 & 1
    roles = out.roles[:u1] + (ROLE_SHADED,) + out.roles[u1 + 1:]

    def no_search(*args, **kwargs):
        raise AssertionError("min_set ran")

    monkeypatch.setattr(sat_reduction, "min_set", no_search)
    assert validate_gadget_forcing(ReductionOutput(out.graph, roles, out.threshold, out.cnf)) is False


def test_validate_gadget_forcing_has_no_size_cap(monkeypatch):
    # no search, so no N <= 5 / M <= 7N cap: one propagation pass and the
    # forcing vertices' wiring check the lemmas at any size
    assert validate_gadget_forcing(build_reduction(CnfInstance(5, ())))
    assert validate_gadget_forcing(build_reduction(CnfInstance(2, ((1, -2, 2),) * 14)))
    assert validate_gadget_forcing(build_reduction(CnfInstance(6, ())))
    assert validate_gadget_forcing(build_reduction(CnfInstance(2, ((1, -2, 2),) * 15)))

    def no_search(*args, **kwargs):
        raise AssertionError("min_set ran")

    monkeypatch.setattr(sat_reduction, "min_set", no_search)
    assert validate_gadget_forcing(build_reduction(random_cnf(random.Random(40), 40, 170)))


def _with_edge(out: ReductionOutput, a: str, b: str) -> ReductionOutput:
    g = out.graph
    graph = build_graph(g.n, g.edges() + [(g.index_of(a), g.index_of(b))], g.labels)
    return ReductionOutput(graph, out.roles, out.threshold, out.cnf)


@pytest.mark.parametrize("clauses, shaded", [
    (((1, 1, 1),), "g_1_2"),
    (((1, -2, 2),), "g_1_2"),
    (((1, 2, 3),), "g_1_2"),
    (((1, 2, 3), (-1, -2, -3)), "g_1_2"),
    (((1, -2, 2),), "g_1_6"),
    (((1, 2, 3),), "g_1_6"),
    (((1, 2, 3), (-1, -2, -3)), "g_1_6"),
], ids=["1-1-1", "1-neg2-2", "1-2-3", "1-2-3-and-negations",
        "anchor-1-neg2-2", "anchor-1-2-3", "anchor-1-2-3-and-negations"])
def test_validate_gadget_forcing_agrees_with_enumeration_on_a_tampered_output(clauses, shaded):
    # an edge from v_1 to a shaded vertex gives v_1 two forced dominators,
    # and both the new check and the optima refuse it: through propagation
    # for g_1_2, whose pendant triangle loses its forcing, and through the
    # literal lemma alone for the anchor g_1_6, which propagation still forces
    out = build_reduction(CnfInstance(max(abs(lit) for c in clauses for lit in c), clauses))
    assert validate_gadget_forcing(out) is gadget_lemmas_by_enumeration(out) is True
    tampered = _with_edge(out, "v_1", shaded)
    assert validate_gadget_forcing(tampered) is gadget_lemmas_by_enumeration(tampered) is False


def test_validate_gadget_forcing_is_stricter_than_the_lemma_on_hand_wiring():
    # clause (1 1 1) forces u_1 into every set, so every optimum still holds
    # a literal of x1; the wiring check refuses the extra edge all the same
    out = _with_edge(build_reduction(CnfInstance(1, ((1, 1, 1),))), "v_1", "t_1_1")
    assert gadget_lemmas_by_enumeration(out) is True
    assert validate_gadget_forcing(out) is False


def test_assignment_from_set():
    cnf = parse_dimacs(TWO_CLAUSE_DIMACS)
    out = build_reduction(cnf)
    res = min_set(out.graph, Kind.RED_OLD)
    assignment = assignment_from_set(out, res.witness)
    for clause in cnf.clauses:
        assert any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)


def test_assignment_from_set_rejects_wrong_size():
    out = build_reduction(CnfInstance(1, ((1, 1, 1),)))
    with pytest.raises(InputError):
        assignment_from_set(out, out.graph.all_mask())  # size 22 != 19


def test_assignment_from_set_rejects_non_redold():
    out = build_reduction(CnfInstance(1, ((1, 1, 1),)))
    # right size, wrong set: drop one forced vertex, add the forcing vertex
    bad = (out.forced_mask() | 1 << out.literal_index(1)) & ~(1 << out.graph.index_of("g_1_1"))
    bad |= 1 << out.graph.index_of("v_1")
    assert bad.bit_count() == out.threshold
    with pytest.raises(InputError):
        assignment_from_set(out, bad)


def test_unique_literal_choice_at_threshold():
    # at the threshold each gadget holds exactly one of u_i / not_u_i
    cnf = parse_dimacs(TWO_CLAUSE_DIMACS)
    out = build_reduction(cnf)
    res = min_set(out.graph, Kind.RED_OLD, enumerate_all=True)
    for s in res.all_minimum_sets:
        assert s.bit_count() == out.threshold
        for i in range(cnf.num_vars):
            pos = s >> out.literal_index(i + 1) & 1
            neg = s >> out.literal_index(-(i + 1)) & 1
            assert pos + neg == 1


def test_set_from_assignment_decides_every_assignment_without_search():
    # both directions of the reduction at the set level: a model gives a
    # threshold-sized RED:OLD set that decodes back to it, and a non-model
    # leaves the clause vertex of its first unsatisfied clause with one
    # dominator, its triangle neighbour
    rng = random.Random(2201)
    models = non_models = 0
    for n in range(1, 9):
        for ratio in (1, 3, 4.26, 6):
            cnf = random_cnf(rng, n, round(ratio * n))
            out = build_reduction(cnf)
            for assignment in itertools.product((False, True), repeat=n):
                s = set_from_assignment(out, assignment)
                unsatisfied = [
                    j for j, clause in enumerate(cnf.clauses)
                    if not any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)
                ]
                rep = verify_set(out.graph, s, 2)
                if unsatisfied:
                    non_models += 1
                    assert not rep.holds
                    assert (rep.vertex, rep.count) == (out.clause_vertex_index(unsatisfied[0]), 1)
                else:
                    models += 1
                    assert rep.holds and s.bit_count() == out.threshold
                    assert assignment_from_set(out, s) == assignment
    assert models > 0 and non_models > 0


def test_all_clauses_over_counts():
    # 3-multisets over 2N literals
    assert len(all_clauses_over(1)) == 4
    assert len(all_clauses_over(2)) == 20


def test_unique_choice_instance_decodes_to_true():
    out = build_reduction(CnfInstance(1, ((1, 1, 1),)))
    res = min_set(out.graph, Kind.RED_OLD)
    assert assignment_from_set(out, res.witness) == (True,)
