"""The 3-SAT reduction: parsing, construction, forcing, and the threshold
equivalence (spot checks here; the sweep lives in the acceptance module)."""

import random

import pytest

from oldsets.errors import InputError
from oldsets.graph import vertices_of
from oldsets.sat_reduction import (
    CnfInstance,
    ROLE_CLAUSE,
    ROLE_FORCING,
    ROLE_NEGATIVE,
    ROLE_POSITIVE,
    ROLE_SHADED,
    ROLE_TRIANGLE,
    all_clauses_over,
    assignment_from_set,
    build_reduction,
    decide_sat_via_redold,
    parse_dimacs,
    satisfiable_bruteforce,
    validate_gadget_forcing,
)
from oldsets.solve import _scan, min_set, propagate
from oldsets.verify import Kind

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
    assert g.label(out.pos_literal_index(0)) == "u_1"
    assert g.label(out.neg_literal_index(2)) == "not_u_3"
    assert g.label(out.forcing_index(3)) == "v_4"
    assert g.label(out.clause_vertex_index(1)) == "c_2"


def test_clause_vertex_attachments():
    out = build_reduction(parse_dimacs(TWO_CLAUSE_DIMACS))
    g = out.graph
    c1 = out.clause_vertex_index(0)
    lits = {g.label(v) for v in vertices_of(g.adj[c1])}
    assert lits == {"t_1_1", "u_1", "u_2", "not_u_3"}


def test_repeated_literal_gets_single_edge():
    out = build_reduction(CnfInstance(1, ((1, 1, 1),)))
    c = out.clause_vertex_index(0)
    assert out.graph.degree(c) == 2  # one triangle vertex + one literal vertex


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
    assert fin & (1 << out.pos_literal_index(0))
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


def _random_cnf(rng, n, m):
    # m clauses of three literals drawn over n variables, repeats allowed
    lits = [v for v in range(1, n + 1)] + [-v for v in range(1, n + 1)]
    return CnfInstance(n, tuple(tuple(rng.choice(lits) for _ in range(3)) for _ in range(m)))


def test_root_bound_is_the_threshold():
    # the paper's counting argument, found by the solver's packing bound:
    # on top of the forced set, every variable gadget needs u or not-u, and
    # these candidate sets are disjoint across variables
    rng = random.Random(808)
    for n in range(3, 13):
        for _ in range(3):
            out = build_reduction(_random_cnf(rng, n, rng.randint(1, 5 * n)))
            g = out.graph
            fin = propagate(g, Kind.RED_OLD)
            assert _scan(g.n, 2, g.constraint_masks, fin, 0)[0] == out.threshold


def test_decide_within_node_budget():
    # N = 12, M = 40 (312 vertices): deciding this draw took 2,123 nodes
    # with the domination-only bound
    cnf = _random_cnf(random.Random(0), 12, 40)
    out = build_reduction(cnf)
    assert decide_sat_via_redold(out, budget=1000) == satisfiable_bruteforce(cnf)[0]


def test_single_clause_value():
    out = build_reduction(CnfInstance(1, ((1, 1, 1),)))
    assert min_set(out.graph, Kind.RED_OLD).value == 19


def test_validate_gadget_forcing_examples():
    assert validate_gadget_forcing(build_reduction(CnfInstance(1, ((1, 1, 1),))))
    assert validate_gadget_forcing(build_reduction(CnfInstance(2, ((1, -2, 2),))))


def test_validate_gadget_forcing_four_variable_instance():
    assert validate_gadget_forcing(build_reduction(parse_dimacs(TWO_CLAUSE_DIMACS)))


def test_validate_gadget_forcing_guard():
    # the cap is N <= 5 and M <= 7N
    with pytest.raises(InputError):
        validate_gadget_forcing(build_reduction(CnfInstance(6, ())))
    with pytest.raises(InputError):
        validate_gadget_forcing(build_reduction(CnfInstance(2, ((1, -2, 2),) * 15)))
    assert validate_gadget_forcing(build_reduction(CnfInstance(5, ())))
    assert validate_gadget_forcing(build_reduction(CnfInstance(2, ((1, -2, 2),) * 14)))


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
    bad = (out.forced_mask() | 1 << out.pos_literal_index(0)) & ~(1 << out.graph.index_of("g_1_1"))
    bad |= 1 << out.forcing_index(0)
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
            pos = s >> out.pos_literal_index(i) & 1
            neg = s >> out.neg_literal_index(i) & 1
            assert pos + neg == 1


def test_all_clauses_over_counts():
    # 3-multisets over 2N literals
    assert len(all_clauses_over(1)) == 4
    assert len(all_clauses_over(2)) == 20


def test_unique_choice_instance_decodes_to_true():
    out = build_reduction(CnfInstance(1, ((1, 1, 1),)))
    res = min_set(out.graph, Kind.RED_OLD)
    assert assignment_from_set(out, res.witness) == (True,)
