"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is exact (integer or rational equality); the only
numeric budgets are the stated wall-clock limits.
"""

import itertools
import random
import time
from fractions import Fraction

from conftest import named_fixture_graphs, random_graph, set_of
from reference import (
    all_clauses_over,
    builtin_kind,
    cross_check_dims,
    gadget_lemmas_by_enumeration,
    is_old_definitional,
    is_old_via_collection,
    is_red_old_definitional,
)
from oldsets.fixtures import g11
from oldsets.grids import (
    BUILTIN_PATTERN_NAMES,
    build_torus,
    builtin_pattern,
    restrict_pattern_to_torus,
    search_patterns,
    verify_pattern,
)
from oldsets.grids import Lattice
from oldsets.sat_reduction import (
    CnfInstance,
    build_reduction,
    satisfiable_bruteforce,
    validate_gadget_forcing,
)
from oldsets.solve import min_set, min_set_bruteforce, propagate
from oldsets.verify import (
    Kind,
    is_old,
    is_red_old,
    verify_set,
)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_g11_certificates():
    """OLD(g11) = 6; RED:OLD(g11) = 9 with exactly one optimum; < 10 s."""
    start = time.monotonic()
    g = g11()
    old = min_set(g, Kind.OLD)
    red = min_set(g, Kind.RED_OLD, enumerate_all=True)
    unique = set_of(g, "v1", "v2", "v3", "v5", "v6", "v7", "v9", "v10", "v11")
    elapsed = time.monotonic() - start
    ok = (
        old.value == 6
        and red.value == 9
        and red.all_minimum_sets == (unique,)
        and elapsed < 10.0
    )
    _report("criterion 1: g11 certificates (OLD=6, RED:OLD=9 unique)", ok, f"{elapsed:.2f}s")


def test_criterion_2_characterization_equivalences():
    """Three OLD formulations and both RED:OLD formulations agree on 500
    random graphs with n <= 6, all subsets; zero disagreements."""
    rng = random.Random(20260810)
    disagreements = 0
    graphs_checked = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        graphs_checked += 1
        for s in range(1 << n):
            a = is_old(g, s).holds
            if a != is_old_definitional(g, s) or a != is_old_via_collection(g, s):
                disagreements += 1
            if is_red_old(g, s).holds != is_red_old_definitional(g, s).holds:
                disagreements += 1
    ok = disagreements == 0 and graphs_checked == 500
    _report(
        "criterion 2: characterization equivalences on n<=6",
        ok,
        f"{graphs_checked} graphs, {disagreements} disagreements",
    )


def test_criterion_3_solver_oracle_agreement():
    """min_set equals min_set_bruteforce for both kinds on 200 random graphs
    with n <= 12 plus the named fixtures; < 5 min."""
    start = time.monotonic()
    rng = random.Random(987654)
    disagreements = 0
    runs = 0
    instances = [random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.35, 0.5, 0.7]))
                 for _ in range(200)]
    instances.extend(named_fixture_graphs().values())
    for g in instances:
        for kind in Kind:
            a = min_set(g, kind)
            b = min_set_bruteforce(g, kind)
            runs += 1
            if a.value != b.value or a.witness != b.witness:
                disagreements += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and runs == 2 * (200 + 5) and elapsed < 300.0
    _report(
        "criterion 3: solver-oracle agreement (200 random + fixtures)",
        ok,
        f"{runs} solves, {disagreements} disagreements, {elapsed:.1f}s",
    )


def _reduction_instances():
    # exhaustive N=2, M<=2 (all 20 clauses; every single and unordered pair)
    clauses2 = all_clauses_over(2)
    for c in clauses2:
        yield CnfInstance(2, (c,))
    for a, b in itertools.combinations_with_replacement(clauses2, 2):
        yield CnfInstance(2, (a, b))
    # 20 seeded random N=3, M=2 instances
    rng = random.Random(424242)
    lits3 = [v for v in range(1, 4)] + [-v for v in range(1, 4)]
    for _ in range(20):
        clauses = tuple(tuple(rng.choice(lits3) for _ in range(3)) for _ in range(2))
        yield CnfInstance(3, clauses)
    # 40 seeded random instances each for N=4 and N=5, M from N to 7N, so
    # that unsatisfiable formulas occur too
    rng = random.Random(20261018)
    for n in (4, 5):
        lits = [v for v in range(1, n + 1)] + [-v for v in range(1, n + 1)]
        for _ in range(40):
            m = rng.randint(n, 7 * n)
            yield CnfInstance(n, tuple(tuple(rng.choice(lits) for _ in range(3)) for _ in range(m)))


def test_criterion_4_reduction_iff_at_desk_scale():
    """decide_sat_via_redold == satisfiable_bruteforce, minimum >= 16N+3M,
    |V| = 18N+4M, over the exhaustive N=2 family and random N=3, N=4 and
    N=5 instances; < 30 min."""
    start = time.monotonic()
    failures = 0
    count = 0
    unsat = 0
    for cnf in _reduction_instances():
        out = build_reduction(cnf)
        n_expected = 18 * cnf.num_vars + 4 * cnf.num_clauses
        res = min_set(out.graph, Kind.RED_OLD)
        sat, _ = satisfiable_bruteforce(cnf)
        count += 1
        unsat += not sat
        if out.graph.n != n_expected:
            failures += 1
        elif not res.feasible or res.value < out.threshold:
            failures += 1
        elif (res.value == out.threshold) != sat:
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and count == 20 + 210 + 20 + 40 + 40 and unsat > 10 and elapsed < 1800.0
    _report(
        "criterion 4: reduction iff (exhaustive N=2 M<=2 + random N=3 M=2, N=4-5 M<=7N)",
        ok,
        f"{count} instances ({unsat} unsatisfiable), {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_5_gadget_forcing():
    """validate_gadget_forcing passes on N <= 2, M <= 2 instances and on
    seeded random N = 4 and N = 5 instances with M from N to 7N, some of
    them unsatisfiable, and so does the check over every optimum
    (gadget_lemmas_by_enumeration): the forced vertices sit in every
    optimum, and at least one literal vertex per variable does too.
    Propagation from the empty state forces exactly the shaded/triangle
    role set when clauses have three distinct literals."""
    instances = []
    clauses1 = all_clauses_over(1)
    instances += [CnfInstance(1, (c,)) for c in clauses1]
    instances += [CnfInstance(1, pair) for pair in itertools.combinations_with_replacement(clauses1, 2)]
    # every clause over two variables with three distinct literals, alone and
    # in pairs: these are the instances where propagation must force nothing
    # beyond the shaded/triangle roles
    distinct2 = [c for c in all_clauses_over(2) if len(set(c)) == 3]
    instances += [CnfInstance(2, (c,)) for c in distinct2]
    instances += [CnfInstance(2, pair) for pair in itertools.combinations(distinct2, 2)]
    rng = random.Random(5150)
    clauses2 = all_clauses_over(2)
    picks = [CnfInstance(2, (rng.choice(clauses2),)) for _ in range(6)]
    picks += [CnfInstance(2, (rng.choice(clauses2), rng.choice(clauses2))) for _ in range(6)]
    instances += picks
    instances.append(CnfInstance(2, ((1, -2, 2),)))
    # 20 seeded random formulas each at N = 4 and N = 5, M from N to 7N
    rng = random.Random(4545)
    for n in (4, 5):
        lits = [v for v in range(1, n + 1)] + [-v for v in range(1, n + 1)]
        for _ in range(20):
            m = rng.randint(n, 7 * n)
            instances.append(
                CnfInstance(n, tuple(tuple(rng.choice(lits) for _ in range(3)) for _ in range(m))))
    unsat = sum(not satisfiable_bruteforce(cnf)[0] for cnf in instances)

    failures = 0
    exact_checked = 0
    for cnf in instances:
        out = build_reduction(cnf)
        if not (validate_gadget_forcing(out) and gadget_lemmas_by_enumeration(out)):
            failures += 1
            continue
        fin = propagate(out.graph, Kind.RED_OLD)
        required = out.forced_mask()
        if fin is None or fin & required != required:
            failures += 1
        elif all(len(set(c)) == 3 for c in cnf.clauses):
            # no degenerate clause: propagation must force nothing beyond
            # the shaded internals and clause triangles
            exact_checked += 1
            if fin != required:
                failures += 1
    ok = failures == 0 and exact_checked > 0 and unsat > 0
    _report(
        "criterion 5: gadget forcing and propagation exactness",
        ok,
        f"{len(instances)} instances ({unsat} unsatisfiable), {exact_checked} exact-set checks, "
        f"{failures} failures",
    )


def test_criterion_6_grid_densities():
    """All eight builtin patterns verify with the exact densities
    2/5, 1/2 (SQ); 1/2, 2/3 (HEX); 4/13, 3/8 (TRI); 1/4, 1/3 (KING);
    the KING 1/3 pattern is produced by search_patterns first; < 1 min."""
    start = time.monotonic()
    expected = {
        "sq-old": Fraction(2, 5), "sq-redold": Fraction(1, 2),
        "hex-old": Fraction(1, 2), "hex-redold": Fraction(2, 3),
        "tri-old": Fraction(4, 13), "tri-redold": Fraction(3, 8),
        "king-old": Fraction(1, 4), "king-redold": Fraction(1, 3),
    }
    failures = []
    searched = search_patterns(Lattice.KING, Kind.RED_OLD, (6, 6), Fraction(1, 3))
    if searched is None or searched.density() != Fraction(1, 3):
        failures.append("king search")
    else:
        builtin = builtin_pattern("king-redold")
        if searched.period != builtin.period or searched.cells != builtin.cells:
            failures.append("king search != frozen builtin")
    for name in BUILTIN_PATTERN_NAMES:
        p = builtin_pattern(name)
        if p.density() != expected[name]:
            failures.append(f"{name} density")
        if not verify_pattern(p, builtin_kind(name)).holds:
            failures.append(f"{name} verification")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report("criterion 6: grid densities (8 builtins, exact rationals)",
            ok, f"{elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_torus_cross_check():
    """For every builtin pattern the infinite local check agrees with the
    finite torus verifier at 3x-period dimensions; zero disagreements."""
    disagreements = 0
    for name in BUILTIN_PATTERN_NAMES:
        p = builtin_pattern(name)
        kind = builtin_kind(name)
        w, h = cross_check_dims(p)
        torus = build_torus(p.lattice, w, h)
        s = restrict_pattern_to_torus(p, w, h)
        local = verify_pattern(p, kind).holds
        finite = verify_set(torus, s, kind.fold).holds
        if local != finite:
            disagreements += 1
    _report("criterion 7: torus cross-check at 3x periods",
            disagreements == 0, f"{len(BUILTIN_PATTERN_NAMES)} patterns")


def test_criterion_8_note_on_lower_bounds():
    """Density lower bounds and NP-hardness are proof facts, not computations;
    they are covered only by consistency: the small-period searches find
    nothing below the known optima, and no sweep ever contradicted them."""
    # consistency spot check: no RED:OLD pattern below 1/2 exists on SQ at
    # small periods (the optimum is an equality)
    below = search_patterns(Lattice.SQ, Kind.RED_OLD, (4, 4), Fraction(2, 5))
    _report("criterion 8: lower-bound facts excluded from quantitative acceptance",
            below is None, "consistency only; nothing verified below known optima")
