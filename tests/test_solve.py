"""Solver behavior: oracle agreement, propagation, forced-vertex queries."""

import itertools
import random

import pytest

from conftest import random_graph, random_graph_with_twins, set_of
from reference import feasibility_check, is_in_every_optimal_set
from oldsets import graph, solve
from oldsets.errors import BudgetExceededError, InputError
from oldsets.fixtures import g11
from oldsets.graph import (
    build_graph,
    complete_graph,
    cycle_graph,
    mask_of,
    meeting_pairs,
    path_graph,
    vertices_of,
)
from oldsets.grids import builtin_pattern, verify_pattern
from oldsets.solve import (
    SolveResult,
    _can_precede,
    _ruled_out,
    _scan,
    min_set,
    min_set_bruteforce,
    propagate,
)
from oldsets.verify import Kind, VerificationReport, verify_kind, verify_set


def test_feasibility_examples():
    assert not feasibility_check(cycle_graph(4), Kind.OLD)  # open twins
    assert not feasibility_check(path_graph(3), Kind.RED_OLD)  # leaf degree 1
    assert feasibility_check(g11(), Kind.RED_OLD)


def test_bruteforce_oracle_values():
    c5 = cycle_graph(5)
    assert min_set_bruteforce(c5, Kind.OLD).value == 4
    assert min_set_bruteforce(c5, Kind.RED_OLD).value == 5
    assert min_set_bruteforce(complete_graph(4), Kind.RED_OLD).value == 4


def test_bruteforce_rejects_large_graphs():
    g = build_graph(21, [(i, i + 1) for i in range(20)])
    with pytest.raises(InputError):
        min_set_bruteforce(g, Kind.OLD)


C5 = cycle_graph(5)


@pytest.mark.parametrize("call, match", [
    # a kind's string value is not a Kind (search_patterns has its own test)
    (lambda: verify_pattern(builtin_pattern("sq-old"), "old"), "kind must be a Kind"),
    (lambda: min_set(C5, "old"), "kind must be a Kind"),
    (lambda: propagate(C5, "redold"), "kind must be a Kind"),
    (lambda: verify_kind(C5, 0, "old"), "kind must be a Kind"),
    (lambda: min_set_bruteforce(C5, "old"), "kind must be a Kind"),
    # a negative mask holds every vertex and more; True is not the set {0}
    (lambda: propagate(C5, Kind.OLD, forced_in=-1), "vertex set"),
    (lambda: propagate(C5, Kind.OLD, forced_out=1 << 5), "vertex set"),
    (lambda: min_set(C5, Kind.OLD, forced_out=-1), "vertex set"),
    (lambda: min_set(C5, Kind.OLD, forced_out=True), "vertex set"),
    # a budget is a node count, as the CLI's --budget is
    (lambda: min_set(C5, Kind.OLD, budget=1.5), "budget"),
    (lambda: min_set(C5, Kind.OLD, budget=-1), "budget"),
    (lambda: min_set(C5, Kind.OLD, budget=True), "budget"),
], ids=[
    "verify_pattern-kind", "min_set-kind", "propagate-kind", "verify_kind-kind",
    "min_set_bruteforce-kind", "propagate-forced_in", "propagate-forced_out",
    "min_set-negative", "min_set-bool", "min_set-float-budget", "min_set-negative-budget",
    "min_set-bool-budget",
])
def test_library_entry_points_refuse_bad_input(call, match):
    with pytest.raises(InputError, match=match):
        call()


def test_bruteforce_infeasible():
    assert min_set_bruteforce(cycle_graph(4), Kind.OLD).value is None


def test_g11_old_minimum():
    res = min_set(g11(), Kind.OLD)
    assert res.value == 6
    assert verify_kind(g11(), res.witness, Kind.OLD).holds


def test_g11_red_old_unique_optimum():
    g = g11()
    res = min_set(g, Kind.RED_OLD, enumerate_all=True)
    assert res.value == 9
    assert res.all_minimum_sets == (set_of(g, "v1", "v2", "v3", "v5", "v6", "v7", "v9", "v10", "v11"),)


def test_min_set_infeasible_returns_data():
    res = min_set(cycle_graph(4), Kind.OLD)
    assert not res.feasible and res.value is None and res.witness is None


def test_witness_is_lexicographically_smallest():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), 0.5)
        for kind in Kind:
            a, b = min_set(g, kind), min_set_bruteforce(g, kind)
            assert a.value == b.value
            # the brute force scans subsets in lex order, so its witness is lex-min
            assert a.witness == b.witness


def _optima_avoiding(g, kind, forced_out):
    # reference: every accepted subset of the vertices outside forced_out,
    # smallest size first, each size in sorted-tuple order
    allowed = vertices_of(g.all_mask() & ~forced_out)
    for size in range(len(allowed) + 1):
        found = [
            s for s in map(mask_of, itertools.combinations(allowed, size))
            if verify_kind(g, s, kind).holds
        ]
        if found:
            return size, tuple(found)
    return None, None


def test_enumeration_matches_bruteforce():
    # value, witness and every optimum; on half of the graphs one or two
    # vertices are excluded up front
    rng = random.Random(11)
    counts = {"tied": 0, "forced_out": 0}
    for i in range(160):
        g = random_graph(rng, rng.randint(5, 10), 0.7)
        forced_out = (1 << rng.randrange(g.n) | 1 << rng.randrange(g.n)) if i % 2 else 0
        for kind in Kind:
            value, optima = _optima_avoiding(g, kind, forced_out)
            a = min_set(g, kind, enumerate_all=True, forced_out=forced_out)
            first = min_set(g, kind, forced_out=forced_out)
            assert a.value == first.value == value
            assert a.all_minimum_sets == optima
            assert a.witness == first.witness == (optima and optima[0])
            if not forced_out:
                assert optima == min_set_bruteforce(g, kind, True).all_minimum_sets
            elif optima:
                counts["forced_out"] += 1
            counts["tied"] += optima is not None and len(optima) > 1
    assert counts["tied"] > 60 and counts["forced_out"] > 30, counts


def _gnp_part(rng, kind, feasible):
    """A seeded G(n, 0.3), n = 8..14, drawn again until its feasibility
    under ``kind`` is ``feasible``: few such RED:OLD draws are feasible."""
    while True:
        g = random_graph(rng, rng.randint(8, 14), 0.3)
        if feasibility_check(g, kind) == feasible:
            return g


@pytest.mark.parametrize("kind", list(Kind))
def test_min_set_on_a_disjoint_union_combines_its_parts(kind):
    # no vertex of one part meets a vertex of the other, so the union's
    # constraints are its parts' and its optima are the unions of theirs:
    # an oracle past the sizes brute force reaches, checked in block order
    # and in one shuffle of the union's vertices
    rng = random.Random(34)
    for feasible in [(True, True)] * 6 + [(True, False), (False, True)]:
        a, b = (_gnp_part(rng, kind, f) for f in feasible)
        parts = [min_set_bruteforce(h, kind, enumerate_all=True) for h in (a, b)]
        edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
        block = list(range(a.n + b.n))
        for order in (block, rng.sample(block, len(block))):
            g = build_graph(len(order), [(order[u], order[v]) for u, v in edges])
            first, every = min_set(g, kind), min_set(g, kind, enumerate_all=True)
            if not all(feasible):
                assert first == every == SolveResult(None, None, None)
                continue
            # each part's optima in the union's vertex order
            optima = [
                sorted((mask_of(order[v + shift] for v in vertices_of(s))
                        for s in part.all_minimum_sets), key=vertices_of)
                for part, shift in zip(parts, (0, a.n))
            ]
            witness = optima[0][0] | optima[1][0]
            products = sorted((x | y for x in optima[0] for y in optima[1]), key=vertices_of)
            assert first.value == every.value == parts[0].value + parts[1].value
            assert first.witness == every.witness == witness
            assert (first.all_minimum_sets, every.all_minimum_sets) == (None, tuple(products))


def test_propagate_g11_triangle_forcing():
    g = g11()
    fin = propagate(g, Kind.RED_OLD)
    tri = set_of(g, "v1", "v2", "v3")
    assert fin & tri == tri


def test_propagate_conflict_on_c4_old():
    assert propagate(cycle_graph(4), Kind.OLD) is None


def test_propagate_respects_forced_out():
    g = g11()
    # excluding v2 starves the pair/vertex constraints inside the triangle
    assert propagate(g, Kind.RED_OLD, 0, 1 << g.index_of("v2")) is None


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("forced_in, forced_out", [(1, 1), (0b110, 0b100), (0b1, 0b11)])
def test_propagate_refuses_a_vertex_both_forced_in_and_out(kind, forced_in, forced_out):
    # a vertex both required and excluded is a conflict before any rule runs
    assert propagate(g11(), kind, forced_in, forced_out) is None


def test_propagation_soundness_against_exhaustion():
    # anything propagation forces must be in every accepted set that is
    # consistent with the branch; a conflict means no such set exists
    rng = random.Random(23)
    forced_checked = conflict_checked = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        decided_in = rng.getrandbits(g.n) & rng.getrandbits(g.n)
        decided_out = rng.getrandbits(g.n) & rng.getrandbits(g.n) & ~decided_in
        for kind in Kind:
            fin = propagate(g, kind, decided_in, decided_out)
            consistent = [
                s for s in range(1 << g.n)
                if s & decided_in == decided_in and not s & decided_out
                and verify_kind(g, s, kind).holds
            ]
            if fin is None:
                assert not consistent
                conflict_checked += 1
                continue
            for s in consistent:
                assert s & fin == fin
                forced_checked += 1
    assert forced_checked > 0 and conflict_checked > 0


def test_deletion_bound():
    # removing any member of a RED:OLD optimum leaves an OLD set
    rng = random.Random(31)
    seen = 0
    for _ in range(80):
        g = random_graph(rng, rng.randint(3, 10), 0.55)
        red = min_set(g, Kind.RED_OLD)
        old = min_set(g, Kind.OLD)
        if red.feasible and old.feasible:
            assert red.value >= old.value + 1
            seen += 1
    assert seen > 5


def test_is_in_every_optimal_set_examples():
    g = g11()
    assert is_in_every_optimal_set(g, Kind.RED_OLD, g.index_of("v1"))
    assert not is_in_every_optimal_set(g, Kind.RED_OLD, g.index_of("v4"))
    # V is the unique RED:OLD set of K4 (oracle: full enumeration)
    k4 = complete_graph(4)
    assert min_set_bruteforce(k4, Kind.RED_OLD, enumerate_all=True).all_minimum_sets == (k4.all_mask(),)
    assert is_in_every_optimal_set(k4, Kind.RED_OLD, 0)


def test_is_in_every_optimal_set_requires_feasible():
    with pytest.raises(InputError):
        is_in_every_optimal_set(cycle_graph(4), Kind.OLD, 0)


def test_budget_exceeded_raises():
    with pytest.raises(BudgetExceededError):
        min_set(g11(), Kind.OLD, budget=1)


def test_deep_search_exceeds_budget_without_recursion_error():
    # P_1200 branches more than 1000 levels deep within its first 1200 nodes
    with pytest.raises(BudgetExceededError):
        min_set(path_graph(1200), Kind.OLD, budget=1200)


def test_budget_error_carries_counts():
    try:
        min_set(g11(), Kind.OLD, budget=2)
    except BudgetExceededError as exc:
        assert exc.nodes > exc.budget == 2
    else:
        pytest.fail("expected BudgetExceededError")


def test_forced_out_solving():
    g = g11()
    base = min_set(g, Kind.OLD)
    shifted = min_set(g, Kind.OLD, forced_out=base.witness & -base.witness)
    # excluding the lex-smallest witness vertex cannot lower the optimum
    assert shifted.value is None or shifted.value >= base.value


def test_nodes_are_reported():
    res = min_set(g11(), Kind.RED_OLD)
    assert res.nodes >= 1


def _all_pair_masks(g):
    # every constraint, pairs with disjoint neighborhoods included
    return list(g.adj) + [
        g.adj[u] ^ g.adj[v] for u in range(g.n) for v in range(u + 1, g.n)
    ]


def _propagate_all_pairs(g, kind, fin, fout):
    # reference: close R1/R2 over every constraint until nothing changes
    k = kind.fold
    if fin & fout:
        return None
    changed = True
    while changed:
        changed = False
        for need in _all_pair_masks(g):
            avail = need & ~fout
            if avail.bit_count() < k:
                return None
            if avail.bit_count() == k and avail & ~fin:
                fin |= avail
                changed = True
        if fin & fout:
            return None
    return fin


def _branch_vertex_all_pairs(g, k, fin, fout):
    # reference: lowest undecided vertex of the tightest unsatisfied
    # constraint, domination first, then every pair in (u, v) order
    best = None
    for need in _all_pair_masks(g):
        cand = need & ~(fin | fout)
        if (need & fin).bit_count() >= k or not cand:
            continue
        key = ((need & ~fout).bit_count(), (cand & -cand).bit_length() - 1)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def _random_partial_states(rng, g, count):
    for _ in range(count):
        fin = rng.getrandbits(g.n) & rng.getrandbits(g.n)
        fout = rng.getrandbits(g.n) & rng.getrandbits(g.n) & ~fin
        yield fin, fout


def test_propagate_matches_all_pairs_reference():
    rng = random.Random(41)
    outcomes = {"conflict": 0, "forced": 0}
    for i in range(150):
        g = random_graph_with_twins(
            rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7]), isolated=i % 4 == 0
        )
        for kind in Kind:
            for fin, fout in _random_partial_states(rng, g, 6):
                got = propagate(g, kind, fin, fout)
                want = _propagate_all_pairs(g, kind, fin, fout)
                assert got == want
                outcomes["conflict" if want is None else "forced"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_branch_vertex_matches_all_pairs_reference():
    rng = random.Random(43)
    chosen = 0
    for i in range(150):
        g = random_graph_with_twins(
            rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7]), isolated=i % 4 == 0
        )
        for kind in Kind:
            for fin, fout in _random_partial_states(rng, g, 6):
                want = _branch_vertex_all_pairs(g, kind.fold, fin, fout)
                if want is None:
                    continue  # satisfied or stuck: covered by the solver tests
                assert _scan(g.n, kind.fold, g.constraint_masks, fin, fout)[1] == want
                chosen += 1
    assert chosen > 500


def _bound_domination(g, k, fin):
    # the solver's earlier bound, kept as a reference: |forced_in| plus the
    # worst single-vertex domination deficit
    return fin.bit_count() + max([k - (a & fin).bit_count() for a in g.adj] + [0])


def _min_accepted_superset(g, k, fin, fout):
    # smallest |S| over accepted S with fin <= S and S & fout == 0, by
    # increasing size; None when there is none
    masks = _all_pair_masks(g)
    free = vertices_of(g.all_mask() & ~(fin | fout))
    for size in range(len(free) + 1):
        for combo in itertools.combinations(free, size):
            s = fin | mask_of(combo)
            if all((m & s).bit_count() >= k for m in masks):
                return s.bit_count()
    return None


def _random_fixpoints(rng, g, kind, count):
    # sparse partial states closed by propagate: denser ones mostly conflict
    for _ in range(count):
        fin = rng.getrandbits(g.n) & rng.getrandbits(g.n) & rng.getrandbits(g.n)
        fout = rng.getrandbits(g.n) & rng.getrandbits(g.n) & rng.getrandbits(g.n) & ~fin
        fin = propagate(g, kind, fin, fout)
        if fin is not None:
            yield fin, fout


def test_scan_bound_is_valid_and_tighter_than_domination():
    # on propagation fixpoints: the domination bound <= the scan's bound <=
    # the smallest accepted set below the state, the scan branches on the
    # all-pairs reference's vertex, and its exclude child's forced_in is
    # what a full propagate pass gives
    rng = random.Random(53)
    counts = {"tighter": 0, "exact": 0, "inner": 0}
    excludes = {"forced": 0, "unchanged": 0}
    for i in range(600):
        g = random_graph_with_twins(
            rng, rng.randint(3, 7), rng.choice([0.2, 0.4, 0.7]), isolated=i % 4 == 0
        )
        for kind in Kind:
            k = kind.fold
            for fin, fout in _random_fixpoints(rng, g, kind, 6):
                bound, v, live, exclude_fin, taken = _scan(g.n, k, g.constraint_masks, fin, fout)
                old = _bound_domination(g, k, fin)
                assert bound >= old
                best = _min_accepted_superset(g, k, fin, fout)
                if best is not None:
                    assert bound <= best, (g.adj, kind, fin, fout)
                    counts["exact"] += bound == best
                counts["tighter"] += bound > old
                assert v == _branch_vertex_all_pairs(g, k, fin, fout)
                counts["inner"] += v is not None
                if v is None:
                    assert exclude_fin == fin and taken == -1
                else:
                    # taken, where it is not -1, holds undecided vertices only
                    assert taken == -1 or not taken & (fin | fout)
                    child = propagate(g, kind, fin, fout | 1 << v)
                    assert exclude_fin == child, (g.adj, kind, fin, fout)
                    excludes["forced" if exclude_fin != fin else "unchanged"] += 1
    assert min(counts.values()) > 100, counts
    assert excludes["forced"] > 200 and excludes["unchanged"] > 20, excludes


def test_child_steps_match_propagate():
    # the search's leaf test on propagation fixpoints against the verifier,
    # its exclude child on the branch vertex against a full propagate pass,
    # and the include and exclude children of every undecided vertex,
    # each scanning only its parent's live constraints
    rng = random.Random(47)
    outcomes = {"forced": 0, "unchanged": 0}
    fixpoints = {"leaf": 0, "inner": 0}
    for i in range(150):
        g = random_graph_with_twins(
            rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7]), isolated=i % 4 == 0
        )
        for kind in Kind:
            k = kind.fold
            for fin, fout in _random_fixpoints(rng, g, kind, 6):
                _, branch, live, exclude_fin, _ = _scan(g.n, k, g.constraint_masks, fin, fout)
                # a fixpoint is a leaf exactly when forced_in is accepted
                leaf = branch is None
                assert leaf == (not live) == verify_set(g, fin, k).holds
                fixpoints["leaf" if leaf else "inner"] += 1
                for v in vertices_of(g.all_mask() & ~(fin | fout)):
                    bit = 1 << v
                    # the include child fin | bit is already a fixpoint;
                    # excluding an undecided vertex from a fixpoint never
                    # conflicts
                    exclude = propagate(g, kind, fin, fout | bit)
                    assert exclude is not None
                    if v == branch:
                        assert exclude_fin == exclude, (g.adj, kind, fin, fout)
                    for cfin, cfout in ((fin | bit, fout), (exclude, fout | bit)):
                        scan = _scan(g.n, k, live, cfin, cfout)
                        assert propagate(g, kind, cfin, cfout) == cfin
                        assert scan == _scan(g.n, k, g.constraint_masks, cfin, cfout)
                        assert scan[2] == [
                            m for m in g.constraint_masks if (m & cfin).bit_count() < k]
                    outcomes["forced" if exclude != fin else "unchanged"] += 1
    assert min(outcomes.values()) > 150, outcomes
    assert min(fixpoints.values()) > 60, fixpoints


def _descent_fixpoints(rng, g, kind, count):
    # the fixpoints along random root-to-leaf paths, each step including or
    # excluding a random undecided vertex and closing with propagate
    root = propagate(g, kind)
    for _ in range(count):
        fin, fout = root, 0
        while fin is not None:
            yield fin, fout
            free = vertices_of(g.all_mask() & ~(fin | fout))
            if not free:
                break
            bit = 1 << rng.choice(free)
            if rng.random() < 0.5:
                fin |= bit
            else:
                fout |= bit
            fin = propagate(g, kind, fin, fout)


def test_fixing_keeps_every_set_within_ub():
    # on fixpoints of seeded graphs (n <= 10), ub being the brute-force
    # value: no accepted set of size <= ub below the state holds a vertex
    # that _ruled_out names, closing the exclusions over the live masks is
    # a full propagate pass, and the closed state keeps every such set;
    # below ub nothing is named
    rng = random.Random(61)
    counts = {"sets kept": 0, "no set left": 0, "none named": 0, "below ub": 0}
    for _ in range(80):
        g = random_graph(rng, rng.randint(4, 10), rng.choice([0.3, 0.5, 0.7]))
        full = g.all_mask()
        for kind in Kind:
            k = kind.fold
            ub = min_set_bruteforce(g, kind).value
            if ub is None:
                continue
            masks = _all_pair_masks(g)
            small = [
                s for size in range(ub + 1)
                for s in map(mask_of, itertools.combinations(range(g.n), size))
                if all((m & s).bit_count() >= k for m in masks)
            ]
            for fin, fout in _descent_fixpoints(rng, g, kind, 8):
                bound, _, live, _, taken = _scan(g.n, k, g.constraint_masks, fin, fout)
                out = _ruled_out(full, ub, bound, taken, fin, fout)
                below = [s for s in small if s & fin == fin and not s & fout]
                assert not any(s & out for s in below), (g.adj, kind, fin, fout, out)
                if bound < ub:
                    assert out == 0
                    counts["below ub"] += 1
                    continue
                if not out:
                    counts["none named"] += bound == ub
                    continue
                closed = propagate(g, kind, fin, fout | out)
                assert solve._close(live, k, fin, fout | out) == closed
                # the fixed state keeps every one of those sets
                assert all(closed is not None and s & closed == closed for s in below)
                counts["sets kept" if below else "no set left"] += 1
    assert min(counts.values()) > 50, counts


def test_can_precede_matches_definition():
    # some S with fin <= S, S & fout == 0 has the lowest vertex of S ^ w
    # in S, over every disjoint (fin, fout) and every w for n <= 6
    answers = {True: 0, False: 0}
    for n in range(7):
        for fin in range(1 << n):
            for fout in range(1 << n):
                if fin & fout:
                    continue
                below = [s for s in range(1 << n) if s & fin == fin and not s & fout]
                for w in range(1 << n):
                    want = any(s & (s ^ w) & -(s ^ w) for s in below)
                    assert _can_precede(n, fout, w) == want, (n, fin, fout, w)
                    answers[want] += 1
    assert min(answers.values()) > 15000, answers


def test_tie_rule_matches_sorted_tuple_order():
    # a witness-only leaf replaces the best set when _can_precede says so;
    # for equal-size sets that is the sorted-tuple comparison
    for n in range(7):
        full = (1 << n) - 1
        for a in range(1 << n):
            for b in range(1 << n):
                if a != b and a.bit_count() == b.bit_count():
                    want = vertices_of(a) < vertices_of(b)
                    assert _can_precede(n, full & ~a, b) == want, (n, a, b)


def test_feasible_min_set_walks_the_meeting_pairs_once(monkeypatch):
    walks = []

    def counted(masks):
        walks.append(len(masks))
        return meeting_pairs(masks)

    g = build_graph(11, g11().edges())  # g11() is cached, with its constraints
    monkeypatch.setattr(graph, "meeting_pairs", counted)
    result = min_set(g, Kind.RED_OLD)
    assert result.value == 9 and walks == [11]


def test_propagation_conflict_that_the_verifier_accepts_is_an_error(monkeypatch):
    # the infeasible verdict comes from propagate and is certified by the
    # verifier; a verifier that disagrees must not pass silently
    monkeypatch.setattr(solve, "verify_kind", lambda g, s, kind: VerificationReport(True))
    with pytest.raises(AssertionError, match="propagation conflict"):
        min_set(cycle_graph(4), Kind.OLD)
