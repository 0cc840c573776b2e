"""Verifier semantics: spec'd examples, witnesses, and the definitional
equivalences (checked here on small scales; the full sweep lives in the
acceptance module)."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_labeled_graphs,
    graph_and_subset,
    random_graph,
    random_graph_with_twins,
    set_of,
    sparse_set,
)
from reference import (
    distinguishing_count,
    domination_count,
    is_distinguishing_collection,
    is_identifying_code_via_collection,
    is_locating_dominating_via_collection,
    is_old_definitional,
    is_old_via_collection,
    is_red_old_definitional,
    verify_set_all_pairs,
)
from oldsets import graph, verify
from oldsets.errors import InputError
from oldsets.fixtures import g11
from oldsets.grids import Lattice, build_torus, restrict_pattern_to_torus, verify_pattern
from oldsets.graph import build_graph, complete_graph, cycle_graph, mask_of, path_graph, vertices_of
from oldsets.solve import min_set, min_set_bruteforce, propagate
from oldsets.verify import (
    Kind,
    VerificationReport,
    is_identifying_code,
    is_locating_dominating,
    is_old,
    is_open_dominating,
    is_red_old,
    verify_set,
)

G11_OLD6 = ("v2", "v3", "v6", "v7", "v9", "v10")
G11_RED9 = ("v1", "v2", "v3", "v5", "v6", "v7", "v9", "v10", "v11")


def test_domination_count_examples():
    c5 = cycle_graph(5)
    assert domination_count(c5, c5.all_mask(), 0) == 2
    p3 = path_graph(3)
    assert domination_count(p3, mask_of([1]), 1) == 0  # v never dominates itself
    g = g11()
    assert domination_count(g, set_of(g, *G11_OLD6), g.index_of("v4")) == 2


def test_distinguishing_count_examples():
    k4 = complete_graph(4)
    assert distinguishing_count(k4, k4.all_mask(), 0, 1) == 2
    c5 = cycle_graph(5)
    assert distinguishing_count(c5, c5.all_mask(), 0, 1) == 4
    g = g11()
    assert distinguishing_count(g, set_of(g, *G11_OLD6), g.index_of("v2"), g.index_of("v3")) == 2


def test_distinguishing_count_rejects_equal_vertices():
    c5 = cycle_graph(5)
    with pytest.raises(InputError):
        distinguishing_count(c5, c5.all_mask(), 2, 2)


def test_is_open_dominating_examples():
    c5 = cycle_graph(5)
    assert is_open_dominating(c5, c5.all_mask(), 2).holds
    rep = is_open_dominating(path_graph(3), mask_of([1]), 1)
    assert not rep.holds and rep.vertex == 1 and rep.count == 0
    g = g11()
    assert is_open_dominating(g, set_of(g, *G11_RED9), 2).holds


def test_is_open_dominating_rejects_bad_fold():
    with pytest.raises(InputError):
        is_open_dominating(cycle_graph(5), 0, 0)


@pytest.mark.parametrize("fold", [1.5, 2.0, True, None, "2"])
def test_fold_must_be_a_plain_int(fold):
    # a fold of 1.5 would act as 2, and True as 1
    g = g11()
    with pytest.raises(InputError, match="fold"):
        verify_set(g, g.all_mask(), fold)
    with pytest.raises(InputError, match="fold"):
        is_open_dominating(g, g.all_mask(), fold)


_NON_GRAPH_CALLS = [
    (verify_set, ("g", 1, 1)),
    (is_open_dominating, (None, 1)),
    (is_locating_dominating, ([1, 2], 1)),
    (is_identifying_code, ("g", 1)),
    (propagate, ("g", Kind.OLD)),
    (min_set, (None, Kind.OLD)),
    (min_set_bruteforce, ("g", Kind.OLD)),
    (verify_pattern, ("sq-old", Kind.OLD)),
    (restrict_pattern_to_torus, ("sq-old", 6, 6)),
]


@pytest.mark.parametrize("call, args", _NON_GRAPH_CALLS,
                         ids=[call.__name__ for call, _ in _NON_GRAPH_CALLS])
def test_entry_points_refuse_a_non_graph_or_non_pattern(call, args):
    # the set, fold and Kind arguments are checked, and so is the graph or
    # pattern they belong to, rather than an AttributeError from its use
    with pytest.raises(InputError, match=r"expected a (Graph|PeriodicPattern), got"):
        call(*args)


def test_is_old_examples():
    g = g11()
    assert is_old(g, set_of(g, *G11_OLD6)).holds
    c4 = cycle_graph(4)
    rep = is_old(c4, c4.all_mask())
    assert not rep.holds and rep.pair == (0, 2) and rep.count == 0  # open twins
    c5 = cycle_graph(5)
    assert is_old(c5, mask_of([0, 1, 2, 3])).holds


def test_old_c5_minimum_by_exhaustion():
    # brute-force oracle: no 3-subset of C5 works, some 4-subset does
    c5 = cycle_graph(5)
    sizes = [s for s in range(1 << 5) if is_old(c5, s).holds]
    assert min(x.bit_count() for x in sizes) == 4
    assert mask_of([0, 1, 2, 3]) in sizes


def test_is_red_old_examples():
    g = g11()
    assert is_red_old(g, set_of(g, *G11_RED9)).holds
    k4 = complete_graph(4)
    assert is_red_old(k4, k4.all_mask()).holds
    for s in itertools.combinations(range(4), 3):
        assert not is_red_old(k4, mask_of(s)).holds
    c5 = cycle_graph(5)
    assert is_red_old(c5, c5.all_mask()).holds
    for s in range(1 << 5):
        if s != c5.all_mask():
            assert not is_red_old(c5, s).holds


def test_is_red_old_definitional_examples():
    g = g11()
    s = set_of(g, *G11_RED9)
    assert is_red_old_definitional(g, s).holds
    # each single-deletion remainder is itself an OLD set
    for v in vertices_of(s):
        assert is_old(g, s & ~(1 << v)).holds
    assert not is_red_old_definitional(path_graph(3), 0).holds


def test_red_old_equivalence_exhaustive_small():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            for s in range(1 << n):
                assert is_red_old(g, s).holds == is_red_old_definitional(g, s).holds


def test_old_three_formulations_exhaustive_small():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            for s in range(1 << n):
                a = is_old(g, s).holds
                assert a == is_old_definitional(g, s)
                assert a == is_old_via_collection(g, s)


def test_is_distinguishing_collection_examples():
    assert is_distinguishing_collection(2, [mask_of([0]), mask_of([0, 1])])
    assert not is_distinguishing_collection(2, [mask_of([0, 1])])
    g = g11()
    collection = [g.adj[g.index_of(x)] for x in G11_OLD6]
    assert is_distinguishing_collection(g.n, collection)


def test_collection_member_outside_universe_rejected():
    with pytest.raises(InputError):
        is_distinguishing_collection(2, [mask_of([2])])


def test_identifying_code_p3_example():
    # {N[1]} covers P3 but separates no pair
    assert not is_identifying_code(path_graph(3), mask_of([1]))


def test_locating_dominating_k4_example():
    k4 = complete_graph(4)
    assert is_locating_dominating(k4, mask_of([0, 1, 2]))


def _locating_dominating_direct(g, s):
    # classical formulation, used as an independent oracle
    out = [v for v in range(g.n) if not s >> v & 1]
    if any((g.adj[v] & s) == 0 for v in out):
        return False
    codes = [g.adj[v] & s for v in out]
    return len(set(codes)) == len(out)


def _identifying_code_direct(g, s):
    codes = [(g.adj[v] | 1 << v) & s for v in range(g.n)]
    return all(codes) and len(set(codes)) == g.n


def test_ld_and_ic_against_direct_definitions():
    k4 = complete_graph(4)
    for s in range(1 << 4):
        assert is_locating_dominating(k4, s) == _locating_dominating_direct(k4, s)
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            for s in range(1 << n):
                assert is_locating_dominating(g, s) == _locating_dominating_direct(g, s)
                assert is_identifying_code(g, s) == _identifying_code_direct(g, s)


def test_ld_and_ic_match_the_collection_route():
    rng = random.Random(29)
    sparse = random.Random(31)
    verdicts = {"ld": [0, 0], "ic": [0, 0]}
    for i in range(2000):
        g = random_graph_with_twins(
            rng, rng.randint(1, 11), rng.choice([0.15, 0.3, 0.5, 0.8]), isolated=i % 3 == 0
        )
        for s in (g.all_mask(), rng.getrandbits(g.n) | rng.getrandbits(g.n), rng.getrandbits(g.n),
                  sparse_set(sparse, g.n)):
            ld = is_locating_dominating(g, s)
            ic = is_identifying_code(g, s)
            assert ld == is_locating_dominating_via_collection(g, s)
            assert ic == is_identifying_code_via_collection(g, s)
            verdicts["ld"][ld] += 1
            verdicts["ic"][ic] += 1
    # the closed twin defeats IC unless the open twin tells the two apart,
    # so holding codes are the rarest verdict
    assert sum(verdicts["ld"]) == 8000
    assert min(verdicts["ld"] + verdicts["ic"]) > 300, verdicts


def _assert_decided_without_pairs(monkeypatch, check, reference):
    # ``check`` agrees with ``reference`` on holding and failing sets, with
    # the meeting pairs made to raise
    rng = random.Random(37)
    sparse = random.Random(41)
    cases = []
    for _ in range(1000):
        g = random_graph(rng, rng.randint(5, 14), rng.choice([0.2, 0.4, 0.6]))
        for s in (rng.getrandbits(g.n) | rng.getrandbits(g.n), sparse_set(sparse, g.n)):
            cases.append((g, s, reference(g, s)))

    def no_pairs(*args):
        raise AssertionError("a meeting pair was asked for")

    monkeypatch.setattr(graph, "meeting_pairs", no_pairs)
    monkeypatch.setattr(verify, "meeting_pairs", no_pairs)
    verdicts = collections.Counter()
    for g, s, expected in cases:
        assert check(g, s) == expected, (g, s)
        verdicts[expected] += 1
    assert min(verdicts.values()) > 300, verdicts


def test_ld_accept_is_exact(monkeypatch):
    # LD is decided by the codes of the vertices outside S alone: none
    # empty, no two equal.  That is exact, so no meeting pair is drawn, for
    # holding sets and failing ones alike
    _assert_decided_without_pairs(
        monkeypatch, is_locating_dominating, is_locating_dominating_via_collection)


def test_ic_accept_is_exact(monkeypatch):
    # IC is decided the same way on the codes N[v] ∩ S of every vertex;
    # about 650 of the cases fail on two equal codes, not an empty one
    _assert_decided_without_pairs(
        monkeypatch, is_identifying_code, is_identifying_code_via_collection)


def test_ld_and_ic_on_a_king_torus():
    g = build_torus(Lattice.KING, 24, 24)
    assert g.n == 576
    full = g.all_mask()
    assert is_locating_dominating(g, full) and is_identifying_code(g, full)
    # u = (5,5) and v = (6,5) see the same detectors once N[u] △ N[v] (the
    # columns x = 4 and x = 7, rows 4..6) is left out; LD also needs u and
    # v themselves out
    u, v = g.index_of("5,5"), g.index_of("6,5")
    diff = (g.adj[u] | 1 << u) ^ (g.adj[v] | 1 << v)
    assert diff.bit_count() == 6
    assert not is_identifying_code(g, full & ~diff)
    assert is_locating_dominating(g, full & ~diff)
    assert not is_locating_dominating(g, full & ~diff & ~(1 << u | 1 << v))
    # every vertex needs a detector in N[v]; in N(v) or itself for LD
    hole = g.adj[u] | 1 << u
    assert not is_identifying_code(g, full & ~hole)
    assert not is_locating_dominating(g, full & ~hole)


def test_ld_and_ic_reject_sets_outside_the_graph():
    k4 = complete_graph(4)
    for check in (is_locating_dominating, is_identifying_code):
        for s in (1 << 5, -1):  # -1 is an infinite set in two's complement
            with pytest.raises(InputError):
                check(k4, s)


@given(graph_and_subset())
def test_distinguishing_count_symmetry(gs):
    g, s = gs
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert distinguishing_count(g, s, u, v) == distinguishing_count(g, s, v, u)


@given(graph_and_subset())
@settings(max_examples=60)
def test_monotonicity_under_supersets(gs):
    g, s = gs
    t = s | ((s << 1 | 1) & g.all_mask())  # arbitrary superset
    for v in range(g.n):
        assert domination_count(g, t, v) >= domination_count(g, s, v)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert distinguishing_count(g, t, u, v) >= distinguishing_count(g, s, u, v)
    if is_old(g, s).holds:
        assert is_old(g, t).holds
    if is_red_old(g, s).holds:
        assert is_red_old(g, t).holds


@given(graph_and_subset(), st.integers(1, 2))
@settings(max_examples=60)
def test_disjoint_neighborhoods_shortcut(gs, k):
    # disjoint open neighborhoods make the pair count a sum of dominations
    g, s = gs
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] & g.adj[v]:
                continue
            d = distinguishing_count(g, s, u, v)
            assert d == domination_count(g, s, u) + domination_count(g, s, v)
            if domination_count(g, s, u) >= k and domination_count(g, s, v) >= k:
                assert d >= 2 * k


def test_witness_is_first_failing_pair_in_lex_order():
    c4 = cycle_graph(4)
    rep = is_old(c4, c4.all_mask())
    assert rep.pair == (0, 2)  # (0,1),(0,2),... scanned in order; (0,2) first to fail


@pytest.mark.parametrize("s", [True, 1.0, None, "1"])
def test_vertex_set_must_be_a_plain_int(s):
    # True would stand for the set {0}, and a float has no bits to test
    g = g11()
    for check in (lambda: verify_set(g, s, 1), lambda: is_open_dominating(g, s),
                  lambda: is_locating_dominating(g, s), lambda: is_identifying_code(g, s)):
        with pytest.raises(InputError, match="vertex set"):
            check()


def test_out_of_range_set_rejected():
    c5 = cycle_graph(5)
    with pytest.raises(InputError):
        is_old(c5, 1 << 5)
    with pytest.raises(InputError):
        domination_count(c5, -1, 0)


def _verify_set_all_pairs(g, s, fold):
    # reference: every vertex, then every pair u < v, meeting or not
    for v in range(g.n):
        c = (g.adj[v] & s).bit_count()
        if c < fold:
            return VerificationReport(False, vertex=v, count=c)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            c = ((g.adj[u] ^ g.adj[v]) & s).bit_count()
            if c < fold:
                return VerificationReport(False, pair=(u, v), count=c)
    return VerificationReport(True)


def test_verify_set_matches_all_pairs_reference():
    rng = random.Random(11)
    sparse = random.Random(13)
    witnesses = {"vertex": 0, "pair": 0, "none": 0}
    # pair witnesses from sets that leave some meeting pair out of the walk
    filtered_pairs = 0
    for i in range(200):
        # an isolated vertex fails domination at once; without one, dense
        # sets get through to the pair checks
        g = random_graph_with_twins(
            rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7]), isolated=i % 4 == 0
        )
        for s in (g.all_mask(), rng.getrandbits(g.n) | rng.getrandbits(g.n), rng.getrandbits(g.n),
                  sparse_set(sparse, g.n)):
            filtered = len(list(graph.meeting_pairs(g.adj, s))) < len(list(graph.meeting_pairs(g.adj)))
            for fold in (1, 2, 3):
                rep = verify_set(g, s, fold)
                assert rep == _verify_set_all_pairs(g, s, fold)
                key = "vertex" if rep.vertex is not None else "pair" if rep.pair else "none"
                witnesses[key] += 1
                filtered_pairs += filtered and key == "pair"
    assert min(witnesses.values()) > 50, witnesses
    assert filtered_pairs > 50, filtered_pairs


def test_failing_report_needs_exactly_one_witness():
    with pytest.raises(ValueError):
        VerificationReport(False)
    with pytest.raises(ValueError):
        VerificationReport(False, vertex=0, pair=(0, 1), count=0)


def test_collision_accept_matches_the_definitions(monkeypatch):
    # at folds 1 and 2 distinct codes accept without the pair walk; a
    # collision, and every set at fold 3 and up, walks the pairs as before.
    # Reports, witnesses included, must be the all-pairs definition's.
    accepts = collections.Counter()
    codes_apart = verify._codes_apart

    def counted(keys, n, s, fold):
        apart = codes_apart(keys, n, s, fold)
        accepts[fold, apart] += 1
        return apart

    monkeypatch.setattr(verify, "_codes_apart", counted)
    rng = random.Random(53)
    sparse = random.Random(59)
    verdicts = collections.Counter()
    for i in range(600):
        n, p = rng.randint(1, 12), rng.choice([0.2, 0.4, 0.6, 0.8])
        g = random_graph_with_twins(rng, n, p, isolated=False) if i % 3 == 0 else random_graph(rng, n, p)
        for s in (g.all_mask(), rng.getrandbits(g.n) | rng.getrandbits(g.n), sparse_set(sparse, g.n)):
            for fold in (1, 2, 3, 4):
                rep = verify_set(g, s, fold)
                assert rep == verify_set_all_pairs(g, s, fold), (g, s, fold)
                verdicts[fold, "holds" if rep.holds else "vertex" if rep.pair is None else "pair"] += 1
            assert is_locating_dominating(g, s) == is_locating_dominating_via_collection(g, s)
            assert is_identifying_code(g, s) == is_identifying_code_via_collection(g, s)
    # every fold meets both witnesses, and folds 1 and 2 holding sets (on
    # at most 13 vertices few sets hold at 3 and 4); the accept fires and
    # falls back at folds 1 and 2 and is never asked at 3 and 4
    assert min(verdicts[fold, v] for fold in (1, 2, 3, 4) for v in ("vertex", "pair")) > 20, verdicts
    assert min(verdicts[1, "holds"], verdicts[2, "holds"]) > 20, verdicts
    assert min(accepts[fold, apart] for fold in (1, 2) for apart in (True, False)) > 50, accepts
    assert set(fold for fold, _ in accepts) == {1, 2}


def _subcode_pair(g, s):
    """(u, v) when the one pair that fails at fold 2 has a code of three
    detectors and a code of two inside it, and every vertex has two;
    else None."""
    codes = [a & s for a in g.adj]
    if min(c.bit_count() for c in codes) < 2:
        return None
    failing = [(u, v) for u, v in itertools.combinations(range(g.n), 2)
               if (codes[u] ^ codes[v]).bit_count() < 2]
    if len(failing) != 1:
        return None
    small, big = sorted((codes[v] for v in failing[0]), key=int.bit_count)
    if small.bit_count() == 2 and big.bit_count() == 3 and small & big == small:
        return failing[0]
    return None


def _subcode_candidates(rng, g, tries):
    """Sets that keep three detectors of some N(u), two of them in N(v)
    for another v, and nothing else of N(u) ∪ N(v)."""
    for _ in range(tries):
        u = rng.randrange(g.n)
        if g.adj[u].bit_count() < 3:
            continue
        keep = mask_of(rng.sample(vertices_of(g.adj[u]), 3))
        partners = [v for v in range(g.n) if v != u and (g.adj[v] & keep).bit_count() >= 2]
        if not partners:
            continue
        v = rng.choice(partners)
        small = mask_of(vertices_of(g.adj[v] & keep)[:2])
        yield g.all_mask() & ~(g.adj[u] & ~keep | g.adj[v] & ~small)


def _path_square(n):
    """The path on n vertices with each vertex also joined to the one two
    along: interior codes of up to four detectors, where a plain path has
    at most two and fails fold-2 domination at its ends."""
    return build_graph(n, [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n])


def test_fold_two_accept_finds_a_subcode_from_the_larger_code(monkeypatch):
    # the accept probes "the code less one detector" only for codes of three
    # or more; in these sets the one failing pair is a three-detector code
    # and its two-detector subcode, which must be found from the larger
    # side, so the accept says no and the walk gives the witness
    rejects = collections.Counter()
    codes_apart = verify._codes_apart

    def counted(keys, n, s, fold):
        apart = codes_apart(keys, n, s, fold)
        rejects[fold] += not apart
        return apart

    monkeypatch.setattr(verify, "_codes_apart", counted)
    rng = random.Random(61)
    families = {
        "path square": lambda: _path_square(rng.randint(6, 14)),
        "random": lambda: random_graph(rng, rng.randint(12, 18), rng.choice([0.5, 0.6])),
        "torus": lambda: build_torus(rng.choice(list(Lattice)), 6, 6),
    }
    found = collections.Counter()
    skipped = 0  # two-detector codes the accept did not probe
    for family, make in families.items():
        for _ in range(40 if family == "torus" else 150):
            g = make()
            for s in _subcode_candidates(rng, g, 10):
                pair = _subcode_pair(g, s)
                if pair is None:
                    continue
                rep = verify_set(g, s, 2)
                assert rep == verify_set_all_pairs(g, s, 2), (family, g, s)
                assert rep.pair == pair
                found[family] += 1
                skipped += sum((a & s).bit_count() == 2 for a in g.adj)
    assert rejects[2] == sum(found.values())
    assert min(found.values()) >= 20, found
    assert skipped >= sum(found.values())


@pytest.mark.parametrize("lattice, w, h", [
    (Lattice.SQ, 6, 7), (Lattice.HEX, 6, 8), (Lattice.TRI, 7, 6), (Lattice.KING, 6, 6),
], ids=lambda value: getattr(value, "value", value))
def test_torus_sets_failing_only_separation_get_the_walks_witness(lattice, w, h):
    # S is the torus less N(u) △ N(v) for a meeting pair, keeping fold - 1
    # of it, so u and v have fold - 1 separators: the codes collide and the
    # witness comes from the pair walk.  On HEX two vertices share at most
    # one neighbour, so at fold 2 one of them is left with fewer than 2
    # dominators: only the vertex witness occurs there
    g = build_torus(lattice, w, h)
    rng = random.Random(f"{lattice.value}:{w}x{h}")
    pair_failures = collections.Counter()
    for _ in range(30):
        u = rng.randrange(g.n)
        v = rng.choice([v for v in range(g.n) if v != u and g.adj[u] & g.adj[v]])
        diff = g.adj[u] ^ g.adj[v]
        for fold in (1, 2):
            s = g.all_mask() & ~diff | mask_of(vertices_of(diff)[:fold - 1])
            rep = verify_set(g, s, fold)
            assert rep == verify_set_all_pairs(g, s, fold), (u, v, fold)
            pair_failures[fold] += rep.pair is not None
    assert pair_failures[1] >= 10, pair_failures
    if lattice is not Lattice.HEX:
        assert pair_failures[2] >= 10, pair_failures
