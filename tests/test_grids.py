"""Lattices, periodic patterns, the infinite-grid local check, tori, and
pattern search."""

import itertools
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from reference import torus_adj
from oldsets import graph, grids
from oldsets.errors import InputError
from oldsets.graph import MAX_VERTICES, build_graph, vertices_of
from oldsets.grids import (
    BUILTIN_PATTERN_NAMES,
    MAX_PERIOD_AREA,
    Lattice,
    PeriodicPattern,
    build_torus,
    builtin_pattern,
    builtin_pattern_kind,
    cross_check_dims,
    lattice_degree,
    neighbors,
    pattern_from_json,
    pattern_to_json,
    restrict_pattern_to_torus,
    search_patterns,
    verify_pattern,
)
from oldsets.verify import Kind, VerificationReport, verify_set

EXPECTED_DENSITIES = {
    "sq-old": Fraction(2, 5),
    "sq-redold": Fraction(1, 2),
    "hex-old": Fraction(1, 2),
    "hex-redold": Fraction(2, 3),
    "tri-old": Fraction(4, 13),
    "tri-redold": Fraction(3, 8),
    "king-old": Fraction(1, 4),
    "king-redold": Fraction(1, 3),
}


def test_lattice_degrees():
    assert lattice_degree(Lattice.SQ) == 4
    assert lattice_degree(Lattice.HEX) == 3
    assert lattice_degree(Lattice.TRI) == 6
    assert lattice_degree(Lattice.KING) == 8


def test_hex_parity_rule():
    assert (0, 1) in neighbors(Lattice.HEX, 0, 0)  # x+y even: up
    assert (0, -1) not in neighbors(Lattice.HEX, 0, 0)
    assert (1, -1) in neighbors(Lattice.HEX, 1, 0)  # x+y odd: down
    assert (1, 1) not in neighbors(Lattice.HEX, 1, 0)


def test_neighbors_exclude_self():
    for lat in Lattice:
        assert (0, 0) not in neighbors(lat, 0, 0)
        assert len(set(neighbors(lat, 0, 0))) == lattice_degree(lat)


def test_pattern_validation():
    with pytest.raises(InputError):
        PeriodicPattern(Lattice.HEX, (3, 2), frozenset())  # odd HEX period
    with pytest.raises(InputError):
        PeriodicPattern(Lattice.SQ, (2, 2), frozenset({(2, 0)}))  # outside domain
    with pytest.raises(InputError):
        PeriodicPattern(Lattice.SQ, (0, 1), frozenset())


@pytest.mark.parametrize("period, cells", [
    ((2.0, 2), frozenset()),
    ((True, 2), frozenset()),
    (("a", "b"), frozenset()),
    ((2,), frozenset()),
    ((2, 2, 2), frozenset()),
    ([2, 2], frozenset()),
    ((2, 2), frozenset({("0", 0)})),
    ((2, 2), frozenset({(0, False)})),
    ((2, 2), frozenset({(1.0, 0)})),
    ((2, 2), frozenset({(0, 0, 0)})),
    ((2, 2), frozenset({"ab"})),
])
def test_pattern_rejects_non_integer_period_and_cells(period, cells):
    with pytest.raises(InputError):
        PeriodicPattern(Lattice.SQ, period, cells)


def test_pattern_rejects_non_lattice():
    with pytest.raises(InputError):
        PeriodicPattern("sq", (1, 1), frozenset())


def test_pattern_period_area_limit():
    # one check for the library and the JSON path and the search bound,
    # made before any residue table is built; every golden pattern loads in
    # the CLI golden test
    before = grids._domination_table.cache_info()
    with pytest.raises(InputError, match="above the limit"):
        PeriodicPattern(Lattice.SQ, (MAX_PERIOD_AREA + 1, 1), frozenset())
    with pytest.raises(InputError, match="above the limit"):
        pattern_from_json('{"lattice": "sq", "period": [3000, 3000], "cells": []}')
    with pytest.raises(InputError, match="max_period 65x64 has area 4160, above the limit"):
        search_patterns(Lattice.SQ, Kind.OLD, (65, 64), Fraction(1, 4160))
    assert grids._domination_table.cache_info() == before
    assert PeriodicPattern(Lattice.TRI, (64, 64), frozenset()).period == (64, 64)
    assert pattern_from_json(pattern_to_json(builtin_pattern("tri-old"))).period == (13, 13)


def test_builtin_densities_exact():
    for name in BUILTIN_PATTERN_NAMES:
        assert builtin_pattern(name).density() == EXPECTED_DENSITIES[name]


def test_builtin_pattern_kind_reads_the_table():
    for name in BUILTIN_PATTERN_NAMES:
        assert builtin_pattern_kind(name) is grids._builtin_specs()[name][0]
    assert builtin_pattern_kind("sq-redold") is Kind.RED_OLD
    assert builtin_pattern_kind("tri-old") is Kind.OLD
    for name in ("nope", "sq-redold ", "redold", ""):
        with pytest.raises(InputError):
            builtin_pattern_kind(name)


def test_builtin_patterns_verify():
    for name in BUILTIN_PATTERN_NAMES:
        rep = verify_pattern(builtin_pattern(name), builtin_pattern_kind(name))
        assert rep.holds, name


def test_full_pattern_is_red_old_on_sq():
    p = PeriodicPattern(Lattice.SQ, (1, 1), frozenset({(0, 0)}))
    rep = verify_pattern(p, Kind.RED_OLD)
    assert rep.holds and p.density() == 1


def test_naive_king_thirds_fails_red_old():
    p = PeriodicPattern(Lattice.KING, (3, 1), frozenset({(0, 0)}))
    rep = verify_pattern(p, Kind.RED_OLD)
    assert not rep.holds and rep.pair is not None
    (x1, y1), (x2, y2) = rep.pair
    assert max(abs(x1 - x2), abs(y1 - y2)) == 1  # adjacent kings collide
    assert rep.count < 2


def test_empty_pattern_fails_with_vertex_witness():
    p = PeriodicPattern(Lattice.SQ, (2, 2), frozenset())
    rep = verify_pattern(p, Kind.OLD)
    assert not rep.holds and rep.vertex is not None and rep.count == 0


def test_density_trivial():
    assert PeriodicPattern(Lattice.SQ, (1, 1), frozenset({(0, 0)})).density() == 1


def test_build_torus_shapes():
    sq = build_torus(Lattice.SQ, 5, 5)
    assert sq.n == 25 and all(sq.degree(v) == 4 for v in range(25))
    king = build_torus(Lattice.KING, 6, 6)
    assert king.n == 36 and all(king.degree(v) == 8 for v in range(36))
    hexa = build_torus(Lattice.HEX, 6, 6)
    assert all(hexa.degree(v) == 3 for v in range(36))
    tri = build_torus(Lattice.TRI, 5, 5)
    assert all(tri.degree(v) == 6 for v in range(25))
    # the whole graph is the edge-list construction of the wrapped neighbor
    # relation; HEX at both dimension parities mod 4, the others non-square
    for lattice, w, h in ((Lattice.SQ, 5, 7), (Lattice.SQ, 9, 6), (Lattice.TRI, 7, 5),
                          (Lattice.TRI, 6, 11), (Lattice.KING, 6, 6), (Lattice.KING, 10, 7),
                          (Lattice.HEX, 6, 8), (Lattice.HEX, 8, 6), (Lattice.HEX, 6, 10),
                          (Lattice.HEX, 8, 12)):
        edges = [
            (y * w + x, (ny % h) * w + nx % w)
            for x in range(w) for y in range(h) for nx, ny in neighbors(lattice, x, y)
        ]
        labels = [f"{x},{y}" for y in range(h) for x in range(w)]
        g = build_torus(lattice, w, h)
        assert g == build_graph(w * h, edges, labels), (lattice, w, h)
        # an edge set cannot see an asymmetric mask
        assert all(g.adj[b] >> a & 1 for a in range(g.n) for b in vertices_of(g.adj[a]))


@pytest.mark.parametrize("lattice", list(Lattice), ids=lambda lattice: lattice.value)
def test_torus_adj_rotation_matches_the_per_vertex_build(lattice):
    # sides of 3 and 5 are the table lifts of a side-1 period; odd heights
    # rotate an odd number of rows past the last one; every HEX row parity
    # comes from rotating row 0 or row 1
    for w, h in ((3, 3), (3, 5), (5, 3), (5, 5), (4, 3), (6, 5), (3, 6), (5, 7),
                 (6, 6), (8, 6), (6, 10), (10, 9), (7, 11), (12, 4), (13, 13)):
        assert grids._torus_adj(lattice, w, h) == torus_adj(lattice, w, h), (w, h)


def test_build_torus_guards():
    with pytest.raises(InputError):
        build_torus(Lattice.HEX, 5, 6)  # odd width
    with pytest.raises(InputError):
        build_torus(Lattice.SQ, 4, 8)  # too small
    # 99 * 331 is one vertex above graph.MAX_VERTICES = 2**15, refused
    # before any edge is built
    with pytest.raises(InputError, match="above the limit"):
        build_torus(Lattice.SQ, 99, 331)


@pytest.mark.parametrize("call", [
    lambda: build_torus("sq", 6, 6),
    lambda: build_torus(None, 6, 6),
    lambda: build_torus(Lattice.SQ, 6.0, 6),
    lambda: build_torus(Lattice.HEX, "6", 6),
    lambda: neighbors("sq", 0, 0),
    lambda: lattice_degree("king"),
], ids=["str-lattice", "none-lattice", "float-width", "str-width",
        "neighbors-str", "degree-str"])
def test_lattice_functions_reject_bad_arguments(call):
    with pytest.raises(InputError):
        call()


def test_restrict_pattern_counts():
    sq_old = builtin_pattern("sq-old")
    assert restrict_pattern_to_torus(sq_old, 10, 10).bit_count() == 40  # 2/5 of 100
    hex_red = builtin_pattern("hex-redold")
    assert restrict_pattern_to_torus(hex_red, 12, 12).bit_count() == 96  # 2/3 of 144
    full = PeriodicPattern(Lattice.SQ, (1, 1), frozenset({(0, 0)}))
    torus = build_torus(Lattice.SQ, 6, 6)
    assert restrict_pattern_to_torus(full, 6, 6) == torus.all_mask()


def test_restrict_pattern_matches_the_per_vertex_scan():
    rng = random.Random(7)
    patterns = [builtin_pattern(name) for name in BUILTIN_PATTERN_NAMES]
    for _ in range(30):
        lattice = rng.choice([Lattice.SQ, Lattice.TRI, Lattice.KING])
        px, py = rng.randint(1, 5), rng.randint(1, 5)
        cells = frozenset((x, y) for x in range(px) for y in range(py) if rng.random() < 0.4)
        patterns.append(PeriodicPattern(lattice, (px, py), cells))
    for p in patterns:
        px, py = p.period
        for w, h in (cross_check_dims(p), (px * max(2, -(-7 // px)), py * max(3, -(-9 // py)))):
            expected = 0
            for y in range(h):
                for x in range(w):
                    if p.contains(x, y):
                        expected |= 1 << (y * w + x)
            assert restrict_pattern_to_torus(p, w, h) == expected, (p, w, h)


def test_restrict_pattern_guards():
    sq_old = builtin_pattern("sq-old")  # period 1x5
    with pytest.raises(InputError):
        restrict_pattern_to_torus(sq_old, 10, 12)  # 12 not a multiple of 5
    with pytest.raises(InputError):
        restrict_pattern_to_torus(PeriodicPattern(Lattice.SQ, (1, 1), frozenset({(0, 0)})), 5, 5)


def test_restrict_pattern_refuses_a_torus_above_the_limit():
    # 2000 x 2000 is a multiple of the 2x1 period; it was tiled into a
    # 4,000,000-bit mask where build_torus refuses the same torus
    sq_redold = builtin_pattern("sq-redold")
    with pytest.raises(InputError) as refused:
        build_torus(Lattice.SQ, 2000, 2000)
    with pytest.raises(InputError) as restricted:
        restrict_pattern_to_torus(sq_redold, 2000, 2000)
    assert str(restricted.value) == str(refused.value)
    assert f"above the limit of {MAX_VERTICES} vertices" in str(restricted.value)


@pytest.mark.parametrize("width, height", [(6.0, 10), (True, 10), (10, 10.0), ("10", 10)])
def test_restrict_pattern_needs_int_dimensions(width, height):
    # a float reached _tile's range(), and True was reported as too small
    with pytest.raises(InputError, match="must be integers"):
        restrict_pattern_to_torus(builtin_pattern("sq-old"), width, height)


def test_builtin_torus_cross_check():
    # the infinite local check and the finite verifier must agree
    for name in BUILTIN_PATTERN_NAMES:
        p = builtin_pattern(name)
        kind = builtin_pattern_kind(name)
        w, h = cross_check_dims(p)
        torus = build_torus(p.lattice, w, h)
        s = restrict_pattern_to_torus(p, w, h)
        assert verify_set(torus, s, kind.fold).holds == verify_pattern(p, kind).holds


def test_holding_cross_check_draws_no_pair(monkeypatch):
    # distinct codes accept a fold 1 or 2 set without the pair walk; at
    # fold 3 there is no accept, so the full set, which dominates every
    # vertex of every lattice at least three times, walks its pairs
    def no_pairs(*args):
        raise AssertionError("a meeting pair was drawn")
        yield

    checks = []
    for name in BUILTIN_PATTERN_NAMES:
        p = builtin_pattern(name)
        w, h = cross_check_dims(p)
        torus = build_torus(p.lattice, w, h)
        checks.append((torus, restrict_pattern_to_torus(p, w, h), builtin_pattern_kind(name).fold))
    monkeypatch.setattr(graph, "meeting_pairs", no_pairs)
    for torus, s, fold in checks:
        assert verify_set(torus, s, fold).holds
        with pytest.raises(AssertionError, match="meeting pair was drawn"):
            verify_set(torus, torus.all_mask(), 3)


def test_cross_check_keeps_less_than_the_torus_adjacency():
    # the accept keeps one set of codes, each stored from its lowest set
    # bit up, so it holds less than the torus's own masks
    tri_old = builtin_pattern("tri-old")
    torus = build_torus(Lattice.TRI, 52, 52)
    s = restrict_pattern_to_torus(tri_old, 52, 52)
    tracemalloc.start()
    try:
        assert verify_set(torus, s, 1).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(sys.getsizeof(a) for a in torus.adj)


def test_random_pattern_torus_cross_check():
    rng = random.Random(99)
    agreements = 0
    for _ in range(40):
        lattice = rng.choice(list(Lattice))
        px, py = rng.choice([(1, 2), (2, 2), (2, 4), (4, 2), (3, 3), (2, 3)])
        if lattice is Lattice.HEX:
            px, py = px * 2 if px % 2 else px, py * 2 if py % 2 else py
        domain = [(x, y) for x in range(px) for y in range(py)]
        cells = frozenset(c for c in domain if rng.random() < 0.6)
        pattern = PeriodicPattern(lattice, (px, py), cells)
        kind = rng.choice(list(Kind))
        w, h = cross_check_dims(pattern)
        torus = build_torus(lattice, w, h)
        s = restrict_pattern_to_torus(pattern, w, h)
        assert verify_pattern(pattern, kind).holds == verify_set(torus, s, kind.fold).holds
        agreements += 1
    assert agreements == 40


def test_search_finds_sq_redold_half():
    p = search_patterns(Lattice.SQ, Kind.RED_OLD, (4, 4), Fraction(1, 2))
    assert p is not None
    assert p.density() == Fraction(1, 2)
    assert verify_pattern(p, Kind.RED_OLD).holds


def test_search_none_below_optimal_sq_redold():
    # nothing below the known optimum exists at small periods.  SQ RED:OLD
    # needs 2 * area dominations from 4 per cell, at least half the cells,
    # so the count bound rules out every period before its domination
    # table is even asked for
    info = grids._domination_table.cache_info
    before = info().hits + info().misses
    assert search_patterns(Lattice.SQ, Kind.RED_OLD, (4, 4), Fraction(2, 5)) is None
    assert info().hits + info().misses == before


def test_search_reproduces_king_redold_builtin():
    p = search_patterns(Lattice.KING, Kind.RED_OLD, (6, 6), Fraction(1, 3))
    assert p is not None
    assert p.density() == Fraction(1, 3)
    builtin = builtin_pattern("king-redold")
    assert p.period == builtin.period and p.cells == builtin.cells


def test_search_is_deterministic():
    a = search_patterns(Lattice.SQ, Kind.OLD, (3, 3), Fraction(1, 2))
    b = search_patterns(Lattice.SQ, Kind.OLD, (3, 3), Fraction(1, 2))
    assert a == b


def test_search_rejects_bad_target():
    with pytest.raises(InputError):
        search_patterns(Lattice.SQ, Kind.OLD, (3, 3), None)


def test_search_needs_a_target():
    with pytest.raises(TypeError):
        search_patterns(Lattice.SQ, Kind.OLD, (3, 3))
    with pytest.raises(TypeError):
        search_patterns(Lattice.SQ, Kind.OLD)


@pytest.mark.parametrize("lattice, kind, max_period, target", [
    ("sq", Kind.OLD, (3, 3), Fraction(1, 2)),
    (Lattice.SQ, "old", (3, 3), Fraction(1, 2)),
    (Lattice.SQ, Kind.OLD, (2.0, 2), Fraction(1, 2)),
    (Lattice.SQ, Kind.OLD, (True, 3), Fraction(1, 2)),
    (Lattice.SQ, Kind.OLD, (3, 0), Fraction(1, 2)),
    (Lattice.SQ, Kind.OLD, (3,), Fraction(1, 2)),
    (Lattice.SQ, Kind.OLD, (3, 3), 0.5),
    (Lattice.SQ, Kind.OLD, (3, 3), True),
    (Lattice.SQ, Kind.OLD, (3, 3), Fraction(-1, 2)),
], ids=["str-lattice", "str-kind", "float-period", "bool-period",
        "zero-period", "short-period", "float-target", "bool-target", "negative-target"])
def test_search_rejects_bad_arguments(lattice, kind, max_period, target):
    with pytest.raises(InputError):
        search_patterns(lattice, kind, max_period, target)


def test_search_accepts_int_target():
    p = search_patterns(Lattice.SQ, Kind.RED_OLD, (2, 2), 1)
    assert p == PeriodicPattern(Lattice.SQ, (1, 1), frozenset({(0, 0)}))


@pytest.mark.parametrize("name, max_period", [
    ("tri-redold", (4, 4)), ("king-old", (4, 4)), ("hex-redold", (6, 2)),
])
def test_search_reproduces_builtin_first_pattern(name, max_period):
    builtin = builtin_pattern(name)
    p = search_patterns(builtin.lattice, builtin_pattern_kind(name), max_period,
                        builtin.density())
    assert p.period == builtin.period and p.cells == builtin.cells


def test_monotone_densities_across_kinds():
    for lattice in Lattice:
        old = EXPECTED_DENSITIES[f"{lattice.value}-old"]
        red = EXPECTED_DENSITIES[f"{lattice.value}-redold"]
        assert red >= old


def test_pattern_json_round_trip():
    for name in BUILTIN_PATTERN_NAMES:
        p = builtin_pattern(name)
        back = pattern_from_json(pattern_to_json(p))
        assert back.lattice is p.lattice and back.period == p.period and back.cells == p.cells


def test_pattern_json_errors():
    with pytest.raises(InputError):
        pattern_from_json("{not json")
    with pytest.raises(InputError):
        pattern_from_json('{"lattice": "sq", "period": [2], "cells": []}')
    with pytest.raises(InputError):
        pattern_from_json('{"lattice": "oct", "period": [2, 2], "cells": []}')


def test_search_hex_respects_parity():
    p = search_patterns(Lattice.HEX, Kind.OLD, (2, 2), Fraction(1, 2))
    assert p is not None and p.period == (2, 2)
    assert p.density() == Fraction(1, 2)


# ---------------------------------------------------------------------------
# The residue-table check against the from-scratch one: rebuild the ball of
# radius 2 around every fundamental-domain vertex, compute each vertex's
# code as a frozenset of absolute coordinates, and check every pair from
# both ends.  Reports must be equal field by field, witnesses included.

def _reference_ball2(lattice, x, y):
    first = set(neighbors(lattice, x, y))
    second = {w for nb in first for w in neighbors(lattice, *nb)}
    return tuple(sorted((first | second) - {(x, y)}))


def _reference_code(pattern, v):
    return frozenset(w for w in neighbors(pattern.lattice, *v) if pattern.contains(*w))


def reference_verify_pattern(pattern, kind):
    k = kind.fold
    px, py = pattern.period
    domain = [(x, y) for x in range(px) for y in range(py)]
    codes = {}
    for u in domain:
        code = _reference_code(pattern, u)
        codes[u] = code
        if len(code) < k:
            return VerificationReport(False, vertex=u, count=len(code))
    for u in domain:
        for v in _reference_ball2(pattern.lattice, *u):
            c = len(codes[u] ^ _reference_code(pattern, v))
            if c < k:
                return VerificationReport(False, pair=(u, v), count=c)
    return VerificationReport(True)


def _assert_matches_reference(pattern):
    for kind in Kind:
        assert verify_pattern(pattern, kind) == reference_verify_pattern(pattern, kind), (
            pattern, kind)


def _lattice_periods(lattice, largest):
    """Every period up to largest x largest that the lattice allows."""
    sizes = range(2, largest + 1, 2) if lattice is Lattice.HEX else range(1, largest + 1)
    return [(px, py) for px in sizes for py in sizes]


def test_verify_pattern_matches_reference_on_random_patterns():
    rng = random.Random(2024)
    witnesses = {"vertex": 0, "pair": 0}
    for _ in range(250):
        lattice = rng.choice(list(Lattice))
        px, py = rng.choice(_lattice_periods(lattice, 7))
        p = rng.choice([0.4, 0.5, 0.6, 0.7])
        cells = frozenset((x, y) for x in range(px) for y in range(py) if rng.random() < p)
        pattern = PeriodicPattern(lattice, (px, py), cells)
        _assert_matches_reference(pattern)
        for kind in Kind:
            rep = verify_pattern(pattern, kind)
            if not rep.holds:
                witnesses["vertex" if rep.vertex is not None else "pair"] += 1
    assert min(witnesses.values()) >= 30, witnesses  # both witness kinds occur


def test_verify_pattern_matches_reference_on_every_small_period():
    # periods 1..7 in each direction, thin ones (1 x n, n x 1) included:
    # there residues repeat inside one neighborhood
    rng = random.Random(7)
    for lattice in Lattice:
        for px, py in _lattice_periods(lattice, 7):
            domain = [(x, y) for x in range(px) for y in range(py)]
            for size in {len(domain) // 2, len(domain) - 1}:
                _assert_matches_reference(
                    PeriodicPattern(lattice, (px, py), frozenset(rng.sample(domain, size))))


@pytest.mark.parametrize("lattice, period", [
    (Lattice.SQ, (1, 5)), (Lattice.SQ, (3, 3)), (Lattice.SQ, (2, 1)),
    (Lattice.HEX, (2, 2)), (Lattice.HEX, (2, 4)),
    (Lattice.TRI, (3, 2)), (Lattice.TRI, (1, 7)),
    (Lattice.KING, (3, 1)), (Lattice.KING, (2, 3)),
    # the domination and separation tables lift these periods to different
    # tori, and the domination torus differs from the period on one axis
    (Lattice.KING, (4, 2)), (Lattice.TRI, (1, 4)), (Lattice.HEX, (4, 2)),
    (Lattice.SQ, (2, 4)),
])
def test_verify_pattern_matches_reference_exhaustively(lattice, period):
    px, py = period
    domain = [(x, y) for x in range(px) for y in range(py)]
    for size in range(len(domain) + 1):
        for cells in itertools.combinations(domain, size):
            _assert_matches_reference(PeriodicPattern(lattice, period, frozenset(cells)))


def test_domination_failure_builds_no_separation_table():
    pattern = PeriodicPattern(Lattice.SQ, (13, 11), frozenset())
    info = grids._separation_table.cache_info
    before = info().hits + info().misses
    rep = verify_pattern(pattern, Kind.OLD)
    assert rep.vertex == (0, 0) and rep.count == 0
    assert info().hits + info().misses == before  # the table was not even asked for


# ---------------------------------------------------------------------------
# The cell-mask search against the per-candidate one it replaced: build and
# verify a PeriodicPattern for every subset, in the same order.

def reference_search_patterns(lattice, kind, max_period, target):
    mx, my = max_period
    periods = sorted(
        ((px, py) for px in range(1, mx + 1) for py in range(1, my + 1)
         if lattice is not Lattice.HEX or (px % 2 == 0 and py % 2 == 0)),
        key=lambda p: (p[0] * p[1], p[0], p[1]),
    )
    for px, py in periods:
        domain = [(x, y) for x in range(px) for y in range(py)]
        for count in range(1, int(target * px * py) + 1):
            for combo in itertools.combinations(domain, count):
                pattern = PeriodicPattern(lattice, (px, py), frozenset(combo))
                if verify_pattern(pattern, kind).holds:
                    return pattern
    return None


# 1/6, 1/8, 3/10 and 3/8 put the largest cell count of some TRI and KING
# periods exactly at the count bound c * deg == k * area
SWEEP_TARGETS = tuple(Fraction(t) for t in (
    "1/8", "1/6", "1/5", "1/4", "3/10", "1/3", "3/8", "2/5", "1/2", "2/3", "3/4"))


@pytest.mark.parametrize("lattice", list(Lattice))
@pytest.mark.parametrize("kind", list(Kind))
def test_search_matches_reference(lattice, kind):
    max_period = (4, 4) if lattice is Lattice.HEX else (3, 4)
    found = 0
    for target in SWEEP_TARGETS:
        p = search_patterns(lattice, kind, max_period, target)
        assert p == reference_search_patterns(lattice, kind, max_period, target), target
        found += p is not None
    # the sweep must reach the patterns, not only run out of candidates
    assert found > 0
