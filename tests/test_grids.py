"""Lattices, periodic patterns, the infinite-grid local check, tori, and
pattern search."""

import collections
import itertools
import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest

from reference import builtin_kind, cross_check_dims, torus_adj
from oldsets import grids, verify
from oldsets.errors import InputError
from oldsets.graph import MAX_VERTICES, build_graph, vertices_of
from oldsets.grids import (
    BUILTIN_PATTERN_NAMES,
    MAX_PERIOD_AREA,
    Lattice,
    PeriodicPattern,
    build_torus,
    builtin_pattern,
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


@pytest.mark.parametrize("name", [["x"], 7, True], ids=["list", "int", "bool"])
def test_pattern_rejects_non_string_name(name):
    # pattern_to_json writes the name back out, so it must be a string
    with pytest.raises(InputError, match="pattern name must be a string"):
        PeriodicPattern(Lattice.SQ, (1, 5), frozenset({(0, 0), (0, 2)}), name)
    text = json.dumps({"lattice": "sq", "period": [1, 5], "cells": [[0, 0], [0, 2]], "name": name})
    with pytest.raises(InputError, match="pattern name must be a string"):
        pattern_from_json(text)
    assert PeriodicPattern(Lattice.SQ, (1, 5), frozenset({(0, 0)}), "x").name == "x"


def test_pattern_period_area_limit():
    # one check for the library and the JSON path and the search bound,
    # made before any residue table is built; every golden pattern loads in
    # the CLI golden test
    before = grids._cover.cache_info()
    with pytest.raises(InputError, match="above the limit"):
        PeriodicPattern(Lattice.SQ, (MAX_PERIOD_AREA + 1, 1), frozenset())
    with pytest.raises(InputError, match="above the limit"):
        pattern_from_json('{"lattice": "sq", "period": [3000, 3000], "cells": []}')
    with pytest.raises(InputError, match="max_period 65x64 has area 4160, above the limit"):
        search_patterns(Lattice.SQ, Kind.OLD, (65, 64), Fraction(1, 4160))
    assert grids._cover.cache_info() == before
    assert PeriodicPattern(Lattice.TRI, (64, 64), frozenset()).period == (64, 64)
    assert pattern_from_json(pattern_to_json(builtin_pattern("tri-old"))).period == (13, 13)


def test_builtin_densities_exact():
    for name in BUILTIN_PATTERN_NAMES:
        assert builtin_pattern(name).density() == EXPECTED_DENSITIES[name]


def test_builtin_names_give_the_kind_in_the_table():
    # the tests read a builtin's kind off its name
    for name in BUILTIN_PATTERN_NAMES:
        assert builtin_kind(name) is grids._builtin_specs()[name][0]
    assert builtin_kind("sq-redold") is Kind.RED_OLD
    assert builtin_kind("tri-old") is Kind.OLD
    for name in ("nope", "sq-redold ", "redold", ""):
        with pytest.raises(InputError, match="unknown builtin pattern"):
            builtin_pattern(name)


def test_builtin_patterns_verify():
    for name in BUILTIN_PATTERN_NAMES:
        rep = verify_pattern(builtin_pattern(name), builtin_kind(name))
        assert rep.holds, name


@pytest.mark.parametrize("name, kind, density, message", [
    ("bad-density", Kind.OLD, Fraction(1, 2), "bad-density has density 2/5, expected 1/2"),
    ("bad-cells", Kind.RED_OLD, Fraction(2, 5), "bad-cells fails its redold check"),
])
def test_builtin_pattern_refuses_a_bad_table(monkeypatch, name, kind, density, message):
    # sq-old's cells, with a density that disagrees, or checked as RED:OLD,
    # which they fail; each case has its own name, as builtin_pattern
    # caches what it returns
    cells = builtin_pattern("sq-old").cells
    spec = (kind, PeriodicPattern(Lattice.SQ, (1, 5), cells, name), density)
    monkeypatch.setattr(grids, "_builtin_specs", lambda: {name: spec})
    with pytest.raises(RuntimeError, match=re.escape(message)):
        builtin_pattern(name)


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
    assert sq.n == 25 and all(a.bit_count() == 4 for a in sq.adj)
    king = build_torus(Lattice.KING, 6, 6)
    assert king.n == 36 and all(a.bit_count() == 8 for a in king.adj)
    hexa = build_torus(Lattice.HEX, 6, 6)
    assert hexa.n == 36 and all(a.bit_count() == 3 for a in hexa.adj)
    tri = build_torus(Lattice.TRI, 5, 5)
    assert tri.n == 25 and all(a.bit_count() == 6 for a in tri.adj)
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
    # sides below 5 are refused by build_torus but built here all the same;
    # odd heights rotate an odd number of rows past the last one; every HEX
    # row parity comes from rotating row 0 or row 1
    for w, h in ((3, 3), (3, 5), (5, 3), (5, 5), (4, 3), (6, 5), (3, 6), (5, 7),
                 (6, 6), (8, 6), (6, 10), (10, 9), (7, 11), (12, 4), (13, 13)):
        assert grids._torus_adj(lattice, w, h) == torus_adj(lattice, w, h), (w, h)


@pytest.mark.parametrize("lattice", list(Lattice), ids=lambda lattice: lattice.value)
def test_torus_check_refuses_sides_of_one_and_two(monkeypatch, lattice):
    # with the dimension guard out of the way, the check on the balls
    # around (0, 0) and (1, 0) still refuses every torus whose wrap folds
    # the lattice, the HEX tori of height 1 or 2 that stay regular included
    monkeypatch.setattr(grids, "_check_torus", lambda *args: None)
    for w, h in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 6), (2, 6), (6, 1), (6, 2), (1, 7), (7, 2)):
        with pytest.raises(AssertionError, match="ball"):
            build_torus(lattice, w, h)
    # the smallest tori the guard admits pass the check
    side = 6 if lattice is Lattice.HEX else 5
    assert build_torus(lattice, side, side).n == side * side


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
                    if (x % px, y % py) in p.cells:
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
    # a float reached the tiling's range(), and True was reported as too small
    with pytest.raises(InputError, match="must be integers"):
        restrict_pattern_to_torus(builtin_pattern("sq-old"), width, height)


def test_builtin_torus_cross_check():
    # the infinite local check and the finite verifier must agree
    for name in BUILTIN_PATTERN_NAMES:
        p = builtin_pattern(name)
        kind = builtin_kind(name)
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
        checks.append((torus, restrict_pattern_to_torus(p, w, h), builtin_kind(name).fold))
    monkeypatch.setattr(verify, "meeting_pairs", no_pairs)
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
    # so the count bound rules out every period before its cover table is
    # even asked for
    info = grids._cover.cache_info
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
    p = search_patterns(builtin.lattice, builtin_kind(name), max_period,
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
    px, py = pattern.period
    return frozenset(
        (x, y) for x, y in neighbors(pattern.lattice, *v) if (x % px, y % py) in pattern.cells)


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
    # sides of 1 to 4, where one residue holds several members of some
    # separation constraint N(u) △ N(v)
    (Lattice.KING, (4, 2)), (Lattice.TRI, (1, 4)), (Lattice.HEX, (4, 2)),
    (Lattice.SQ, (2, 4)),
])
def test_verify_pattern_matches_reference_exhaustively(lattice, period):
    px, py = period
    domain = [(x, y) for x in range(px) for y in range(py)]
    for size in range(len(domain) + 1):
        for cells in itertools.combinations(domain, size):
            _assert_matches_reference(PeriodicPattern(lattice, period, frozenset(cells)))


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


# ---------------------------------------------------------------------------
# The symmetry behind the search's first pick.  Every translation of SQ, TRI
# and KING is an automorphism, and on HEX every even translation and the
# glide (x, y) -> (x + 1, -y).  So some automorphism keeping the period
# takes the lowest cell of any verifying pattern to (0, 0), and the first
# verifying subset of each (period, count) holds residue 0: the walk starts
# there and stops once it would back up past it.

def test_lattice_symmetries_map_neighbours_to_neighbours():
    near = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    for lattice in Lattice:
        for dx, dy in near:
            if lattice is Lattice.HEX and (dx + dy) % 2:
                continue
            for x, y in near:
                assert set(neighbors(lattice, x + dx, y + dy)) == {
                    (a + dx, b + dy) for a, b in neighbors(lattice, x, y)}, (lattice, dx, dy)
    for x, y in near:
        assert set(neighbors(Lattice.HEX, x + 1, -y)) == {
            (a + 1, -b) for a, b in neighbors(Lattice.HEX, x, y)}
    # an odd translation moves the HEX parity rule, so it is not one
    assert set(neighbors(Lattice.HEX, 1, 0)) != {(a + 1, b) for a, b in neighbors(Lattice.HEX, 0, 0)}


def _first_verifying(subsets, lattice, period, kind):
    for picks in subsets:
        cells = frozenset(divmod(r, period[1]) for r in picks)
        if verify_pattern(PeriodicPattern(lattice, period, cells), kind).holds:
            return list(picks)
    return None


def test_first_verifying_subset_holds_residue_zero():
    found = 0
    for lattice in Lattice:
        deg = lattice_degree(lattice)
        for kind in Kind:
            for px, py in _lattice_periods(lattice, 12):
                area = px * py
                if area > 12:
                    continue
                cover, codes = grids._cover(lattice, px, py)
                width = area + len(codes)
                avail = grids._avail(cover, width, kind.fold)
                for count in range(1, area + 1):
                    first = _first_verifying(
                        itertools.combinations(range(area), count), lattice, (px, py), kind)
                    walk = grids._verifying_subsets(cover, avail, width, kind.fold, deg, count)
                    walk = next((list(picks) for picks in walk), None)
                    assert walk == first, (lattice, kind, (px, py), count)
                    if first is not None:
                        assert first[0] == 0
                        found += 1
    assert found > 300, found


def test_walk_yields_exactly_the_verifying_subsets_holding_zero():
    # the prunes are exact and the leaf test is the whole check, so the
    # walk yields each subset holding residue 0 that verifies, in order
    yielded = 0
    for lattice in Lattice:
        deg = lattice_degree(lattice)
        for kind in Kind:
            for px, py in _lattice_periods(lattice, 8):
                area = px * py
                if area > 8:
                    continue
                cover, codes = grids._cover(lattice, px, py)
                width = area + len(codes)
                avail = grids._avail(cover, width, kind.fold)
                for count in range(1, area + 1):
                    walk = [tuple(picks) for picks in grids._verifying_subsets(
                        cover, avail, width, kind.fold, deg, count)]
                    subsets = [picks for picks in itertools.combinations(range(area), count)
                               if picks[0] == 0 and verify_pattern(PeriodicPattern(
                                   lattice, (px, py), frozenset(divmod(r, py) for r in picks)),
                                   kind).holds]
                    assert walk == subsets, (lattice, kind, (px, py), count)
                    yielded += len(walk)
    assert yielded > 1000, yielded


def _reference_constraints(lattice, px, py):
    """Every constraint of the period as (vertex or pair, members): N(u)
    for u in domain order, then N(u) △ N(v) for u in domain order and v
    meeting u in sorted order, each translation class of pairs {u, v}
    kept at its first pair in that order."""
    domain = [(x, y) for x in range(px) for y in range(py)]
    constraints = [(u, set(neighbors(lattice, *u))) for u in domain]
    classes = set()
    for u in domain:
        for v in _reference_ball2(lattice, *u):
            if not set(neighbors(lattice, *u)) & set(neighbors(lattice, *v)):
                continue
            d = (v[0] - u[0], v[1] - u[1])
            ends = ((u[0] % px, u[1] % py, d), (v[0] % px, v[1] % py, (-d[0], -d[1])))
            if frozenset(ends) not in classes:
                classes.add(frozenset(ends))
                constraints.append(((u, v), set(neighbors(lattice, *u)) ^ set(neighbors(lattice, *v))))
    return constraints


def test_cover_and_avail_match_neighbour_counts():
    # bit t * width + c of cover[r] is set when residue r holds more than t
    # members of constraint c, t < 2 at every fold, and of avail[r] when
    # the residues r, r + 1, ... hold at least k - t; constraints are the
    # domain vertices' neighbourhoods, then the first pair of each class of
    # meeting pairs, whose codes decode to them.  Thin periods put several
    # members of one constraint in one residue
    checked = 0
    for lattice in Lattice:
        meeting = grids._meeting(lattice)
        step = 2 if lattice is Lattice.HEX else 1
        for px in range(step, 17, step):
            for py in range(step, 16 // px + 1, step):
                area = px * py
                constraints = _reference_constraints(lattice, px, py)
                cover, codes = grids._cover(lattice, px, py)
                width = area + len(codes)
                assert width == len(constraints)
                assert len(cover) == area
                assert all(m >> (2 * width) == 0 for m in cover)
                for c, code in enumerate(codes, area):
                    i, j = divmod(code, len(meeting))
                    (x, y), (dx, dy) = divmod(i, py), meeting[j]
                    assert constraints[c][0] == ((x, y), (x + dx, y + dy))
                for k in (1, 2):
                    avail = grids._avail(cover, width, k)
                    assert len(avail) == area
                    assert all(m >> (k * width) == 0 for m in avail)
                    for c, (_, members) in enumerate(constraints):
                        held = collections.Counter(x % px * py + y % py for x, y in members)
                        suffix = 0
                        for r in reversed(range(area)):
                            suffix += held[r]
                            for t in range(2):
                                assert (cover[r] >> (t * width + c) & 1) == (held[r] > t)
                            for t in range(k):
                                assert (avail[r] >> (t * width + c) & 1) == (suffix >= k - t)
                    checked += 1
    assert checked == 2 * (3 * 50 + 8)


@pytest.mark.parametrize("lattice", list(Lattice), ids=lambda lattice: lattice.value)
def test_meeting_offsets_are_the_same_at_both_parities(lattice):
    # the pair codes read one tuple of meeting offsets per lattice; on HEX
    # the vertices of odd x + y have their own neighbourhoods, and the
    # offsets of the vertices meeting them are still the same
    offsets = []
    for u in ((0, 0), (1, 0)):
        near = neighbors(lattice, *u)
        meeting = {w for a in near for w in neighbors(lattice, *a)} - {u}
        offsets.append(sorted((x - u[0], y - u[1]) for x, y in meeting))
    assert offsets[0] == offsets[1] == list(grids._meeting(lattice))
    assert len(offsets[0]) == {Lattice.SQ: 8, Lattice.HEX: 6, Lattice.TRI: 18,
                               Lattice.KING: 24}[lattice]


def test_repeat_search_builds_no_table():
    # the table a search reads depends only on the lattice and the period,
    # so an identical second search finds every one cached
    args = (Lattice.TRI, Kind.RED_OLD, (4, 5), Fraction(1, 3))
    assert search_patterns(*args) is None
    cover = grids._cover.cache_info()
    assert search_patterns(*args) is None
    assert grids._cover.cache_info().misses == cover.misses
    assert grids._cover.cache_info().hits > cover.hits


def test_old_and_redold_read_one_table_per_period():
    # RED:OLD is OLD with every count required twice, so both kinds read
    # the one two-layer table of a period: checking a period at OLD and
    # then at RED:OLD builds one table, and a RED:OLD search after an OLD
    # search over the same periods builds none
    grids._cover.cache_clear()
    pattern = PeriodicPattern(Lattice.TRI, (5, 7), frozenset({(0, 0), (2, 3), (4, 6)}))
    assert not verify_pattern(pattern, Kind.OLD).holds
    assert not verify_pattern(pattern, Kind.RED_OLD).holds
    assert grids._cover.cache_info().misses == 1
    assert search_patterns(Lattice.HEX, Kind.OLD, (6, 6), Fraction(2, 5)) is None
    before = grids._cover.cache_info()
    assert before.misses == 9
    assert search_patterns(Lattice.HEX, Kind.RED_OLD, (6, 6), Fraction(2, 3)) is not None
    after = grids._cover.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


# The six searches the benchmark expects to come back empty, each with a
# ceiling on the residues the walk picks.  Pruning on the domination
# columns alone, with the separation check at the leaves, took 872, 0,
# 609, 498, 367 and 133 picks.
EMPTY_SEARCH_CEILINGS = (
    (Lattice.SQ, Kind.OLD, (4, 4), Fraction(1, 3), 704),
    (Lattice.SQ, Kind.RED_OLD, (4, 4), Fraction(2, 5), 0),
    (Lattice.HEX, Kind.OLD, (4, 4), Fraction(2, 5), 544),
    (Lattice.TRI, Kind.OLD, (4, 4), Fraction(3, 10), 439),
    (Lattice.TRI, Kind.RED_OLD, (4, 5), Fraction(1, 3), 277),
    (Lattice.KING, Kind.OLD, (4, 4), Fraction(1, 5), 95),
)


@pytest.mark.parametrize("lattice, kind, max_period, target, ceiling", EMPTY_SEARCH_CEILINGS,
                         ids=lambda value: getattr(value, "value", str(value)))
def test_empty_search_walk_picks_stay_under_ceiling(
        monkeypatch, lattice, kind, max_period, target, ceiling):
    # the walk reads cover[r] once for each residue r it picks
    picks = 0
    walk = grids._verifying_subsets

    class Counted(tuple):
        def __getitem__(self, r):
            nonlocal picks
            picks += 1
            return tuple.__getitem__(self, r)

    monkeypatch.setattr(grids, "_verifying_subsets", lambda cover, *args: walk(Counted(cover), *args))
    assert search_patterns(lattice, kind, max_period, target) is None
    assert picks <= ceiling
