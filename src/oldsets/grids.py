"""Periodic detector patterns on four infinite lattices.

Lattices are modeled on integer coordinates so that rectangular periodic
patterns and finite tori are exact:

* SQ    4-regular: offsets (±1,0),(0,±1);
* HEX   3-regular brick-wall embedding: (±1,0) always, plus (0,+1) when
        x+y is even, (0,-1) when x+y is odd;
* TRI   6-regular skew coordinates: (±1,0),(0,±1),(+1,-1),(-1,+1);
* KING  8-regular: all eight surrounding offsets.

A pattern with rectangular period (px, py) defines an infinite vertex set;
:func:`verify_pattern` checks the OLD / RED:OLD conditions for the whole
infinite graph with a finite amount of work: domination is checked for one
fundamental domain, and separation only for pairs whose open neighborhoods
meet (one pair per translation class), because any other pair is separated
by its dominators alone.  The constraints depend only on the lattice and
the period, so they are residue-mask tables built once per (lattice,
period) and cached; a pattern is checked by masking its cells against them.
Witnesses are the first failure in domain order, as a vertex-by-vertex scan
would find it.  Densities are exact rationals throughout; no floating point.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, decode_json
from .graph import MAX_VERTICES, Graph, build_graph
from .verify import Kind

__all__ = [
    "Lattice",
    "PeriodicPattern",
    "DensityReport",
    "neighbors",
    "lattice_degree",
    "verify_pattern",
    "build_torus",
    "restrict_pattern_to_torus",
    "search_patterns",
    "builtin_pattern",
    "BUILTIN_PATTERN_NAMES",
    "MAX_PERIOD_AREA",
    "pattern_to_json",
    "pattern_from_json",
]

Coord = tuple[int, int]


class Lattice(enum.Enum):
    SQ = "sq"
    HEX = "hex"
    TRI = "tri"
    KING = "king"


_FIXED_OFFSETS: dict[Lattice, tuple[Coord, ...]] = {
    Lattice.SQ: ((1, 0), (-1, 0), (0, 1), (0, -1)),
    Lattice.TRI: ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)),
    Lattice.KING: ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)),
}


def neighbors(lattice: Lattice, x: int, y: int) -> tuple[Coord, ...]:
    """Open neighborhood of (x, y) as absolute coordinates."""
    if lattice is Lattice.HEX:
        vertical = (x, y + 1) if (x + y) % 2 == 0 else (x, y - 1)
        return ((x + 1, y), (x - 1, y), vertical)
    return tuple((x + dx, y + dy) for dx, dy in _FIXED_OFFSETS[lattice])


def lattice_degree(lattice: Lattice) -> int:
    return 3 if lattice is Lattice.HEX else len(_FIXED_OFFSETS[lattice])


def _check_lattice(lattice) -> None:
    if not isinstance(lattice, Lattice):
        raise InputError(f"lattice must be a Lattice, got {lattice!r}")


# The largest period area px*py a pattern may have.  The residue tables are
# O(area**2) bits: a TRI 64x64 check keeps 14 MiB of them and a 100x100
# check 74 MiB, so a huge period in an input file is an input error rather
# than a MemoryError.  Published optimal patterns have periods up to 13x13.
MAX_PERIOD_AREA = 4096


def _period(value, what: str) -> tuple[int, int]:
    """``value`` if it is a tuple of two ints >= 1 with product at most
    MAX_PERIOD_AREA, else InputError.  The check is type(...) is int, which
    rejects bool; the residue arithmetic assumes integers."""
    if not (type(value) is tuple and len(value) == 2
            and type(value[0]) is int and type(value[1]) is int):
        raise InputError(f"{what} must be a pair of integers, got {value!r}")
    px, py = value
    if px < 1 or py < 1:
        raise InputError(f"{what} must be positive, got {value}")
    if px * py > MAX_PERIOD_AREA:
        raise InputError(
            f"{what} {px}x{py} has area {px * py}, above the limit of {MAX_PERIOD_AREA}")
    return value


@dataclass(frozen=True)
class PeriodicPattern:
    """A lattice, a rectangular period, and the in-pattern offsets of one
    fundamental domain.  HEX periods must be even in both directions so that
    period translations preserve the parity-dependent adjacency."""

    lattice: Lattice
    period: tuple[int, int]
    cells: frozenset[Coord]
    name: str | None = None

    def __post_init__(self):
        # one check for the JSON and the library paths; type(...) is int
        # rejects bool, as in _period
        _check_lattice(self.lattice)
        px, py = _period(self.period, "period")
        if self.lattice is Lattice.HEX and (px % 2 or py % 2):
            raise InputError("HEX patterns need even periods in both directions")
        for cell in self.cells:
            if not (type(cell) is tuple and len(cell) == 2
                    and type(cell[0]) is int and type(cell[1]) is int):
                raise InputError(f"cells must be pairs of integers, got {cell!r}")
            cx, cy = cell
            if not (0 <= cx < px and 0 <= cy < py):
                raise InputError(f"cell ({cx},{cy}) outside fundamental domain {px}x{py}")

    def contains(self, x: int, y: int) -> bool:
        return (x % self.period[0], y % self.period[1]) in self.cells

    def density(self) -> Fraction:
        return Fraction(len(self.cells), self.period[0] * self.period[1])


@dataclass(frozen=True)
class DensityReport:
    """Verification outcome for a periodic pattern, with its exact density
    and, on failure, a witness in absolute lattice coordinates."""

    holds: bool
    kind: Kind
    density: Fraction
    vertex: Coord | None = None
    pair: tuple[Coord, Coord] | None = None
    count: int | None = None


# ---------------------------------------------------------------------------
# Residue tables for the local check.
#
# Every constraint is a set of lattice vertices (N(u), or N(u) △ N(v)) whose
# members in the pattern are counted.  Members count once per lattice vertex,
# so on a small period two of them can share a residue: a constraint is the
# multiset of its residues, stored as layer masks over the px*py residues
# (residue (x, y) is bit x*py + y), layer i holding the residues that occur
# more than i times.  The layers are packed into one int at stride px*py,
# and multiplying the cell mask by the table's ``spread`` copies it into
# every layer, so a count is one ``(mask & cells * spread).bit_count()``.
# None of this depends on the cells: the tables are built once per
# (lattice, period).

# Tables kept per cache: room for every period of a few searches up to 6x6.
_TABLE_CACHE_SIZE = 128


class _Geometry(NamedTuple):
    """The lattice around a vertex u, as offsets from u."""

    neighbors: tuple[Coord, ...]  # N(u)
    meeting: tuple[Coord, ...]  # each w != u with N(u) ∩ N(w) != ∅, sorted
    separators: tuple[tuple[Coord, ...], ...]  # N(u) △ N(w), per meeting w


@lru_cache(maxsize=None)
def _geometry(lattice: Lattice, parity: int) -> _Geometry:
    """Geometry of a vertex with x+y = parity (mod 2); only HEX depends on
    the parity, so other lattices are asked for parity 0."""
    u = (parity, 0)
    nu = set(neighbors(lattice, *u))
    meeting = sorted({w for a in nu for w in neighbors(lattice, *a)} - {u})

    def rel(vs) -> tuple[Coord, ...]:
        return tuple((x - u[0], y - u[1]) for x, y in sorted(vs))

    return _Geometry(
        rel(nu), rel(meeting), tuple(rel(nu ^ set(neighbors(lattice, *w))) for w in meeting)
    )


def _geometry_at(lattice: Lattice, x: int, y: int) -> _Geometry:
    return _geometry(lattice, (x + y) % 2 if lattice is Lattice.HEX else 0)


def _residue_mask(px: int, py: int, x: int, y: int, offsets: tuple[Coord, ...]) -> int:
    """The residues of (x, y) + offsets as packed layer masks."""
    area = px * py
    mask = 0
    for dx, dy in offsets:
        bit = 1 << ((x + dx) % px * py + (y + dy) % py)
        while mask & bit:
            bit <<= area
        mask |= bit
    return mask


def _spread(masks: tuple[int, ...], area: int) -> int:
    """One set bit at the start of each layer the masks use."""
    depth = (max(masks).bit_length() - 1) // area + 1
    return sum(1 << (i * area) for i in range(depth))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _domination_table(lattice: Lattice, px: int, py: int) -> tuple[int, tuple[int, ...]]:
    """(spread, masks): N(u) for each fundamental-domain vertex u, in domain
    order, so mask i belongs to u = divmod(i, py)."""
    masks = tuple(
        _residue_mask(px, py, x, y, _geometry_at(lattice, x, y).neighbors)
        for x in range(px)
        for y in range(py)
    )
    return _spread(masks, px * py), masks


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _separation_table(
    lattice: Lattice, px: int, py: int
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(spread, masks, codes): N(u) △ N(v) for u in domain order and v
    meeting u in sorted order, keeping only the first pair of each
    translation class {u, v}; a later pair of the class has the same count,
    so it can never be the first to fail.

    The pair of u = divmod(i, py) with its j-th meeting vertex has code
    i * stride + j (stride: the number of meeting vertices, the same for
    both HEX parities, which mirror each other), so codes grow in scan
    order.  The class's other pair with
    its first vertex in the domain starts from v mod the period and goes
    back by the same offset; the pair with the smaller code comes first.
    """
    stride = len(_geometry(lattice, 0).meeting)
    masks: list[int] = []
    codes: list[int] = []
    for x in range(px):
        for y in range(py):
            geometry = _geometry_at(lattice, x, y)
            for j, ((dx, dy), sym) in enumerate(zip(geometry.meeting, geometry.separators)):
                vx, vy = (x + dx) % px, (y + dy) % py
                back = _geometry_at(lattice, vx, vy).meeting.index((-dx, -dy))
                code = (x * py + y) * stride + j
                if code < (vx * py + vy) * stride + back:
                    masks.append(_residue_mask(px, py, x, y, sym))
                    codes.append(code)
    return _spread(tuple(masks), px * py), tuple(masks), tuple(codes)


def _pair_of(lattice: Lattice, py: int, code: int) -> tuple[Coord, Coord]:
    """The pair a separation-table code stands for."""
    i, j = divmod(code, len(_geometry(lattice, 0).meeting))
    x, y = divmod(i, py)
    dx, dy = _geometry_at(lattice, x, y).meeting[j]
    return (x, y), (x + dx, y + dy)


def _first_short(
    spread: int, masks: tuple[int, ...], cells: int, k: int
) -> tuple[int, int] | None:
    """(index, count) of the first mask counting fewer than k cells, else None."""
    pat = cells * spread
    for i, mask in enumerate(masks):
        c = (mask & pat).bit_count()
        if c < k:
            return i, c
    return None


def verify_pattern(pattern: PeriodicPattern, kind: Kind) -> DensityReport:
    """Check the kind's conditions over the whole infinite lattice.

    Finite procedure: every fundamental-domain vertex u needs >= k
    dominators, and every pair of u with a vertex v whose open neighborhood
    meets N(u) needs >= k separators (one pair per translation class).
    Other pairs have disjoint open neighborhoods, so their separation count
    is the sum of two domination counts and passes once domination does.
    The witness is the first failing vertex in domain order, else the first
    failing pair (u in domain order, then v sorted), read off the first
    short residue-table mask.  A pattern that fails domination never builds
    the separation table.
    """
    lattice, (px, py), k = pattern.lattice, pattern.period, kind.fold
    dens = pattern.density()
    cells = 0
    for x, y in pattern.cells:
        cells |= 1 << (x * py + y)
    short = _first_short(*_domination_table(lattice, px, py), cells, k)
    if short is not None:
        i, count = short
        return DensityReport(False, kind, dens, vertex=divmod(i, py), count=count)
    spread, masks, codes = _separation_table(lattice, px, py)
    short = _first_short(spread, masks, cells, k)
    if short is not None:
        i, count = short
        return DensityReport(False, kind, dens, pair=_pair_of(lattice, py, codes[i]), count=count)
    return DensityReport(True, kind, dens)


def build_torus(lattice: Lattice, width: int, height: int) -> Graph:
    """Finite wrap-around version of the lattice on width x height vertices.

    Dimensions below 5 (and odd dimensions for HEX) are rejected: the wrap
    would identify distance-<=2 neighbors or break the parity rule, which
    defeats the cross-check this graph exists for.  So is a torus above
    MAX_VERTICES = 2**15 vertices, before its edges are built.
    """
    if width < 5 or height < 5:
        raise InputError(f"torus dimensions must be >= 5, got {width}x{height}")
    if width * height > MAX_VERTICES:
        raise InputError(f"torus {width}x{height} is above the limit of {MAX_VERTICES} vertices")
    if lattice is Lattice.HEX and (width % 2 or height % 2):
        raise InputError("HEX tori need even dimensions")
    # every edge comes from both ends; build_graph sets both bits, so the
    # repeat is harmless
    edges = (
        (y * width + x, (ny % height) * width + (nx % width))
        for x in range(width)
        for y in range(height)
        for nx, ny in neighbors(lattice, x, y)
    )
    labels = [f"{x},{y}" for y in range(height) for x in range(width)]
    g = build_graph(width * height, edges, labels)
    deg = lattice_degree(lattice)
    if any(a.bit_count() != deg for a in g.adj):
        raise AssertionError("torus is not regular; dimension guard is wrong")
    return g


def restrict_pattern_to_torus(pattern: PeriodicPattern, width: int, height: int) -> int:
    """The pattern's vertex set on a build_torus(width, height) graph, as a
    bitmask; dimensions must be multiples of the period and >= 6."""
    px, py = pattern.period
    if width % px or height % py:
        raise InputError(
            f"torus {width}x{height} is not a multiple of the period {px}x{py}"
        )
    if width < 6 or height < 6:
        raise InputError("cross-check tori must be at least 6x6")
    mask = 0
    for y in range(height):
        for x in range(width):
            if pattern.contains(x, y):
                mask |= 1 << (y * width + x)
    return mask


def cross_check_dims(pattern: PeriodicPattern) -> tuple[int, int]:
    """Smallest period multiples that are >= 3x the period and >= 6."""
    px, py = pattern.period
    w = px * max(3, -(-6 // px))
    h = py * max(3, -(-6 // py))
    return w, h


def search_patterns(
    lattice: Lattice,
    kind: Kind,
    max_period: tuple[int, int] = (6, 6),
    target_density: int | Fraction | None = None,
) -> PeriodicPattern | None:
    """Exhaustive deterministic search for a verifying pattern with density
    <= target over all periods within ``max_period``.

    Periods are tried by increasing area (ties by px then py), cell counts
    ascending, cell subsets in lexicographic domain order; the first
    verifying pattern is returned, or None when the bound is exhausted.

    A candidate is only a cell mask: the subsets are walked as
    ``itertools.combinations`` of the residue bits 1 << (x*py + y), which
    is domain order, and each is checked against the residue tables by the
    same two ``_first_short`` tests as :func:`verify_pattern`, so the first
    pattern found is the one that verifying every subset in order would
    find.  Each period fetches its domination table once, and its
    separation table once a candidate first passes domination.  The one
    :class:`PeriodicPattern` built is the one returned.

    Raises :class:`InputError` unless ``lattice`` is a :class:`Lattice`,
    ``kind`` a :class:`Kind`, ``max_period`` a tuple of two ints >= 1 with
    area at most MAX_PERIOD_AREA, and ``target_density`` a positive int or
    Fraction (a float could floor the cell count wrongly:
    0.29 * 100 == 28.999...).
    """
    _check_lattice(lattice)
    if not isinstance(kind, Kind):
        raise InputError(f"kind must be a Kind, got {kind!r}")
    mx, my = _period(max_period, "max_period")
    target = target_density
    if (type(target) is not int and not isinstance(target, Fraction)) or target <= 0:
        raise InputError(
            f"target density must be a positive int or Fraction, got {target!r}")
    k = kind.fold
    periods = sorted(
        (
            (px, py)
            for px in range(1, mx + 1)
            for py in range(1, my + 1)
            if lattice is not Lattice.HEX or (px % 2 == 0 and py % 2 == 0)
        ),
        key=lambda p: (p[0] * p[1], p[0], p[1]),
    )
    for px, py in periods:
        area = px * py
        bits = [1 << r for r in range(area)]
        max_cells = int(target * area)  # exact floor; density stays <= target
        if max_cells < 1:
            continue
        dom_spread, dom_masks = _domination_table(lattice, px, py)
        sep = None  # fetched when a candidate first passes domination
        for count in range(1, max_cells + 1):
            for combo in itertools.combinations(bits, count):
                # distinct bits, so their sum is the cell mask
                cells = sum(combo)
                if _first_short(dom_spread, dom_masks, cells, k) is not None:
                    continue
                if sep is None:
                    sep = _separation_table(lattice, px, py)
                if _first_short(sep[0], sep[1], cells, k) is None:
                    found = frozenset(divmod(b.bit_length() - 1, py) for b in combo)
                    return PeriodicPattern(lattice, (px, py), found)
    return None


# ---------------------------------------------------------------------------
# Built-in patterns.
#
# Cell tables are generated from residue rules where the pattern is a union
# of shifted sublattices; each builtin is re-verified on first access and
# the accessor refuses to hand out a pattern that fails its check.

def _residue_cells(px: int, py: int, rule) -> frozenset[Coord]:
    return frozenset((x, y) for x in range(px) for y in range(py) if rule(x, y))


@lru_cache(maxsize=1)
def _builtin_specs() -> dict[str, tuple[Kind, PeriodicPattern, Fraction]]:
    """All cell tables below were produced by exhaustive search (residue-rule
    families for the striped patterns, raw subset search for the rest) and
    are re-verified on access; see the builtin tests for the reproductions."""
    specs: dict[str, tuple[Kind, PeriodicPattern, Fraction]] = {}

    def add(name: str, kind: Kind, lattice: Lattice, period: Coord, cells, dens: Fraction):
        specs[name] = (kind, PeriodicPattern(lattice, period, frozenset(cells), name), dens)

    # Row pairs at spacing 2 then 3.
    add(
        "sq-old", Kind.OLD, Lattice.SQ, (1, 5),
        [(0, 0), (0, 2)],
        Fraction(2, 5),
    )
    # Every other column.
    add(
        "sq-redold", Kind.RED_OLD, Lattice.SQ, (2, 1),
        [(0, 0)],
        Fraction(1, 2),
    )
    # Every other row.
    add(
        "hex-old", Kind.OLD, Lattice.HEX, (2, 2),
        [(0, 0), (1, 0)],
        Fraction(1, 2),
    )
    # Two of every three columns.
    add(
        "hex-redold", Kind.RED_OLD, Lattice.HEX, (6, 2),
        _residue_cells(6, 2, lambda x, y: x % 3 != 2),
        Fraction(2, 3),
    )
    # Four residue classes of the index-13 sublattice x + 3y == 0 (mod 13).
    add(
        "tri-old", Kind.OLD, Lattice.TRI, (13, 13),
        _residue_cells(13, 13, lambda x, y: (x + 3 * y) % 13 in (0, 2, 5, 7)),
        Fraction(4, 13),
    )
    # 4x4 tile with six marked cells.
    add(
        "tri-redold", Kind.RED_OLD, Lattice.TRI, (4, 4),
        [(0, 0), (0, 1), (1, 1), (1, 3), (2, 0), (2, 3)],
        Fraction(3, 8),
    )
    # 4x4 tile with four marked cells.
    add(
        "king-old", Kind.OLD, Lattice.KING, (4, 4),
        [(0, 0), (1, 1), (2, 3), (3, 2)],
        Fraction(1, 4),
    )
    # One diagonal class mod 3: the first verifying pattern search_patterns
    # reaches (reproduced by a regression test) and frozen here.
    add(
        "king-redold", Kind.RED_OLD, Lattice.KING, (3, 3),
        _residue_cells(3, 3, lambda x, y: (x - y) % 3 == 0),
        Fraction(1, 3),
    )
    return specs

BUILTIN_PATTERN_NAMES = (
    "sq-old", "sq-redold", "hex-old", "hex-redold",
    "tri-old", "tri-redold", "king-old", "king-redold",
)


def _builtin_spec(name: str) -> tuple[Kind, PeriodicPattern, Fraction]:
    specs = _builtin_specs()
    if name not in specs:
        raise InputError(
            f"unknown builtin pattern {name!r}; choices: {', '.join(BUILTIN_PATTERN_NAMES)}"
        )
    return specs[name]


@lru_cache(maxsize=None)
def builtin_pattern(name: str) -> PeriodicPattern:
    """Fetch a builtin pattern, re-verifying it (and its exact density) on
    first access; a failing table raises rather than returning bad data."""
    kind, pattern, expected_density = _builtin_spec(name)
    if pattern.density() != expected_density:
        raise RuntimeError(f"builtin pattern {name} has density {pattern.density()}, "
                           f"expected {expected_density}")
    report = verify_pattern(pattern, kind)
    if not report.holds:
        raise RuntimeError(f"builtin pattern {name} fails its {kind.value} check")
    return pattern


def builtin_pattern_kind(name: str) -> Kind:
    """The kind a builtin pattern is verified for."""
    return _builtin_spec(name)[0]


def pattern_to_json(pattern: PeriodicPattern) -> str:
    d: dict = {
        "lattice": pattern.lattice.value,
        "period": list(pattern.period),
        "cells": sorted(list(c) for c in pattern.cells),
    }
    if pattern.name is not None:
        d["name"] = pattern.name
    return json.dumps(d, sort_keys=True)


def pattern_from_json(text: str) -> PeriodicPattern:
    d = decode_json(text, "pattern")
    if not isinstance(d, dict):
        raise InputError("pattern JSON must be an object")
    try:
        lattice = Lattice(d["lattice"])
        period = tuple(d["period"])
        cells = frozenset(tuple(c) for c in d["cells"])
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"invalid pattern JSON: {exc}") from None
    return PeriodicPattern(lattice, period, cells, d.get("name"))
