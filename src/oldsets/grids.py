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
the period, so they are built once into one cached table: for each residue
of the period, the constraints it counts towards, counted with multiplicity
as two-layer masks, fold k reading the first k; a pattern's counts are the
sum of its cells' rows.  Verdicts are the graph verifier's
VerificationReport, its witness in lattice coordinates: the first failure
in domain order, as a vertex-by-vertex scan would find it.  Densities are
exact rationals throughout; no floating point.

:func:`search_patterns` walks cell subsets in the order verifying each would
take, but depth first, adding each pick's row to the prefix's counts: a
prefix that no completion can make verify is dropped, and so is any cell
count too small to give every vertex its k dominators.  It walks only the
subsets that hold residue (0, 0): translations (on HEX the even ones and
the glide (x, y) -> (x + 1, -y)) are automorphisms that keep the period
and take any pattern's lowest cell there, so the first verifying subset of
each cell count holds it.
"""

from __future__ import annotations

import enum
import json
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, decode_json, shown
from .graph import MAX_VERTICES, Graph, vertices_of
from .verify import Kind, VerificationReport, check_kind

__all__ = [
    "Lattice",
    "PeriodicPattern",
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


# The lattice geometry, stated once: the neighbour offsets of (x, y), first
# when x + y is even, then when it is odd.  Only HEX's two differ.
_OFFSETS: dict[Lattice, tuple[tuple[Coord, ...], tuple[Coord, ...]]] = {
    Lattice.SQ: (((1, 0), (-1, 0), (0, 1), (0, -1)),) * 2,
    Lattice.HEX: (((1, 0), (-1, 0), (0, 1)), ((1, 0), (-1, 0), (0, -1))),
    Lattice.TRI: (((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)),) * 2,
    Lattice.KING: (((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)),) * 2,
}


def neighbors(lattice: Lattice, x: int, y: int) -> tuple[Coord, ...]:
    """Open neighborhood of (x, y) as absolute coordinates; x and y must be
    ints (not bool), else InputError."""
    _check_lattice(lattice)
    if type(x) is not int or type(y) is not int:
        raise InputError(f"lattice coordinates must be ints, got ({shown(x)}, {shown(y)})")
    return tuple((x + dx, y + dy) for dx, dy in _OFFSETS[lattice][(x + y) % 2])


def lattice_degree(lattice: Lattice) -> int:
    _check_lattice(lattice)
    return len(_OFFSETS[lattice][0])


def _check_lattice(lattice) -> None:
    if not isinstance(lattice, Lattice):
        raise InputError(f"lattice must be a Lattice, got {lattice!r}")


# The largest period area px*py a pattern may have.  The table holds one row
# per residue and two layers of one column per constraint, O(area**2) bits
# in all, whichever kind is checked: a check of a full pattern keeps 14.2 MiB
# on TRI 64x64, 17.8 MiB on SQ 1x4096 and 44.7 MiB on KING 4096x1
# (tracemalloc, cold caches), so a huge period in an input file is an input
# error rather than a MemoryError.
# Published optimal patterns have periods up to 13x13.
MAX_PERIOD_AREA = 4096


def _period(value, what: str) -> tuple[int, int]:
    """``value`` if it is a tuple of two ints >= 1 with product at most
    MAX_PERIOD_AREA, else InputError.  The check is type(...) is int, which
    rejects bool; the residue arithmetic assumes integers."""
    if not (type(value) is tuple and len(value) == 2
            and type(value[0]) is int and type(value[1]) is int):
        raise InputError(f"{what} must be a pair of integers, got {shown(value)}")
    px, py = value
    if px < 1 or py < 1:
        raise InputError(f"{what} must be positive, got ({shown(px)}, {shown(py)})")
    if max(px, py) > MAX_PERIOD_AREA:
        # no sides or area in the message: two 4000-digit sides parse, but
        # their product has more digits than str() converts
        raise InputError(f"{what} has a side above {MAX_PERIOD_AREA}, so its area is "
                         f"above the limit of {MAX_PERIOD_AREA}")
    if px * py > MAX_PERIOD_AREA:
        raise InputError(
            f"{what} {px}x{py} has area {px * py}, above the limit of {MAX_PERIOD_AREA}")
    return value


class _PatternRecord(NamedTuple):
    lattice: Lattice
    period: tuple[int, int]
    cells: frozenset[Coord]
    name: str | None


class PeriodicPattern(_PatternRecord):
    """A lattice, a rectangular period, and the in-pattern offsets of one
    fundamental domain, an immutable named tuple.  HEX periods must be even
    in both directions so that period translations preserve the
    parity-dependent adjacency."""

    __slots__ = ()

    def __new__(cls, lattice: Lattice, period: tuple[int, int], cells: frozenset[Coord],
                name: str | None = None):
        # one check for the JSON and the library paths; type(...) is int
        # rejects bool, as in _period
        _check_lattice(lattice)
        px, py = _period(period, "period")
        if lattice is Lattice.HEX and (px % 2 or py % 2):
            raise InputError("HEX patterns need even periods in both directions")
        if not isinstance(cells, frozenset):
            raise InputError(f"cells must be a frozenset, got {type(cells).__name__}")
        for cell in cells:
            if not (type(cell) is tuple and len(cell) == 2
                    and type(cell[0]) is int and type(cell[1]) is int):
                raise InputError(f"cells must be pairs of integers, got {shown(cell)}")
            cx, cy = cell
            if not (0 <= cx < px and 0 <= cy < py):
                raise InputError(
                    f"cell ({shown(cx)},{shown(cy)}) outside fundamental domain {px}x{py}")
        if name is not None and not isinstance(name, str):
            raise InputError(f"pattern name must be a string, got {name!r}")
        return super().__new__(cls, lattice, period, cells, name)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks above
        return cls(*iterable)

    def density(self) -> Fraction:
        return Fraction(len(self.cells), self.period[0] * self.period[1])


# ---------------------------------------------------------------------------
# Tables for the local check.
#
# Every constraint is a set of lattice vertices, N(u) or N(u) △ N(v), whose
# members in the pattern are counted.  One table holds them all
# (:func:`_cover`): for each residue of the period, how many members of each
# constraint it holds, each member counted at its residue mod the period, so
# a residue that holds two members of one constraint (on a thin period such
# as 1x5 or 2x1) counts twice, as on the infinite lattice, and no torus is
# needed.  The table does not depend on the cells or the fold: it is built
# once per (lattice, period), and OLD reads its first layer.

@lru_cache(maxsize=None)
def _meeting(lattice: Lattice) -> tuple[Coord, ...]:
    """The offsets from u of each w != u with N(u) ∩ N(w) != ∅, sorted.
    The same at both HEX parities: the glide (x, y) -> (x + 1, -y) swaps
    them, and the set is symmetric under y -> -y."""
    meeting = {w for a in neighbors(lattice, 0, 0) for w in neighbors(lattice, *a)} - {(0, 0)}
    return tuple(sorted(meeting))


@lru_cache(maxsize=None)
def _shapes(lattice: Lattice) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For u of each x + y parity, the members of N(u) and then of N(u) △
    N(u + d) for each d of :func:`_meeting`, each member (u[0] + dx, u[1] +
    dy) as its index 7 * (dx + 3) + dy + 3 in the 7 x 7 box around u."""
    offsets = _OFFSETS[lattice]
    shapes = []
    for p in (0, 1):
        near = set(offsets[p])
        members = [near] + [near ^ {(dx + ox, dy + oy) for ox, oy in offsets[(p + dx + dy) % 2]}
                            for dx, dy in _meeting(lattice)]
        shapes.append(tuple(tuple(sorted(7 * (dx + 3) + dy + 3 for dx, dy in m)) for m in members))
    return tuple(shapes)


# 128 tables kept: room for every period of a few searches up to 6x6
@lru_cache(maxsize=128)
def _cover(lattice: Lattice, px: int, py: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(cover, codes): every constraint of a px x py period as one column,
    and for each residue r the two-layer mask of the columns it counts
    towards; fold k reads the first k layers.  Residues and domain
    vertices are both indexed in domain order, (x, y) at x * py + y.

    Column i < area is N(u), u the domain vertex i.  After them come the
    separation columns N(u) △ N(v), u in domain order and v = u + d for d
    in :func:`_meeting` order, keeping only the first pair of each
    translation class {u, v}: a later pair of the class has the same
    count, so it can never be the first to fail.  The pair of u (index i)
    with its j-th meeting offset has code i * stride + j, stride the
    number of meeting offsets, so codes grow in column order; the class's
    other pair with its first vertex in the domain starts from v mod the
    period and goes back by -d, and the pair with the smaller code comes
    first.  ``codes`` holds the code of each separation column.

    With width = area + len(codes), bit t * width + c of cover[r] is set
    when residue r holds more than t members of column c, t < 2.  Each
    member is counted at its residue, so a residue that holds two members
    (on a period side below 7) counts twice, as on the infinite lattice,
    and no torus is needed.  A set of residues is held the same way, as
    the k-layer mask of its counts; at folds 1 and 2, the only ones,
    residue r is added to counts ``dom`` by ``(dom | c | (dom & c) <<
    width) & full``, c = cover[r] and full the k layers' mask."""
    area = px * py
    meeting = _meeting(lattice)
    stride = len(meeting)
    back = [meeting.index((-dx, -dy)) for dx, dy in meeting]
    parities = _shapes(lattice)
    hits: list[list[int]] = [[] for _ in range(area)]  # each residue's columns, repeats kept
    codes: list[int] = []
    for i in range(area):
        x, y = divmod(i, py)
        box = [a % px * py + b % py for a in range(x - 3, x + 4) for b in range(y - 3, y + 4)]
        shapes = parities[(x + y) % 2]
        columns = [(i, 0)]
        for j, (dx, dy) in enumerate(meeting):
            code = i * stride + j
            if code < ((x + dx) % px * py + (y + dy) % py) * stride + back[j]:
                columns.append((area + len(codes), j + 1))
                codes.append(code)
        for c, shape in columns:
            for q in shapes[shape]:
                hits[box[q]].append(c)
    width = area + len(codes)
    # a column's members are listed together, so its repeats in a residue
    # are adjacent there; a repeat sets the second layer, which the fold-1
    # mask drops
    cover = []
    for held in hits:
        bits = [c + width if c == last else c for last, c in zip([-1] + held, held)]
        row = bytearray(max(bits) // 8 + 1)
        for b in bits:
            row[b >> 3] |= 1 << (b & 7)
        cover.append(int.from_bytes(row, "little"))
    return tuple(cover), tuple(codes)


def _avail(cover: tuple[int, ...], width: int, k: int) -> list[int]:
    """avail[r] sets bit t * width + c when the residues r, r + 1, ... hold
    at least k - t members of column c: the suffix sums of the cover
    counts with their k <= 2 layers swapped."""
    full, shift = (1 << (k * width)) - 1, (k - 1) * width
    avail = []
    dom = 0
    for c in reversed(cover):
        dom = (dom | c | (dom & c) << width) & full
        avail.append(dom >> shift | dom << shift & full)
    return avail[::-1]


def verify_pattern(pattern: PeriodicPattern, kind: Kind) -> VerificationReport:
    """Check the kind's conditions over the whole infinite lattice.

    Finite procedure: every fundamental-domain vertex u needs >= k
    dominators, and every pair of u with a vertex v whose open neighborhood
    meets N(u) needs >= k separators (one pair per translation class).
    Other pairs have disjoint open neighborhoods, so their separation count
    is the sum of two domination counts and passes once domination does.
    The counts of every constraint are the sum of the cells' rows of the
    cover table (see :func:`_cover`); a constraint short of k is missing
    from their top layer, and its count is the number of layers that hold
    it.  The witness, its vertices lattice coordinates (x, y), is the
    lowest such column: the first failing vertex in domain order, else the
    first failing pair (u in domain order, then v sorted), decoded from
    the column's code, u and its j-th meeting vertex.
    """
    check_kind(kind)
    _check_pattern(pattern)
    lattice, (px, py), k = pattern.lattice, pattern.period, kind.fold
    cover, codes = _cover(lattice, px, py)
    area = px * py
    width = area + len(codes)
    full = (1 << (k * width)) - 1
    dom = 0
    for x, y in pattern.cells:
        c = cover[x * py + y]
        dom = (dom | c | (dom & c) << width) & full
    if dom == full:
        return VerificationReport(True)
    # the lowest column missing from the top layer: top's lowest 0 bit
    top = dom >> (k - 1) * width
    c = ((top + 1) & ~top).bit_length() - 1
    count = sum(dom >> (t * width + c) & 1 for t in range(k - 1))
    if c < area:
        return VerificationReport(False, vertex=divmod(c, py), count=count)
    meeting = _meeting(lattice)
    u, j = divmod(codes[c - area], len(meeting))
    (x, y), (dx, dy) = divmod(u, py), meeting[j]
    return VerificationReport(False, pair=((x, y), (x + dx, y + dy)), count=count)


def _check_pattern(pattern) -> None:
    if not isinstance(pattern, PeriodicPattern):
        raise InputError(f"expected a PeriodicPattern, got {type(pattern).__name__}")


def _torus_adj(lattice: Lattice, w: int, h: int) -> tuple[int, ...]:
    """Adjacency masks of the w x h torus, vertex (x, y) at index y * w + x.

    Rows 0 and 1 are built from the lattice's offset table
    :data:`_OFFSETS`, one set per x + y parity, wrapped mod the dimensions.
    Every later row y is row y % 2 moved down y - y % 2 rows: its masks are
    those of row y % 2 rotated by (y - y % 2) * w bits mod w * h, an even
    number of rows, so each vertex keeps its parity.  Each is built as the
    mask two rows up rotated by 2w bits, a plain shift unless bits pass the
    last row.
    """
    offsets = _OFFSETS[lattice]
    adj = []
    for y in range(min(h, 2)):
        for x in range(w):
            a = 0
            for dx, dy in offsets[(x + y) % 2]:
                a |= 1 << ((y + dy) % h * w + (x + dx) % w)
            adj.append(a)
    n, step = w * h, 2 * w
    full = (1 << n) - 1
    for i in range(step, n):
        a = adj[i - step] << step
        if a >> n:
            a = a & full | a >> n
        adj.append(a)
    return tuple(adj)


def _check_torus(lattice: Lattice, width: int, height: int) -> None:
    """InputError unless width x height is a torus :func:`build_torus`
    builds: int dimensions >= 5, at most MAX_VERTICES = 2**15 vertices,
    even for HEX.  Checked before any mask is built."""
    _check_lattice(lattice)
    if type(width) is not int or type(height) is not int:
        raise InputError(f"torus dimensions must be integers, got {width!r}x{height!r}")
    if width < 5 or height < 5:
        raise InputError(f"torus dimensions must be >= 5, got {shown(width)}x{shown(height)}")
    if width * height > MAX_VERTICES:
        raise InputError(
            f"torus {shown(width)}x{shown(height)} is above the limit of {MAX_VERTICES} vertices")
    if lattice is Lattice.HEX and (width % 2 or height % 2):
        raise InputError("HEX tori need even dimensions")


def build_torus(lattice: Lattice, width: int, height: int) -> Graph:
    """Finite wrap-around version of the lattice on width x height vertices.

    Vertex (x, y) has index y * width + x and label "x,y".  Dimensions
    below 5 (and odd dimensions for HEX) are rejected: the wrap would
    identify distance-<=2 neighbors or break the parity rule, which defeats
    the cross-check this graph exists for.  So are dimensions that are not
    ints and a torus above MAX_VERTICES = 2**15 vertices, before its masks
    are built.

    As a check on that guard, AssertionError unless the balls of radius 2
    around (0, 0) and (1, 0) keep all their vertices apart.  Such a ball
    is {u} ∪ N(u) ∪ the meeting vertices of u (:func:`_meeting`), and the
    torus's ball is its image under the wrap, so it shrinks whenever two of
    its lattice vertices wrap onto one: in particular when two neighbour
    offsets do, as on a torus that is not regular, or when a vertex is its
    own neighbour.  The two balls, one per HEX parity, are carried to every
    vertex's by the translations on SQ, TRI and KING and the even ones on
    HEX.
    """
    _check_torus(lattice, width, height)
    adj = _torus_adj(lattice, width, height)
    size = len({(0, 0), *neighbors(lattice, 0, 0), *_meeting(lattice)})
    for i, a in enumerate(adj[:2]):
        ball = a | 1 << i
        for j in vertices_of(a):
            ball |= adj[j]
        if ball.bit_count() != size:
            raise AssertionError("torus wrap folds a ball of radius 2; dimension guard is wrong")
    columns = [f"{x}," for x in range(width)]
    labels = tuple(x + y for y in map(str, range(height)) for x in columns)
    return Graph(width * height, adj, labels)


def restrict_pattern_to_torus(pattern: PeriodicPattern, width: int, height: int) -> int:
    """The pattern's vertex set on a build_torus(width, height) graph, as a
    bitmask.  The torus must pass build_torus's guards, and its dimensions
    must be multiples of the period and >= 6; all are checked, in that
    order, before the mask is built."""
    _check_pattern(pattern)
    _check_torus(pattern.lattice, width, height)
    px, py = pattern.period
    if width % px or height % py:
        raise InputError(f"torus {width}x{height} is not a multiple of the period {px}x{py}")
    if width < 6 or height < 6:
        raise InputError("cross-check tori must be at least 6x6")
    # (x, y) at bit y * width + x.  Each row residue y mod py is one mask,
    # the period's cells in that row tiled across the width; a row of the
    # period is below 1 << px, so multiplying by one set bit every px places
    # copies it without carries
    rows = [0] * py
    for x, y in pattern.cells:
        rows[y] |= 1 << x
    tile = sum(1 << (i * px) for i in range(width // px))
    rows = [r * tile for r in rows]
    mask = 0
    for y in range(height):
        mask |= rows[y % py] << (y * width)
    return mask


def search_patterns(
    lattice: Lattice,
    kind: Kind,
    max_period: tuple[int, int],
    target_density: int | Fraction,
) -> PeriodicPattern | None:
    """Exhaustive deterministic search for a verifying pattern with density
    <= target over all periods within ``max_period``.

    Periods are tried by increasing area (ties by px then py), cell counts
    ascending, cell subsets in lexicographic domain order; the first
    verifying pattern is returned, or None when the bound is exhausted.

    The walk is pruned but reaches the same first pattern.  A cell
    dominates exactly deg = lattice_degree(lattice) vertices per
    translation class, and a period needs k * px * py dominations, so cell
    counts below ceil(k * px * py / deg) are skipped, and a period with
    too few cells never fetches its table.  Within a count, the subsets
    are walked depth first over residue indices in the order of
    ``itertools.combinations`` (:func:`_verifying_subsets`), keeping the
    picks' counts of every constraint, the sum of their rows of the cover
    table that :func:`verify_pattern` reads, and a prefix is dropped as
    soon as no completion can meet every constraint; the suffix counts
    that tell it (:func:`_avail`) are summed once per period.  The walk
    takes only subsets that hold residue 0, which comes first in that
    order: by the lattice's symmetry (see :func:`_verifying_subsets`) the
    first verifying subset of a count holds it, if any subset verifies.
    The prunes are exact, so the walk yields exactly the subsets holding
    residue 0 that :func:`verify_pattern` passes, in order, and its first
    is the pattern that verifying every subset in order would find; the
    one :class:`PeriodicPattern` built is the one returned.

    Both bounds are required.  Raises :class:`InputError` unless
    ``lattice`` is a :class:`Lattice`, ``kind`` a :class:`Kind`,
    ``max_period`` a tuple of two ints >= 1 with area at most
    MAX_PERIOD_AREA, and ``target_density`` a positive int or Fraction (a
    float could floor the cell count wrongly: 0.29 * 100 == 28.999...).
    """
    _check_lattice(lattice)
    check_kind(kind)
    mx, my = _period(max_period, "max_period")
    target = target_density
    if (type(target) is not int and not isinstance(target, Fraction)) or target <= 0:
        raise InputError(
            f"target density must be a positive int or Fraction, got {target!r}")
    k, deg = kind.fold, lattice_degree(lattice)
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
        max_cells = int(target * area)  # exact floor; density stays <= target
        # the domain needs k * area dominations, and a cell gives deg
        min_cells = max(1, -(-k * area // deg))
        if max_cells < min_cells:
            continue
        cover, codes = _cover(lattice, px, py)
        width = area + len(codes)
        avail = _avail(cover, width, k)
        for count in range(min_cells, max_cells + 1):
            picks = next(_verifying_subsets(cover, avail, width, k, deg, count), None)
            if picks is not None:
                return PeriodicPattern(lattice, (px, py), frozenset(divmod(r, py) for r in picks))
    return None


def _verifying_subsets(
    cover: tuple[int, ...], avail: list[int], width: int, k: int, deg: int, count: int,
):
    """Yield, as a list of residue indices, each count-subset of the
    residues that holds residue 0, in lexicographic order, whose cells meet
    every constraint of the cover table k times: the
    ``itertools.combinations`` starting at 0 that :func:`verify_pattern`
    passes, the others skipped whole prefixes at a time.

    Residue 0 loses no first pattern.  Every translation of SQ, TRI and
    KING maps neighbours to neighbours, and so do the even translations of
    HEX and the glide (x, y) -> (x + 1, -y), which swaps the parity; each
    keeps the period (HEX periods are even).  So some automorphism takes
    the lowest cell (x, y) of a verifying pattern to (0, 0): the
    translation by (-x, -y), or on HEX with x + y odd the glide and then
    the even translation by (-x - 1, y).  The image verifies, has the same
    period and count and holds residue 0, and every subset holding 0 comes
    before every other, so the first verifying subset holds 0.  The walk
    picks 0 first and ends where it would back up past it.

    A depth-first walk on an explicit stack, so its depth (up to the area)
    is not bounded by the recursion limit.  It keeps the picks' counts as
    one k-layer mask, adding cover[r] for each pick r (see :func:`_cover`);
    the domination deficit Σ max(0, k - dominators of i) is the number of
    bits it lacks in the domination columns.  Both prunes are exact:

    * a pick removes at most deg from the domination deficit, so a prefix
      whose deficit exceeds deg times its picks left has no completion;
    * the picks after a prefix are drawn from residues >= the next one r,
      so r needs dom | avail[r] (:func:`_avail`) to be full: every
      constraint short of t members has t members in those residues,
      counted with multiplicity as the table counts them.  A larger r
      leaves fewer, so once r fails the level is done.

    So a leaf whose counts are full verifies.
    """
    area = len(cover)
    full = (1 << (k * width)) - 1
    # the domination columns of every layer
    vertices = sum(((1 << area) - 1) << t * width for t in range(k))
    dom = 0
    picks: list[int] = []
    saved: list[int] = []  # dom before each pick
    r = 0  # the next pick to try at the current level
    while True:
        # the last residue this level may pick, -1 when it is closed
        left = count - len(picks)
        last = area - left
        if left == 0:
            if dom == full:
                yield picks
            last = -1
        elif k * area - (dom & vertices).bit_count() > left * deg:
            last = -1
        # the next viable pick, backing up a level when there is none; the
        # walk ends where it would back up past the first pick, residue 0
        while r > last or dom | avail[r] != full:
            if len(picks) <= 1:
                return
            r, dom = picks.pop() + 1, saved.pop()
            last = area - count + len(picks)
        picks.append(r)
        saved.append(dom)
        c = cover[r]
        dom = (dom | c | (dom & c) << width) & full
        r += 1


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


BUILTIN_PATTERN_NAMES = tuple(_builtin_specs())


@lru_cache(maxsize=None)
def builtin_pattern(name: str) -> PeriodicPattern:
    """Fetch a builtin pattern, re-verifying it (and its exact density) on
    first access; a failing table raises rather than returning bad data."""
    specs = _builtin_specs()
    if name not in specs:
        raise InputError(
            f"unknown builtin pattern {name!r}; choices: {', '.join(BUILTIN_PATTERN_NAMES)}"
        )
    kind, pattern, expected_density = specs[name]
    if pattern.density() != expected_density:
        raise RuntimeError(f"builtin pattern {name} has density {pattern.density()}, "
                           f"expected {expected_density}")
    report = verify_pattern(pattern, kind)
    if not report.holds:
        raise RuntimeError(f"builtin pattern {name} fails its {kind.value} check")
    return pattern


def pattern_to_json(pattern: PeriodicPattern) -> str:
    _check_pattern(pattern)
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
