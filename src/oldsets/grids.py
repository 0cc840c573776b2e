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
the period: each is an adjacency mask of a torus of period multiples wide
enough that no constraint wraps onto itself, built once per (lattice, period)
and cached; a pattern's cells are tiled over that torus and counted under it.
Verdicts are the graph verifier's VerificationReport, its witness in lattice
coordinates: the first failure in domain order, as a vertex-by-vertex scan
would find it.  Densities are exact rationals throughout; no floating point.

:func:`search_patterns` walks cell subsets in the order verifying each would
take, but depth first, with the dominator counts of each prefix kept: a
prefix that no completion can make dominating is dropped, and so is any cell
count too small to give every vertex its k dominators.
"""

from __future__ import annotations

import enum
import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, decode_json
from .graph import MAX_VERTICES, Graph
from .verify import Kind, VerificationReport, _first_short

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


_FIXED_OFFSETS: dict[Lattice, tuple[Coord, ...]] = {
    Lattice.SQ: ((1, 0), (-1, 0), (0, 1), (0, -1)),
    Lattice.TRI: ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)),
    Lattice.KING: ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)),
}


def neighbors(lattice: Lattice, x: int, y: int) -> tuple[Coord, ...]:
    """Open neighborhood of (x, y) as absolute coordinates."""
    _check_lattice(lattice)
    if lattice is Lattice.HEX:
        vertical = (x, y + 1) if (x + y) % 2 == 0 else (x, y - 1)
        return ((x + 1, y), (x - 1, y), vertical)
    return tuple((x + dx, y + dy) for dx, dy in _FIXED_OFFSETS[lattice])


def lattice_degree(lattice: Lattice) -> int:
    _check_lattice(lattice)
    return 3 if lattice is Lattice.HEX else len(_FIXED_OFFSETS[lattice])


def _check_lattice(lattice) -> None:
    if not isinstance(lattice, Lattice):
        raise InputError(f"lattice must be a Lattice, got {lattice!r}")


# The largest period area px*py a pattern may have.  The tables hold one mask
# of at least area bits per constraint, O(area**2) bits in all: a TRI 64x64
# check keeps 14 MiB, KING 4096x1 (its side of 1 lifted to 5) 124 MiB, so a
# huge period in an input file is an input error rather than a MemoryError.
# Published optimal patterns have periods up to 13x13.
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


# ---------------------------------------------------------------------------
# Tables for the local check.
#
# Every constraint is a set of lattice vertices (N(u), or N(u) △ N(v)) whose
# members in the pattern are counted.  On a torus whose sides are period
# multiples the pattern tiles exactly, and once no two members of one
# constraint wrap onto the same torus vertex, a constraint is a torus
# adjacency mask, adj[u] or adj[u] ^ adj[v].  N(u) spans 3 coordinates each
# way, so the domination table lifts the period to sides >= 3; N(u) ∪ N(v),
# v meeting u, fits a (|dx|+3) x (|dy|+3) <= 5 x 5 box, so the separation
# table lifts it to sides >= 5.  Domination is checked on every search
# candidate, where larger masks cost time, so it keeps its smaller torus.
# The tables do not depend on the cells: they are built once per (lattice,
# period).

# Tables kept per cache: room for every period of a few searches up to 6x6.
_TABLE_CACHE_SIZE = 128


def _lift(p: int, side: int) -> int:
    """The smallest multiple of the period p that is >= side."""
    return p * -(-side // p)


def _torus_adj(lattice: Lattice, w: int, h: int) -> tuple[int, ...]:
    """Adjacency masks of the w x h torus, vertex (x, y) at index y * w + x.

    Rows 0 and 1 are built from the lattice's neighbour offsets (one set
    per x + y parity; only HEX has two) wrapped mod the dimensions.  Every
    later row y is row y % 2 moved down y - y % 2 rows: its masks are those
    of row y % 2 rotated by (y - y % 2) * w bits mod w * h, an even number
    of rows, so each vertex keeps its parity.  Each is built as the mask two
    rows up rotated by 2w bits, a plain shift unless bits pass the last row.
    """
    offsets = [tuple((nx - p, ny) for nx, ny in neighbors(lattice, p, 0)) for p in (0, 1)]
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


def _tile(cells, px: int, py: int, w: int, h: int) -> int:
    """The cells of a px x py period tiled over a w x h torus (sides that
    are multiples of the period), as a mask with (x, y) at bit y * w + x.

    Each row residue y mod py is one mask, the period's cells in that row
    tiled across the width; row y is that mask shifted to y * w."""
    rows = [0] * py
    for x, y in cells:
        rows[y] |= 1 << x
    # a row of the period is below 1 << px, so multiplying by one set bit
    # every px places copies it without carries
    tile = sum(1 << (i * px) for i in range(w // px))
    rows = [r * tile for r in rows]
    mask = 0
    for y in range(h):
        mask |= rows[y % py] << (y * w)
    return mask


@lru_cache(maxsize=None)
def _meeting(lattice: Lattice, parity: int) -> tuple[Coord, ...]:
    """The offsets from u of each w != u with N(u) ∩ N(w) != ∅, sorted, for
    u with x+y = parity (mod 2); only HEX depends on the parity."""
    u = (parity, 0)
    meeting = {w for a in neighbors(lattice, *u) for w in neighbors(lattice, *a)} - {u}
    return tuple((x - parity, y) for x, y in sorted(meeting))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _domination_table(lattice: Lattice, px: int, py: int) -> tuple[int, int, tuple[int, ...]]:
    """(w, h, masks): N(u) on the w x h torus of the period lifted to sides
    >= 3, for each fundamental-domain vertex u in domain order, so mask i
    belongs to u = divmod(i, py)."""
    w, h = _lift(px, 3), _lift(py, 3)
    adj = _torus_adj(lattice, w, h)
    return w, h, tuple(adj[y * w + x] for x in range(px) for y in range(py))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _separation_table(
    lattice: Lattice, px: int, py: int
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """(w, h, masks, codes): N(u) △ N(v) on the w x h torus of the period
    lifted to sides >= 5, for u in domain order and v meeting u in sorted
    order, keeping only the first pair of each translation class {u, v}; a
    later pair of the class has the same count, so it can never be the
    first to fail.

    The pair of u = divmod(i, py) with its j-th meeting vertex has code
    i * stride + j (stride: the number of meeting vertices, the same for
    both HEX parities, which mirror each other), so codes grow in scan
    order.  The class's other pair with its first vertex in the domain
    starts from v mod the period and goes back by the same offset; the pair
    with the smaller code comes first.
    """
    w, h = _lift(px, 5), _lift(py, 5)
    adj = _torus_adj(lattice, w, h)
    stride = len(_meeting(lattice, 0))
    masks: list[int] = []
    codes: list[int] = []
    for x in range(px):
        for y in range(py):
            for j, (dx, dy) in enumerate(_meeting(lattice, (x + y) % 2)):
                vx, vy = (x + dx) % px, (y + dy) % py
                back = _meeting(lattice, (vx + vy) % 2).index((-dx, -dy))
                code = (x * py + y) * stride + j
                if code < (vx * py + vy) * stride + back:
                    masks.append(adj[y * w + x] ^ adj[(y + dy) % h * w + (x + dx) % w])
                    codes.append(code)
    return w, h, tuple(masks), tuple(codes)


def verify_pattern(pattern: PeriodicPattern, kind: Kind) -> VerificationReport:
    """Check the kind's conditions over the whole infinite lattice.

    Finite procedure: every fundamental-domain vertex u needs >= k
    dominators, and every pair of u with a vertex v whose open neighborhood
    meets N(u) needs >= k separators (one pair per translation class).
    Other pairs have disjoint open neighborhoods, so their separation count
    is the sum of two domination counts and passes once domination does.
    The witness, its vertices lattice coordinates (x, y), is the first
    failing vertex in domain order, else the first failing pair (u in
    domain order, then v sorted), read off the first short table mask; a
    pair's code stands for u and its j-th meeting vertex.  A pattern that
    fails domination never builds the separation table.
    """
    lattice, (px, py), k = pattern.lattice, pattern.period, kind.fold
    w, h, masks = _domination_table(lattice, px, py)
    short = _first_short(masks, _tile(pattern.cells, px, py, w, h), k)
    if short is not None:
        i, count = short
        return VerificationReport(False, vertex=divmod(i, py), count=count)
    w, h, masks, codes = _separation_table(lattice, px, py)
    short = _first_short(masks, _tile(pattern.cells, px, py, w, h), k)
    if short is not None:
        i, count = short
        u, j = divmod(codes[i], len(_meeting(lattice, 0)))
        x, y = divmod(u, py)
        dx, dy = _meeting(lattice, (x + y) % 2)[j]
        return VerificationReport(False, pair=((x, y), (x + dx, y + dy)), count=count)
    return VerificationReport(True)


def _check_torus(lattice: Lattice, width: int, height: int) -> None:
    """InputError unless width x height is a torus :func:`build_torus`
    builds: int dimensions >= 5, at most MAX_VERTICES = 2**15 vertices,
    even for HEX.  Checked before any mask is built."""
    _check_lattice(lattice)
    if type(width) is not int or type(height) is not int:
        raise InputError(f"torus dimensions must be integers, got {width!r}x{height!r}")
    if width < 5 or height < 5:
        raise InputError(f"torus dimensions must be >= 5, got {width}x{height}")
    if width * height > MAX_VERTICES:
        raise InputError(f"torus {width}x{height} is above the limit of {MAX_VERTICES} vertices")
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
    """
    _check_torus(lattice, width, height)
    adj = _torus_adj(lattice, width, height)
    deg = lattice_degree(lattice)
    if any(a.bit_count() != deg for a in adj):
        raise AssertionError("torus is not regular; dimension guard is wrong")
    columns = [f"{x}," for x in range(width)]
    labels = tuple(x + y for y in map(str, range(height)) for x in columns)
    return Graph(width * height, adj, labels)


def restrict_pattern_to_torus(pattern: PeriodicPattern, width: int, height: int) -> int:
    """The pattern's vertex set on a build_torus(width, height) graph, as a
    bitmask.  The torus must pass build_torus's guards, and its dimensions
    must be multiples of the period and >= 6; all are checked, in that
    order, before the mask is built."""
    _check_torus(pattern.lattice, width, height)
    px, py = pattern.period
    if width % px or height % py:
        raise InputError(f"torus {width}x{height} is not a multiple of the period {px}x{py}")
    if width < 6 or height < 6:
        raise InputError("cross-check tori must be at least 6x6")
    return _tile(pattern.cells, px, py, width, height)


def cross_check_dims(pattern: PeriodicPattern) -> tuple[int, int]:
    """Smallest period multiples that are >= 3x the period and >= 6."""
    px, py = pattern.period
    return max(3 * px, _lift(px, 6)), max(3 * py, _lift(py, 6))


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
    too few cells never fetches its tables.  Within a count, the subsets
    are walked depth first over residue indices in the order of
    ``itertools.combinations`` (:func:`_dominating_subsets`), keeping the
    picks' dominator counts, and a prefix is dropped as soon as no
    completion can pass domination.  The prunes are exact, so the walk
    yields exactly the subsets that pass the domination check of
    :func:`verify_pattern`, in order; each then gets its separation check,
    one ``_first_short`` over the cached separation table on the tiled
    cells.  The first to pass both is the pattern that verifying every
    subset in order would find.  Each period fetches its separation table
    once a candidate first passes domination, and the one
    :class:`PeriodicPattern` built is the one returned.

    Both bounds are required.  Raises :class:`InputError` unless
    ``lattice`` is a :class:`Lattice`, ``kind`` a :class:`Kind`,
    ``max_period`` a tuple of two ints >= 1 with area at most
    MAX_PERIOD_AREA, and ``target_density`` a positive int or Fraction (a
    float could floor the cell count wrongly: 0.29 * 100 == 28.999...).
    """
    _check_lattice(lattice)
    if not isinstance(kind, Kind):
        raise InputError(f"kind must be a Kind, got {kind!r}")
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
        cover, carry, avail = _residue_tables(lattice, px, py, k)
        tiles = None  # fetched when a candidate first passes domination
        for count in range(min_cells, max_cells + 1):
            for picks in _dominating_subsets(cover, carry, avail, k, deg, count):
                if tiles is None:
                    sw, sh, sep_masks, _ = _separation_table(lattice, px, py)
                    # each residue's cell tiled over the separation torus
                    tiles = [_tile(((x, y),), px, py, sw, sh)
                             for x in range(px) for y in range(py)]
                # disjoint tiles, so their sum is the tiled cell mask
                if _first_short(sep_masks, sum(map(tiles.__getitem__, picks)), k) is None:
                    cells = frozenset(divmod(r, py) for r in picks)
                    return PeriodicPattern(lattice, (px, py), cells)
    return None


def _residue_tables(
    lattice: Lattice, px: int, py: int, k: int
) -> tuple[list[int], list[list[tuple[int, int]]], list[int]]:
    """(cover, carry, avail) for the residues of a px x py period, residue
    (x, y) at index x * py + y, the domain order of the domination table.

    A set of residues is held as a k-layer mask of its dominator counts:
    bit t * area + i is set when domain vertex i has more than t
    dominators, t < k.  cover[r] is that mask for residue r alone.  A
    vertex already in layer j that residue r dominates more than s - 1
    times moves up to layer j + s: carry[r] holds, for 1 <= s < k, the
    (mask, shift) pair that picks those vertices from layers j < k - s
    and shifts them by s layers.  avail[r] sets bit t * area + i when the
    residues r, r + 1, ... hold at least k - t neighbours of vertex i.
    All three are read off the domination table's masks."""
    w, h, masks = _domination_table(lattice, px, py)
    area = px * py
    residue = [x % px * py + y % py for y in range(h) for x in range(w)]
    cover = [0] * area
    # first[r]: the bits that avail gains at r, where a vertex's suffix of
    # neighbours first reaches some count
    first = [0] * area
    for i, mask in enumerate(masks):
        # the residue of each neighbour of vertex i, largest first
        near = []
        while mask:
            bit = mask & -mask
            near.append(residue[bit.bit_length() - 1])
            mask ^= bit
        near.sort(reverse=True)
        c, prev = 0, -1
        for s, r in enumerate(near):
            c = c + 1 if r == prev else 0  # neighbours of i in r before this one
            prev = r
            if c < k:
                cover[r] |= 1 << (c * area + i)
            if s < k:
                # from r down, the suffix holds s + 1 = k - t neighbours
                first[r] |= 1 << ((k - 1 - s) * area + i)
    avail = list(itertools.accumulate(reversed(first), operator.or_))[::-1]
    low = (1 << area) - 1
    carry = [
        [(sum(((cov >> (s - 1) * area) & low) << (j * area) for j in range(k - s)), s * area)
         for s in range(1, k)]
        for cov in cover
    ]
    return cover, carry, avail


def _dominating_subsets(
    cover: list[int], carry: list[list[tuple[int, int]]], avail: list[int],
    k: int, deg: int, count: int,
):
    """Yield, as a list of residue indices, each count-subset of the
    residues in lexicographic order whose cells give every domain vertex at
    least k dominators: the ``itertools.combinations`` that pass the
    domination check, the others skipped whole prefixes at a time.

    A depth-first walk on an explicit stack, so its depth (up to the area)
    is not bounded by the recursion limit.  It keeps the picks' dominator
    counts as one k-layer mask (see :func:`_residue_tables`); the deficit
    Σ max(0, k - dominators of i) is the number of bits it lacks.  Both
    prunes are exact:

    * a pick removes at most deg from the deficit, so a prefix whose
      deficit exceeds deg times its picks left has no completion;
    * the picks after a prefix are drawn from residues >= the next one r,
      so r needs dom | avail[r] to be full: every vertex short of t
      dominators has t neighbours in those residues.  A larger r leaves
      fewer, so once r fails the level is done.
    """
    area = len(cover)
    full = (1 << (k * area)) - 1
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
        elif k * area - dom.bit_count() > left * deg:
            last = -1
        # the next viable pick, backing up a level when there is none
        while r > last or dom | avail[r] != full:
            if not picks:
                return
            r, dom = picks.pop() + 1, saved.pop()
            last = area - count + len(picks)
        picks.append(r)
        saved.append(dom)
        grown = dom | cover[r]
        for mask, shift in carry[r]:
            grown |= (dom & mask) << shift
        dom = grown
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
