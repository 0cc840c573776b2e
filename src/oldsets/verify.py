"""Polynomial-time verifiers for distinguishing vertex sets.

Each verifier reads ``inc[v]``, the mask of detectors that see vertex v,
and the codes inc[v] ∩ S; :func:`grids.verify_pattern` gives its verdict
on lattice patterns as the same :class:`VerificationReport`.

* OLD sets (fold 1) and RED:OLD sets (fold 2, still correct after losing
  any single detector), in :func:`verify_set`: inc[v] = N(v).  Each
  vertex needs ``fold`` detectors in S, and each pair needs ``fold`` in
  (inc[u] △ inc[v]) ∩ S, those that see exactly one of the two.  Only
  the graph's meeting pairs, whose masks share a detector in S, are
  walked: for any other pair (inc[u] △ inc[v]) ∩ S is the disjoint union
  of inc[u] ∩ S and inc[v] ∩ S, with at least 2·fold detectors once both
  vertices have fold.  Pairs are drawn only after every vertex passes,
  so leaving the others out changes no witness.

  At fold 1 and 2 an accept comes first: the pass that counts every code
  also puts it in a set, and when no two are equal (and, at fold 2, no
  code is another less one detector) no pair at all can fail, so the
  check holds without drawing a pair.  At fold 2 only codes of three or
  more detectors are probed less one: every code has two.  Otherwise,
  and at fold 3 and up, the pair walk decides; it is the only source of
  pair witnesses.
* Identifying codes and locating-dominating sets ask only that the codes
  be non-empty and pairwise distinct, so the accept alone decides them,
  exactly, with no pair walk (:func:`_codes_distinct`).  An identifying
  code sees v through inc[v] = N[v], for every vertex.  In a
  locating-dominating set a vertex in S is seen, and told apart from
  every other vertex, by its own singleton {v}; a vertex outside S is
  seen only by N(w) for w in N(v) ∩ S.  So only the codes N(v) ∩ S of the
  vertices v outside S are checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, shown
from .graph import Graph, check_graph, meeting_pairs

__all__ = [
    "Kind",
    "check_kind",
    "VerificationReport",
    "is_open_dominating",
    "verify_set",
    "verify_kind",
    "is_old",
    "is_red_old",
    "is_locating_dominating",
    "is_identifying_code",
]


class Kind(enum.Enum):
    """Which distinguishing-set variant a verifier or solver targets."""

    OLD = "old"
    RED_OLD = "redold"

    @property
    def fold(self) -> int:
        """Required domination and separation multiplicity (1 or 2)."""
        return 1 if self is Kind.OLD else 2


def check_kind(kind: Kind) -> None:
    """InputError unless ``kind`` is a :class:`Kind`; a string such as
    "old" is not one."""
    if not isinstance(kind, Kind):
        raise InputError(f"kind must be a Kind, got {kind!r}")


Vertex = int | tuple[int, int]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verifier plus a diagnostic witness on failure.

    When ``holds`` is false exactly one of ``vertex`` (an under-dominated
    vertex) or ``pair`` (an under-distinguished pair) is set, together with
    the offending count.  A vertex is a graph index or, from
    :func:`grids.verify_pattern`, a lattice coordinate pair (x, y).
    """

    holds: bool
    vertex: Vertex | None = None
    pair: tuple[Vertex, Vertex] | None = None
    count: int | None = None

    def __post_init__(self):
        if not self.holds and (self.vertex is None) == (self.pair is None):
            raise ValueError("a failing report names exactly one vertex or one pair")


_OK = VerificationReport(True)


def _check_set(g: Graph, s: int) -> None:
    check_graph(g)
    g.check_set(s)


def _check_fold_and_set(g: Graph, s: int, fold: int) -> None:
    # type(...) is int rejects bool and float: a fold of 1.5 would act as 2
    if type(fold) is not int or fold < 1:
        raise InputError(f"fold must be an int >= 1, got {shown(fold)}")
    _check_set(g, s)


def _dominated(
    inc: Sequence[int], s: int, fold: int, keys: set[int] | None = None
) -> VerificationReport:
    """The first vertex v with fewer than ``fold`` detectors of ``inc[v]``
    in ``s`` as a failing report, else a holding one.  Given a set
    ``keys``, the same pass adds each code's key to it (see
    :func:`_codes_apart`), so every code inc[v] & s is built once."""
    width = s.bit_length().bit_length()
    for v, m in enumerate(inc):
        c = m & s
        count = c.bit_count()
        if count < fold:
            return VerificationReport(False, vertex=v, count=count)
        if keys is not None:
            t = (c & -c).bit_length() - 1
            keys.add((c >> t) << width | t)
    return _OK


def _codes_apart(keys: set[int], n: int, s: int, fold: int) -> bool:
    """Do the n codes inc[v] & s keyed in ``keys`` by :func:`_dominated`
    all differ from each other in at least ``fold`` detectors?  Exact for
    fold 1 and 2, where a pair fails only when its codes are equal or one
    is the other less one detector.  Every code has ``fold`` detectors,
    since domination passed; so at fold 2 a code of two is never the other
    less one, and only codes of three or more are probed less each
    detector, which still finds the pair (c, c less b) from c's side.

    Each code c is kept in one set, exactly, as the int (c >> t) << width
    | t, with t its lowest set bit and width the bits that any t < the bit
    length of s needs, so distinct codes have distinct keys.  A key is
    small where a code spans only the detectors near its vertex, as on a
    torus.  Keying on c itself would keep every code at its full width,
    and the codes of a periodic set shifted by 61 bits share a hash (ints
    hash mod 2**61 - 1); t in the low bits keeps those apart.  Codes are
    not empty: domination passed.
    """
    if len(keys) < n:
        return False
    if fold == 2:
        width = s.bit_length().bit_length()
        low = (1 << width) - 1
        for key in keys:
            code, t = key >> width, key & low
            if code.bit_count() < 3:
                continue  # less one, it has one detector, and every code has two
            rest = code
            while rest:
                bit = rest & -rest
                rest ^= bit
                d = code ^ bit  # the code less one detector
                dt = (d & -d).bit_length() - 1
                if (d >> dt) << width | (t + dt) in keys:
                    return False
    return True


def is_open_dominating(g: Graph, s: int, fold: int = 1) -> VerificationReport:
    """Does every vertex have at least ``fold`` neighbors in S?

    The witness is the first failing vertex in index order.
    """
    _check_fold_and_set(g, s, fold)
    return _dominated(g.adj, s, fold)


def verify_set(g: Graph, s: int, fold: int) -> VerificationReport:
    """k-fold open domination plus k-distinguishing of every vertex pair.

    fold=1 characterizes OLD sets; fold=2 characterizes RED:OLD sets.
    Domination is checked first (witness: first failing vertex), then pairs
    in lexicographic (u, v) order (witness: first failing pair).  Once
    domination holds only pairs whose neighborhoods share a member of S
    can fail, so only they are walked, and not at all when
    :func:`_codes_apart` accepts: then no pair of vertices can fail.
    """
    _check_fold_and_set(g, s, fold)
    adj = g.adj
    keys: set[int] | None = set() if fold <= 2 else None
    rep = _dominated(adj, s, fold, keys)
    if not rep.holds or (keys is not None and _codes_apart(keys, len(adj), s, fold)):
        return rep
    for u, above in meeting_pairs(adj, s):
        a = adj[u]
        while above:
            low = above & -above
            v = u + low.bit_length()
            c = ((a ^ adj[v]) & s).bit_count()
            if c < fold:
                return VerificationReport(False, pair=(u, v), count=c)
            above ^= low
    return _OK


def is_old(g: Graph, s: int) -> VerificationReport:
    return verify_set(g, s, 1)


def is_red_old(g: Graph, s: int) -> VerificationReport:
    return verify_set(g, s, 2)


def verify_kind(g: Graph, s: int, kind: Kind) -> VerificationReport:
    check_kind(kind)
    return verify_set(g, s, kind.fold)


def _codes_distinct(masks: Sequence[int], s: int) -> bool:
    """Are the codes masks[v] & s all non-empty and pairwise distinct?"""
    keys: set[int] = set()
    return _dominated(masks, s, 1, keys).holds and len(keys) == len(masks)


def is_locating_dominating(g: Graph, s: int) -> bool:
    """Collection {{w}, N(w) : w in S} must be distinguishing: the codes
    N(v) ∩ S of the vertices v outside S alone decide it, as the module
    docstring explains."""
    _check_set(g, s)
    return _codes_distinct([a for v, a in enumerate(g.adj) if not s >> v & 1], s)


def is_identifying_code(g: Graph, s: int) -> bool:
    """Collection {N[w] : w in S} must be distinguishing: every code
    N[v] ∩ S non-empty, no two equal."""
    _check_set(g, s)
    return _codes_distinct([a | 1 << v for v, a in enumerate(g.adj)], s)
