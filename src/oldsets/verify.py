"""Polynomial-time verifiers for distinguishing vertex sets.

Every verifier here is one walk, ``_first_failure(inc, pairs, s, fold)``,
where ``inc[v]`` is the mask of detectors that see vertex v.  Each vertex
needs ``fold`` detectors in S, and each listed pair needs ``fold`` in
(inc[u] △ inc[v]) ∩ S, those that see exactly one of the two.  Only pairs
whose masks share a detector in S are listed: for any other pair
(inc[u] △ inc[v]) ∩ S is the disjoint union of inc[u] ∩ S and inc[v] ∩ S,
with at least 2·fold detectors once both vertices have fold.  Pairs are
drawn only after every vertex passes, so leaving the others out changes
no witness.

* OLD sets (fold 1) and RED:OLD sets (fold 2, still correct after losing
  any single detector): inc[v] = N(v), over the graph's meeting pairs.
* Identifying codes: inc[v] = N[v], over the pairs whose closed
  neighborhoods meet (distance <= 2).
* Locating-dominating sets: inc[v] = N[v], over the open meeting pairs
  with neither end in S.  A vertex is seen by N(w) for w in N(v) ∩ S and
  by {v} when v is in S, |N[v] ∩ S| in all; an end in S is separated by its
  own singleton; and for u, v outside S only u and v can tell N[u] △ N[v]
  from N(u) △ N(v), so the closed count is the open one, and the closed
  masks share a detector in S exactly when the open ones do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError
from .graph import Graph, meeting_pairs

__all__ = [
    "Kind",
    "VerificationReport",
    "domination_count",
    "distinguishing_count",
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


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verifier plus a diagnostic witness on failure.

    When ``holds`` is false exactly one of ``vertex`` (an under-dominated
    vertex) or ``pair`` (an under-distinguished pair) is set, together with
    the offending count.
    """

    holds: bool
    vertex: int | None = None
    pair: tuple[int, int] | None = None
    count: int | None = None

    def __post_init__(self):
        if not self.holds and (self.vertex is None) == (self.pair is None):
            raise ValueError("a failing report names exactly one vertex or one pair")


_OK = VerificationReport(True)


def _check_set(g: Graph, s: int) -> None:
    if s < 0 or s & ~g.all_mask():
        raise InputError(f"vertex set {s:#x} has members outside 0..{g.n - 1}")


def _check_fold_and_set(g: Graph, s: int, fold: int) -> None:
    if fold < 1:
        raise InputError(f"fold must be >= 1, got {fold}")
    _check_set(g, s)


def _first_failure(
    inc: Sequence[int], pairs: Iterable[tuple[int, int]], s: int, fold: int
) -> VerificationReport:
    """The first vertex v with fewer than ``fold`` detectors of ``inc[v]``
    in ``s``, else the first pair (u, v) of ``pairs`` with fewer than
    ``fold`` in ``(inc[u] ^ inc[v]) & s``, else a holding report.  The
    pairs are drawn only once every vertex passes."""
    for v, m in enumerate(inc):
        c = (m & s).bit_count()
        if c < fold:
            return VerificationReport(False, vertex=v, count=c)
    for u, v in pairs:
        c = ((inc[u] ^ inc[v]) & s).bit_count()
        if c < fold:
            return VerificationReport(False, pair=(u, v), count=c)
    return _OK


def domination_count(g: Graph, s: int, v: int) -> int:
    """|N(v) ∩ S|."""
    g.check_vertex(v)
    _check_set(g, s)
    return (g.adj[v] & s).bit_count()


def distinguishing_count(g: Graph, s: int, u: int, v: int) -> int:
    """|(N(u) ∩ S) △ (N(v) ∩ S)|; symmetric in u and v."""
    g.check_vertex(u)
    g.check_vertex(v)
    _check_set(g, s)
    if u == v:
        raise InputError("distinguishing_count needs two distinct vertices")
    return ((g.adj[u] ^ g.adj[v]) & s).bit_count()


def is_open_dominating(g: Graph, s: int, fold: int = 1) -> VerificationReport:
    """Does every vertex have at least ``fold`` neighbors in S?

    The witness is the first failing vertex in index order.
    """
    _check_fold_and_set(g, s, fold)
    return _first_failure(g.adj, (), s, fold)


def verify_set(g: Graph, s: int, fold: int) -> VerificationReport:
    """k-fold open domination plus k-distinguishing of every vertex pair.

    fold=1 characterizes OLD sets; fold=2 characterizes RED:OLD sets.
    Domination is checked first (witness: first failing vertex), then pairs
    in lexicographic (u, v) order (witness: first failing pair).  Once
    domination holds only pairs whose neighborhoods share a member of S
    can fail, so only they are walked.
    """
    _check_fold_and_set(g, s, fold)
    return _first_failure(g.adj, g.meeting_pairs(s), s, fold)


def is_old(g: Graph, s: int) -> VerificationReport:
    return verify_set(g, s, 1)


def is_red_old(g: Graph, s: int) -> VerificationReport:
    return verify_set(g, s, 2)


def verify_kind(g: Graph, s: int, kind: Kind) -> VerificationReport:
    return verify_set(g, s, kind.fold)


def is_locating_dominating(g: Graph, s: int) -> bool:
    """Collection {{w}, N(w) : w in S} must be distinguishing.

    Checked on the closed neighborhoods over the meeting pairs outside S,
    as the module docstring explains.
    """
    _check_set(g, s)
    closed = tuple(a | 1 << v for v, a in enumerate(g.adj))
    pairs = ((u, v) for u, v in g.meeting_pairs(s) if not (s >> u | s >> v) & 1)
    return _first_failure(closed, pairs, s, 1).holds


def is_identifying_code(g: Graph, s: int) -> bool:
    """Collection {N[w] : w in S} must be distinguishing."""
    _check_set(g, s)
    closed = tuple(a | 1 << v for v, a in enumerate(g.adj))
    return _first_failure(closed, meeting_pairs(closed, s), s, 1).holds
