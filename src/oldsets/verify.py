"""Polynomial-time verifiers for distinguishing vertex sets.

Everything here reduces to two primitive counters over a candidate set S:

* ``domination_count``    — how many members of S are adjacent to a vertex;
* ``distinguishing_count`` — how many members of S separate a pair, i.e. the
  size of the symmetric difference of the pair's S-restricted neighborhoods.

An open-locating-dominating (OLD) set needs both counters >= 1 everywhere;
its fault-tolerant variant (RED:OLD, still correct after losing any single
detector) needs both >= 2.  The fold is exposed generally so both checks are
the same code path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .graph import Graph, vertices_of

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
    "is_red_old_definitional",
    "is_old_definitional",
    "is_old_via_collection",
    "is_distinguishing_collection",
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
    if fold < 1:
        raise InputError(f"fold must be >= 1, got {fold}")
    _check_set(g, s)
    for v in range(g.n):
        c = (g.adj[v] & s).bit_count()
        if c < fold:
            return VerificationReport(False, vertex=v, count=c)
    return _OK


def verify_set(g: Graph, s: int, fold: int) -> VerificationReport:
    """k-fold open domination plus k-distinguishing of every vertex pair.

    fold=1 characterizes OLD sets; fold=2 characterizes RED:OLD sets.
    Domination is checked first (witness: first failing vertex), then pairs
    in lexicographic (u, v) order (witness: first failing pair).  Once
    domination holds only meeting pairs can fail, so only they are walked.
    """
    rep = is_open_dominating(g, s, fold)  # also checks fold and s
    if not rep.holds:
        return rep
    for u, v in g.meeting_pairs():
        c = ((g.adj[u] ^ g.adj[v]) & s).bit_count()
        if c < fold:
            return VerificationReport(False, pair=(u, v), count=c)
    return _OK


def is_old(g: Graph, s: int) -> VerificationReport:
    return verify_set(g, s, 1)


def is_red_old(g: Graph, s: int) -> VerificationReport:
    return verify_set(g, s, 2)


def verify_kind(g: Graph, s: int, kind: Kind) -> VerificationReport:
    return verify_set(g, s, kind.fold)


def is_red_old_definitional(g: Graph, s: int) -> VerificationReport:
    """RED:OLD by its definition: S open-dominating and every single-detector
    deletion S - {v} still an OLD set.

    Equivalent to :func:`is_red_old`; kept separate so the equivalence can be
    tested rather than assumed.
    """
    rep = is_open_dominating(g, s, 1)
    if not rep.holds:
        return rep
    for v in vertices_of(s):
        inner = is_old(g, s & ~(1 << v))
        if not inner.holds:
            return inner
    return _OK


def is_old_definitional(g: Graph, s: int) -> bool:
    """OLD by the direct definition: S open-dominating and all S-restricted
    open neighborhoods pairwise distinct."""
    if not is_open_dominating(g, s, 1).holds:
        return False
    codes = [g.adj[v] & s for v in range(g.n)]
    return len(set(codes)) == g.n


def is_distinguishing_collection(universe_size: int, subsets: Sequence[int]) -> bool:
    """Does the collection cover 0..universe_size-1 and separate every pair,
    some member containing exactly one vertex of the pair?"""
    full = (1 << universe_size) - 1
    cover = 0
    for sub in subsets:
        if sub & ~full:
            raise InputError("collection member leaves the universe")
        cover |= sub
    if cover != full:
        return False
    for u in range(universe_size):
        for v in range(u + 1, universe_size):
            pair = (1 << u) | (1 << v)
            if not any((sub & pair).bit_count() == 1 for sub in subsets):
                return False
    return True


def is_old_via_collection(g: Graph, s: int) -> bool:
    """OLD via the collection route: {N(w) : w in S} must be distinguishing."""
    return is_distinguishing_collection(g.n, [g.adj[w] for w in vertices_of(s)])


def is_locating_dominating(g: Graph, s: int) -> bool:
    """Collection {{w}, N(w) : w in S} must be distinguishing."""
    subsets: list[int] = []
    for w in vertices_of(s):
        subsets.append(1 << w)
        subsets.append(g.adj[w])
    return is_distinguishing_collection(g.n, subsets)


def is_identifying_code(g: Graph, s: int) -> bool:
    """Collection {N[w] : w in S} must be distinguishing."""
    return is_distinguishing_collection(
        g.n, [g.closed_neighborhood(w) for w in vertices_of(s)]
    )
