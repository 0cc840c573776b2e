"""Exact minimum-cardinality OLD / RED:OLD solvers.

Two independent routes are provided on purpose:

* :func:`min_set_bruteforce` — increasing-cardinality subset enumeration,
  the reference oracle for small graphs;
* :func:`min_set` — constraint propagation plus depth-first branch and
  bound, validated against the oracle.

The constraint view: a candidate S must give every vertex >= k dominators
(members of N(v) ∩ S) and every pair >= k separators (members of
(N(u) △ N(v)) ∩ S), k being the kind's fold.  Propagation closes two rules
over a partial assignment (forced_in / forced_out):

  R1  if a vertex has exactly k dominators not yet excluded, all of them
      are required;
  R2  if a pair has exactly k separators not yet excluded, all of them are
      required;
  R3  if any vertex or pair has fewer than k candidates left, the branch is
      infeasible.

Anything a rule forces belongs to *every* acceptable set consistent with
the branch, which is what makes the forced set reusable as a lower bound
and as a certificate that a vertex lies in every optimal set.

The constraints are the graph's ``constraint_masks``: separation is kept
only for meeting pairs, as a pair with disjoint neighborhoods can never
fire a rule, nor be the tightest constraint, while domination holds.

A search state is a plain (forced_in, forced_out) mask pair, and every
one is a propagation fixpoint: each constraint keeps >= k candidates, and
where it keeps exactly k they are all in forced_in.  So every live
constraint (one not yet met k times by forced_in) keeps >= k + 1.  The
rules read only forced_out, so the include child (forced_in | {v}) of a
fixpoint is itself one.  The exclude child (forced_out | {v}) can only
change the live constraints containing v: those keeping exactly k + 1
force their other candidates, and nothing conflicts.  Only the root takes
a full ``propagate``; fixing (below) runs the same pass, ``_close``, over
a state's live constraints alone.

Each visited state takes one ``_scan`` of its parent's live constraints
(forced_in only grows down the tree, so the rest stay satisfied) for its
bound, branch vertex and own live list.  The same pass closes the
exclude child: it collects the live constraints keeping exactly k + 1 and
adds the candidates of those containing the branch vertex, so both
children are pushed as fixpoints, and the exclude child is visited first.
The bound packs the deficits of constraints with disjoint undecided
candidates: on the 3-SAT reduction graphs this is the paper's counting
argument, and the root bound is the 16N + 3M threshold.

Where that packing gives a bound equal to the best size so far, the
bound also fixes: a set below the state that holds an undecided vertex
outside the packed constraints' candidates has at least one more vertex,
as each packed constraint still needs its deficit from its own
candidates.  Such a state excludes all those vertices, closes the
exclusions over its live constraints (a conflict prunes it) and takes a
second ``_scan``.

One pass finds the optimum and its optima.  A state is pruned only when
its bound exceeds the best size so far, so ties are kept and every
optimum is reached, each at exactly one leaf; fixing at a tie removes
only vertices that no set of that size holds.  The witness is the first
optimum in sorted order.  A witness-only solve also prunes a tie when no
set below it can come before the best set so far.  The search is an
explicit-stack loop, so its depth is not limited by Python's recursion
limit.

A decision asks only whether some set has at most t vertices
(``min_set(..., at_most=t)``).  The same pass starts with ``ub = t``, so
the bound prunes and fixes against t from the root, and it stops at the
first leaf: that set has at most t vertices, but it need be neither
minimum nor first in order.  The 3-SAT decision is one such call, with t
the reduction's threshold, which the root bound already reaches.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .errors import BudgetExceededError, InputError, shown
from .graph import Graph, check_graph, mask_of, vertices_of
from .verify import Kind, check_kind, verify_kind, verify_set

__all__ = [
    "DEFAULT_BUDGET",
    "SolveResult",
    "propagate",
    "min_set",
    "min_set_bruteforce",
]

DEFAULT_BUDGET = 10**8

_BRUTEFORCE_MAX_N = 20


class SolveResult(NamedTuple):
    """Solver outcome, an immutable named tuple.

    ``value`` is None when the instance is infeasible (then so is
    ``witness``).  ``witness`` is the lexicographically smallest optimum,
    comparing optima as sorted index tuples.  ``all_minimum_sets`` is the
    complete list of optima, present only when enumeration was requested,
    in that same order.  Sets are bitmasks.

    A decision (``min_set(..., at_most=t)``) claims less: ``witness`` is
    the first set of at most t vertices the search reached and ``value``
    its size, which need not be the minimum; both are None when no such
    set exists.
    """

    value: int | None
    witness: int | None
    all_minimum_sets: tuple[int, ...] | None = None
    nodes: int = 0

    @property
    def feasible(self) -> bool:
        return self.value is not None


def propagate(g: Graph, kind: Kind, forced_in: int = 0, forced_out: int = 0) -> int | None:
    """Close rules R1/R2 to a fixpoint: the closed forced_in, or None on a
    conflict (R3), by one ``_close`` pass over every constraint."""
    check_kind(kind)
    check_graph(g)
    g.check_set(forced_in)
    g.check_set(forced_out)
    if forced_in & forced_out:
        return None
    return _close(g.constraint_masks, kind.fold, forced_in, forced_out)


def _close(masks: Sequence[int], k: int, fin: int, fout: int) -> int | None:
    """R1/R2 over ``masks``: fin plus the candidates of every mask keeping
    exactly k vertices outside fout, or None when one keeps fewer (R3).
    The rules read only fout, which never grows here, so one pass closes
    them."""
    keep = ~fout
    for need in masks:
        avail = need & keep
        c = avail.bit_count()
        if c <= k:
            if c < k:
                return None
            fin |= avail
    return fin


def _scan(
    n: int, k: int, masks: Sequence[int], fin: int, fout: int
) -> tuple[int, int | None, list[int], int, int]:
    """(bound, branch vertex, live, exclude_fin, taken) of a propagation
    fixpoint, in one pass over ``masks``.  ``live``: the masks with deficit
    d = k - |need ∩ fin| > 0, in order.  Branch vertex: the lowest undecided
    one of the tightest live mask (fewest vertices not excluded), None if
    none is live.  Bound: |fin| plus the larger of the worst d and the d
    summed, greedily in order, over masks whose undecided candidates are
    pairwise disjoint (the packing).  ``exclude_fin``: the forced_in of the
    branch vertex's exclude child, fin plus the other candidates of every
    live mask that keeps exactly k + 1 and contains the vertex (fin if none
    is live).  ``taken``: the union of the packed masks' undecided
    candidates, or -1 when the worst d gives the bound or none is live."""
    keep, undecided = ~fout, ~(fin | fout)
    live = []
    # undecided candidates of the live masks keeping exactly k + 1, the
    # fewest a live mask at a fixpoint keeps
    tight = []
    k1 = k + 1
    best_cnt, best_v = n + 1, None
    taken = packed = worst = 0
    for need in masks:
        d = k - (need & fin).bit_count()
        if d <= 0:
            continue
        live.append(need)
        cand = need & undecided
        if not cand & taken:
            taken |= cand
            packed += d
        if d > worst:
            worst = d
        cnt = (need & keep).bit_count()
        if cnt <= best_cnt and cand:
            if cnt == k1:
                tight.append(cand)
            bv = (cand & -cand).bit_length() - 1
            # best_v is None only while best_cnt = n + 1 > cnt
            if cnt < best_cnt or bv < best_v:
                best_cnt, best_v = cnt, bv
    if best_v is None:
        if live:
            raise AssertionError("live constraint with no candidates at a fixpoint")
        return fin.bit_count(), None, live, fin, -1
    # the branch vertex lies in a tightest mask, so tight is empty unless
    # best_cnt == k + 1
    bit = 1 << best_v
    exclude_fin = fin
    for cand in tight:
        if cand & bit:
            exclude_fin |= cand ^ bit
    if packed < worst:
        return fin.bit_count() + worst, best_v, live, exclude_fin, -1
    return fin.bit_count() + packed, best_v, live, exclude_fin, taken


def _ruled_out(full: int, ub: int, bound: int, taken: int, fin: int, fout: int) -> int:
    """Undecided vertices of the fixpoint (fin, fout) that no set of size
    <= ``ub`` below it holds, from its ``_scan`` bound and ``taken``.  When
    the bound is ``ub`` and the packing gives it, these are the vertices
    outside ``taken``: every packed mask still needs its deficit from its
    own candidates, so a set holding one of them has at least ub + 1.  A
    ``taken`` of -1, or a bound other than ``ub``, names none."""
    return full & ~(fin | fout | taken) if bound == ub else 0


def _can_precede(n: int, fout: int, w: int) -> bool:
    """Can some set that avoids ``fout`` come before ``w`` in sorted-tuple
    order, that is, contain the lowest vertex of its difference with ``w``?

    Such a set agrees with ``w`` below some vertex x outside ``w | fout``,
    so x must lie below every vertex of ``w & fout``.  Forced_in never
    changes the answer: its vertices outside ``w`` are such an x already.
    """
    clash = w & fout
    below = (clash & -clash) - 1 if clash else (1 << n) - 1
    return bool(below & ~(w | fout))


def _optima(
    g: Graph, k: int, fin: int, fout: int, ub: int, enumerate_all: bool, budget: int,
    first: bool,
) -> tuple[int, list[int], int]:
    """The minimum size, its optima in sorted-tuple order and the nodes
    visited, searching below the fixpoint (fin, fout): all optima with
    ``enumerate_all``, else only the first.  ``ub`` must be the size of
    some known-feasible set; visiting more than ``budget`` nodes raises
    :class:`BudgetExceededError`.  With ``first``, ``ub`` is a size to
    reach instead: the search returns the first leaf, a set of at most
    ``ub`` vertices, as the only set, and no set if there is none.

    Each visited state takes one ``_scan``.  Where its bound is ``ub``
    and the packing gives it, the state first excludes the vertices that
    ``_ruled_out`` names, closes R1/R3 over its live masks (a conflict
    prunes it) and scans again.  Its bound prunes, and the search branches
    on its vertex, exclude before include; the scan also gives the exclude
    child's closed forced_in, so both children are pushed as fixpoints.  A
    state with no live constraint is a leaf whose forced_in is accepted.
    The path that follows an optimum's membership ends at a leaf inside it,
    which is no larger, so each optimum is that one leaf.
    """
    n, full = g.n, g.all_mask()
    sets: list[int] = []
    nodes = 0
    # (fin, fout, live): a fixpoint to visit, with its parent's live
    stack = [(fin, fout, g.constraint_masks)]
    while stack:
        fin, fout, live = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(budget, nodes)
        bound, v, live, exclude_fin, taken = _scan(n, k, live, fin, fout)
        out = _ruled_out(full, ub, bound, taken, fin, fout)
        if out:
            fout |= out
            fin = _close(live, k, fin, fout)
            if fin is None:
                continue
            bound, v, live, exclude_fin, _ = _scan(n, k, live, fin, fout)
        if bound > ub or (
            bound == ub and sets and not enumerate_all
            and not _can_precede(n, fout, sets[0])
        ):
            continue
        if v is None:
            size = fin.bit_count()
            if first:
                return size, [fin], nodes
            if size < ub:
                ub, sets = size, [fin]
            elif enumerate_all or not sets:
                sets.append(fin)
            elif _can_precede(n, full & ~fin, sets[0]):
                # both have ub vertices, so fin comes first iff it holds the
                # lowest vertex of their difference
                sets[0] = fin
            continue
        bit = 1 << v
        stack.append((fin | bit, fout, live))
        stack.append((exclude_fin, fout | bit, live))
    sets.sort(key=vertices_of)
    return ub, sets, nodes


def min_set(
    g: Graph,
    kind: Kind,
    enumerate_all: bool = False,
    budget: int = DEFAULT_BUDGET,
    forced_out: int = 0,
    *,
    at_most: int | None = None,
) -> SolveResult:
    """Minimum OLD / RED:OLD set, optionally with every optimum enumerated.

    ``forced_out`` pre-excludes vertices: the optima are those of the sets
    that avoid it.  Infeasible instances yield a result, not an exception.
    Only an exhausted node budget raises :class:`BudgetExceededError`, and
    only bad input :class:`InputError`: a ``g`` that is not a Graph, a
    ``kind`` that is not a Kind or a ``forced_out`` that is not a vertex
    set of ``g`` (the root ``propagate`` checks all three), a ``budget``
    or an ``at_most`` that is not an int >= 0, or an ``at_most`` with
    ``enumerate_all``.

    ``at_most`` turns the solve into a decision: is there an acceptable
    set of at most that many vertices?  The result holds the first such
    set the search reaches, or is infeasible if there is none; the set is
    neither promised minimum nor first in order.

    The verdict comes from the root ``propagate``: it conflicts exactly when
    some constraint keeps fewer than k vertices outside ``forced_out``, that
    is, when the verifier rejects every vertex not excluded.  The verifier
    certifies each infeasible verdict, so a feasible solve walks the meeting
    pairs once.
    """
    if type(budget) is not int or budget < 0:
        raise InputError(f"budget must be an int >= 0, got {shown(budget)}")
    if at_most is not None:
        if type(at_most) is not int or at_most < 0:
            raise InputError(f"at_most must be an int >= 0, got {shown(at_most)}")
        if enumerate_all:
            raise InputError("at_most decides; it cannot enumerate optima")
    fin = propagate(g, kind, 0, forced_out)
    top = g.all_mask() & ~forced_out
    if fin is None:
        if verify_kind(g, top, kind).holds:
            raise AssertionError("propagation conflict on a feasible instance")
        return SolveResult(None, None, None, nodes=0)
    first = at_most is not None
    value, sets, nodes = _optima(
        g, kind.fold, fin, forced_out, at_most if first else top.bit_count(),
        enumerate_all, budget, first,
    )
    if not sets:
        # only a decision can end with none: top itself is accepted
        return SolveResult(None, None, None, nodes=nodes)
    return SolveResult(value, sets[0], tuple(sets) if enumerate_all else None, nodes=nodes)


def min_set_bruteforce(g: Graph, kind: Kind, enumerate_all: bool = False) -> SolveResult:
    """Reference oracle: try subsets by increasing cardinality, lexicographic
    within each cardinality, and return the first accepted one.

    Guarded to n <= 20.  Infeasibility is detected up front from S = V
    (monotonicity); the scan itself stays exhaustive.
    """
    check_graph(g)
    if g.n > _BRUTEFORCE_MAX_N:
        raise InputError(f"brute force is limited to n <= {_BRUTEFORCE_MAX_N}, got {g.n}")
    check_kind(kind)
    fold = kind.fold
    if not verify_set(g, g.all_mask(), fold).holds:
        return SolveResult(None, None, None)
    for size in range(g.n + 1):
        found: list[int] = []
        for combo in itertools.combinations(range(g.n), size):
            s = mask_of(combo)
            if verify_set(g, s, fold).holds:
                if not enumerate_all:
                    return SolveResult(size, s, None)
                found.append(s)
        if found:
            return SolveResult(size, found[0], tuple(found))
    raise AssertionError("unreachable: V itself was accepted")

