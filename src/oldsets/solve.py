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
a full ``propagate``.

Each visited state takes one ``_scan`` of its parent's live constraints
(forced_in only grows down the tree, so the rest stay satisfied) for its
bound, branch vertex and own live list.  The same pass closes the
exclude child: it collects the live constraints keeping exactly k + 1 and
adds the candidates of those containing the branch vertex, so both
children are pushed as fixpoints.  The bound packs the deficits of
constraints with disjoint undecided candidates: on the 3-SAT reduction
graphs this is the paper's counting argument, and the root bound is the
16N + 3M threshold.

One pass finds the optimum and its optima.  A state is pruned only when
its bound exceeds the best size so far, so ties are kept and every
optimum is reached, each at exactly one leaf; the witness is the first
optimum in sorted order.  A witness-only solve also prunes a tie when no
set below it can come before the best set so far.  The search is an
explicit-stack loop, so its depth is not limited by Python's recursion
limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceededError, InputError
from .graph import Graph, mask_of, vertices_of
from .verify import Kind, verify_kind, verify_set

__all__ = [
    "DEFAULT_BUDGET",
    "SolveResult",
    "feasibility_check",
    "propagate",
    "min_set",
    "min_set_bruteforce",
    "is_in_every_optimal_set",
]

DEFAULT_BUDGET = 10**8

_BRUTEFORCE_MAX_N = 20


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome.

    ``value`` is None when the instance is infeasible (then so is
    ``witness``).  ``witness`` is the lexicographically smallest optimum,
    comparing optima as sorted index tuples.  ``all_minimum_sets`` is the
    complete list of optima, present only when enumeration was requested,
    in that same order.  Sets are bitmasks.
    """

    value: int | None
    witness: int | None
    all_minimum_sets: tuple[int, ...] | None = None
    nodes: int = 0

    @property
    def feasible(self) -> bool:
        return self.value is not None


def feasibility_check(g: Graph, kind: Kind) -> bool:
    """An instance is feasible iff the full vertex set is accepted
    (verifier counters are monotone in S)."""
    return verify_kind(g, g.all_mask(), kind).holds


def propagate(g: Graph, kind: Kind, forced_in: int = 0, forced_out: int = 0) -> int | None:
    """Close rules R1/R2 to a fixpoint: the closed forced_in, or None on a
    conflict (R3).  The rules read only forced_out, which never grows here,
    so one pass over the constraints does."""
    if forced_in & forced_out:
        return None
    k = kind.fold
    keep = ~forced_out
    for need in g.constraint_masks:
        avail = need & keep
        c = avail.bit_count()
        if c <= k:
            if c < k:
                return None
            forced_in |= avail
    return forced_in


def _scan(
    n: int, k: int, masks: tuple[int, ...], fin: int, fout: int
) -> tuple[int, int | None, tuple[int, ...], int]:
    """(bound, branch vertex, live, exclude_fin) of a propagation fixpoint,
    in one pass over ``masks``.  ``live``: the masks with deficit
    d = k - |need ∩ fin| > 0, in order.  Branch vertex: the lowest undecided
    one of the tightest live mask (fewest vertices not excluded), None if
    none is live.  Bound: |fin| plus the larger of the worst d and the d
    summed, greedily in order, over masks whose undecided candidates are
    pairwise disjoint.  ``exclude_fin``: the forced_in of the branch
    vertex's exclude child, fin plus the other candidates of every live
    mask that keeps exactly k + 1 and contains the vertex (fin if none is
    live)."""
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
        return fin.bit_count(), None, (), fin
    # the branch vertex lies in a tightest mask, so tight is empty unless
    # best_cnt == k + 1
    bit = 1 << best_v
    exclude_fin = fin
    for cand in tight:
        if cand & bit:
            exclude_fin |= cand ^ bit
    return fin.bit_count() + max(packed, worst), best_v, tuple(live), exclude_fin


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
    g: Graph, k: int, fin: int, fout: int, ub: int, enumerate_all: bool, budget: int
) -> tuple[int, list[int], int]:
    """The minimum size, its optima in sorted-tuple order and the nodes
    visited, searching below the fixpoint (fin, fout): all optima with
    ``enumerate_all``, else only the first.  ``ub`` must be the size of
    some known-feasible set; visiting more than ``budget`` nodes raises
    :class:`BudgetExceededError`.

    Each visited state takes one ``_scan``: its bound prunes, and the
    search branches on its vertex, include before exclude; the scan also
    gives the exclude child's closed forced_in, so both children are
    pushed as fixpoints.  A state with no live constraint is a leaf whose
    forced_in is accepted.  The path that follows an optimum's membership
    ends at a leaf inside it, which is no larger, so each optimum is that
    one leaf.
    """
    n = g.n
    sets: list[int] = []
    nodes = 0
    # (fin, fout, live): a fixpoint to visit, with its parent's live
    stack = [(fin, fout, g.constraint_masks)]
    while stack:
        fin, fout, live = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(budget, nodes)
        bound, v, live, exclude_fin = _scan(n, k, live, fin, fout)
        if bound > ub or (
            bound == ub and sets and not enumerate_all
            and not _can_precede(n, fout, sets[0])
        ):
            continue
        if v is None:
            size = fin.bit_count()
            if size < ub:
                ub, sets = size, [fin]
            elif enumerate_all or not sets:
                sets.append(fin)
            elif vertices_of(fin) < vertices_of(sets[0]):
                sets[0] = fin
            continue
        bit = 1 << v
        stack.append((exclude_fin, fout | bit, live))
        stack.append((fin | bit, fout, live))
    sets.sort(key=vertices_of)
    return ub, sets, nodes


def min_set(
    g: Graph,
    kind: Kind,
    enumerate_all: bool = False,
    budget: int = DEFAULT_BUDGET,
    forced_out: int = 0,
) -> SolveResult:
    """Minimum OLD / RED:OLD set, optionally with every optimum enumerated.

    ``forced_out`` pre-excludes vertices (used to decide membership in every
    optimal set).  Infeasible instances yield a result, not an exception;
    only an exhausted node budget raises.
    """
    top = g.all_mask() & ~forced_out
    if not verify_kind(g, top, kind).holds:
        return SolveResult(None, None, None, nodes=0)
    fin = propagate(g, kind, 0, forced_out)
    if fin is None:
        raise AssertionError("propagation conflict on a feasible instance")
    value, sets, nodes = _optima(
        g, kind.fold, fin, forced_out, top.bit_count(), enumerate_all, budget
    )
    return SolveResult(value, sets[0], tuple(sets) if enumerate_all else None, nodes=nodes)


def min_set_bruteforce(g: Graph, kind: Kind, enumerate_all: bool = False) -> SolveResult:
    """Reference oracle: try subsets by increasing cardinality, lexicographic
    within each cardinality, and return the first accepted one.

    Guarded to n <= 20.  Infeasibility is detected up front from S = V
    (monotonicity); the scan itself stays exhaustive.
    """
    if g.n > _BRUTEFORCE_MAX_N:
        raise InputError(f"brute force is limited to n <= {_BRUTEFORCE_MAX_N}, got {g.n}")
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


def is_in_every_optimal_set(
    g: Graph, kind: Kind, v: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Is v in every minimum set?  Decided by re-solving with v excluded."""
    g.check_vertex(v)
    base = min_set(g, kind, budget=budget)
    if not base.feasible:
        raise InputError("instance is infeasible; optimal sets do not exist")
    without = min_set(g, kind, budget=budget, forced_out=1 << v)
    return (not without.feasible) or without.value > base.value
