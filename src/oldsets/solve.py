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
where it keeps exactly k they are all in forced_in.  The rules read only
forced_out, so the include child (forced_in | {v}) of a fixpoint is itself
one and needs no pass; the exclude child (forced_out | {v}) can only change
the constraints that contain v, so its pass covers ``constraint_watch[v]``
alone and, since v was undecided, never conflicts.  Only the root takes a
full ``propagate``; a test checks both child steps against it.  The lower
bound is computed when a state is visited, just before its prune test.
The search is an explicit-stack loop, so its depth is not limited by
Python's recursion limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceededError, InputError
from .graph import Graph, mask_of
from .verify import Kind, verify_kind, verify_set

__all__ = [
    "DEFAULT_BUDGET",
    "SearchState",
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
class SearchState:
    """Partial decision: vertices known to be in / out of every solution
    below this branch, plus the lower bound computed at the last propagation
    fixpoint."""

    forced_in: int = 0
    forced_out: int = 0
    lower_bound: int = 0


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


def propagate(g: Graph, kind: Kind, state: SearchState) -> SearchState | None:
    """Close rules R1/R2 to a fixpoint; None signals conflict (R3).  The
    rules read only forced_out, which never grows here, so one pass does."""
    fin, fout = state.forced_in, state.forced_out
    if fin & fout:
        return None
    k = kind.fold
    fin = _close(k, fin, fout, g.constraint_masks)
    if fin is None:
        return None
    return SearchState(fin, fout, _bound(g, k, fin))


def _close(k: int, fin: int, fout: int, masks: tuple[int, ...]) -> int | None:
    """One R1/R3 pass over ``masks``: the closed forced_in, or None on a
    conflict."""
    keep = ~fout
    for need in masks:
        avail = need & keep
        c = avail.bit_count()
        if c <= k:
            if c < k:
                return None
            fin |= avail
    return fin


def _bound(g: Graph, k: int, fin: int) -> int:
    # |forced_in| plus the worst single-vertex domination deficit: filling
    # any vertex's deficit takes that many vertices outside forced_in.
    deficit = 0
    for v in range(g.n):
        d = k - (g.adj[v] & fin).bit_count()
        if d > deficit:
            deficit = d
    return fin.bit_count() + deficit


class _Search:
    def __init__(self, g: Graph, kind: Kind, budget: int):
        self.g = g
        self.k = kind.fold
        self.budget = budget
        self.nodes = 0

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(self.budget, self.nodes)

    def _branch_vertex(self, fin: int, fout: int) -> int | None:
        """Lowest-index undecided vertex in the tightest unsatisfied
        constraint; None when every constraint is already satisfied."""
        k = self.k
        keep = ~fout
        undecided = ~(fin | fout)
        best_cnt = self.g.n + 1
        best_v = None
        for need in self.g.constraint_masks:
            if (need & fin).bit_count() >= k:
                continue
            cnt = (need & keep).bit_count()
            if cnt > best_cnt:
                continue
            cand = need & undecided
            if not cand:
                continue
            bv = (cand & -cand).bit_length() - 1
            # best_v is None only while best_cnt = n + 1 > cnt
            if cnt < best_cnt or bv < best_v:
                best_cnt, best_v = cnt, bv
        if best_v is None and not self._satisfied(fin):
            # Unsatisfied constraints but no undecided candidates can only
            # happen pre-conflict; propagation should have caught it.
            raise AssertionError("unsatisfied constraint with no candidates")
        return best_v

    def _satisfied(self, fin: int) -> bool:
        k = self.k
        for need in self.g.constraint_masks:
            if (need & fin).bit_count() < k:
                return False
        return True

    def find_value(self, root: SearchState, ub: int) -> int:
        """Best-first depth search for the minimum size; ``ub`` must be the
        size of some known-feasible set."""
        g, k, watch = self.g, self.k, self.g.constraint_watch
        # (fin, fout, -1) is a state to visit; with v >= 0, fout already
        # excludes v and fin is the parent's, closed over watch[v] only when
        # popped, so a search that stops early never closes the rest
        stack = [(root.forced_in, root.forced_out, -1)]
        while stack:
            fin, fout, v = stack.pop()
            if v >= 0:
                fin = _close(k, fin, fout, watch[v])
            self._tick()
            if _bound(g, k, fin) >= ub:
                continue
            v = self._branch_vertex(fin, fout)
            if v is None:
                ub = min(ub, fin.bit_count())
                continue
            stack.append((fin, fout | 1 << v, v))
            stack.append((fin | 1 << v, fout, -1))
        return ub

    def collect(self, root: SearchState, target: int, stop_first: bool) -> list[int]:
        """All accepted sets of size exactly ``target`` (the optimum), in
        lexicographic order of their sorted index tuples.

        Branches on the lowest undecided index, include before exclude; with
        that rule the first full solution is the lexicographically smallest,
        so ``stop_first`` short-circuits enumeration when only the witness
        is wanted.  States are (forced_in, forced_out) mask pairs, pushed
        and bounded as in ``find_value``.
        """
        g, k, watch = self.g, self.k, self.g.constraint_watch
        out: list[int] = []
        stack = [(root.forced_in, root.forced_out, -1)]
        while stack:
            fin, fout, v = stack.pop()
            if v >= 0:
                fin = _close(k, fin, fout, watch[v])
            self._tick()
            if _bound(g, k, fin) > target:
                continue
            if self._satisfied(fin):
                if fin.bit_count() != target:
                    raise AssertionError("solution below proven optimum")
                out.append(fin)
                if stop_first:
                    break
                continue
            undecided = ~(fin | fout) & g.all_mask()
            if not undecided:
                continue
            v = (undecided & -undecided).bit_length() - 1
            stack.append((fin, fout | 1 << v, v))
            stack.append((fin | 1 << v, fout, -1))
        return out


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
    search = _Search(g, kind, budget)
    root = propagate(g, kind, SearchState(0, forced_out))
    if root is None:
        raise AssertionError("propagation conflict on a feasible instance")
    value = search.find_value(root, top.bit_count())
    sets = search.collect(root, value, stop_first=not enumerate_all)
    if not sets:
        raise AssertionError("no optimum found at the proven optimal value")
    return SolveResult(
        value,
        sets[0],
        tuple(sets) if enumerate_all else None,
        nodes=search.nodes,
    )


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
