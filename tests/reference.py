"""Reference checks that only the tests use: the definitional and
collection formulations the package's verifiers are tested against, single
domination and separation counts, the feasibility and forced-vertex
queries, a per-vertex torus builder, the torus dimensions a pattern is
cross-checked at (``cross_check_dims``), the kind each builtin pattern is
named for (``builtin_kind``), a clause enumerator for exhaustive
desk-scale sweeps, and the gadget lemmas checked over every optimum
(``gadget_lemmas_by_enumeration``)."""

from __future__ import annotations

import itertools
from typing import Sequence

from oldsets.errors import InputError
from oldsets.graph import Graph, vertices_of
from oldsets.grids import Lattice, PeriodicPattern, neighbors
from oldsets.sat_reduction import ReductionOutput
from oldsets.solve import DEFAULT_BUDGET, min_set, propagate
from oldsets.verify import (
    Kind,
    VerificationReport,
    is_old,
    is_open_dominating,
    verify_kind,
)


def domination_count(g: Graph, s: int, v: int) -> int:
    """|N(v) ∩ S|."""
    g.check_vertex(v)
    g.check_set(s)
    return (g.adj[v] & s).bit_count()


def distinguishing_count(g: Graph, s: int, u: int, v: int) -> int:
    """|(N(u) ∩ S) △ (N(v) ∩ S)|; symmetric in u and v."""
    g.check_vertex(u)
    g.check_vertex(v)
    g.check_set(s)
    if u == v:
        raise InputError("distinguishing_count needs two distinct vertices")
    return ((g.adj[u] ^ g.adj[v]) & s).bit_count()


def feasibility_check(g: Graph, kind: Kind) -> bool:
    """An instance is feasible iff the full vertex set is accepted
    (verifier counters are monotone in S)."""
    return verify_kind(g, g.all_mask(), kind).holds


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


def is_red_old_definitional(g: Graph, s: int) -> VerificationReport:
    """RED:OLD by its definition: S open-dominating and every single-detector
    deletion S - {v} still an OLD set.

    Equivalent to ``is_red_old``; kept separate so the equivalence can be
    tested rather than assumed.
    """
    rep = is_open_dominating(g, s, 1)
    if not rep.holds:
        return rep
    for v in vertices_of(s):
        inner = is_old(g, s & ~(1 << v))
        if not inner.holds:
            return inner
    return VerificationReport(True)


def verify_set_all_pairs(g: Graph, s: int, fold: int) -> VerificationReport:
    """``verify_set`` by its definition at any fold: the first vertex with
    fewer than ``fold`` neighbours in S, else the first of all n(n-1)/2
    pairs, in lexicographic order, with fewer than ``fold`` separators."""
    for v in range(g.n):
        c = (g.adj[v] & s).bit_count()
        if c < fold:
            return VerificationReport(False, vertex=v, count=c)
    for u, v in itertools.combinations(range(g.n), 2):
        c = ((g.adj[u] ^ g.adj[v]) & s).bit_count()
        if c < fold:
            return VerificationReport(False, pair=(u, v), count=c)
    return VerificationReport(True)


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


def is_locating_dominating_via_collection(g: Graph, s: int) -> bool:
    """LD via the collection route: {{w}, N(w) : w in S}."""
    subsets: list[int] = []
    for w in vertices_of(s):
        subsets.append(1 << w)
        subsets.append(g.adj[w])
    return is_distinguishing_collection(g.n, subsets)


def is_identifying_code_via_collection(g: Graph, s: int) -> bool:
    """IC via the collection route: {N[w] : w in S}."""
    return is_distinguishing_collection(g.n, [g.adj[w] | 1 << w for w in vertices_of(s)])


def torus_adj(lattice: Lattice, w: int, h: int) -> tuple[int, ...]:
    """Adjacency masks of the w x h torus, vertex (x, y) at index y * w + x,
    each built on its own from the vertex's neighbour offsets wrapped mod
    the dimensions."""
    adj = []
    for y in range(h):
        for x in range(w):
            a = 0
            for nx, ny in neighbors(lattice, x, y):
                a |= 1 << (ny % h * w + nx % w)
            adj.append(a)
    return tuple(adj)


def cross_check_dims(pattern: PeriodicPattern) -> tuple[int, int]:
    """Smallest period multiples that are >= 3x the period and >= 6."""
    px, py = pattern.period
    return max(3 * px, px * -(-6 // px)), max(3 * py, py * -(-6 // py))


def builtin_kind(name: str) -> Kind:
    """The kind a builtin pattern is named for: "sq-old" is OLD and
    "sq-redold" RED:OLD."""
    return Kind(name.rsplit("-", 1)[1])


def all_clauses_over(num_vars: int) -> list[tuple[int, int, int]]:
    """Every 3-literal clause (as a sorted multiset) over ``num_vars``
    variables."""
    lits = [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]
    lits.sort(key=lambda l: (abs(l), l < 0))
    return list(itertools.combinations_with_replacement(lits, 3))


def gadget_lemmas_by_enumeration(out: ReductionOutput) -> bool:
    """The gadget lemmas checked over the complete list of optima: the root
    propagation forces ``forced_mask()``, those vertices lie in every
    minimum RED:OLD set, and every minimum set holds u_i or not_u_i for
    each variable i.  Exponential in N; desk-scale instances only."""
    g = out.graph
    required = out.forced_mask()
    fin = propagate(g, Kind.RED_OLD)
    if fin is None or fin & required != required:
        return False
    common = required
    for s in min_set(g, Kind.RED_OLD, enumerate_all=True).all_minimum_sets:
        common &= s
        for i in range(out.num_vars):
            pair = (1 << out.pos_literal_index(i)) | (1 << out.neg_literal_index(i))
            if not s & pair:
                return False
    return common == required
