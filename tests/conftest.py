"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from oldsets.graph import Graph, build_graph, mask_of
from oldsets.sat_reduction import CnfInstance


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def random_graph_with_twins(
    rng: random.Random, n: int, p: float, isolated: bool = True
) -> Graph:
    """G(n, p) plus an open twin (same N, not adjacent) and a closed twin
    (adjacent, same other neighbors) of random vertices, and optionally an
    isolated vertex, with the vertex order shuffled."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = build_graph(n, edges)
    a, b = rng.randrange(n), rng.randrange(n)
    open_twin, closed_twin = n, n + 1
    edges += [(open_twin, w) for w in range(n) if g.adj[a] >> w & 1]
    edges += [(closed_twin, w) for w in range(n) if g.adj[b] >> w & 1]
    edges.append((closed_twin, b))
    order = list(range(n + 2 + isolated))
    rng.shuffle(order)
    return build_graph(len(order), [(order[u], order[v]) for u, v in edges])


def sparse_set(rng: random.Random, n: int) -> int:
    """A random subset of 0..n-1 at a density drawn from 0.2-0.5, sparse
    enough that some meeting pairs share no member of it."""
    density = rng.uniform(0.2, 0.5)
    return mask_of(v for v in range(n) if rng.random() < density)


def random_cnf(rng: random.Random, n: int, m: int) -> CnfInstance:
    """m clauses of three literals drawn over n variables, repeats allowed."""
    lits = [v for v in range(1, n + 1)] + [-v for v in range(1, n + 1)]
    return CnfInstance(n, tuple(tuple(rng.choice(lits) for _ in range(3)) for _ in range(m)))


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if all_edges:
        edges = draw(st.lists(st.sampled_from(all_edges), unique=True))
    else:
        edges = []
    return build_graph(n, edges)


@st.composite
def graph_and_subset(draw, min_n: int = 1, max_n: int = 8):
    g = draw(graphs(min_n, max_n))
    s = draw(st.integers(0, g.all_mask()))
    return g, s


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (2^(n choose 2) of them)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        yield build_graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def named_fixture_graphs():
    from oldsets.fixtures import builtin_graph
    from oldsets.graph import path_graph

    return {
        "g11": builtin_graph("g11"),
        "c4": builtin_graph("c4"),
        "c5": builtin_graph("c5"),
        "k4": builtin_graph("k4"),
        "p3": path_graph(3),
    }


def set_of(g: Graph, *labels: str) -> int:
    return mask_of(g.index_of(l) for l in labels)
