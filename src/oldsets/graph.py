"""Finite simple undirected graphs over vertex indices 0..n-1.

Adjacency is one int bitmask per vertex, so the set algebra used by the
verifiers (neighborhood intersections, symmetric differences) is plain
``&``/``^``/``|`` on ints.  Vertex subsets are likewise int bitmasks;
``mask_of`` / ``vertices_of`` convert at the API boundary.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, decimal_int, decode_json, shown

__all__ = [
    "Graph",
    "MAX_VERTICES",
    "check_graph",
    "build_graph",
    "mask_of",
    "vertices_of",
    "meeting_pairs",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "graph_to_json",
    "graph_from_json",
    "graph_from_edge_list",
    "graph_from_text",
]


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with one bit set per vertex index; an index that is not an
    int >= 0 and below MAX_VERTICES, the most vertices a graph may have, is
    an input error."""
    m = 0
    for v in vertices:
        # type(v) is int rejects bool and float: True would stand for 1
        if type(v) is not int or not 0 <= v < MAX_VERTICES:
            raise InputError(f"vertex index {shown(v)} is not an int >= 0 and < {MAX_VERTICES}")
        m |= 1 << v
    return m


def vertices_of(mask: int) -> list[int]:
    """Sorted list of the indices set in ``mask``; a mask that is not an
    int, or a negative one (an infinite set in two's complement), is an
    input error."""
    if type(mask) is not int:
        raise InputError(f"vertex set must be an int bitmask, got {mask!r}")
    if mask < 0:
        raise InputError(f"vertex set {mask:#x} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _GraphRecord(NamedTuple):
    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = None


class Graph(_GraphRecord):
    """Immutable simple undirected graph, the named tuple (n, adj, labels).

    Invariants (enforced by :func:`build_graph`): no self-loops, no parallel
    edges, symmetric adjacency.
    """

    # no __slots__ = (): the cached properties keep their values in the
    # instance __dict__, which they write directly, so every assignment and
    # deletion through the instance can be refused

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"Graph is immutable: cannot assign a {type(value).__name__} value to {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Graph is immutable: cannot delete {name!r}")

    def check_vertex(self, v: int) -> None:
        # type(v) is int rejects bool, which isinstance(v, int) would pass
        if type(v) is not int or not 0 <= v < self.n:
            raise InputError(f"vertex {shown(v)} out of range 0..{self.n - 1}")

    def check_set(self, s: int) -> None:
        # type(s) is int rejects bool and float: True would stand for {0}
        if type(s) is not int:
            raise InputError(f"vertex set must be an int bitmask, got {s!r}")
        if s < 0 or s & ~self.all_mask():
            raise InputError(f"vertex set {s:#x} has members outside 0..{self.n - 1}")

    def all_mask(self) -> int:
        """Bitmask of the full vertex set V."""
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of edges as (u, v) with u < v."""
        adj = self.adj
        return [(u, v) for u in range(self.n) for v in vertices_of(adj[u] >> (u + 1) << (u + 1))]

    @cached_property
    def constraint_masks(self) -> tuple[int, ...]:
        """The masks a detector set must hit k times: N(v) for every v in
        index order, then N(u) △ N(v) for every meeting pair u < v in
        lexicographic order (:func:`meeting_pairs`).  Built once per
        graph, in one loop over each vertex's partners."""
        adj = self.adj
        masks = list(adj)
        for u, above in meeting_pairs(adj):
            a = adj[u]
            while above:
                low = above & -above
                masks.append(a ^ adj[u + low.bit_length()])
                above ^= low
        return tuple(masks)

    def label(self, v: int) -> str:
        self.check_vertex(v)
        return self.labels[v] if self.labels is not None else str(v)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        """Label → vertex index, built once per graph."""
        return {name: v for v, name in enumerate(self.labels or ())}

    def index_of(self, name: str) -> int:
        """Resolve a label (or a decimal index string) to a vertex index; a
        label wins over an index, so labels ("1", "0") map "0" to 1."""
        v = self._label_index.get(name)
        if v is not None:
            return v
        try:
            v = decimal_int(name)
        except ValueError:
            raise InputError(f"unknown vertex label {name!r}") from None
        self.check_vertex(v)
        return v


def check_graph(g: Graph) -> None:
    """InputError unless ``g`` is a :class:`Graph`."""
    if not isinstance(g, Graph):
        raise InputError(f"expected a Graph, got {type(g).__name__}")


def meeting_pairs(masks: Sequence[int], through: int = -1) -> Iterator[tuple[int, int]]:
    """For each u in index order, (u, above): the partners v > u with
    masks[u] & masks[v] & through ≠ 0, bit i of ``above`` standing for
    v = u + 1 + i.  Read in that order, the pairs (u, v) are lexicographic.
    The default ``through`` (every vertex) keeps all meeting pairs.

    ``masks`` must be symmetric (bit w of masks[u] iff bit u of masks[w]),
    as open neighborhoods N(v) and closed ones N[v] both are.  Then the
    partners of u are the bits above u in the union of masks[w] over w in
    masks[u] & through.  One mask per vertex, not one tuple per pair,
    keeps the callers' pair loops inline.
    """
    for u, m in enumerate(masks):
        m &= through
        reach = 0
        while m:
            low = m & -m
            reach |= masks[low.bit_length() - 1]
            m ^= low
        yield u, reach >> (u + 1)


# The largest vertex count build_graph accepts.  Checked before the
# adjacency list is allocated, so a huge "n" in an input file is an input
# error rather than a MemoryError.  Each adjacency mask takes up to n bits,
# so a graph whose edges span the index range keeps Θ(n²) bits: about
# 128 MiB at this limit, where 10**6 vertices would need about 125 GB.
MAX_VERTICES = 2**15


def build_graph(
    n: int,
    edges: Sequence[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> Graph:
    """Build a graph from an edge list, deduplicating repeated edges.

    Raises :class:`InputError` for a vertex count that is not an int or
    lies outside 0..MAX_VERTICES, edges that are not a list or tuple of
    int pairs (each pair a 2-element list or tuple), self-loops,
    out-of-range endpoints, or labels that are not a list or tuple of
    strings, do not match ``n`` or have duplicates.
    """
    # type(x) is int rejects bool, which isinstance(x, int) would pass: a
    # JSON true would stand for vertex 1
    if type(n) is not int:
        raise InputError(f'graph "n" must be an integer, got {n!r}')
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {shown(n)}")
    if n > MAX_VERTICES:
        raise InputError(f"vertex count {shown(n)} is above the limit of {MAX_VERTICES}")
    if not isinstance(edges, (list, tuple)):
        raise InputError(f'graph "edges" must be a list of vertex pairs, got {shown(edges)}')
    adj = [0] * n
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and type(e[0]) is int and type(e[1]) is int):
            raise InputError(f"bad edge entry {shown(e)}: expected a pair of integers")
        u, v = e
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(
                f"edge ({shown(u)},{shown(v)}) has an endpoint out of range 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if labels is not None:
        if not (isinstance(labels, (list, tuple)) and all(isinstance(s, str) for s in labels)):
            raise InputError(f'graph "labels" must be a list of strings, got {shown(labels)}')
        labels = tuple(labels)
        if len(labels) != n:
            raise InputError(f"{len(labels)} labels for {n} vertices")
        if len(set(labels)) != n:
            raise InputError("duplicate vertex labels")
    return Graph(n, tuple(adj), labels)


def _check_count(n: int) -> None:
    # the constructors range over n before build_graph can check it
    if type(n) is not int:
        raise InputError(f"vertex count must be an int, got {n!r}")


def path_graph(n: int) -> Graph:
    _check_count(n)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _check_count(n)
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    _check_count(n)
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def graph_to_json(g: Graph) -> str:
    check_graph(g)
    d: dict = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    if g.labels is not None:
        d["labels"] = list(g.labels)
    return json.dumps(d, sort_keys=True)


def graph_from_json(text: str) -> Graph:
    d = decode_json(text, "graph")
    if not isinstance(d, dict) or "n" not in d or "edges" not in d:
        raise InputError('graph JSON must be an object with "n" and "edges"')
    # build_graph checks the values' types and shapes
    return build_graph(d["n"], d["edges"], d.get("labels"))


def graph_from_edge_list(text: str) -> Graph:
    """Parse the plain-text format: first line ``n m``, then m lines ``u v``."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InputError("empty edge-list input")
    try:
        n, m = map(decimal_int, lines[0].split())
    except ValueError:
        raise InputError(f'expected header "n m", got {lines[0]!r}') from None
    if len(lines) - 1 != m:
        raise InputError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(decimal_int, ln.split())
        except ValueError:
            raise InputError(f"bad edge line {ln!r}") from None
        edges.append((u, v))
    return build_graph(n, edges)


def graph_from_text(text: str) -> Graph:
    """Accept either the JSON format or the plain edge-list format."""
    if text.lstrip().startswith("{"):
        return graph_from_json(text)
    return graph_from_edge_list(text)
