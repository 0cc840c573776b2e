"""Graph construction, neighborhoods, and serialization."""

import random
import re

import pytest
from hypothesis import given

from conftest import graphs, meeting_pair_list, random_cnf, random_graph_with_twins
from oldsets.errors import InputError
from oldsets.fixtures import builtin_graph, g11
from oldsets.graph import (
    MAX_VERTICES,
    build_graph,
    complete_graph,
    cycle_graph,
    graph_from_edge_list,
    graph_from_json,
    graph_from_text,
    graph_to_json,
    mask_of,
    path_graph,
    vertices_of,
)
from oldsets.grids import Lattice, PeriodicPattern, build_torus, neighbors
from oldsets.sat_reduction import CnfInstance, build_reduction
from oldsets.solve import min_set
from oldsets.verify import Kind, verify_set


def test_p3_construction():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.adj[1] == mask_of([0, 2])


def test_k4_construction():
    g = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert all(a.bit_count() == 3 for a in g.adj)


def test_duplicate_edges_are_deduplicated():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges() == [(0, 1)]


def test_self_loop_rejected():
    with pytest.raises(InputError):
        build_graph(3, [(1, 1)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(InputError):
        build_graph(3, [(0, 3)])


@pytest.mark.parametrize("n, edges, labels, message", [
    (3, [(0, True)], None, "bad edge entry (0, True): expected a pair of integers"),
    (3, [(0, 1.0)], None, "bad edge entry (0, 1.0): expected a pair of integers"),
    (True, [], None, 'graph "n" must be an integer, got True'),
    (2.0, [], None, 'graph "n" must be an integer, got 2.0'),
    (2, [(0, 1)], [1, 2], 'graph "labels" must be a list of strings, got [1, 2]'),
], ids=["bool-endpoint", "float-endpoint", "bool-n", "float-n", "int-labels"])
def test_build_graph_rejects_non_int_or_non_string_input(n, edges, labels, message):
    # one check for the JSON and the library paths: bool is not an int
    # here, as in Graph.check_vertex, and an int label would make label(0)
    # return an int that index_of could not resolve back
    with pytest.raises(InputError, match=re.escape(message)):
        build_graph(n, edges, labels)


@pytest.mark.parametrize("build, message", [
    (lambda: build_graph(3, [(0, 1, 2)]), "bad edge entry (0, 1, 2): expected a pair of integers"),
    (lambda: build_graph(3, [5]), "bad edge entry 5: expected a pair of integers"),
    (lambda: build_graph(3, None), 'graph "edges" must be a list of vertex pairs, got None'),
    (lambda: build_graph(2, [], "ab"), 'graph "labels" must be a list of strings, got \'ab\''),
    (lambda: CnfInstance(1, (5,)), "clause 5 is not a tuple"),
    (lambda: CnfInstance(1, ([1, 1, 1],)), "clause [1, 1, 1] is not a tuple"),
    (lambda: CnfInstance(1, None), "clauses must be a tuple of 3-tuples, got None"),
    (lambda: CnfInstance(1, [[1, 1, 1]]), "clauses must be a tuple of 3-tuples, got [[1, 1, 1]]"),
    (lambda: PeriodicPattern(Lattice.SQ, (2, 2), [(0, 0)]), "cells must be a frozenset, got list"),
    (lambda: PeriodicPattern(Lattice.SQ, (2, 2), {(0, 0)}), "cells must be a frozenset, got set"),
], ids=["triple-edge", "int-edge", "none-edges", "string-labels", "int-clause", "list-clause",
        "none-clauses", "list-clauses", "list-cells", "set-cells"])
def test_constructors_refuse_bad_container_shapes(build, message):
    # each constructor checks its containers once, so a wrong shape is an
    # InputError, not a ValueError or TypeError from unpacking, and what it
    # accepts is tuples and frozensets that can be hashed
    with pytest.raises(InputError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("read, message", [
    (lambda: build_graph(-1, []), "vertex count must be non-negative, got -1"),
    (lambda: graph_from_json('{"n": 2, "edges": [[0]]}'),
     "bad edge entry [0]: expected a pair of integers"),
    (lambda: graph_from_json('{"n": 2, "edges": [], "labels": "a"}'),
     'graph "labels" must be a list of strings, got \'a\''),
    (lambda: graph_from_edge_list("a b"), 'expected header "n m", got \'a b\''),
    (lambda: graph_from_edge_list("2 1\n0 1 2"), "bad edge line '0 1 2'"),
    (lambda: graph_from_edge_list("2 1\n0 x"), "bad edge line '0 x'"),
    (lambda: cycle_graph(2), "a cycle needs at least 3 vertices"),
], ids=["negative-n", "json-short-edge", "json-string-labels", "text-bad-header",
        "text-long-edge", "text-non-int-edge", "cycle-of-two"])
def test_graph_readers_refuse_bad_input(read, message):
    with pytest.raises(InputError, match=re.escape(message)):
        read()


def test_vertex_count_limit():
    # bitmask adjacency keeps Θ(n²) bits once edges span the index range,
    # so the limit is what bounds a graph's memory
    assert MAX_VERTICES == 2**15
    assert build_graph(MAX_VERTICES, [(0, MAX_VERTICES - 1)]).n == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 10**6, 10**12):
        with pytest.raises(InputError, match="above the limit"):
            build_graph(n, [])


HUGE = 10**5000  # more digits than int-to-str converts by default


@pytest.mark.parametrize("call, message", [
    (lambda: build_graph(HUGE, []), "is above the limit of"),
    (lambda: build_graph(-HUGE, []), "vertex count must be non-negative"),
    (lambda: build_graph(3, [(0, HUGE)]), "has an endpoint out of range 0..2"),
    (lambda: build_graph(3, {(0, HUGE)}), "must be a list of vertex pairs"),
    (lambda: build_graph(3, [(0, 1, HUGE)]), "bad edge entry"),
    (lambda: build_graph(1, [], labels=[HUGE]), "must be a list of strings"),
    (lambda: mask_of([-HUGE]), "is not an int >= 0"),
    (lambda: path_graph(3).label(HUGE), "out of range 0..2"),
    (lambda: build_torus(Lattice.SQ, HUGE, 6), "vertices"),
    (lambda: build_torus(Lattice.SQ, 6, -HUGE), "torus dimensions must be >= 5"),
    (lambda: PeriodicPattern(Lattice.SQ, (-HUGE, 1), frozenset()), "period must be positive"),
    (lambda: PeriodicPattern(Lattice.SQ, [HUGE, 1], frozenset()), "must be a pair of integers"),
    (lambda: PeriodicPattern(Lattice.SQ, (2, 2), frozenset({(HUGE, 0)})), "outside fundamental"),
    (lambda: PeriodicPattern(Lattice.SQ, (2, 2), frozenset({(HUGE, 0, 0)})), "pairs of integers"),
    (lambda: neighbors(Lattice.SQ, 0.5, HUGE), "lattice coordinates must be ints"),
    (lambda: verify_set(path_graph(3), 7, -HUGE), "fold must be an int >= 1"),
    (lambda: CnfInstance(3, ((1, 2, HUGE),)), "out of range for 3 variables"),
    (lambda: CnfInstance(3, [(1, 2, HUGE)]), "must be a tuple of 3-tuples"),
    (lambda: CnfInstance(3, ([1, 2, HUGE],)), "is not a tuple"),
    (lambda: CnfInstance(3, ((1, 2, 3, HUGE),)), "has 4 literals"),
    (lambda: build_reduction(CnfInstance(HUGE, ((1, 2, 3),))), "above the limit of"),
    (lambda: build_reduction(CnfInstance(3, ((1, 2, 3),))).clause_vertex_index(HUGE),
     "out of range for 1 clauses"),
    (lambda: min_set(path_graph(3), Kind.OLD, budget=-HUGE), "budget must be an int >= 0"),
    (lambda: min_set(path_graph(3), Kind.OLD, at_most=-HUGE), "at_most must be an int >= 0"),
], ids=["n", "negative-n", "endpoint", "edges", "edge-entry", "labels", "vertex-index",
        "label", "torus-width", "torus-height", "period", "period-type", "cell", "cell-type",
        "coordinates", "fold", "literal", "clauses", "clause-type", "clause-length",
        "reduction-vars", "clause-index", "budget", "at_most"])
def test_message_about_a_huge_int_is_input_error(call, message):
    # the message names the number without writing its digits, which
    # str() refuses past 4,300, so the refusal stays an InputError
    with pytest.raises(InputError, match=message) as refused:
        call()
    assert "too long to print" in str(refused.value)


def test_bad_vertex_query_rejected():
    g = path_graph(3)
    with pytest.raises(InputError):
        g.label(5)


def test_open_neighborhood_examples():
    assert path_graph(3).adj[1] == mask_of([0, 2])
    assert complete_graph(4).adj[0] == mask_of([1, 2, 3])
    assert cycle_graph(5).adj[0] == mask_of([1, 4])


def test_closed_neighborhood_examples():
    # N[v] is the row of adj with v's own bit added
    closed = lambda g, v: g.adj[v] | 1 << v
    assert closed(path_graph(3), 1) == mask_of([0, 1, 2])
    assert closed(complete_graph(4), 0) == mask_of([0, 1, 2, 3])
    assert closed(cycle_graph(5), 2) == mask_of([1, 2, 3])


def test_g11_fixture_loads_and_validates():
    g = g11()
    assert g.n == 11
    assert len(g.edges()) == 13
    # the triangles named in the uniqueness argument
    for tri in (("v1", "v2", "v3"), ("v5", "v6", "v7"), ("v9", "v10", "v11")):
        a, b, c = (g.index_of(x) for x in tri)
        assert g.adj[a] >> b & 1 and g.adj[a] >> c & 1 and g.adj[b] >> c & 1


def test_g11_codes_of_known_locating_set():
    g = g11()
    s = mask_of(g.index_of(x) for x in ("v2", "v3", "v6", "v7", "v9", "v10"))
    code = lambda name: g.adj[g.index_of(name)] & s
    assert code("v1") == mask_of([g.index_of("v2"), g.index_of("v3")])
    assert code("v2") == mask_of([g.index_of("v3")])
    assert code("v3") == mask_of([g.index_of("v2")])
    assert code("v4") == mask_of([g.index_of("v3"), g.index_of("v7")])
    assert code("v8") == mask_of([g.index_of("v7"), g.index_of("v9")])


def test_builtin_graph_names():
    assert builtin_graph("c5").n == 5
    with pytest.raises(InputError):
        builtin_graph("nope")


@given(graphs())
def test_open_neighborhood_never_contains_self(g):
    for v in range(g.n):
        assert not g.adj[v] >> v & 1


@given(graphs())
def test_handshake(g):
    assert sum(a.bit_count() for a in g.adj) == 2 * len(g.edges())


@given(graphs())
def test_json_round_trip(g):
    back = graph_from_json(graph_to_json(g))
    assert back.n == g.n and back.adj == g.adj and back.labels == g.labels


def _edge_list(g):
    """The plain-text format: a line ``n m``, then one line ``u v`` per edge."""
    edges = g.edges()
    return "".join(f"{u} {v}\n" for u, v in [(g.n, len(edges)), *edges])


@given(graphs())
def test_edge_list_round_trip(g):
    back = graph_from_edge_list(_edge_list(g))
    assert back.n == g.n and back.adj == g.adj


def test_text_sniffing():
    g = cycle_graph(4)
    assert graph_from_text(graph_to_json(g)).adj == g.adj
    assert graph_from_text(_edge_list(g)).adj == g.adj


def test_edge_list_errors():
    with pytest.raises(InputError):
        graph_from_edge_list("")
    with pytest.raises(InputError):
        graph_from_edge_list("3\n0 1\n")
    with pytest.raises(InputError):
        graph_from_edge_list("3 2\n0 1\n")


def test_labels_resolution():
    g = g11()
    assert g.index_of("v1") == 0
    assert g.index_of("3") == 3
    with pytest.raises(InputError):
        g.index_of("w9")


@pytest.mark.parametrize("call, message", [
    (lambda: path_graph(1.5), "vertex count must be an int, got 1.5"),
    (lambda: complete_graph(2.5), "vertex count must be an int, got 2.5"),
    (lambda: cycle_graph(3.5), "vertex count must be an int, got 3.5"),
    (lambda: mask_of([-1]), "vertex index -1 is not an int >= 0"),
    (lambda: mask_of([True]), "vertex index True is not an int >= 0"),
    (lambda: mask_of([2.0]), "vertex index 2.0 is not an int >= 0"),
    (lambda: vertices_of(True), "vertex set must be an int bitmask, got True"),
    (lambda: vertices_of(1.5), "vertex set must be an int bitmask, got 1.5"),
    (lambda: neighbors(Lattice.SQ, 1.5, 0), "lattice coordinates must be ints, got (1.5, 0)"),
    (lambda: neighbors(Lattice.SQ, True, 0), "lattice coordinates must be ints, got (True, 0)"),
], ids=["path-float", "complete-float", "cycle-float", "mask-negative", "mask-bool",
        "mask-float", "vertices-bool", "vertices-float", "neighbors-float", "neighbors-bool"])
def test_helpers_refuse_an_index_that_is_not_a_plain_int(call, message):
    # each raised a TypeError or ValueError, or took True as 1
    with pytest.raises(InputError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("v", [MAX_VERTICES, 2**40, HUGE], ids=["limit", "2**40", "huge"])
def test_mask_of_refuses_an_index_no_graph_has(v):
    # 1 << v at 2**40 asks for 128 GiB, and past that it overflows; no graph
    # has more than MAX_VERTICES vertices, so no mask needs such a bit
    with pytest.raises(InputError, match="is not an int >= 0"):
        mask_of([v])


def test_mask_of_takes_the_last_index_a_graph_can_have():
    assert mask_of([MAX_VERTICES - 1]) == 1 << (MAX_VERTICES - 1)


@pytest.mark.parametrize("v", [True, False, 1.0, "1", None])
def test_vertex_arguments_must_be_plain_ints(v):
    # isinstance(True, int) holds, so a bool would name vertex 1 or 0
    g = g11()
    for method in (g.check_vertex, g.label):
        with pytest.raises(InputError):
            method(v)


def test_label_validation():
    with pytest.raises(InputError):
        build_graph(2, [], labels=["a"])
    with pytest.raises(InputError):
        build_graph(2, [], labels=["a", "a"])


def test_vertices_of_mask_round_trip():
    assert vertices_of(mask_of([5, 1, 3])) == [1, 3, 5]


def test_vertices_of_negative_mask_rejected():
    # in two's complement a negative mask is an infinite set
    for mask in (-1, -(1 << 40)):
        with pytest.raises(InputError, match="negative"):
            vertices_of(mask)


@given(graphs(max_n=9))
def test_meeting_pairs_are_the_pairs_with_a_common_neighbor(g):
    expected = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] & g.adj[v]
    ]
    assert meeting_pair_list(g.adj) == expected


@given(graphs(max_n=9))
def test_closed_meeting_pairs_are_the_pairs_within_distance_two(g):
    closed = tuple(a | 1 << v for v, a in enumerate(g.adj))
    expected = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.adj[u] >> v & 1 or g.adj[u] & g.adj[v]
    ]
    assert meeting_pair_list(closed) == expected


def test_meeting_pairs_through_is_the_brute_force_filter():
    rng = random.Random(17)
    for _ in range(300):
        g = random_graph_with_twins(rng, rng.randint(1, 12), rng.choice([0.15, 0.3, 0.6]))
        closed = tuple(a | 1 << v for v, a in enumerate(g.adj))
        through = rng.getrandbits(g.n) & rng.getrandbits(g.n) if rng.random() < 0.9 else -1
        for masks in (g.adj, closed):
            expected = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if masks[u] & masks[v] & through
            ]
            assert meeting_pair_list(masks, through) == expected


def test_index_of_prefers_a_label_over_a_decimal_index():
    g = build_graph(3, [(0, 1), (1, 2)], ["1", "0", "x"])
    assert [g.index_of(name) for name in ("1", "0", "x")] == [0, 1, 2]
    assert g.index_of("2") == 2  # not a label, so a decimal index
    with pytest.raises(InputError, match="unknown vertex label 'y'"):
        g.index_of("y")
    with pytest.raises(InputError, match="out of range"):
        g.index_of("3")
    assert path_graph(3).index_of("1") == 1  # an unlabelled graph reads indices


def test_constraint_masks_layout():
    # the definition, pair by pair: N(v) in index order, then N(u) △ N(v)
    # for every u < v whose neighborhoods meet, in lexicographic order
    rng = random.Random(5)
    cases = [random_graph_with_twins(rng, rng.randint(1, 12), rng.choice([0.15, 0.3, 0.6]))
             for _ in range(60)]
    cases += [build_reduction(random_cnf(rng, n, rng.randint(n, 5 * n))).graph
              for n in (1, 2, 3, 5)]
    for g in cases:
        adj = g.adj
        separations = tuple(adj[u] ^ adj[v] for u in range(g.n) for v in range(u + 1, g.n)
                            if adj[u] & adj[v])
        assert g.constraint_masks == adj + separations
        assert g.constraint_masks is g.constraint_masks  # built once per graph

