"""Graph construction, neighborhoods, and serialization."""

import random

import pytest
from hypothesis import given

from conftest import graphs, random_graph_with_twins
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
    graph_to_edge_list,
    graph_to_json,
    mask_of,
    meeting_pairs,
    path_graph,
    vertices_of,
)


def test_p3_construction():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.open_neighborhood(1) == mask_of([0, 2])


def test_k4_construction():
    g = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert all(g.degree(v) == 3 for v in range(4))


def test_duplicate_edges_are_deduplicated():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges() == 1


def test_self_loop_rejected():
    with pytest.raises(InputError):
        build_graph(3, [(1, 1)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(InputError):
        build_graph(3, [(0, 3)])


def test_vertex_count_limit():
    # bitmask adjacency keeps Θ(n²) bits once edges span the index range,
    # so the limit is what bounds a graph's memory
    assert MAX_VERTICES == 2**15
    assert build_graph(MAX_VERTICES, [(0, MAX_VERTICES - 1)]).n == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 10**6, 10**12):
        with pytest.raises(InputError, match="above the limit"):
            build_graph(n, [])


def test_bad_vertex_query_rejected():
    g = path_graph(3)
    with pytest.raises(InputError):
        g.open_neighborhood(5)


def test_open_neighborhood_examples():
    assert path_graph(3).open_neighborhood(1) == mask_of([0, 2])
    assert complete_graph(4).open_neighborhood(0) == mask_of([1, 2, 3])
    assert cycle_graph(5).open_neighborhood(0) == mask_of([1, 4])


def test_closed_neighborhood_examples():
    assert path_graph(3).closed_neighborhood(1) == mask_of([0, 1, 2])
    assert complete_graph(4).closed_neighborhood(0) == mask_of([0, 1, 2, 3])
    assert cycle_graph(5).closed_neighborhood(2) == mask_of([1, 2, 3])


def test_g11_fixture_loads_and_validates():
    g = g11()
    assert g.n == 11
    assert g.num_edges() == 13
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
        assert not g.open_neighborhood(v) >> v & 1
        assert g.closed_neighborhood(v) == g.open_neighborhood(v) | 1 << v


@given(graphs())
def test_handshake(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.num_edges()


@given(graphs())
def test_json_round_trip(g):
    back = graph_from_json(graph_to_json(g))
    assert back.n == g.n and back.adj == g.adj and back.labels == g.labels


@given(graphs())
def test_edge_list_round_trip(g):
    back = graph_from_edge_list(graph_to_edge_list(g))
    assert back.n == g.n and back.adj == g.adj


def test_text_sniffing():
    g = cycle_graph(4)
    assert graph_from_text(graph_to_json(g)).adj == g.adj
    assert graph_from_text(graph_to_edge_list(g)).adj == g.adj


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
    assert list(g.meeting_pairs()) == expected


@given(graphs(max_n=9))
def test_closed_meeting_pairs_are_the_pairs_within_distance_two(g):
    closed = tuple(g.closed_neighborhood(v) for v in range(g.n))
    expected = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.adj[u] >> v & 1 or g.adj[u] & g.adj[v]
    ]
    assert list(meeting_pairs(closed)) == expected


def test_meeting_pairs_through_is_the_brute_force_filter():
    rng = random.Random(17)
    for _ in range(300):
        g = random_graph_with_twins(rng, rng.randint(1, 12), rng.choice([0.15, 0.3, 0.6]))
        closed = tuple(g.closed_neighborhood(v) for v in range(g.n))
        through = rng.getrandbits(g.n) & rng.getrandbits(g.n) if rng.random() < 0.9 else -1
        for masks in (g.adj, closed):
            expected = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if masks[u] & masks[v] & through
            ]
            assert list(meeting_pairs(masks, through)) == expected
        assert list(g.meeting_pairs(through)) == list(meeting_pairs(g.adj, through))


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
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph_with_twins(rng, rng.randint(1, 12), 0.3)
        pairs = list(g.meeting_pairs())
        assert g.constraint_masks == g.adj + tuple(g.adj[u] ^ g.adj[v] for u, v in pairs)
        assert g.constraint_masks is g.constraint_masks  # built once per graph

