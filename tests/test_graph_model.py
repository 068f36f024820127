import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp_centrality import (
    EdgeListParseError,
    PossibleWorld,
    UncertainGraph,
    enumerate_worlds,
    load_graph,
    save_graph,
    world_probability,
)

from conftest import full_world, random_uncertain_graph


def test_load_single_edge(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("0 1 0.5\n")
    g = load_graph(path)
    assert g.node_count == 2
    assert g.edges == ((0, 1),)
    assert g.probs[0] == 0.5


def test_load_rejects_loop(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("0 0 0.5\n")
    with pytest.raises(EdgeListParseError, match="line 1"):
        load_graph(path)


def test_load_worked_example(tmp_path, parallel_graph):
    path = tmp_path / "g.el"
    save_graph(parallel_graph, path)
    g = load_graph(path)
    assert g.node_count == 4
    assert g.edge_count == 4
    assert g == parallel_graph


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1 1.5\n", "outside"),
        ("0 1 -0.1\n", "outside"),
        ("0 1\n", "expected"),
        ("0 1 0.4 9\n", "expected"),
        ("a b 0.4\n", "expected"),
        ("0 1 0.4\n1 0 0.5\n", "duplicate"),
        ("-1 2 0.4\n", "negative"),
        ("# nodes 2\n0 5 0.4\n", "exceeds"),
        ("# nodes -3\n", "line 1: negative node count"),
    ],
)
def test_load_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.el"
    path.write_text(text)
    with pytest.raises(EdgeListParseError, match=fragment):
        load_graph(path)


def test_header_and_comments(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("# a comment\n# nodes 5\n\n0 1 0.25  # trailing\n")
    g = load_graph(path)
    assert g.node_count == 5
    assert g.edges == ((0, 1),)


def test_empty_graph_roundtrip(tmp_path):
    path = tmp_path / "empty.el"
    save_graph(UncertainGraph(3, [], []), path)
    assert path.read_text() == "# nodes 3\n"
    g = load_graph(path)
    assert g.node_count == 3 and g.edge_count == 0


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    g = random_uncertain_graph(rng, n=10, edge_prob=0.5)
    path = tmp_path / "g.el"
    save_graph(g, path)
    back = load_graph(path)
    assert back.node_count == g.node_count
    assert back.edges == g.edges
    assert np.array_equal(back.probs, g.probs)


def test_detour_roundtrip(tmp_path, detour):
    path = tmp_path / "g.el"
    save_graph(detour, path)
    assert load_graph(path).edges == detour.edges


def test_constructor_validation():
    with pytest.raises(ValueError, match="loop"):
        UncertainGraph(3, [(1, 1)], [0.5])
    with pytest.raises(ValueError, match="outside"):
        UncertainGraph(2, [(0, 2)], [0.5])
    with pytest.raises(ValueError, match="duplicate"):
        UncertainGraph(3, [(0, 1), (1, 0)], [0.5, 0.5])
    with pytest.raises(ValueError, match="probability"):
        UncertainGraph(3, [(0, 1)], [1.2])


def test_world_probability_single_edge():
    g = UncertainGraph(2, [(0, 1)], [0.3])
    full = PossibleWorld(g, np.array([True]))
    empty = PossibleWorld(g, np.array([False]))
    assert world_probability(g, full) == pytest.approx(0.3, abs=1e-15)
    assert world_probability(g, empty) == pytest.approx(0.7, abs=1e-15)


def test_world_probability_worked_example(parallel_graph):
    w = full_world(parallel_graph)
    assert world_probability(parallel_graph, w) == pytest.approx(0.81, abs=1e-15)


def test_world_adjacency_builders_agree(detour):
    # Edges (0,1) and (1,3) present: the path 0 - 1 - 3.
    mask = np.array([e in {(0, 1), (1, 3)} for e in detour.edges])
    assert detour.neighbor_lists(mask) == [[1], [0, 3], [], [1]]
    a = detour.adjacency_matrix(mask)
    assert a.dtype == np.float64
    assert [sorted(np.flatnonzero(row)) for row in a] == [[1], [0, 3], [], [1]]
    w = PossibleWorld(detour, mask)
    assert w.neighbor_lists() == detour.neighbor_lists(mask)
    assert np.array_equal(w.adjacency_matrix(), a)


def test_world_validation(parallel_graph):
    with pytest.raises(ValueError, match="not an edge"):
        PossibleWorld.from_present_edges(parallel_graph, [(0, 3)])
    with pytest.raises(ValueError, match="probability 1"):
        PossibleWorld(parallel_graph, np.array([False, True, True, True]))
    g = UncertainGraph(2, [(0, 1)], [0.0])
    with pytest.raises(ValueError, match="probability 0"):
        PossibleWorld(g, np.array([True]))
    other = UncertainGraph(2, [(0, 1)], [0.4])
    with pytest.raises(ValueError, match="belong"):
        world_probability(other, full_world(parallel_graph))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_world_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    g = random_uncertain_graph(rng, n=7, edge_prob=0.5, max_uncertain=8)
    total = sum(prob for _, prob in enumerate_worlds(g))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_world_probabilities_sum_to_one_at_twelve_uncertain_edges():
    rng = np.random.default_rng(12)
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]  # K6: 15 edges
    probs = np.concatenate([rng.random(12), np.ones(3)])
    g = UncertainGraph(6, edges, probs)
    assert g.uncertain_edge_count == 12
    total = sum(prob for _, prob in enumerate_worlds(g))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_edges_not_in_adjacency():
    g = UncertainGraph(3, [(0, 1), (1, 2)], [0.0, 1.0])
    assert all(nbr != 0 for nbr, _, _ in g.adj[1])
    assert g.edge_count == 2
