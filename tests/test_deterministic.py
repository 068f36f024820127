import numpy as np
import pytest

from psp_centrality import (
    UncertainGraph,
    betweenness_brandes,
    betweenness_naive,
    bfs_distances,
    harmonic_closeness,
)
from psp_centrality.deterministic import (
    betweenness_scores_from_adjacency,
    harmonic_scores_from_adjacency,
    hop_distances,
)

from conftest import full_world, random_deterministic_graph, random_uncertain_graph, star_graph


def path_graph(n):
    return UncertainGraph(n, [(i, i + 1) for i in range(n - 1)], [1.0] * (n - 1))


def test_bfs_path():
    w = full_world(path_graph(3))
    assert np.array_equal(bfs_distances(w, 0).dist, [0.0, 1.0, 2.0])


def test_bfs_disconnected():
    w = full_world(UncertainGraph(2, [], []))
    d = bfs_distances(w, 0).dist
    assert d[0] == 0.0 and np.isinf(d[1])


def test_bfs_detour_example(detour):
    w = full_world(detour)
    assert bfs_distances(w, 0).dist[3] == 2.0


def test_bfs_source_validation():
    for source in (5, 1.5):
        with pytest.raises(ValueError, match="is not an integer in 0..2"):
            bfs_distances(full_world(path_graph(3)), source)


def test_harmonic_star(star5):
    scores = harmonic_closeness(full_world(star5)).scores
    assert scores[0] == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(scores[1:], 0.625, atol=1e-15)


def test_harmonic_disconnected_pair():
    scores = harmonic_closeness(full_world(UncertainGraph(2, [], []))).scores
    assert np.array_equal(scores, [0.0, 0.0])


def test_harmonic_complete_graph_all_ones():
    n = 6
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = UncertainGraph(n, edges, [1.0] * len(edges))
    assert np.allclose(harmonic_closeness(full_world(g)).scores, 1.0, atol=1e-15)


def test_harmonic_needs_two_nodes():
    with pytest.raises(ValueError):
        harmonic_closeness(full_world(UncertainGraph(1, [], [])))


def test_brandes_star(star5):
    scores = betweenness_brandes(full_world(star5)).scores
    assert scores[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(scores[1:], 0.0)


def test_brandes_triangle():
    g = UncertainGraph(3, [(0, 1), (1, 2), (0, 2)], [1.0] * 3)
    assert np.allclose(betweenness_brandes(full_world(g)).scores, 0.0)


def test_brandes_path4():
    scores = betweenness_brandes(full_world(path_graph(4))).scores
    assert scores[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert scores[2] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert scores[0] == scores[3] == 0.0


def test_betweenness_needs_three_nodes():
    with pytest.raises(ValueError):
        betweenness_brandes(full_world(path_graph(2)))
    with pytest.raises(ValueError):
        betweenness_naive(full_world(path_graph(2)))


def test_naive_star4():
    scores = betweenness_naive(full_world(star_graph(4))).scores
    assert scores[0] == pytest.approx(1.0, abs=1e-12)


def test_naive_disconnected_pair_contributes_zero():
    g = UncertainGraph(4, [(0, 1), (1, 2)], [1.0, 1.0])  # node 3 isolated
    naive = betweenness_naive(full_world(g)).scores
    brandes = betweenness_brandes(full_world(g)).scores
    assert np.allclose(naive, brandes, atol=1e-12)
    assert naive[3] == 0.0


def test_brandes_matches_naive_on_random_worlds():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        g = random_deterministic_graph(rng, n=12, edge_prob=0.3)
        w = full_world(g)
        assert np.allclose(
            betweenness_brandes(w).scores, betweenness_naive(w).scores, atol=1e-12
        )


def test_centralities_within_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_deterministic_graph(rng, n=10, edge_prob=0.35)
        w = full_world(g)
        h = harmonic_closeness(w).scores
        b = betweenness_brandes(w).scores
        assert np.all((0.0 <= h) & (h <= 1.0))
        assert np.all((0.0 <= b) & (b <= 1.0))


def _full_matrix_harmonic(a):
    """Reference: float64 reach products over the whole matrix."""
    n = a.shape[0]
    visited = np.eye(n, dtype=bool)
    frontier = np.eye(n)
    acc = np.zeros(n)
    d = 0
    while True:
        nxt = (frontier @ a > 0.0) & ~visited
        if not nxt.any():
            return acc / (n - 1)
        d += 1
        acc += nxt.sum(axis=0) / d
        visited |= nxt
        frontier = nxt.astype(np.float64)


def _full_matrix_betweenness(a):
    """Reference: dependency recursion on whole n x n matrices at every level."""
    n = a.shape[0]
    visited = np.eye(n, dtype=bool)
    sigma, sigma_front = np.eye(n), np.eye(n)
    levels, sigma_levels = [], []
    while True:
        flow = sigma_front @ a
        nxt = (flow > 0.0) & ~visited
        if not nxt.any():
            break
        sigma_front = flow * nxt
        sigma += sigma_front
        visited |= nxt
        levels.append(nxt)
        sigma_levels.append(sigma_front)
    delta = np.zeros((n, n))
    for i in range(len(levels) - 1, 0, -1):
        coef = np.divide(1.0 + delta, sigma, out=np.zeros((n, n)), where=levels[i])
        delta += (coef @ a) * levels[i - 1] * sigma_levels[i - 1]
    return delta.sum(axis=0) / ((n - 1) * (n - 2))


def test_kernels_equal_full_matrix_reference_bit_for_bit():
    # The kernels trim work (float32 0/1 reach counts, level-only backward
    # updates) without changing any rounding, so MC scores stay byte-identical.
    rng = np.random.default_rng(99)
    for edge_prob in (0.015, 0.03, 0.06, 0.2):
        for _ in range(10):
            g = random_deterministic_graph(rng, n=100, edge_prob=edge_prob)
            a = full_world(g).adjacency_matrix()
            assert np.array_equal(harmonic_scores_from_adjacency(a), _full_matrix_harmonic(a))
            assert np.array_equal(betweenness_scores_from_adjacency(a), _full_matrix_betweenness(a))
    # 16 stages of three parallel two-hop paths: 3**16 shortest end-to-end
    # paths, an odd count past 2**24 that float32 cannot hold, so the forward
    # sweep must switch to float64.
    k = 16
    edges = []
    for i in range(k):
        hub = 4 * i
        for mid in (hub + 1, hub + 2, hub + 3):
            edges += [(hub, mid), (mid, hub + 4)]
    a = full_world(UncertainGraph(4 * k + 1, edges, [1.0] * len(edges))).adjacency_matrix()
    assert np.array_equal(betweenness_scores_from_adjacency(a), _full_matrix_betweenness(a))


def test_betweenness_kernel_writes_the_harmonic_kernel_bit_for_bit():
    # The betweenness forward sweep's levels give the harmonic scores too:
    # on worlds with isolated nodes and several components, and on the
    # 3**16-path chain where the sweep switches from float32 to float64.
    rng = np.random.default_rng(41)
    worlds = []
    for edge_prob in (0.01, 0.03, 0.2):
        for _ in range(5):
            g = random_deterministic_graph(rng, n=60, edge_prob=edge_prob)
            worlds.append(full_world(g).adjacency_matrix())
    k = 16
    edges = [(4 * i, mid) for i in range(k) for mid in range(4 * i + 1, 4 * i + 4)]
    edges += [(mid, 4 * i + 4) for i in range(k) for mid in range(4 * i + 1, 4 * i + 4)]
    chain = UncertainGraph(4 * k + 1, edges, [1.0] * len(edges))
    worlds.append(full_world(chain).adjacency_matrix())
    disconnected = 0
    for a in worlds:
        harmonic = np.full(a.shape[0], np.nan)
        between = betweenness_scores_from_adjacency(a, harmonic)
        assert between.tobytes() == betweenness_scores_from_adjacency(a).tobytes()
        assert harmonic.tobytes() == harmonic_scores_from_adjacency(a).tobytes()
        disconnected += -1 in hop_distances([np.flatnonzero(row) for row in a], 0)
    assert disconnected >= 5


def test_dense_kernels_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(3, 31))
        g = random_uncertain_graph(rng, n=n, edge_prob=float(rng.uniform(0.05, 0.5)))
        mask = rng.random(g.edge_count) < g.probs
        world = nx.Graph()
        world.add_nodes_from(range(n))
        world.add_edges_from(e for e, present in zip(g.edges, mask) if present)
        a = g.adjacency_matrix(mask)
        harmonic = nx.harmonic_centrality(world)
        betweenness = nx.betweenness_centrality(world, normalized=True)
        want_h = np.array([harmonic[v] for v in range(n)]) / (n - 1)
        want_b = np.array([betweenness[v] for v in range(n)])
        assert np.max(np.abs(harmonic_scores_from_adjacency(a) - want_h)) <= 1e-12
        assert np.max(np.abs(betweenness_scores_from_adjacency(a) - want_b)) <= 1e-12
