import numpy as np
import pytest

from psp_centrality import (
    McConfig,
    UncertainGraph,
    betweenness_brandes,
    exact_expected_centrality,
    harmonic_closeness,
    mc_betweenness,
    mc_harmonic,
    mc_harmonic_betweenness,
)
from psp_centrality import monte_carlo

from conftest import full_world, random_uncertain_graph


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(samples=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        McConfig(samples=10, master_seed=-1)
    # The worker count is the pool's rule, checked when the run starts.
    with pytest.raises(ValueError, match="workers must be >= 1"):
        mc_harmonic(UncertainGraph(2, [(0, 1)], [0.5]), McConfig(samples=10, workers=0))


def test_all_certain_equals_deterministic(star5):
    w = full_world(star5)
    mc = mc_harmonic(star5, McConfig(samples=7, master_seed=3))
    assert np.array_equal(mc.scores, harmonic_closeness(w).scores)
    mcb = mc_betweenness(star5, McConfig(samples=7, master_seed=3))
    assert np.array_equal(mcb.scores, betweenness_brandes(w).scores)


def test_star_center_binary_betweenness(star5):
    mc = mc_betweenness(star5, McConfig(samples=50, master_seed=1))
    assert mc.scores[0] == pytest.approx(1.0, abs=1e-12)


def test_two_node_half_probability():
    g = UncertainGraph(2, [(0, 1)], [0.5])
    mc = mc_harmonic(g, McConfig(samples=200_000, master_seed=8))
    assert np.allclose(mc.scores, 0.5, atol=0.005)


def test_deterministic_across_worker_counts():
    rng = np.random.default_rng(77)
    g = random_uncertain_graph(rng, n=9, edge_prob=0.4)
    runs = [
        mc_harmonic(g, McConfig(samples=5000, master_seed=99, workers=w)).scores
        for w in (1, 2, 8)
    ]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])
    runs_b = [
        mc_betweenness(g, McConfig(samples=2000, master_seed=12, workers=w)).scores
        for w in (1, 2, 8)
    ]
    assert np.array_equal(runs_b[0], runs_b[1])
    assert np.array_equal(runs_b[0], runs_b[2])


def test_repeat_run_identical():
    rng = np.random.default_rng(13)
    g = random_uncertain_graph(rng, n=8, edge_prob=0.5)
    a = mc_harmonic(g, McConfig(samples=3000, master_seed=5)).scores
    b = mc_harmonic(g, McConfig(samples=3000, master_seed=5)).scores
    assert np.array_equal(a, b)


def test_matches_oracle_small_graph():
    rng = np.random.default_rng(55)
    g = random_uncertain_graph(rng, n=7, edge_prob=0.5, max_uncertain=8)
    exact = exact_expected_centrality(g, "betweenness")
    approx = mc_betweenness(g, McConfig(samples=200_000, master_seed=4))
    assert np.max(np.abs(exact.scores - approx.scores)) < 0.005


def test_matches_oracle_on_detour_example(detour):
    exact = exact_expected_centrality(detour, "harmonic")
    approx = mc_harmonic(detour, McConfig(samples=200_000, master_seed=6))
    assert np.max(np.abs(exact.scores - approx.scores)) < 0.005


def test_unbiased_within_clt_bound():
    # Per-world harmonic of a single p=0.3 edge is Bernoulli(0.3) per node, so
    # the estimator sd is sqrt(0.3*0.7/r); check the pooled mean at 4 sigma.
    g = UncertainGraph(2, [(0, 1)], [0.3])
    batches = [
        mc_harmonic(g, McConfig(samples=5000, master_seed=seed)).scores[0]
        for seed in range(20)
    ]
    pooled = np.mean(batches)
    sigma = np.sqrt(0.3 * 0.7 / (5000 * 20))
    assert abs(pooled - 0.3) < 4 * sigma


def test_preconditions():
    one = UncertainGraph(1, [], [])
    with pytest.raises(ValueError):
        mc_harmonic(one, McConfig(samples=10))
    two = UncertainGraph(2, [(0, 1)], [0.5])
    with pytest.raises(ValueError):
        mc_betweenness(two, McConfig(samples=10))


def test_metadata_carries_provenance():
    g = UncertainGraph(2, [(0, 1)], [0.5])
    vec = mc_harmonic(g, McConfig(samples=10, master_seed=42))
    assert vec.method == "mc-harmonic"
    assert vec.params == {"samples": 10}
    assert vec.seed == 42


def test_kernels_run_once_per_distinct_world_looked_up_by_name(monkeypatch):
    # Tracers count kernel calls and chunks by patching these module
    # attributes, so _mc_estimate must look them up when it runs.
    rng = np.random.default_rng(5)
    g = random_uncertain_graph(rng, n=10, edge_prob=0.5, max_uncertain=12)
    cfg = McConfig(samples=3000, master_seed=3)
    distinct = len(monte_carlo._sample_world_codes(g, cfg)[0])
    size = monte_carlo._EVAL_CHUNK
    assert distinct > size
    real_eval_chunk = monte_carlo._eval_chunk
    for measure, estimator in (("harmonic", mc_harmonic), ("betweenness", mc_betweenness)):
        kernel_name = f"{measure}_scores_from_adjacency"
        real_kernel = getattr(monte_carlo, kernel_name)
        worlds, chunks = [], []

        def counting_kernel(a):
            worlds.append(a.tobytes())
            return real_kernel(a)

        def counting_eval_chunk(*args):
            chunks.append(len(args[-1]))
            return real_eval_chunk(*args)

        monkeypatch.setattr(monte_carlo, kernel_name, counting_kernel)
        monkeypatch.setattr(monte_carlo, "_eval_chunk", counting_eval_chunk)
        estimator(g, cfg)
        monkeypatch.undo()
        assert len(worlds) == len(set(worlds)) == distinct
        assert chunks == [min(size, distinct - i) for i in range(0, distinct, size)]


def test_joint_pass_equals_both_estimators_bit_for_bit(monkeypatch):
    # One forward sweep per distinct world, through the betweenness kernel
    # as monte_carlo looks it up, gives both score vectors. The graphs'
    # sampled worlds are mostly disconnected (p = 0 edges, low density).
    real_kernel = monte_carlo.betweenness_scores_from_adjacency
    for seed, workers in ((3, 1), (4, 2), (5, 1)):
        g = random_uncertain_graph(np.random.default_rng(seed), n=11, edge_prob=0.25)
        cfg = McConfig(samples=700, master_seed=seed, workers=workers)
        worlds = []

        def counting_kernel(a, *out):
            worlds.append(a.tobytes())
            return real_kernel(a, *out)

        monkeypatch.setattr(monte_carlo, "betweenness_scores_from_adjacency", counting_kernel)
        harmonic, betweenness = mc_harmonic_betweenness(g, cfg)
        monkeypatch.undo()
        if workers == 1:
            assert len(worlds) == len(monte_carlo._sample_world_codes(g, cfg)[0])
        assert harmonic.scores.tobytes() == mc_harmonic(g, cfg).scores.tobytes()
        assert betweenness.scores.tobytes() == mc_betweenness(g, cfg).scores.tobytes()
        assert (harmonic.method, harmonic.seed) == ("mc-harmonic", seed)
        assert (betweenness.method, betweenness.params) == ("mc-betweenness", {"samples": 700})
