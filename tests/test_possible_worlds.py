import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp_centrality import (
    DistanceDistribution,
    EnumerationCapExceeded,
    McConfig,
    UncertainGraph,
    betweenness_brandes,
    distance_er,
    distance_majority,
    distance_median,
    enumerate_worlds,
    exact_distance_distribution,
    exact_expected_centrality,
    harmonic_closeness,
    mc_harmonic,
    sample_world,
)

from conftest import full_world, random_uncertain_graph


def dist_of(masses, n=6, s=0, t=1, mass_inf=None):
    mass = np.zeros(n)
    for k, m in masses.items():
        mass[k] = m
    if mass_inf is None:
        mass_inf = 1.0 - mass.sum()
    return DistanceDistribution(s=s, t=t, mass=mass, mass_inf=mass_inf)


def test_enumerate_two_uncertain_edges():
    g = UncertainGraph(3, [(0, 1), (1, 2)], [0.5, 0.5])
    worlds = list(enumerate_worlds(g))
    assert len(worlds) == 4
    assert sum(p for _, p in worlds) == pytest.approx(1.0, abs=1e-15)


def test_enumerate_worked_examples(parallel_graph, detour):
    assert len(list(enumerate_worlds(parallel_graph))) == 4  # 2 certain + 2 uncertain
    assert len(list(enumerate_worlds(detour))) == 16


def test_enumeration_cap():
    edges = [(0, i) for i in range(1, 12)]
    g = UncertainGraph(12, edges, [0.5] * 11)
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_worlds(g, cap=10))


def test_negative_enumeration_cap_is_rejected():
    # Even with no uncertain edge to enumerate, a cap below 0 is refused.
    g = UncertainGraph(3, [(0, 1), (1, 2)], [1.0, 1.0])
    assert len(list(enumerate_worlds(g, cap=0))) == 1
    for call in (
        lambda: list(enumerate_worlds(g, cap=-1)),
        lambda: exact_distance_distribution(g, 0, 2, cap=-1),
        lambda: exact_expected_centrality(g, "harmonic", cap=-1),
    ):
        with pytest.raises(ValueError, match=r"^cap must be >= 0$"):
            call()


def test_exact_distribution_parallel(parallel_graph):
    d = exact_distance_distribution(parallel_graph, 0, 3)
    assert d.mass[2] == pytest.approx(0.99, abs=1e-12)
    assert d.mass_inf == pytest.approx(0.01, abs=1e-12)
    assert d.mass[1] == d.mass[3] == 0.0


def test_exact_distribution_detour(detour):
    d = exact_distance_distribution(detour, 0, 3)
    assert d.mass[2] == pytest.approx(0.74, abs=1e-12)
    assert d.mass[3] == pytest.approx(0.07, abs=1e-12)
    assert d.mass_inf == pytest.approx(0.19, abs=1e-12)


def test_exact_distribution_deterministic_graph():
    g = UncertainGraph(4, [(0, 1), (1, 2), (2, 3)], [1.0] * 3)
    d = exact_distance_distribution(g, 0, 3)
    assert d.mass[3] == 1.0 and d.mass_inf == 0.0


def test_exact_distribution_requires_distinct_pair(detour):
    with pytest.raises(ValueError):
        exact_distance_distribution(detour, 1, 1)


@pytest.mark.parametrize("s,t", [(0, 9), (-1, 3)])
def test_exact_distribution_rejects_node_ids_outside_the_graph(detour, s, t):
    with pytest.raises(ValueError, match=r"is not an integer in 0\.\.3"):
        exact_distance_distribution(detour, s, t)


def test_distance_er_worked_examples(parallel_graph, detour):
    assert distance_er(exact_distance_distribution(parallel_graph, 0, 3)) == pytest.approx(
        2.0, abs=1e-12
    )
    assert distance_er(exact_distance_distribution(detour, 0, 3)) == pytest.approx(
        1.69 / 0.81, abs=1e-12
    )


def test_distance_er_disconnected():
    assert distance_er(dist_of({}, mass_inf=1.0)) == math.inf


def test_distance_er_at_least_one():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_uncertain_graph(rng, n=6, edge_prob=0.4, max_uncertain=8)
        d = exact_distance_distribution(g, 0, 1)
        v = distance_er(d)
        assert v == math.inf or v >= 1.0


def test_distance_median_rules():
    assert distance_median(dist_of({1: 0.4, 2: 0.4}, mass_inf=0.2)) == 1
    assert distance_median(dist_of({3: 1.0})) == 2
    assert distance_median(dist_of({1: 1.0})) == 1  # degenerate fallback


def test_distance_majority_rules(detour):
    assert distance_majority(exact_distance_distribution(detour, 0, 3)) == 2
    assert distance_majority(dist_of({}, mass_inf=1.0)) == math.inf
    assert distance_majority(dist_of({1: 0.5, 2: 0.5})) == 1  # tie to smaller
    assert distance_majority(dist_of({2: 0.4, 3: 0.2}, mass_inf=0.4)) == 2  # inf loses ties


def test_exact_expected_reduces_to_deterministic(star5):
    exp = exact_expected_centrality(star5, "betweenness")
    det = betweenness_brandes(full_world(star5))
    assert np.allclose(exp.scores, det.scores, atol=1e-14)


def test_exact_expected_single_edge_harmonic():
    g = UncertainGraph(2, [(0, 1)], [0.5])
    exp = exact_expected_centrality(g, "harmonic")
    assert np.allclose(exp.scores, [0.5, 0.5], atol=1e-15)


def test_exact_expected_matches_weighted_world_mean(detour):
    acc = np.zeros(4)
    for world, prob in enumerate_worlds(detour):
        acc += prob * harmonic_closeness(world).scores
    exp = exact_expected_centrality(detour, "harmonic")
    assert np.allclose(exp.scores, acc, atol=1e-12)


def test_exact_expected_validation():
    g = UncertainGraph(2, [(0, 1)], [0.5])
    with pytest.raises(ValueError):
        exact_expected_centrality(g, "betweenness")
    with pytest.raises(ValueError):
        exact_expected_centrality(g, "nope")


def test_sample_world_respects_certain_edges():
    g = UncertainGraph(3, [(0, 1), (1, 2)], [1.0, 0.0])
    rng = np.random.default_rng(0)
    for _ in range(1000):
        w = sample_world(g, rng)
        assert bool(w.mask[0]) and not bool(w.mask[1])


def test_sample_world_inclusion_frequency():
    g = UncertainGraph(2, [(0, 1)], [0.3])
    rng = np.random.default_rng(123)
    hits = sum(bool(sample_world(g, rng).mask[0]) for _ in range(100_000))
    assert 0.29 <= hits / 100_000 <= 0.31


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_exact_distribution_normalized(seed):
    rng = np.random.default_rng(seed)
    g = random_uncertain_graph(rng, n=6, edge_prob=0.5, max_uncertain=8)
    d = exact_distance_distribution(g, 0, min(1, g.node_count - 1))
    d.validate(tol=1e-9)


def test_exact_vs_monte_carlo_cross_check():
    rng = np.random.default_rng(17)
    g = random_uncertain_graph(rng, n=7, edge_prob=0.5, max_uncertain=8)
    exact = exact_expected_centrality(g, "harmonic")
    approx = mc_harmonic(g, McConfig(samples=200_000, master_seed=5))
    assert np.max(np.abs(exact.scores - approx.scores)) < 0.005
