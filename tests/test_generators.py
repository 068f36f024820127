import math
import re

import numpy as np
import pytest

from psp_centrality import GenSpec, assign_probabilities, gen_ba, gen_er, gen_rh, generate
from psp_centrality.generators import _rh_radius


def degrees(g):
    deg = np.zeros(g.node_count)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def test_er_extremes():
    rng = np.random.default_rng(0)
    assert gen_er(5, 0.0, rng).edge_count == 0
    assert gen_er(5, 1.0, rng).edge_count == 10


def test_er_edge_count_within_four_sigma():
    g = gen_er(500, 0.05, np.random.default_rng(3))
    pairs = 500 * 499 // 2
    mean = 0.05 * pairs
    sigma = np.sqrt(pairs * 0.05 * 0.95)
    assert abs(g.edge_count - mean) < 4 * sigma


def test_ba_edge_count_formula():
    for n, m in [(500, 5), (50, 5), (20, 3)]:
        g = gen_ba(n, m, np.random.default_rng(1))
        assert g.edge_count == (n - m) * m + m


def test_ba_small_m_path_seed():
    assert gen_ba(3, 2, np.random.default_rng(1)).edge_count == 3
    g = gen_ba(10, 1, np.random.default_rng(2))
    assert g.edge_count == 9  # tree: every new node adds one edge


def test_ba_rejects_bad_m():
    with pytest.raises(ValueError):
        gen_ba(5, 5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        gen_ba(5, 0, np.random.default_rng(0))


def test_ba_tail_heavier_than_er():
    ba = gen_ba(2000, 5, np.random.default_rng(10))
    p = ba.edge_count / (2000 * 1999 / 2)
    er = gen_er(2000, p, np.random.default_rng(10))
    assert degrees(ba).max() > 3 * degrees(er).max()


def test_rh_average_degree_calibrated():
    means = []
    for seed in range(20):
        g = gen_rh(500, 6.0, 3.0, np.random.default_rng(seed))
        means.append(2 * g.edge_count / 500)
    assert 4.0 <= np.mean(means) <= 8.0


def test_rh_single_node():
    assert gen_rh(1, 6.0, 3.0, np.random.default_rng(0)).edge_count == 0


def test_rh_degree_tail_power_law():
    # Pool several seeds and fit a log-binned density over the upper decade;
    # single-seed tails are far too noisy for a stable exponent estimate.
    deg = np.concatenate(
        [degrees(gen_rh(2000, 6.0, 3.0, np.random.default_rng(seed))) for seed in range(5)]
    )
    top = deg.max()
    lo = max(2.0, top / 10.0)
    bins = np.geomspace(lo, top + 1.0, 9)
    counts, edges = np.histogram(deg[deg >= lo], bins=bins)
    centers = np.sqrt(edges[:-1] * edges[1:])
    density = counts / np.diff(edges)
    keep = density > 0
    slope = np.polyfit(np.log(centers[keep]), np.log(density[keep]), 1)[0]
    assert -4.0 <= slope <= -2.0


def test_assign_constant_probabilities():
    topo = gen_er(10, 0.5, np.random.default_rng(4))
    g = assign_probabilities(topo, "constant:1.0", np.random.default_rng(0))
    assert np.all(g.probs == 1.0)
    assert g.edges == topo.edges


def test_uniform_probability_moments():
    topo = gen_er(500, 1.0, np.random.default_rng(5))  # 124750 edges
    g = assign_probabilities(topo, "uniform01", np.random.default_rng(12))
    assert g.edge_count >= 100_000
    assert 0.497 <= g.probs[:100_000].mean() <= 0.503


def test_beta_probability_moments():
    topo = gen_er(500, 1.0, np.random.default_rng(6))
    g = assign_probabilities(topo, "beta44", np.random.default_rng(11))
    draws = g.probs[:100_000]
    assert 0.497 <= draws.mean() <= 0.503
    assert 0.164 <= draws.std() <= 0.169


def test_generation_deterministic_by_seed():
    spec = GenSpec(model="rh", n=100, k=6.0, gamma=3.0, prob_dist="beta44", seed=123)
    assert generate(spec) == generate(spec)
    other = GenSpec(model="rh", n=100, k=6.0, gamma=3.0, prob_dist="beta44", seed=124)
    assert generate(other) != generate(spec)


def test_generated_graphs_validate():
    for spec in (
        GenSpec(model="er", n=60, p=0.1, prob_dist="uniform01", seed=1),
        GenSpec(model="ba", n=60, m=4, prob_dist="beta44", seed=2),
        GenSpec(model="rh", n=60, k=5.0, gamma=2.5, prob_dist="constant:0.7", seed=3),
    ):
        g = generate(spec)
        assert g.node_count == 60
        assert np.all((g.probs >= 0.0) & (g.probs <= 1.0))
        assert len(set(g.edges)) == g.edge_count


@pytest.mark.parametrize(
    "spec,build",
    [
        (GenSpec(model="er", n=0, p=0.5), lambda rng: gen_er(0, 0.5, rng)),
        (GenSpec(model="er", n=10, p=1.5), lambda rng: gen_er(10, 1.5, rng)),
        (GenSpec(model="ba", n=10, m=10), lambda rng: gen_ba(10, 10, rng)),
        (GenSpec(model="rh", n=10, k=5.0, gamma=1.5), lambda rng: gen_rh(10, 5.0, 1.5, rng)),
    ],
)
def test_generators_raise_the_spec_messages(spec, build):
    with pytest.raises(ValueError) as expected:
        spec.validate()
    with pytest.raises(ValueError) as raised:
        build(np.random.default_rng(0))
    assert str(raised.value) == str(expected.value)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        GenSpec(model="er", n=10, p=1.5).validate()
    with pytest.raises(ValueError):
        GenSpec(model="ba", n=10, m=10).validate()
    with pytest.raises(ValueError):
        GenSpec(model="rh", n=10, k=5.0, gamma=1.5).validate()
    with pytest.raises(ValueError):
        GenSpec(model="er", n=10, p=0.5, prob_dist="nope").validate()
    with pytest.raises(ValueError):
        GenSpec(model="er", n=10, p=0.5, prob_dist="constant:1.4").validate()
    with pytest.raises(ValueError, match="seed must be >= 0"):
        GenSpec(model="er", n=10, p=0.5, seed=-1).validate()
    for k, gamma in ((math.nan, 3.0), (math.inf, 3.0), (6.0, math.nan), (6.0, math.inf)):
        with pytest.raises(ValueError, match="rh needs a finite"):
            GenSpec(model="rh", n=10, k=k, gamma=gamma).validate()
    with pytest.raises(ValueError, match="unknown probability distribution 'constant'"):
        GenSpec(model="er", n=10, p=0.5, prob_dist="constant").validate()


def test_rh_degree_beyond_the_smallest_disk_names_n_and_k():
    # Even the smallest disk joins only part of the pairs: about 0.587 (n - 1)
    # expected neighbours, so k = 6 needs n >= 12.
    message = r"rh cannot reach average degree k=6 with n=10 nodes \(at most 5\.28\)"
    with pytest.raises(ValueError, match=message):
        _rh_radius(10, 6.0, 1.0)
    with pytest.raises(ValueError, match=message):
        GenSpec(model="rh", n=10, k=6.0, gamma=3.0).validate()
    with pytest.raises(ValueError, match=message):
        gen_rh(10, 6.0, 3.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="k=1.5 with n=2 nodes"):
        GenSpec(model="rh", n=2, k=1.5, gamma=3.0).validate()
    assert gen_rh(12, 6.0, 3.0, np.random.default_rng(0)).node_count == 12


def test_rh_degree_that_overflows_names_n_k_and_gamma():
    # cosh(alpha R) overflows once alpha R passes about 710: at gamma 400 the
    # bracket search's first radius (4.61) already does; at gamma 3e6 even
    # the smallest disk (radius 0.001) does.
    for gamma, radius in ((400.0, "4.61"), (3e6, "0.001")):
        message = (
            f"rh cannot calibrate average degree k=3 with n=10 nodes and gamma={gamma:g}:"
            f" the expected degree at disk radius {radius} is not finite"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            GenSpec(model="rh", n=10, k=3.0, gamma=gamma).validate()
    assert GenSpec(model="rh", n=10, k=3.0, gamma=200.0).validate() is None
