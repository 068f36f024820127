"""Brute-force oracle over possible worlds.

Enumerates every instance of an uncertain graph (feasible only when few
edges are uncertain) to compute exact expected centralities and exact
distance distributions, plus the three distance summaries derived from a
distribution and independent world sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deterministic import (
    CentralityVector,
    betweenness_scores_from_adjacency,
    harmonic_scores_from_adjacency,
    hop_distances,
    require_nodes,
    require_pair,
)
from .graph_model import PossibleWorld, UncertainGraph

DEFAULT_ENUMERATION_CAP = 20


class EnumerationCapExceeded(RuntimeError):
    """Too many uncertain edges for exhaustive world enumeration."""


@dataclass(eq=False)
class DistanceDistribution:
    """Probability mass of the s-t distance over {1, .., n-1, inf}.

    ``mass[k]`` is the probability of distance k (index 0 unused);
    ``mass_inf`` the probability of disconnection.
    """

    s: int
    t: int
    mass: np.ndarray
    mass_inf: float

    def total(self) -> float:
        return float(self.mass[1:].sum() + self.mass_inf)

    def validate(self, tol: float = 1e-9) -> None:
        if np.any(self.mass < 0.0) or self.mass_inf < -tol:
            raise ValueError("negative probability mass")
        if abs(self.total() - 1.0) > tol:
            raise ValueError(f"mass sums to {self.total()}, not 1")


def _check_cap(g: UncertainGraph, cap: int) -> None:
    if cap < 0:
        raise ValueError("cap must be >= 0")
    k = g.uncertain_edge_count
    if k > cap:
        raise EnumerationCapExceeded(
            f"{k} uncertain edges exceed the enumeration cap of {cap} "
            f"({2 ** min(k, 63)} worlds); raise the cap or use sampling"
        )


def _world_prob_table(probs: np.ndarray) -> np.ndarray:
    """Probabilities of all 2^k uncertain-edge subsets; bit j = edge j present."""
    table = np.ones(1)
    for p in probs:
        table = np.concatenate([table * (1.0 - p), table * p])
    return table


def _iter_world_masks(g: UncertainGraph, cap: int):
    """Yield (full edge mask, world probability) over every possible world."""
    _check_cap(g, cap)
    idx = g.uncertain_idx
    k = len(idx)
    table = _world_prob_table(g.probs[idx])
    bits = np.arange(k)
    for code in range(1 << k):
        incl = (code >> bits) & 1
        yield g.full_mask(incl.astype(bool)), float(table[code])


def enumerate_worlds(g: UncertainGraph, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every possible world of g exactly once with its probability."""
    for mask, prob in _iter_world_masks(g, cap):
        yield PossibleWorld(g, mask), prob


def exact_distance_distribution(
    g: UncertainGraph, s: int, t: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> DistanceDistribution:
    """Exact distance distribution of the pair (s, t) by world enumeration."""
    require_pair(g.node_count, s, t)
    mass = np.zeros(g.node_count)
    mass_inf = 0.0
    for mask, prob in _iter_world_masks(g, cap):
        d = hop_distances(g.neighbor_lists(mask), s)[t]
        if d < 0:
            mass_inf += prob
        else:
            mass[d] += prob
    return DistanceDistribution(s=s, t=t, mass=mass, mass_inf=mass_inf)


def distance_er(d: DistanceDistribution) -> float:
    """Expected distance conditioned on connection; inf when never connected."""
    finite = float(d.mass[1:].sum())
    if finite <= 0.0:
        return math.inf
    ks = np.arange(1, len(d.mass))
    return float((d.mass[1:] * ks).sum() / finite)


def distance_median(d: DistanceDistribution) -> int:
    """Largest D with cumulative finite mass <= 1/2; falls back to 1.

    The fallback covers the degenerate case mass[1] > 1/2, where no D
    qualifies; 1 is the smallest valid distance.
    """
    cum = 0.0
    best = 0
    for k in range(1, len(d.mass)):
        cum += float(d.mass[k])
        if cum <= 0.5:
            best = k
    return best if best >= 1 else 1


def distance_majority(d: DistanceDistribution):
    """Distance value with maximal mass; ties go to the smallest finite D and
    infinity never wins a tie."""
    finite = d.mass[1:]
    if len(finite) == 0:
        return math.inf
    best_k = int(np.argmax(finite)) + 1  # argmax takes the first = smallest D
    if d.mass_inf > float(d.mass[best_k]):
        return math.inf
    return best_k


def exact_expected_centrality(
    g: UncertainGraph, measure: str, cap: int = DEFAULT_ENUMERATION_CAP
) -> CentralityVector:
    """Exact expected centrality: sum of Pr(world) * measure(world) per node."""
    require_nodes(measure, g.node_count)
    kernel = (
        harmonic_scores_from_adjacency
        if measure == "harmonic"
        else betweenness_scores_from_adjacency
    )
    expected = np.zeros(g.node_count)
    for mask, prob in _iter_world_masks(g, cap):
        expected += prob * kernel(g.adjacency_matrix(mask))
    return CentralityVector(expected, method=f"exact-{measure}", params={"cap": cap})


def sample_world(g: UncertainGraph, rng: np.random.Generator) -> PossibleWorld:
    """Sample one world: each uncertain edge included independently with its p."""
    probs = g.probs[g.uncertain_idx]
    incl = rng.random(len(probs)) < probs
    return PossibleWorld(g, g.full_mask(incl))
