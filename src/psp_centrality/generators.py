"""Random uncertain-graph generation.

Three topology models (Erdős-Rényi, Barabási-Albert preferential attachment,
random hyperbolic threshold graphs) plus i.i.d. edge-probability assignment.
All generation is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .deterministic import require_seed
from .graph_model import UncertainGraph


@dataclass(frozen=True)
class GenSpec:
    """One generation request: topology model, edge-probability law, seed.

    prob_dist is "uniform01", "beta44" or "constant:<c>".
    """

    model: str  # "er" | "ba" | "rh"
    n: int
    p: float | None = None  # er: pair probability
    m: int | None = None  # ba: edges per new node
    k: float | None = None  # rh: target average degree
    gamma: float | None = None  # rh: power-law exponent
    prob_dist: str = "uniform01"
    seed: int = 0

    def validate(self):
        """Raise ValueError unless the model's parameters are in range (for
        rh, a degree target that a disk of n nodes can reach).

        ``gen_er``, ``gen_ba`` and ``gen_rh`` check their arguments here too.
        """
        if self.n < 1:
            raise ValueError("n must be >= 1")
        require_seed(self.seed)
        if self.model == "er":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError("er needs p in [0, 1]")
        elif self.model == "ba":
            if self.m is None or not 1 <= self.m < self.n:
                raise ValueError("ba needs 1 <= m < n")
        elif self.model == "rh":
            # Written so that nan fails: every comparison with nan is false.
            if self.k is None or not 0 < self.k < math.inf:
                raise ValueError("rh needs a finite k > 0")
            if self.gamma is None or not 2 < self.gamma < math.inf:
                raise ValueError("rh needs a finite gamma > 2")
            if self.n > 1:
                _rh_radius(self.n, float(self.k), (self.gamma - 1.0) / 2.0)
        else:
            raise ValueError(f"unknown model {self.model!r}")
        _parse_prob_dist(self.prob_dist)


def gen_er(n: int, p: float, rng: np.random.Generator) -> UncertainGraph:
    """Gilbert-style random graph: each of the C(n,2) pairs appears with
    probability p. Returned with all edge probabilities 1 (pure topology)."""
    GenSpec("er", n, p=p).validate()
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    edges = list(zip(iu[keep].tolist(), iv[keep].tolist()))
    return UncertainGraph(n, edges, np.ones(len(edges)))


def gen_ba(n: int, m: int, rng: np.random.Generator) -> UncertainGraph:
    """Preferential attachment: a circle seed of m nodes, then n-m nodes each
    attached to m distinct existing nodes sampled proportionally to degree.

    For m >= 3 the edge count is exactly (n-m)m + m. A circle on m <= 2 nodes
    would duplicate an edge, so the seed degenerates to a path there and the
    closed-form count does not apply.
    """
    GenSpec("ba", n, m=m).validate()
    edges: list[tuple[int, int]] = []
    if m >= 3:
        edges.extend((i, (i + 1) % m) for i in range(m))
    else:
        edges.extend((i, i + 1) for i in range(m - 1))
    repeated: list[int] = []
    for u, v in edges:
        repeated.append(u)
        repeated.append(v)
    for new in range(m, n):
        targets: list[int] = []
        seen = set()
        while len(targets) < m:
            if repeated:
                cand = repeated[int(rng.integers(len(repeated)))]
            else:
                cand = int(rng.integers(new))  # degreeless seed: uniform fallback
            if cand not in seen:
                seen.add(cand)
                targets.append(cand)
        for tgt in targets:
            edges.append((tgt, new))
        repeated.extend(targets)
        repeated.extend([new] * m)
    return UncertainGraph(n, edges, np.ones(len(edges)))


@lru_cache(maxsize=64)
def _rh_radius(n: int, avg_degree: float, alpha: float) -> float:
    """Disk radius whose expected average degree matches the target.

    Solves E[deg](R) = avg_degree where the expectation integrates the
    connection probability of two random points over the radial density
    alpha*sinh(alpha*r)/(cosh(alpha*R)-1). The expected degree falls as
    the radius grows, and even the smallest disk joins only part of the
    pairs, so a target above what it reaches is a ValueError naming n and k.
    So is a radius the search reaches where the expectation is not finite
    (cosh(alpha * R) overflows for a large gamma), naming n, k and gamma.
    """
    nodes, weights = np.polynomial.legendre.leggauss(128)

    def expected_degree(radius: float) -> float:
        r = 0.5 * radius * (nodes + 1.0)
        w = 0.5 * radius * weights
        with np.errstate(over="ignore", invalid="ignore"):
            dens = alpha * np.sinh(alpha * r) / (np.cosh(alpha * radius) - 1.0)
            wf = w * dens
            cr = np.cosh(r)
            sr = np.sinh(r)
            num = np.outer(cr, cr) - np.cosh(radius)
            den = np.outer(sr, sr)
            cosang = np.clip(num / den, -1.0, 1.0)
            frac = np.arccos(cosang) / np.pi  # admissible angle fraction
            degree = float((n - 1) * (wf @ frac @ wf))
        if not math.isfinite(degree):
            raise ValueError(
                f"rh cannot calibrate average degree k={avg_degree:g} with n={n} nodes"
                f" and gamma={2.0 * alpha + 1.0:g}: the expected degree at disk radius"
                f" {radius:.3g} is not finite; lower gamma"
            )
        return degree

    lo = 1e-3
    densest = expected_degree(lo)
    if densest < avg_degree:
        raise ValueError(
            f"rh cannot reach average degree k={avg_degree:g} with n={n} nodes"
            f" (at most {densest:.3g}); lower k or raise n"
        )
    hi = max(4.0, 2.0 * math.log(max(n, 2)))
    for _ in range(60):
        if expected_degree(hi) < avg_degree:
            break
        hi *= 1.5
    return float(brentq(lambda R: expected_degree(R) - avg_degree, lo, hi, xtol=1e-9))


def gen_rh(n: int, k: float, gamma: float, rng: np.random.Generator) -> UncertainGraph:
    """Threshold random hyperbolic graph: points on a 2-d hyperbolic disk of
    radius R (calibrated for average degree k, power-law exponent gamma) are
    joined whenever their hyperbolic distance is at most R. O(n^2) pairwise.
    """
    GenSpec("rh", n, k=k, gamma=gamma).validate()
    if n == 1:
        return UncertainGraph(1, [], [])
    alpha = (gamma - 1.0) / 2.0
    radius = _rh_radius(n, float(k), alpha)
    u = rng.random(n)
    r = np.arccosh(1.0 + u * (np.cosh(alpha * radius) - 1.0)) / alpha
    theta = rng.random(n) * 2.0 * np.pi
    cr = np.cosh(r)
    sr = np.sinh(r)
    thresh = np.cosh(radius)
    edges = []
    for i in range(n - 1):
        cosd = cr[i] * cr[i + 1 :] - sr[i] * sr[i + 1 :] * np.cos(theta[i] - theta[i + 1 :])
        for j in np.flatnonzero(cosd <= thresh):
            edges.append((i, i + 1 + int(j)))
    return UncertainGraph(n, edges, np.ones(len(edges)))


def _parse_prob_dist(dist: str):
    if dist == "uniform01":
        return ("uniform01", None)
    if dist == "beta44":
        return ("beta44", None)
    if dist.startswith("constant:"):
        c = float(dist.split(":", 1)[1])
        if not 0.0 <= c <= 1.0:
            raise ValueError("constant probability must lie in [0, 1]")
        return ("constant", c)
    raise ValueError(f"unknown probability distribution {dist!r}")


def assign_probabilities(
    topology: UncertainGraph, dist: str, rng: np.random.Generator
) -> UncertainGraph:
    """Replace edge probabilities with i.i.d. draws from the chosen law.

    "uniform01" draws uniformly from [0, 1); "beta44" from Beta(4, 4)
    (mean 1/2, standard deviation 1/6); "constant:<c>" sets every edge to c.
    """
    kind, c = _parse_prob_dist(dist)
    count = topology.edge_count
    if kind == "uniform01":
        probs = rng.random(count)
    elif kind == "beta44":
        probs = rng.beta(4.0, 4.0, count)
    else:
        probs = np.full(count, c)
    return UncertainGraph(topology.node_count, list(topology.edges), probs)


def generate(spec: GenSpec) -> UncertainGraph:
    """Build the topology and assign probabilities from one seeded stream."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if spec.model == "er":
        topology = gen_er(spec.n, spec.p, rng)
    elif spec.model == "ba":
        topology = gen_ba(spec.n, spec.m, rng)
    else:
        topology = gen_rh(spec.n, spec.k, spec.gamma, rng)
    return assign_probabilities(topology, spec.prob_dist, rng)
