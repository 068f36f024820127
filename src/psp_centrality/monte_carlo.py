"""Monte Carlo estimators of expected centrality measures.

Worlds are sampled with a counter-based seed derivation (fixed-size sample
blocks keyed by the master seed and block index), so the sampled multiset
depends only on (master_seed, samples). Identical sampled worlds are grouped
and each distinct world is evaluated once; the weighted mean equals the plain
per-sample mean and the whole pipeline is deterministic for any worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _parallel
from .deterministic import (
    CentralityVector,
    betweenness_scores_from_adjacency,
    harmonic_scores_from_adjacency,
    require_nodes,
    require_seed,
)
from .graph_model import UncertainGraph

_SAMPLE_BLOCK = 8192  # samples drawn per derived RNG stream
_EVAL_CHUNK = 256  # distinct worlds evaluated per pool task


@dataclass(frozen=True)
class McConfig:
    """Sample count, master seed and worker count for one estimator run.

    The worker count is checked by the pool when the run starts.
    """

    samples: int
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        require_seed(self.master_seed)


def _sample_world_codes(g: UncertainGraph, cfg: McConfig):
    """Distinct sampled worlds as packed inclusion-bit rows, with multiplicities."""
    k = g.uncertain_edge_count
    if k == 0:
        return np.zeros((1, 0), dtype=np.uint8), np.array([cfg.samples])
    probs = g.probs[g.uncertain_idx]
    blocks = []
    for block_index, start in enumerate(range(0, cfg.samples, _SAMPLE_BLOCK)):
        count = min(_SAMPLE_BLOCK, cfg.samples - start)
        seed = np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(block_index,))
        rng = np.random.default_rng(seed)
        incl = rng.random((count, k)) < probs
        blocks.append(np.packbits(incl, axis=1))
    rows = np.concatenate(blocks, axis=0)
    return np.unique(rows, axis=0, return_counts=True)


def _eval_chunk(g: UncertainGraph, kernel, width: int, rows: np.ndarray) -> np.ndarray:
    """out[j, i]: the j-th of the ``width`` score vectors ``kernel`` returns for world rows[i]."""
    k = g.uncertain_edge_count
    out = np.empty((width, len(rows), g.node_count))
    for i, row in enumerate(rows):
        incl = np.unpackbits(row)[:k].astype(bool)
        out[:, i] = kernel(g.adjacency_matrix(g.full_mask(incl)))
    return out


def _harmonic_betweenness_scores(a: np.ndarray):
    """(harmonic, betweenness) scores of one world from one forward sweep."""
    harmonic = np.empty(a.shape[0])
    betweenness = betweenness_scores_from_adjacency(a, harmonic)
    return harmonic, betweenness


def _mc_estimate(g: UncertainGraph, cfg: McConfig, measures: tuple) -> list[CentralityVector]:
    """Mean score of each of ``measures`` over the same cfg.samples sampled
    worlds, one score vector per measure."""
    for measure in measures:
        require_nodes(measure, g.node_count)
    codes, counts = _sample_world_codes(g, cfg)
    chunks = [codes[i : i + _EVAL_CHUNK] for i in range(0, len(codes), _EVAL_CHUNK)]
    kernel = {
        ("harmonic",): harmonic_scores_from_adjacency,
        ("betweenness",): betweenness_scores_from_adjacency,
        ("harmonic", "betweenness"): _harmonic_betweenness_scores,
    }[measures]
    fn = functools.partial(_eval_chunk, g, kernel, len(measures))
    values = np.concatenate(_parallel.run_ordered(fn, chunks, cfg.workers), axis=1)
    weights = counts.astype(np.float64)
    return [
        CentralityVector(
            weights @ values[j] / cfg.samples,
            method=f"mc-{measure}",
            params={"samples": cfg.samples},
            seed=cfg.master_seed,
        )
        for j, measure in enumerate(measures)
    ]


def mc_harmonic(g: UncertainGraph, cfg: McConfig) -> CentralityVector:
    """Mean harmonic closeness over cfg.samples sampled worlds."""
    return _mc_estimate(g, cfg, ("harmonic",))[0]


def mc_betweenness(g: UncertainGraph, cfg: McConfig) -> CentralityVector:
    """Mean betweenness over cfg.samples sampled worlds."""
    return _mc_estimate(g, cfg, ("betweenness",))[0]


def mc_harmonic_betweenness(
    g: UncertainGraph, cfg: McConfig
) -> tuple[CentralityVector, CentralityVector]:
    """(``mc_harmonic``, ``mc_betweenness``) from one pass: the worlds are
    sampled once and each distinct world takes one forward sweep for both
    measures. Equal to the two calls bit for bit."""
    harmonic, betweenness = _mc_estimate(g, cfg, ("harmonic", "betweenness"))
    return harmonic, betweenness
