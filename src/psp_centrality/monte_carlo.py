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


def _eval_chunk(g: UncertainGraph, kernel, rows: np.ndarray) -> np.ndarray:
    k = g.uncertain_edge_count
    out = np.empty((len(rows), g.node_count))
    for i, row in enumerate(rows):
        incl = np.unpackbits(row)[:k].astype(bool)
        out[i] = kernel(g.adjacency_matrix(g.full_mask(incl)))
    return out


def _mc_estimate(g: UncertainGraph, cfg: McConfig, measure: str) -> CentralityVector:
    """Mean ``measure`` score over cfg.samples sampled worlds, as a score vector."""
    require_nodes(measure, g.node_count)
    codes, counts = _sample_world_codes(g, cfg)
    chunks = [codes[i : i + _EVAL_CHUNK] for i in range(0, len(codes), _EVAL_CHUNK)]
    kernel = (
        harmonic_scores_from_adjacency
        if measure == "harmonic"
        else betweenness_scores_from_adjacency
    )
    fn = functools.partial(_eval_chunk, g, kernel)
    values = _parallel.run_ordered(fn, chunks, cfg.workers)
    scores = counts.astype(np.float64) @ np.concatenate(values, axis=0) / cfg.samples
    return CentralityVector(
        scores, method=f"mc-{measure}", params={"samples": cfg.samples}, seed=cfg.master_seed
    )


def mc_harmonic(g: UncertainGraph, cfg: McConfig) -> CentralityVector:
    """Mean harmonic closeness over cfg.samples sampled worlds."""
    return _mc_estimate(g, cfg, "harmonic")


def mc_betweenness(g: UncertainGraph, cfg: McConfig) -> CentralityVector:
    """Mean betweenness over cfg.samples sampled worlds."""
    return _mc_estimate(g, cfg, "betweenness")
