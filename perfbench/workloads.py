"""Seeded inputs and timed passes of the three benchmark workloads.

psp-random  psp_harmonic_all and psp_betweenness_all (phi 0.8, one worker)
            on the three graphs of each of the sweep's ER-uniform01,
            BA-beta44 and RH-uniform01 cells.
psp-grid    the same two estimators on three square grids whose edge
            probabilities are seeded uniform draws.
sweep-cell  experiments.phi_sweep over two ER cells (uniform01, beta44) of
            three graphs each, a two-value phi grid and 500 Monte Carlo
            samples, jobs=2.

Every input comes from the seed. For the sweep's graphs the seed takes the
place of the sweep's base seed (2023 by default) in experiments._cell_seeds.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

import calibrate
from psp_centrality import experiments, generators, graph_model, psp
from psp_centrality.graph_model import UncertainGraph

DEFAULT_SEED = 2023
PHI = 0.8
SWEEP_PHI_GRID = (0.3, 0.5)

# (model index, distribution index) of the sweep cells psp-random uses. Work
# changes with the seed (by 8% over ten seeds with one graph per cell), so
# each workload averages over several graphs.
_RANDOM_CELLS = ((0, 0), (1, 1), (2, 0))
_GRAPHS_PER_CELL = 3  # the full sweep's default
_GRIDS = 3


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the smoke test."""

    n: int
    grid_side: int
    samples: int


SCALES = {
    "full": Scale(n=100, grid_side=9, samples=500),
    "tiny": Scale(n=16, grid_side=4, samples=40),
}


def grid_graph(side: int, rng: np.random.Generator) -> UncertainGraph:
    """side x side grid, edges in row-major order, uniform [0, 1) probabilities
    drawn by generators.assign_probabilities."""
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    topology = UncertainGraph(side * side, edges, np.ones(len(edges)))
    return generators.assign_probabilities(topology, "uniform01", rng)


def sweep_settings(seed: int, scale: Scale, jobs: int) -> experiments.SweepSettings:
    return experiments.SweepSettings(
        models=("er",),
        dists=("uniform01", "beta44"),
        graphs_per_cell=_GRAPHS_PER_CELL,
        n=scale.n,
        samples=scale.samples,
        phi_grid=SWEEP_PHI_GRID,
        seed=seed,
        jobs=jobs,
    )


def _generate_inputs(workload: str, seed: int, scale: Scale) -> list[tuple[str, UncertainGraph]]:
    """Labelled input graphs of a workload, built from the seed."""
    if workload == "psp-grid":
        side = scale.grid_side
        rng = np.random.default_rng(seed)
        return [(f"grid{side}-{k}", grid_graph(side, rng)) for k in range(_GRIDS)]
    if workload == "psp-random":
        cells = [
            (experiments.MODELS[mi], mi, di, gi)
            for mi, di in _RANDOM_CELLS
            for gi in range(_GRAPHS_PER_CELL)
        ]
    else:  # sweep-cell: phi_sweep's model list is ("er",), as in the full sweep
        cells = [("er", 0, di, gi) for di in range(2) for gi in range(_GRAPHS_PER_CELL)]
    graphs = []
    for model, mi, di, gi in cells:
        dist = experiments.DISTS[di]
        graph_seed, _ = experiments._cell_seeds(seed, mi, di, gi)
        spec = experiments._model_spec(model, dist, scale.n, graph_seed)
        graphs.append((f"{model}-{dist}-{gi:02d}", generators.generate(spec)))
    return graphs


def setup(workload: str, seed: int, scale: Scale, tmp_dir: str):
    """Generate the inputs from scratch and round-trip them through files.

    The RH disk-radius cache is cleared first, so each set-up pays what a
    fresh process pays. Returns the graphs as loaded back from disk and the
    seconds spent generating, saving and loading.
    """
    cache_clear = getattr(generators._rh_radius, "cache_clear", None)
    if cache_clear is not None:
        cache_clear()
    t0 = time.perf_counter()
    generated = _generate_inputs(workload, seed, scale)
    phases = {"generate": time.perf_counter() - t0, "save": 0.0, "load": 0.0}
    loaded = []
    for label, g in generated:
        path = os.path.join(tmp_dir, f"{label}.el")
        t0 = time.perf_counter()
        graph_model.save_graph(g, path)
        t1 = time.perf_counter()
        back = graph_model.load_graph(path)
        phases["save"] += t1 - t0
        phases["load"] += time.perf_counter() - t1
        if back != g:
            raise RuntimeError(f"{label}: save/load round trip changed the graph")
        loaded.append((label, back))
    return loaded, phases


@dataclass
class PassResult:
    """One timed pass.

    ``call_s`` holds raw seconds per (label, measure) and ``norm_s`` the same
    calls normalised by the reference samples taken just before and after
    each (see calibrate). ``speed`` is REFERENCE_S over the mean reference
    time of the pass, so normalised = raw * speed for a whole pass.
    """

    wall_s: float
    speed: float
    call_s: dict = field(default_factory=dict)
    norm_s: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    reports: list | None = None


_ESTIMATORS = (("harmonic", "psp_harmonic_all"), ("betweenness", "psp_betweenness_all"))


def psp_pass(graphs, workers: int) -> PassResult:
    """Both PSP estimators on every graph; a raising call is recorded, not fatal."""
    result = PassResult(wall_s=0.0, speed=0.0)
    refs = [calibrate.reference_seconds()]
    for label, g in graphs:
        for measure, fn_name in _ESTIMATORS:
            key = (label, measure)
            t0 = time.perf_counter()
            try:
                result.outputs[key] = getattr(psp, fn_name)(g, PHI, workers)
            except Exception as exc:  # counted as a failed call by the caller
                result.errors[key] = f"{type(exc).__name__}: {exc}"
            raw = time.perf_counter() - t0
            refs.append(calibrate.reference_seconds())
            result.call_s[key] = raw
            result.norm_s[key] = raw * calibrate.REFERENCE_S / ((refs[-2] + refs[-1]) / 2.0)
    result.wall_s = sum(result.call_s.values())
    result.speed = calibrate.REFERENCE_S * len(refs) / sum(refs)
    return result


def sweep_pass(settings) -> PassResult:
    """One phi_sweep call, sampled for host speed throughout; its reports
    carry the per-call runtimes."""
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        try:
            reports = experiments.phi_sweep(settings)
            errors = {}
        except Exception as exc:  # the whole sweep failed: every row is missing
            reports = None
            errors = {("sweep", "all"): f"{type(exc).__name__}: {exc}"}
        wall = time.perf_counter() - start
    return PassResult(wall_s=wall, speed=sampler.speed, reports=reports, errors=errors)
