"""Reproducible experiment harnesses.

Two suites: the small worked examples on four-node graphs that exercise the
estimated-distribution capping rule, and a seeded sweep over random graphs
comparing the PSP heuristics against Monte Carlo ground truth across an
exploration-threshold grid.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import _parallel
from .deterministic import require_phi, require_seed
from .evaluation import (
    ExperimentReport,
    aggregate_reports,
    compare_runs,
    timed,
    write_reports_csv,
)
from .generators import GenSpec, generate
from .graph_model import UncertainGraph
from .monte_carlo import McConfig, mc_harmonic_betweenness
from .possible_worlds import distance_er, exact_distance_distribution
from .psp import psp_distance_distribution, psp_distance_er, psp_harmonic_betweenness_grid


def parallel_paths_graph() -> UncertainGraph:
    """Two certain spokes from s, two p=0.9 edges into t; both length-2 paths
    together carry estimated mass 1.8, which the capping rule clips to 1."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    return UncertainGraph(4, edges, [1.0, 1.0, 0.9, 0.9])


def detour_graph() -> UncertainGraph:
    """Two length-2 s-t paths plus a length-3 detour over the cross edge.

    Node 0 = s, 3 = t. Round one finds path probabilities 0.6 and 0.35 and
    deletes the two minimal edges; the length-3 detour then trips the cap.
    """
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    return UncertainGraph(4, edges, [1.0, 0.5, 0.5, 0.6, 0.7])


def figure_examples(phi: float = 0.8) -> dict:
    """Estimated and exact distance numbers for the two worked-example graphs."""
    out = {}
    for name, g in (("parallel_paths", parallel_paths_graph()), ("detour", detour_graph())):
        s, t = 0, 3
        est = psp_distance_distribution(g, s, t, phi)
        exact = exact_distance_distribution(g, s, t)
        out[name] = {
            "phi": phi,
            "estimated_mass": {str(k): float(est.mass[k]) for k in range(1, 4) if est.mass[k]},
            "estimated_mass_inf": float(est.mass_inf),
            "estimated_d_er": psp_distance_er(g, s, t, phi),
            "exact_mass": {str(k): float(exact.mass[k]) for k in range(1, 4) if exact.mass[k]},
            "exact_mass_inf": float(exact.mass_inf),
            "exact_d_er": distance_er(exact),
        }
    return out


MODELS = ("er", "ba", "rh")
DISTS = ("uniform01", "beta44")


@dataclass(frozen=True)
class SweepSettings:
    """Scaled-down sweep configuration (defaults fit a desk run)."""

    models: tuple = MODELS
    dists: tuple = DISTS
    graphs_per_cell: int = 3
    n: int = 100
    samples: int = 10000
    phi_grid: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    seed: int = 2023
    jobs: int = 1

    def validate(self) -> None:
        """Raise ValueError on the first setting the sweep cannot run: the
        seed, graphs_per_cell, samples, every phi, every model's parameters
        at n, and jobs."""
        require_seed(self.seed)
        if self.graphs_per_cell < 1:
            raise ValueError("graphs_per_cell must be >= 1")
        McConfig(self.samples)
        for phi in self.phi_grid:
            require_phi(phi)
        for model in self.models:
            for dist in self.dists:
                _model_spec(model, dist, self.n, self.seed).validate()
        _parallel.require_workers(self.jobs)


def _model_spec(model: str, dist: str, n: int, seed: int) -> GenSpec:
    if model == "er":
        return GenSpec(model="er", n=n, p=0.05, prob_dist=dist, seed=seed)
    if model == "ba":
        return GenSpec(model="ba", n=n, m=5, prob_dist=dist, seed=seed)
    if model == "rh":
        return GenSpec(model="rh", n=n, k=6.0, gamma=3.0, prob_dist=dist, seed=seed)
    raise ValueError(f"unknown model {model!r}")


def _cell_seeds(base_seed: int, model_i: int, dist_i: int, graph_i: int) -> tuple[int, int]:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(model_i, dist_i, graph_i))
    graph_seed, mc_seed = (int(x) for x in seq.generate_state(2))
    return graph_seed, mc_seed


def _sweep_cell(cfg: SweepSettings, task) -> list[ExperimentReport]:
    model_i, dist_i, graph_i = task
    model = cfg.models[model_i]
    dist = cfg.dists[dist_i]
    graph_seed, mc_seed = _cell_seeds(cfg.seed, model_i, dist_i, graph_i)
    g = generate(_model_spec(model, dist, cfg.n, graph_seed))
    graph_id = f"{model}-{dist}-{graph_i:02d}"
    labels = {"graph_id": graph_id, "model": model, "prob_dist": dist, "seed": mc_seed}
    # One MC pass and one PSP pass per graph, each (harmonic, betweenness, ...),
    # serve every phi. Each measure takes half a pass's time: the MC time on
    # every phi row, the PSP time shared out by the rounds each phi needs alone.
    mc_pass, mc_ms = timed(mc_harmonic_betweenness, g, McConfig(cfg.samples, mc_seed))
    grid, psp_ms = timed(psp_harmonic_betweenness_grid, g, cfg.phi_grid)
    rounds = sum(row.rounds for row in grid)
    reports = []
    for j, measure in ((1, "betweenness"), (0, "harmonic")):
        mc_spec = {"method": f"mc-{measure}", "samples": cfg.samples, "seed": mc_seed}
        mc_run = (mc_pass[j], mc_spec, mc_ms / 2.0)
        for phi, row in zip(cfg.phi_grid, grid):
            ms = psp_ms * row.rounds / rounds if rounds else psp_ms / len(grid)
            psp_run = (row[j], {"method": f"psp-{measure}", "phi": phi}, ms / 2.0)
            reports.append(compare_runs(measure, psp_run, mc_run, **labels))
    return reports


def phi_sweep(settings: SweepSettings) -> list[ExperimentReport]:
    """Run the sweep; one report per (graph, measure, phi), in fixed order.

    Each graph gets one Monte Carlo pass and one PSP pass for the whole phi
    grid (``psp_harmonic_betweenness_grid``); the rows equal those of one
    pass per phi. ``settings.validate()`` runs before any graph is made.
    """
    settings.validate()
    tasks = [
        (mi, di, gi)
        for mi in range(len(settings.models))
        for di in range(len(settings.dists))
        for gi in range(settings.graphs_per_cell)
    ]
    results = _parallel.run_ordered(
        functools.partial(_sweep_cell, settings), tasks, settings.jobs
    )
    return [report for cell in results for report in cell]


def write_sweep_outputs(out_dir, settings: SweepSettings, reports) -> None:
    """Write ``sweep.csv`` (one row per report) and ``summary.json`` (means per
    cell and phi). A row whose SCC is undefined reads ``nan`` in the CSV;
    ``mean_scc`` averages the defined ones and is null when there are none.
    """
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="", encoding="utf-8") as fh:
        write_reports_csv(fh, reports)
    cells: dict = {}
    for r in reports:
        key = f"{r.model}/{r.prob_dist}/{r.measure}/phi={r.method_a['phi']}"
        cells.setdefault(key, []).append(r)
    rendered = {}
    for key, rows in sorted(cells.items()):
        agg = aggregate_reports(rows)
        rendered[key] = {
            "mean_mae": agg["mean_mae"],
            "mean_scc": agg["mean_scc"],
            "graphs": agg["count"],
        }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"settings": settings.__dict__, "cells": rendered},
            fh, indent=2, default=str, allow_nan=False,
        )
