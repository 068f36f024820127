"""Comparison of centrality vectors: MAE, Spearman correlation, reports.

Spearman uses average ranks for ties (many tied scores are routine, e.g.
zero-betweenness leaves); without ties this equals the classic
1 - 6*sum(d^2)/(n(n^2-1)) formula.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .deterministic import CentralityVector, as_scores
from .graph_model import UncertainGraph
from .monte_carlo import McConfig, mc_betweenness, mc_harmonic
from .possible_worlds import DEFAULT_ENUMERATION_CAP, exact_expected_centrality
from .psp import psp_betweenness_all, psp_harmonic_all


def mae(a, b) -> float:
    """Mean absolute difference of two equally long score vectors."""
    x = as_scores(a)
    y = as_scores(b)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if len(x) < 1:
        raise ValueError("need at least one entry")
    return float(np.mean(np.abs(x - y)))


class ConstantRanking(ValueError):
    """A vector ranks every entry equal, so Spearman correlation is undefined."""

    def __str__(self):
        return "constant ranking: Spearman correlation undefined"


def scc(a, b) -> float:
    """Spearman rank correlation with average ranks on ties.

    Raises ``ConstantRanking`` when either vector ranks every entry equal.
    """
    x = as_scores(a)
    y = as_scores(b)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ValueError("need at least two entries")
    rx = rankdata(x)
    ry = rankdata(y)
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    denom = math.sqrt(float((cx * cx).sum()) * float((cy * cy).sum()))
    if denom == 0.0:
        raise ConstantRanking
    return float((cx * cy).sum() / denom)


CSV_COLUMNS = [
    "graph_id",
    "model",
    "prob_dist",
    "measure",
    "method",
    "phi_or_samples",
    "seed",
    "mae",
    "scc",
    "runtime_ms_heuristic",
    "runtime_ms_baseline",
]


def write_reports_csv(fh, reports) -> None:
    """Write the CSV header and one row per report to an open text stream."""
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow(r.csv_row())


@dataclass
class ExperimentReport:
    """MAE/SCC comparison of two methods on one graph, with runtimes."""

    measure: str
    method_a: dict
    method_b: dict
    mae: float
    scc: float
    runtime_a_ms: float
    runtime_b_ms: float
    graph_id: str = ""
    model: str = ""
    prob_dist: str = ""
    seed: int | None = None

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    def csv_row(self) -> list:
        a = self.method_a
        phi_or_samples = a.get("phi", a.get("samples", ""))
        return [
            self.graph_id,
            self.model,
            self.prob_dist,
            self.measure,
            a.get("method", ""),
            phi_or_samples,
            "" if self.seed is None else self.seed,
            repr(self.mae),
            repr(self.scc),
            round(self.runtime_a_ms, 3),
            round(self.runtime_b_ms, 3),
        ]


def compute_centrality(
    g: UncertainGraph,
    method: str,
    *,
    phi: float = 0.8,
    samples: int = 10000,
    seed: int = 0,
    workers: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CentralityVector:
    """Dispatch one of the six centrality methods by name."""
    if method == "psp-harmonic":
        return psp_harmonic_all(g, phi, workers)
    if method == "psp-betweenness":
        return psp_betweenness_all(g, phi, workers)
    if method == "mc-harmonic":
        return mc_harmonic(g, McConfig(samples, seed, workers))
    if method == "mc-betweenness":
        return mc_betweenness(g, McConfig(samples, seed, workers))
    if method == "exact-harmonic":
        return exact_expected_centrality(g, "harmonic", cap)
    if method == "exact-betweenness":
        return exact_expected_centrality(g, "betweenness", cap)
    raise ValueError(f"unknown method {method!r}")


def timed(fn, *args):
    """(fn(*args), the milliseconds it took)."""
    start = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - start) * 1000.0


def run_timed(g: UncertainGraph, spec: dict):
    """Run ``compute_centrality(g, **spec)``; return (scores, dict(spec), milliseconds)."""
    vec, ms = timed(lambda: compute_centrality(g, **spec))
    return vec, dict(spec), ms


def run_experiment(
    g: UncertainGraph,
    measure: str,
    heuristic: dict,
    baseline: dict,
    graph_id: str = "",
    model: str = "",
    prob_dist: str = "",
    seed: int | None = None,
) -> ExperimentReport:
    """Run heuristic and baseline on g, time both, compare with MAE and SCC.

    ``heuristic`` and ``baseline`` are method specs like
    {"method": "psp-harmonic", "phi": 0.8} or {"method": "mc-harmonic",
    "samples": 10000, "seed": 7}.
    """
    return compare_runs(
        measure,
        run_timed(g, heuristic),
        run_timed(g, baseline),
        graph_id=graph_id,
        model=model,
        prob_dist=prob_dist,
        seed=seed,
    )


def compare_runs(measure: str, timed_a, timed_b, **labels) -> ExperimentReport:
    """Compare two (scores, descriptor, milliseconds) runs with MAE and SCC.

    The SCC is nan when either run ranks every node equal.
    """
    vec_a, desc_a, ms_a = timed_a
    vec_b, desc_b, ms_b = timed_b
    error = mae(vec_a, vec_b)
    try:
        rho = scc(vec_a, vec_b)
    except ConstantRanking:
        rho = math.nan
    return ExperimentReport(
        measure=measure,
        method_a=desc_a,
        method_b=desc_b,
        mae=error,
        scc=rho,
        runtime_a_ms=ms_a,
        runtime_b_ms=ms_b,
        **labels,
    )


def aggregate_reports(reports) -> dict:
    """Mean MAE / SCC over a batch of reports.

    The SCC mean skips the reports whose SCC is undefined (nan), and is None
    when every one is.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to aggregate")
    defined = [r.scc for r in reports if not math.isnan(r.scc)]
    return {
        "count": len(reports),
        "mean_mae": float(np.mean([r.mae for r in reports])),
        "mean_scc": float(np.mean(defined)) if defined else None,
    }
