"""Output checks: invariants for every seed, reference files for the default one.

Each PSP estimator call is written with scores_io.write_scores and compared
byte for byte with the reference file recorded for the default seed. A call
whose file differs but whose scores all lie within SCORE_TOL of the reference
counts as ``close``; anything further off fails. Sweep rows are compared the
same way on (graph_id, measure, phi, mae, scc), with MAE_TOL and SCC_TOL.

For every seed, scores must have length n, be finite and lie in [0, 1]; sweep
rows must come in the expected order with finite MAE in [0, 1] and SCC in
[-1, 1].
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from psp_centrality import scores_io

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
SCORE_TOL = 1e-12
MAE_TOL = 1e-12
SCC_TOL = 1e-9


@dataclass
class Verdict:
    """Tally of checked estimator calls (or sweep rows)."""

    attempted: int = 0
    exact: int = 0
    close: int = 0
    invariants_only: int = 0  # no reference for this seed
    failed: int = 0
    messages: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.messages.append(what)


def reference_path(workload: str, name: str) -> str:
    return os.path.join(REFERENCE_DIR, workload, name)


def score_file_name(label: str, measure: str) -> str:
    return f"{label}-psp-{measure}.scores"


def scores_problem(vec, n: int) -> str | None:
    """First violated score invariant, or None."""
    scores = np.asarray(vec.scores, dtype=np.float64)
    if scores.shape != (n,):
        return f"length {scores.shape} instead of {n}"
    if not np.all(np.isfinite(scores)):
        return "non-finite score"
    if scores.min() < 0.0 or scores.max() > 1.0:
        return f"score outside [0, 1]: [{scores.min()!r}, {scores.max()!r}]"
    return None


def check_scores(verdict: Verdict, what: str, vec, n: int, out_path: str, ref_path: str | None):
    """Check one estimator call: invariants, then the reference if given."""
    verdict.attempted += 1
    problem = scores_problem(vec, n)
    if problem is not None:
        verdict.fail(f"{what}: {problem}")
        return
    scores_io.write_scores(out_path, vec)
    if ref_path is None:
        verdict.invariants_only += 1
        return
    if not os.path.exists(ref_path):
        verdict.fail(f"{what}: reference file {ref_path} missing")
        return
    with open(out_path, "rb") as fh:
        got = fh.read()
    with open(ref_path, "rb") as fh:
        want = fh.read()
    if got == want:
        verdict.exact += 1
        return
    ref = scores_io.read_scores(ref_path)
    diff = float(np.max(np.abs(np.asarray(vec.scores) - ref.scores)))
    if len(ref.scores) == n and diff <= SCORE_TOL:
        verdict.close += 1
    else:
        verdict.fail(f"{what}: differs from reference by {diff!r}")


def row_record(report) -> dict:
    return {
        "graph_id": report.graph_id,
        "measure": report.measure,
        "phi": report.method_a["phi"],
        "mae": report.mae,
        "scc": report.scc,
    }


def expected_row_keys(settings) -> list[tuple]:
    """(graph_id, measure, phi) of every row phi_sweep returns, in order."""
    keys = []
    for model in settings.models:
        for dist in settings.dists:
            for gi in range(settings.graphs_per_cell):
                for measure in ("betweenness", "harmonic"):
                    for phi in settings.phi_grid:
                        keys.append((f"{model}-{dist}-{gi:02d}", measure, phi))
    return keys


def check_rows(verdict: Verdict, reports, settings, ref_rows: list | None):
    """Check every sweep row; a missing or misplaced row counts as failed."""
    expected = expected_row_keys(settings)
    records = [row_record(r) for r in reports or []]
    for i, key in enumerate(expected):
        verdict.attempted += 1
        if i >= len(records):
            verdict.fail(f"row {key}: missing")
            continue
        row = records[i]
        if (row["graph_id"], row["measure"], row["phi"]) != key:
            verdict.fail(f"row {i}: got {row['graph_id']}/{row['measure']}/{row['phi']}, want {key}")
            continue
        mae, scc = row["mae"], row["scc"]
        if not (math.isfinite(mae) and 0.0 <= mae <= 1.0):
            verdict.fail(f"row {key}: mae {mae!r}")
            continue
        if not (math.isfinite(scc) and -1.0 <= scc <= 1.0):
            verdict.fail(f"row {key}: scc {scc!r}")
            continue
        if ref_rows is None:
            verdict.invariants_only += 1
            continue
        if i >= len(ref_rows):
            verdict.fail(f"row {key}: not in the reference")
            continue
        ref = ref_rows[i]
        if ref == row:
            verdict.exact += 1
        elif abs(ref["mae"] - mae) <= MAE_TOL and abs(ref["scc"] - scc) <= SCC_TOL:
            verdict.close += 1
        else:
            verdict.fail(f"row {key}: mae {mae!r} scc {scc!r}, reference {ref['mae']!r} {ref['scc']!r}")
    if len(records) > len(expected):
        verdict.fail(f"{len(records) - len(expected)} unexpected extra rows")


def load_reference_rows(path: str) -> list:
    """Reference rows; a missing file reads as no rows, so every row fails."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
