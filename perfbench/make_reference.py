#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks the default seed against.

    python3 perfbench/make_reference.py

Writes perfbench/reference/<workload>/<graph>-psp-<measure>.scores with
scores_io.write_scores, and perfbench/reference/sweep-cell/rows.json with
(graph_id, measure, phi, mae, scc) per sweep row. Rerun only on purpose:
these files define the outputs later code must reproduce.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from psp_centrality import scores_io  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    scale = workloads.SCALES["full"]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as tmp:
        for workload in ("psp-random", "psp-grid"):
            graphs, _ = workloads.setup(workload, seed, scale, tmp)
            result = workloads.psp_pass(graphs, workers=1)
            if result.errors:
                raise SystemExit(f"{workload}: {result.errors}")
            os.makedirs(os.path.join(checks.REFERENCE_DIR, workload), exist_ok=True)
            for (label, measure), vec in result.outputs.items():
                path = checks.reference_path(workload, checks.score_file_name(label, measure))
                scores_io.write_scores(path, vec)
                print(path)
    settings = workloads.sweep_settings(seed, scale, jobs=2)
    result = workloads.sweep_pass(settings)
    if result.errors:
        raise SystemExit(f"sweep-cell: {result.errors}")
    os.makedirs(os.path.join(checks.REFERENCE_DIR, "sweep-cell"), exist_ok=True)
    path = checks.reference_path("sweep-cell", "rows.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([checks.row_record(r) for r in result.reports], fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
