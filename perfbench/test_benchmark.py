"""Self-tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench -q

Runs every workload at the tiny scale: each BENCHMARK.json metric must be
printed with its unit, traced work counts must repeat exactly, the detour
known answer must hold, and the benchmark must refuse to run without the
library sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import measure  # noqa: E402
from psp_centrality.deterministic import CentralityVector  # noqa: E402

WORKLOADS = ("psp-random", "psp-grid", "sweep-cell")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, seed=7, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [
        sys.executable, script, "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        printed = f"{workload} {m['name']} = {got['value']!r} {m['unit']}"
        assert printed in lines, printed
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_work_counts_repeat_exactly(workload):
    first, second = (_run(workload, 1) for _ in range(2))
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    a = json.loads(first.stdout.strip().splitlines()[-1])["metrics"]
    b = json.loads(second.stdout.strip().splitlines()[-1])["metrics"]
    for name in measure.WORK_COUNTS:
        assert a[name]["value"] == b[name]["value"], name
    assert a["psp.forward_bfs.calls"]["value"] > 0
    if workload == "sweep-cell":
        assert a["monte_carlo.samples"]["value"] > 0
        assert a["deterministic.matmul_flops_computed"]["value"] > 0


def test_detour_known_answer():
    assert measure.known_answer_problem() is None


def test_refuses_without_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("psp-random", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_reference_check_tolerance(tmp_path):
    vec = CentralityVector(np.linspace(0.0, 1.0, 5), method="psp-harmonic", params={"phi": 0.8})
    ref = tmp_path / "ref.scores"
    checks.scores_io.write_scores(ref, vec)
    verdict = checks.Verdict()
    out = str(tmp_path / "out.scores")
    checks.check_scores(verdict, "same", vec, 5, out, str(ref))
    nudged = CentralityVector(vec.scores + np.array([0, 1e-14, 0, 0, 0]), vec.method, vec.params)
    checks.check_scores(verdict, "nudged", nudged, 5, out, str(ref))
    moved = CentralityVector(vec.scores * 0.5, vec.method, vec.params)
    checks.check_scores(verdict, "moved", moved, 5, out, str(ref))
    outside = CentralityVector(vec.scores + 0.5, vec.method, vec.params)
    checks.check_scores(verdict, "outside", outside, 5, out, str(ref))
    assert (verdict.attempted, verdict.exact, verdict.close, verdict.failed) == (4, 1, 1, 2)
