import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp_centrality import McConfig, mae, run_experiment, scc
from psp_centrality.evaluation import aggregate_reports, compute_centrality

vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=12
)


def test_mae_examples():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([0.0, 1.0], [1.0, 0.0]) == 1.0
    assert mae([0.2, 0.4, 0.9], [0.1, 0.5, 0.6]) == pytest.approx(0.5 / 3, abs=1e-15)


def test_mae_validation():
    with pytest.raises(ValueError):
        mae([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        mae([], [])


def test_scc_examples():
    assert scc([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0, abs=1e-12)
    assert scc([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    assert scc([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8, abs=1e-12)


def test_scc_with_ties_uses_average_ranks():
    assert scc([1.0, 1.0, 2.0], [1.0, 1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)
    # one tied pair against a strict ordering cannot reach +-1
    assert abs(scc([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])) < 1.0


def test_scc_validation():
    with pytest.raises(ValueError):
        scc([1.0], [2.0])
    with pytest.raises(ValueError):
        scc([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="constant"):
        scc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


@settings(max_examples=60)
@given(vectors, vectors)
def test_mae_symmetry(a, b):
    if len(a) != len(b):
        a = a[: min(len(a), len(b))]
        b = b[: len(a)]
    if len(a) < 1:
        return
    assert mae(a, b) == pytest.approx(mae(b, a), rel=1e-12)


@settings(max_examples=60)
@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=8))
def test_mae_triangle_inequality(a):
    rng = np.random.default_rng(0)
    b = rng.normal(size=len(a))
    c = rng.normal(size=len(a))
    assert mae(a, c) <= mae(a, b) + mae(b, c) + 1e-12


def test_scc_invariant_under_monotone_transform():
    rng = np.random.default_rng(33)
    a = rng.permutation(20).astype(float)
    b = rng.permutation(20).astype(float)
    base = scc(a, b)
    assert scc(np.exp(a / 10), b) == pytest.approx(base, abs=1e-12)
    assert scc(a, 3.0 * b + 7.0) == pytest.approx(base, abs=1e-12)


def test_run_experiment_identical_methods(detour):
    report = run_experiment(
        detour,
        "harmonic",
        {"method": "psp-harmonic", "phi": 0.8},
        {"method": "psp-harmonic", "phi": 0.8},
        graph_id="detour",
    )
    assert report.mae == 0.0
    assert report.scc == pytest.approx(1.0, abs=1e-12)
    assert report.runtime_a_ms >= 0.0 and report.runtime_b_ms >= 0.0


def test_run_experiment_psp_vs_oracle(detour):
    report = run_experiment(
        detour,
        "harmonic",
        {"method": "psp-harmonic", "phi": 0.8},
        {"method": "exact-harmonic"},
        graph_id="detour",
        model="fixture",
        prob_dist="fixed",
    )
    assert np.isfinite(report.mae)
    assert report.method_a["method"] == "psp-harmonic"
    assert report.method_b["method"] == "exact-harmonic"
    row = report.csv_row()
    assert row[0] == "detour" and row[4] == "psp-harmonic" and row[5] == 0.8


def test_phi_sweep_runs_one_mc_pass_and_one_psp_pass_per_graph(monkeypatch):
    from psp_centrality import evaluation, experiments
    from psp_centrality.experiments import SweepSettings, phi_sweep

    mc_passes = []  # (graph, MC config, milliseconds) of every MC pass, in call order
    psp_passes = []  # (graph, phi grid, rows, milliseconds) of every PSP grid pass
    real_timed = experiments.timed
    real_mc = experiments.mc_harmonic_betweenness
    real_grid = experiments.psp_harmonic_betweenness_grid

    def recording_timed(fn, g, arg):
        out, ms = real_timed(fn, g, arg)
        if fn is real_mc:
            mc_passes.append((g, arg, ms))
        else:
            assert fn is real_grid
            psp_passes.append((g, arg, out, ms))
        return out, ms

    def refuse(name):
        def single(*args):
            raise AssertionError(f"the sweep ran {name}")
        return single

    monkeypatch.setattr(experiments, "timed", recording_timed)
    for name in ("mc_harmonic", "mc_betweenness", "psp_harmonic_all", "psp_betweenness_all"):
        monkeypatch.setattr(evaluation, name, refuse(name))
    phi_grid = (0.3, 0.6, 1.0)
    settings = SweepSettings(models=("ba",), dists=("uniform01",), graphs_per_cell=2, n=20,
                             samples=50, phi_grid=phi_grid, seed=5)
    reports = phi_sweep(settings)
    monkeypatch.undo()
    assert len(reports) == 2 * 2 * 3 and len(mc_passes) == len(psp_passes) == 2
    for graph_i in range(2):
        g, mc_config, mc_ms = mc_passes[graph_i]
        assert mc_config == McConfig(50, reports[6 * graph_i].seed)
        psp_g, psp_grid, psp_rows, psp_ms = psp_passes[graph_i]
        assert (psp_g, psp_grid) == (g, phi_grid)
        rounds = [row.rounds for row in psp_rows]
        rows = reports[6 * graph_i:6 * graph_i + 6]
        assert [(r.measure, r.method_a["phi"]) for r in rows] == [
            (measure, phi) for measure in ("betweenness", "harmonic") for phi in phi_grid
        ]
        # The graph's rows share its one PSP pass; a phi's share grows with
        # the rounds it needs alone, and its two rows each take half.
        assert math.isclose(sum(r.runtime_a_ms for r in rows), psp_ms)
        betweenness_ms = [r.runtime_a_ms for r in rows[:3]]
        assert betweenness_ms == [r.runtime_a_ms for r in rows[3:]]
        assert betweenness_ms == sorted(betweenness_ms)
        for ms, count in zip(betweenness_ms, rounds):
            assert math.isclose(ms, psp_ms * count / sum(rounds) / 2.0)
        for betweenness, harmonic in zip(rows[:3], rows[3:]):
            assert betweenness.runtime_b_ms + harmonic.runtime_b_ms == mc_ms
        for r in rows:
            assert r.method_a == {"method": f"psp-{r.measure}", "phi": r.method_a["phi"]}
            assert r.method_b == {"method": f"mc-{r.measure}", "samples": 50, "seed": r.seed}
            # Every row still equals its own heuristic-versus-baseline experiment.
            alone = run_experiment(g, r.measure, r.method_a, r.method_b)
            assert (alone.mae, alone.scc) == (r.mae, r.scc)


def test_sweep_writes_every_row_with_nan_scc_where_the_ranking_is_constant(tmp_path):
    # At phi 0 every PSP score is 0, a constant ranking without a Spearman
    # correlation. The sweep still runs every cell and writes every row.
    from psp_centrality.experiments import SweepSettings, phi_sweep, write_sweep_outputs

    settings = SweepSettings(models=("er",), n=12, samples=20, phi_grid=(0.0, 0.5))
    reports = phi_sweep(settings)
    assert len(reports) == len(settings.dists) * settings.graphs_per_cell * 2 * 2
    write_sweep_outputs(tmp_path, settings, reports)
    with open(tmp_path / "sweep.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(reports)
    for row in rows:
        if float(row["phi_or_samples"]) == 0.0:
            assert row["scc"] == "nan"
        assert row["scc"] == "nan" or -1.0 <= float(row["scc"]) <= 1.0

    def reject(name):
        raise AssertionError(f"summary.json holds {name}")

    with open(tmp_path / "summary.json", encoding="utf-8") as fh:
        cells = json.load(fh, parse_constant=reject)["cells"]
    assert len(cells) == len(settings.dists) * 2 * 2
    for key, cell in cells.items():
        assert cell["graphs"] == settings.graphs_per_cell
        if key.endswith("phi=0.0"):
            assert cell["mean_scc"] is None
        assert cell["mean_scc"] is None or -1.0 <= cell["mean_scc"] <= 1.0


def test_aggregate_reports(detour):
    reports = [
        run_experiment(
            detour,
            "harmonic",
            {"method": "psp-harmonic", "phi": 0.8},
            {"method": "mc-harmonic", "samples": 500, "seed": s},
        )
        for s in range(3)
    ]
    agg = aggregate_reports(reports)
    assert agg["count"] == 3
    assert np.isfinite(agg["mean_mae"]) and np.isfinite(agg["mean_scc"])
    # A report whose SCC is undefined does not count towards the SCC mean.
    undefined = dataclasses.replace(reports[0], scc=math.nan)
    assert aggregate_reports(reports[1:] + [undefined])["mean_scc"] == np.mean(
        [r.scc for r in reports[1:]]
    )
    assert aggregate_reports([undefined])["mean_scc"] is None


def test_compute_centrality_rejects_unknown(detour):
    # The sweep runs its joint MC pass itself; no method name dispatches to it.
    for method in ("pagerank", "mc-harmonic-betweenness"):
        with pytest.raises(ValueError, match="unknown method"):
            compute_centrality(detour, method)
