"""One benchmark run of one workload: set-up, timed passes, checks, metrics.

Untraced run (--trace 0): passes repeat until the requested seconds have
elapsed. Every time is normalised by host-speed reference samples taken
around it (see calibrate), and each time metric is the median over passes
(for PSP calls: the per-graph median, summed). Set-up is repeated around
every pass and its median reported. The raw times are printed as well.

Traced run (--trace 1): one traced pass, in-process with one worker and one
job, so every span lands in memory. The per-layer metrics come from it, in
raw seconds; trace.overhead_frac is the tracer's bookkeeping time over the
rest of the pass.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import calibrate
import checks
import layers
import workloads
from psp_centrality import _parallel, experiments, psp

# (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("psp_harmonic_s", "s"),
    ("psp_betweenness_s", "s"),
    ("psp_pairs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Printed and saved with the result, not in BENCHMARK.json. The sweep ones
# are zero or undefined on the PSP workloads, and every BENCHMARK.json metric
# must be non-zero on every workload.
RAW_EXTRA = (
    ("wall_raw_s", "s"),
    ("setup_raw_s", "s"),
    ("host_speed", "1"),
)
SWEEP_EXTRA = (
    ("mc_harmonic_s", "s"),
    ("mc_betweenness_s", "s"),
    ("sweep_rows_per_s", "1/s"),
    ("scc_harmonic", "1"),
    ("scc_betweenness", "1"),
    ("mae_harmonic", "1"),
    ("mae_betweenness", "1"),
)

PER_LAYER = (
    ("psp.pairs", "count"),
    ("psp.forward_bfs.calls", "count"),
    ("psp.forward_bfs.self_s", "s"),
    ("psp.forward_bfs.nodes_reached", "count"),
    ("psp.min_edges.calls", "count"),
    ("psp.min_edges.self_s", "s"),
    ("psp.min_edges.edges", "count"),
    ("psp.rounds_per_pair.p50", "count"),
    ("psp.rounds_per_pair.max", "count"),
    ("psp.stop.phi", "count"),
    ("psp.stop.cap", "count"),
    ("psp.stop.disconnected", "count"),
    ("psp.path_enum.self_s", "s"),
    ("psp.path_enum.paths", "count"),
    ("psp.path_enum.max_round_paths", "count"),
    ("psp.accumulate.self_s", "s"),
    ("psp.source_task_ms.p50", "ms"),
    ("psp.source_task_ms.tail", "ms"),
    ("psp.source_task_ms.tail_pct", "pct"),
    ("parallel.pool_start_ms", "ms"),
    ("monte_carlo.samples", "count"),
    ("monte_carlo.distinct_worlds", "count"),
    ("monte_carlo.chunks", "count"),
    ("monte_carlo.sample.self_s", "s"),
    ("monte_carlo.eval_chunk.self_s", "s"),
    ("monte_carlo.reduce.self_s", "s"),
    ("deterministic.harmonic_kernel.ms_per_world", "ms"),
    ("deterministic.betweenness_kernel.ms_per_world", "ms"),
    ("deterministic.matmul_flops_computed", "flop"),
    ("experiments.cell_s.p50", "s"),
    ("experiments.cell_s.max", "s"),
    ("experiments.mc_runs", "count"),
    ("evaluation.compare.self_s", "s"),
    ("generators.generate_ms", "ms"),
    ("graph_model.load_ms", "ms"),
    ("graph_model.save_ms", "ms"),
    ("scores_io.write_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
)

# Counts that must repeat exactly between traced runs of the same seed.
WORK_COUNTS = tuple(name for name, unit in PER_LAYER if unit in ("count", "flop"))

# Set-up is repeated in a batch before every pass and after the last one,
# so its median samples the whole run rather than one moment of it.
_SETUP_MIN_REPS = 5
_SETUP_MAX_REPS = 101
_SETUP_MIN_SECONDS = 0.2
_POOL_REPS = 5


def provenance(root: str) -> dict:
    """Machine, library versions and source commit of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            )
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "commit": commit,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _median(values) -> float:
    return float(statistics.median(values))


def _repeat_setup(workload, seed, scale, tmp_dir):
    """One batch of set-ups between two reference samples.

    Returns the graphs, raw seconds per set-up, the batch's speed factor
    (REFERENCE_S over the mean reference time) and raw ms per phase.
    """
    times = []
    phase_ms = {"generate": [], "save": [], "load": []}
    before = calibrate.reference_seconds()
    started = time.perf_counter()
    graphs = None
    while len(times) < _SETUP_MAX_REPS:
        t0 = time.perf_counter()
        graphs, phases = workloads.setup(workload, seed, scale, tmp_dir)
        times.append(time.perf_counter() - t0)
        for name, seconds in phases.items():
            phase_ms[name].append(1000.0 * seconds)
        if len(times) >= _SETUP_MIN_REPS and time.perf_counter() - started >= _SETUP_MIN_SECONDS:
            break
    speed = calibrate.REFERENCE_S / ((before + calibrate.reference_seconds()) / 2.0)
    return graphs, times, speed, phase_ms


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _check_psp_passes(verdict, workload, seed, scale_name, passes, graphs, out_dir):
    """Reference and invariant checks on pass one; later passes must repeat it."""
    use_ref = seed == workloads.DEFAULT_SEED and scale_name == "full"
    sizes = dict((label, g.node_count) for label, g in graphs)
    first = passes[0]
    for p_index, result in enumerate(passes):
        for key, message in result.errors.items():
            verdict.attempted += 1
            verdict.fail(f"pass {p_index} {key}: raised {message}")
        for key, vec in result.outputs.items():
            label, measure = key
            name = checks.score_file_name(label, measure)
            if p_index == 0:
                ref = checks.reference_path(workload, name) if use_ref else None
                out_path = os.path.join(out_dir, f"{workload}-{name}")
                checks.check_scores(verdict, f"{label} {measure}", vec, sizes[label], out_path, ref)
                continue
            verdict.attempted += 1
            if key in first.outputs and np.array_equal(vec.scores, first.outputs[key].scores):
                verdict.exact += 1
            else:
                verdict.fail(f"pass {p_index} {key}: output differs from pass 0")


def _check_sweep_passes(verdict, seed, scale_name, settings, passes):
    use_ref = seed == workloads.DEFAULT_SEED and scale_name == "full"
    ref_rows = None
    if use_ref:
        ref_rows = checks.load_reference_rows(checks.reference_path("sweep-cell", "rows.json"))
    first = [checks.row_record(r) for r in passes[0].reports or []]
    for p_index, result in enumerate(passes):
        for key, message in result.errors.items():
            verdict.messages.append(f"pass {p_index}: sweep raised {message}")
        if p_index == 0:
            checks.check_rows(verdict, result.reports, settings, ref_rows)
            continue
        rows = [checks.row_record(r) for r in result.reports or []]
        for i, key in enumerate(checks.expected_row_keys(settings)):
            verdict.attempted += 1
            if i < len(rows) and i < len(first) and rows[i] == first[i]:
                verdict.exact += 1
            else:
                verdict.fail(f"pass {p_index} row {key}: differs from pass 0")


def _psp_metrics(passes, graphs) -> dict:
    metrics = {
        "wall_s": _median([sum(p.norm_s.values()) for p in passes]),
        "wall_raw_s": _median([p.wall_s for p in passes]),
    }
    for measure in ("harmonic", "betweenness"):
        metrics[f"psp_{measure}_s"] = sum(
            _median([p.norm_s[(label, measure)] for p in passes]) for label, _ in graphs
        )
    pairs = sum(2 * _pair_count(g.node_count) for _, g in graphs)
    metrics["psp_pairs_per_s"] = pairs / (metrics["psp_harmonic_s"] + metrics["psp_betweenness_s"])
    return metrics


def _sweep_pass_metrics(result, n: int) -> dict:
    reports, speed = result.reports, result.speed
    wall = result.wall_s * speed
    out = {"wall_s": wall, "wall_raw_s": result.wall_s, "sweep_rows_per_s": len(reports) / wall}
    for measure in ("harmonic", "betweenness"):
        rows = [r for r in reports if r.measure == measure]
        out[f"psp_{measure}_s"] = speed * sum(r.runtime_a_ms for r in rows) / 1000.0
        out[f"mc_{measure}_s"] = speed * sum(r.runtime_b_ms for r in rows) / 1000.0
        out[f"scc_{measure}"] = float(np.mean([r.scc for r in rows]))
        out[f"mae_{measure}"] = float(np.mean([r.mae for r in rows]))
    psp_s = out["psp_harmonic_s"] + out["psp_betweenness_s"]
    out["psp_pairs_per_s"] = len(reports) * _pair_count(n) / psp_s
    return out


def _sweep_metrics(passes, n: int) -> dict:
    per_pass = [_sweep_pass_metrics(p, n) for p in passes]
    return {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}


def _run_pass(workload, graphs, settings, workers):
    if workload == "sweep-cell":
        return workloads.sweep_pass(settings)
    return workloads.psp_pass(graphs, workers)


def _enough(passes, seconds) -> bool:
    """True once the passes add up to the requested seconds, to the nearest pass."""
    spent = sum(p.wall_s for p in passes)
    return spent + 0.5 * _median([p.wall_s for p in passes]) >= seconds


def run_untraced(workload, seed, seconds, scale_name, out_dir, tmp_dir):
    scale = workloads.SCALES[scale_name]
    settings = workloads.sweep_settings(seed, scale, jobs=2)
    setup_raw, setup_norm = [], []
    passes = []

    def setup_batch():
        graphs, batch, speed, _ = _repeat_setup(workload, seed, scale, tmp_dir)
        setup_raw.extend(batch)
        setup_norm.extend(t * speed for t in batch)
        return graphs

    while True:
        graphs = setup_batch()
        passes.append(_run_pass(workload, graphs, settings, workers=1))
        if passes[-1].errors or _enough(passes, seconds):
            break
    setup_batch()
    verdict = checks.Verdict()
    if workload == "sweep-cell":
        _check_sweep_passes(verdict, seed, scale_name, settings, passes)
        complete = [p for p in passes if p.reports and len(p.reports) == len(passes[0].reports or [])]
        metrics = _sweep_metrics(complete, scale.n) if complete else {}
    else:
        _check_psp_passes(verdict, workload, seed, scale_name, passes, graphs, out_dir)
        metrics = _psp_metrics(passes, graphs)
    metrics["setup_s"] = _median(setup_norm)
    metrics["setup_raw_s"] = _median(setup_raw)
    metrics["host_speed"] = _median([p.speed for p in passes])
    metrics["peak_rss_mb"] = peak_rss_mb()
    info = {"passes": len(passes), "setup_reps": len(setup_raw)}
    return metrics, verdict, info


def _noop(_task):
    return None


def pool_start_ms() -> float:
    """Median wall time of run_ordered over a no-op with two workers."""
    times = []
    for _ in range(_POOL_REPS):
        t0 = time.perf_counter()
        _parallel.run_ordered(_noop, range(2), 2)
        times.append(1000.0 * (time.perf_counter() - t0))
    return _median(times)


def known_answer_problem() -> str | None:
    """The detour graph takes 2 rounds at phi=0.8 and stops once on the cap rule."""
    with layers.Tracer() as tracer:
        psp.psp_distance_distribution(experiments.detour_graph(), 0, 3, 0.8)
    rounds = list(tracer.rounds_per_pair)
    cap = tracer.counts["psp.stop.cap"]
    if rounds != [2] or cap != 1:
        return f"detour graph: rounds {rounds}, cap stops {cap}; want [2] and 1"
    return None


def layer_metrics(tracer: layers.Tracer, setup_phase_ms: dict) -> dict:
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    rounds = tracer.rounds_per_pair
    tasks = [
        1000.0 * d
        for name in ("psp._harmonic_source_task", "psp._betweenness_source_task")
        for d in tracer.durations[name]
    ]
    tail_pct = layers.tail_percentile(len(tasks))
    cells = tracer.durations["experiments._sweep_cell"]

    def per_world(name):
        durations = tracer.durations[name]
        return 1000.0 * sum(durations) / len(durations) if durations else 0.0

    m = {
        "psp.pairs": len(rounds),
        "psp.forward_bfs.calls": calls["psp._forward_bfs"],
        "psp.forward_bfs.self_s": self_s["psp._forward_bfs"],
        "psp.forward_bfs.nodes_reached": counts["psp.forward_bfs.nodes_reached"],
        "psp.min_edges.calls": calls["psp.retrieve_min_edges"],
        "psp.min_edges.self_s": self_s["psp.retrieve_min_edges"],
        "psp.min_edges.edges": counts["psp.min_edges.edges"],
        "psp.rounds_per_pair.p50": layers.percentile(rounds, 50) if rounds else 0,
        "psp.rounds_per_pair.max": max(rounds) if rounds else 0,
        "psp.stop.phi": counts["psp.stop.phi"],
        "psp.stop.cap": counts["psp.stop.cap"],
        "psp.stop.disconnected": counts["psp.stop.disconnected"],
        "psp.path_enum.self_s": self_s["psp._path_probs"] + self_s["psp._paths_with_inner"],
        "psp.path_enum.paths": counts["psp.path_enum.paths"],
        "psp.path_enum.max_round_paths": tracer.max_round_paths,
        "psp.accumulate.self_s": self_s["psp._betweenness_source_task"],
        "psp.source_task_ms.p50": layers.percentile(tasks, 50) if tasks else 0.0,
        "psp.source_task_ms.tail": layers.percentile(tasks, tail_pct) if tasks else 0.0,
        "psp.source_task_ms.tail_pct": tail_pct,
        "monte_carlo.samples": counts["monte_carlo.samples"],
        "monte_carlo.distinct_worlds": counts["monte_carlo.distinct_worlds"],
        "monte_carlo.chunks": counts["monte_carlo.chunks"],
        "monte_carlo.sample.self_s": self_s["monte_carlo._sample_world_codes"],
        "monte_carlo.eval_chunk.self_s": self_s["monte_carlo._eval_chunk"],
        "monte_carlo.reduce.self_s": self_s["monte_carlo._mc_estimate"],
        "deterministic.harmonic_kernel.ms_per_world": per_world(
            "monte_carlo.harmonic_scores_from_adjacency"
        ),
        "deterministic.betweenness_kernel.ms_per_world": per_world(
            "monte_carlo.betweenness_scores_from_adjacency"
        ),
        "deterministic.matmul_flops_computed": counts["deterministic.matmul_flops_computed"],
        "experiments.cell_s.p50": layers.percentile(cells, 50) if cells else 0.0,
        "experiments.cell_s.max": max(cells) if cells else 0.0,
        "experiments.mc_runs": calls["monte_carlo._mc_estimate"],
        "evaluation.compare.self_s": self_s["evaluation.mae"] + self_s["evaluation.scc"],
        "generators.generate_ms": _median(setup_phase_ms["generate"]),
        "graph_model.save_ms": _median(setup_phase_ms["save"]),
        "graph_model.load_ms": _median(setup_phase_ms["load"]),
        "scores_io.write_ms": 1000.0 * sum(tracer.durations["scores_io.write_scores"]),
    }
    return m


def run_traced(workload, seed, scale_name, out_dir, tmp_dir):
    scale = workloads.SCALES[scale_name]
    settings = workloads.sweep_settings(seed, scale, jobs=1)
    graphs, _ = workloads.setup(workload, seed, scale, tmp_dir)

    tracer = layers.Tracer()
    verdict = checks.Verdict()
    with tracer:
        setup_phase_ms = _repeat_setup(workload, seed, scale, tmp_dir)[3]
        excluded = tracer.excluded
        traced = _run_pass(workload, graphs, settings, workers=1)
        bookkeeping = tracer.excluded - excluded
        if workload == "sweep-cell":
            _check_sweep_passes(verdict, seed, scale_name, settings, [traced])
        else:
            _check_psp_passes(verdict, workload, seed, scale_name, [traced], graphs, out_dir)
    metrics = layer_metrics(tracer, setup_phase_ms)
    metrics["parallel.pool_start_ms"] = pool_start_ms()
    # The pass minus the tracer's bookkeeping stands in for an untraced pass,
    # which would double the run (sweep-cell would pass the 180 s limit).
    metrics["trace.overhead_frac"] = bookkeeping / (traced.wall_s - bookkeeping)
    spans_path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.tsv.gz")
    span_count = tracer.write_spans(spans_path)
    problem = known_answer_problem()
    if problem:
        verdict.messages.append(problem)
    info = {
        "spans": span_count,
        "spans_file": os.path.relpath(spans_path),
        "traced_wall_s": traced.wall_s,
        "bookkeeping_s": bookkeeping,
        "known_answer_ok": problem is None,
    }
    return metrics, verdict, info


def _named(metrics: dict, wanted) -> dict:
    return {name: {"value": metrics[name], "unit": unit} for name, unit in wanted if name in metrics}


def run(workload, seed, seconds, trace, scale_name, root) -> dict:
    """Run one workload and return the full result record."""
    out_dir = os.path.join(root, ".bench_out")
    tmp_dir = os.path.join(out_dir, "tmp", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    if trace:
        metrics, verdict, info = run_traced(workload, seed, scale_name, out_dir, tmp_dir)
        wanted = PER_LAYER
    else:
        metrics, verdict, info = run_untraced(workload, seed, seconds, scale_name, out_dir, tmp_dir)
        wanted = END_TO_END
    for name in os.listdir(tmp_dir):
        os.remove(os.path.join(tmp_dir, name))
    os.rmdir(tmp_dir)
    missing = [name for name, _ in wanted if name not in metrics]
    correct = verdict.failed == 0 and not missing and info.get("known_answer_ok", True)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale_name,
        "correct": correct,
        "attempted": max(verdict.attempted, 1),
        "failed": verdict.failed if verdict.attempted else 1,
        "exact": verdict.exact,
        "close": verdict.close,
        "invariants_only": verdict.invariants_only,
        "messages": verdict.messages + [f"metric {name} not measured" for name in missing],
        "metrics": _named(metrics, wanted),
        "extra_metrics": {} if trace else _named(metrics, RAW_EXTRA + SWEEP_EXTRA),
        "info": info,
        "provenance": provenance(root),
        "argv": sys.argv,
    }
