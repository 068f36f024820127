"""Span tracer for traced benchmark runs.

The tracer wraps module-level functions of ``psp_centrality`` from outside
(it replaces the module attribute, so calls that look the name up at call
time go through the wrapper) and records one span per call: name, start,
end and parent span. Spans stay in memory and are written out at the end.

The tracer's clock leaves out its own bookkeeping: the time a wrapper spends
before a call starts and after it ends, including the work-count hooks, is
subtracted from every later timestamp. Self time is a span's duration minus
the durations of its child spans (one thread, so children never overlap).

Work counts come from wrapper arguments and return values only, so they do
not depend on the machine and repeat exactly between runs.
"""

from __future__ import annotations

import gzip
import hashlib
import math
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from psp_centrality import (
    _parallel,
    deterministic,
    evaluation,
    experiments,
    generators,
    graph_model,
    monte_carlo,
    psp,
    scores_io,
)

# Span names whose individual durations are kept for percentiles.
_KEEP_DURATIONS = (
    "psp._harmonic_source_task",
    "psp._betweenness_source_task",
    "experiments._sweep_cell",
    "monte_carlo.harmonic_scores_from_adjacency",
    "monte_carlo.betweenness_scores_from_adjacency",
    "scores_io.write_scores",
)

# Percentile ladder for tail latencies: the highest rung with at least ten
# samples beyond it is reported.
_TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten of count samples beyond it."""
    for pct in _TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


class _Pair:
    """Rounds of one PSP pair, rebuilt from what the wrapped calls returned.

    The harmonic variant repeats the library's mass arithmetic on the
    returned path probabilities (same operations, same order), which tells a
    capping-rule stop from a phi stop.
    """

    __slots__ = ("rounds", "reached", "capped", "total", "remaining")

    def __init__(self):
        self.rounds = 0
        self.reached = False
        self.capped = False
        self.total = 0.0
        self.remaining = 1.0

    def harmonic_round(self, probs):
        new_mass = self.remaining * sum(probs)
        if self.total + new_mass >= 1.0:
            self.capped = True
            return
        self.total += new_mass
        for p in probs:
            self.remaining *= 1.0 - p

    def stop_reason(self) -> str:
        if not self.reached:
            return "disconnected"
        return "cap" if self.capped else "phi"


class Tracer:
    """In-memory span recorder with work counters; see the module docstring."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack: list[list] = []  # [span index, child seconds]
        self.excluded = 0.0  # bookkeeping seconds removed from the clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: dict[str, list] = defaultdict(list)
        self.counts: Counter = Counter()
        self.rounds_per_pair = array("i")
        self.max_round_paths = 0
        self._pair: _Pair | None = None
        self._world_levels: dict[bytes, int] = {}
        self._patches: list = []

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, module, attr: str, hook=None) -> None:
        """Replace module.attr by a wrapper recording spans named "<module>.<attr>".

        ``hook(args, result)`` runs after the call, off the tracer clock.
        """
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        nid = self._name_id(name)
        keep = name in _KEEP_DURATIONS
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        durations = self.durations[name]

        def traced(*args, **kwargs):
            enter = perf_counter()
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            self.span_start.append(0.0)
            excluded_at_start = self.excluded
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                duration = (end - start) - (self.excluded - excluded_at_start)
                self.span_start[idx] = start - excluded_at_start
                self.span_end[idx] = end - self.excluded
                if stack:
                    stack[-1][1] += duration
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if keep:
                    durations.append(duration)
                if ok and hook is not None:
                    hook(args, result)
                self.excluded += (start - enter) + (perf_counter() - end)
            return result

        self._patches.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        """Put every wrapped function back, last patch first."""
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.finish_pair()
        self.restore()

    # -- work-count hooks ------------------------------------------------

    def _on_forward_bfs(self, args, result):
        g, s, t, deleted = args
        dist = result[0]
        self.counts["psp.forward_bfs.nodes_reached"] += g.node_count - dist.count(-1)
        if not deleted:  # every pair starts from an empty deletion set
            self.finish_pair()
            self._pair = _Pair()
        pair = self._pair
        pair.reached = dist[t] >= 0
        if pair.reached:
            pair.rounds += 1

    def finish_pair(self) -> None:
        pair = self._pair
        if pair is None:
            return
        self.rounds_per_pair.append(pair.rounds)
        self.counts[f"psp.stop.{pair.stop_reason()}"] += 1
        self._pair = None

    def _count_paths(self, args, paths):
        self.counts["psp.path_enum.paths"] += len(paths)
        self.max_round_paths = max(self.max_round_paths, len(paths))

    def _on_path_probs(self, args, result):
        self._count_paths(args, result)
        if self._pair is not None:
            self._pair.harmonic_round(result)

    def _on_min_edges(self, args, result):
        self.counts["psp.min_edges.edges"] += len(result)

    def _on_sample(self, args, result):
        self.counts["monte_carlo.samples"] += args[1].samples
        self.counts["monte_carlo.distinct_worlds"] += len(result[0])

    def _on_eval_chunk(self, args, result):
        self.counts["monte_carlo.chunks"] += 1

    def _world_level_count(self, a) -> int:
        """BFS level count of one world's all-sources sweep (memoised)."""
        key = hashlib.blake2b(a, digest_size=16).digest()
        levels = self._world_levels.get(key)
        if levels is None:
            levels = len(self._level_masks(a))
            self._world_levels[key] = levels
        return levels

    def _kernel_hook(self, matmuls_for_levels):
        def hook(args, result):
            a = args[0]
            matmuls = matmuls_for_levels(self._world_level_count(a))
            self.counts["deterministic.matmul_flops_computed"] += matmuls * 2 * a.shape[0] ** 3

        return hook

    def install(self) -> None:
        """Wrap every traced layer boundary."""
        self._level_masks = deterministic._level_masks
        w = self.wrap
        w(psp, "_forward_bfs", self._on_forward_bfs)
        w(psp, "retrieve_min_edges", self._on_min_edges)
        w(psp, "_path_probs", self._on_path_probs)
        w(psp, "_paths_with_inner", self._count_paths)
        w(psp, "_pair_gamma_delta")
        w(psp, "_harmonic_source_task")
        w(psp, "_betweenness_source_task")
        w(monte_carlo, "_sample_world_codes", self._on_sample)
        w(monte_carlo, "_eval_chunk", self._on_eval_chunk)
        w(monte_carlo, "_mc_estimate")
        # The kernels as monte_carlo imported them; the harmonic one runs
        # levels + 1 reach matmuls, the betweenness one levels + 1 forward
        # and levels - 1 backward.
        w(monte_carlo, "harmonic_scores_from_adjacency", self._kernel_hook(lambda lv: lv + 1))
        w(monte_carlo, "betweenness_scores_from_adjacency", self._kernel_hook(lambda lv: 2 * lv))
        w(_parallel, "run_ordered")
        w(experiments, "_sweep_cell")
        w(evaluation, "mae")
        w(evaluation, "scc")
        w(generators, "generate")
        w(graph_model, "save_graph")
        w(graph_model, "load_graph")
        w(scores_io, "write_scores")

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every span as gzipped TSV (id, name, start, end, parent)."""
        names = self._names
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                    f"{self.span_end[i]!r}\t{self.span_parent[i]}\n"
                )
        return len(self.span_name)
