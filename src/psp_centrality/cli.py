"""Command-line interface.

Subcommands: generate, the six centrality methods (psp-/mc-/exact- times
harmonic/betweenness), compare, and reproduce. Every stochastic subcommand
takes --seed and is fully reproducible under it; all subcommands exit
nonzero with a one-line diagnostic on error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

from . import experiments, scores_io
from .evaluation import ConstantRanking, compare_runs, run_timed, write_reports_csv
from .generators import GenSpec, generate
from .graph_model import load_graph, save_graph
from .possible_worlds import DEFAULT_ENUMERATION_CAP

WORKERS_ENV = "PSP_CENTRALITY_WORKERS"

CENTRALITY_METHODS = (
    "psp-harmonic",
    "psp-betweenness",
    "mc-harmonic",
    "mc-betweenness",
    "exact-harmonic",
    "exact-betweenness",
)


def _workers(given: int | None) -> int:
    """A --workers/--jobs value as given (the pool checks it), else the
    PSP_CENTRALITY_WORKERS value, else the CPU count."""
    if given is not None:
        return given
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {env!r}")
    return workers


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psp-centrality",
        description="Centrality estimation on uncertain graphs via possible shortest paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random uncertain graph")
    gen_sub = gen.add_subparsers(dest="model", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, help="number of nodes")
    common.add_argument(
        "--prob",
        choices=["uniform", "beta", "constant"],
        default="uniform",
        help="edge-probability law (uniform on [0,1], Beta(4,4), or constant)",
    )
    common.add_argument(
        "--prob-value", type=float, default=1.0, help="value for --prob constant"
    )
    common.add_argument("--seed", type=int)
    common.add_argument("-o", "--output", required=True, help="output edge-list path")
    er = gen_sub.add_parser("er", parents=[common], help="Erdős-Rényi G(n, p)")
    er.add_argument("--p", type=float, required=True, help="pair probability in [0,1]")
    ba = gen_sub.add_parser("ba", parents=[common], help="preferential attachment")
    ba.add_argument("--m", type=int, required=True, help="edges per new node (1 <= m < n)")
    rh = gen_sub.add_parser("rh", parents=[common], help="random hyperbolic threshold graph")
    rh.add_argument("--k", type=float, required=True, help="target average degree")
    rh.add_argument("--gamma", type=float, required=True, help="power-law exponent (> 2)")

    for method in CENTRALITY_METHODS:
        cmd = sub.add_parser(method, help=f"compute {method} scores")
        cmd.add_argument("graph", help="input edge-list file")
        cmd.add_argument("-o", "--output", required=True, help="output scores file")
        if method.startswith("psp-"):
            cmd.add_argument("--phi", type=float, default=0.8,
                             help="exploration threshold in [0,1] (default 0.8)")
            cmd.add_argument("--workers", type=int, default=None)
        elif method.startswith("mc-"):
            default_samples = 73777 if method == "mc-harmonic" else 100000
            cmd.add_argument("--samples", type=int, default=default_samples,
                             help=f"number of sampled instances (default {default_samples})")
            cmd.add_argument("--seed", type=int, default=0)
            cmd.add_argument("--workers", type=int, default=None)
        else:
            cmd.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                             help="max number of uncertain edges to enumerate")

    comp = sub.add_parser("compare", help="compare two score files (MAE, SCC)")
    comp.add_argument("scores_a")
    comp.add_argument("scores_b")
    comp.add_argument("--format", choices=["json", "csv"], default="json")
    comp.add_argument("-o", "--output", default=None, help="write report here instead of stdout")

    rep = sub.add_parser("reproduce", help="run a canned experiment suite")
    rep_sub = rep.add_subparsers(dest="suite", required=True)
    fig = rep_sub.add_parser("figure-examples",
                             help="worked 4-node examples for the estimated distributions")
    fig.add_argument("--phi", type=float, default=0.8)
    fig.add_argument("--out-dir", required=True)
    sweep = rep_sub.add_parser("random-graph-sweep",
                               help="MAE/SCC of the heuristics vs Monte Carlo over a phi grid")
    sweep.add_argument("--out-dir", required=True)
    sweep.add_argument("--graphs-per-cell", type=int)
    sweep.add_argument("--n", type=int)
    sweep.add_argument("--samples", type=int, help="Monte Carlo ground-truth samples per graph "
                       f"(default {experiments.SweepSettings.samples})")
    sweep.add_argument("--phi-grid", help="comma-separated exploration thresholds")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--jobs", type=int,
                       help="parallel graph jobs (default: worker count)")
    return parser


def _settings(cls, args, **given):
    """The settings dataclass ``cls`` from the parsed options named like its
    fields, with ``given`` taking precedence; a None value keeps the default."""
    opts = {**vars(args), **given}
    names = [f.name for f in dataclasses.fields(cls)]
    return cls(**{k: opts[k] for k in names if opts.get(k) is not None})


def _cmd_generate(args, parser) -> int:
    prob_dist = {
        "uniform": "uniform01",
        "beta": "beta44",
        "constant": f"constant:{args.prob_value}",
    }[args.prob]
    spec = _settings(GenSpec, args, prob_dist=prob_dist)
    try:
        spec.validate()
    except ValueError as exc:
        parser.error(str(exc))
    g = generate(spec)
    save_graph(g, args.output)
    print(f"wrote {g!r} to {args.output}", file=sys.stderr)
    return 0


def _cmd_centrality(args) -> int:
    g = load_graph(args.graph)
    opts = vars(args)
    spec = {k: opts[k] for k in ("phi", "samples", "seed", "cap") if k in opts}
    if "workers" in opts:
        spec["workers"] = _workers(args.workers)
    vec, _, elapsed_ms = run_timed(g, {"method": args.command, **spec})
    scores_io.write_scores(args.output, vec)
    print(f"{args.command}: {len(vec.scores)} nodes in {elapsed_ms:.1f} ms", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    a = scores_io.read_scores(args.scores_a)
    b = scores_io.read_scores(args.scores_b)
    if len(a.scores) != len(b.scores):
        raise ValueError(f"node-count mismatch: {len(a.scores)} vs {len(b.scores)}")
    report = compare_runs(
        a.method.split("-")[-1],
        (a, {"method": a.method, **a.params}, 0.0),
        (b, {"method": b.method, **b.params}, 0.0),
        seed=a.seed,
    )
    if math.isnan(report.scc):  # strict JSON has no NaN
        raise ConstantRanking
    if args.output:
        out = open(args.output, "w", newline="", encoding="utf-8")
    else:
        out = contextlib.nullcontext(sys.stdout)
    with out as fh:
        if args.format == "json":
            fh.write(report.to_json() + "\n")
        else:
            write_reports_csv(fh, [report])
    return 0


def _grid_item(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--phi-grid item {text!r} is not a number") from None


def _cmd_reproduce(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    if args.suite == "figure-examples":
        results = experiments.figure_examples(args.phi)
        path = os.path.join(args.out_dir, "figure_examples.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
        for name, vals in results.items():
            print(
                f"{name}: estimated d_er={vals['estimated_d_er']:.6g} "
                f"exact d_er={vals['exact_d_er']:.6g}"
            )
        print(f"wrote {path}", file=sys.stderr)
        return 0
    given = {"jobs": _workers(args.jobs)}
    if args.phi_grid is not None:
        given["phi_grid"] = tuple(_grid_item(x) for x in args.phi_grid.split(","))
    settings = _settings(experiments.SweepSettings, args, **given)
    reports = experiments.phi_sweep(settings)
    experiments.write_sweep_outputs(args.out_dir, settings, reports)
    print(f"wrote {len(reports)} rows to {os.path.join(args.out_dir, 'sweep.csv')}",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args, parser)
        if args.command in CENTRALITY_METHODS:
            return _cmd_centrality(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
