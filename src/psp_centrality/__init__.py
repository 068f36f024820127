"""Centrality estimation on uncertain graphs via possible shortest paths."""

from .deterministic import (
    CentralityVector,
    DistanceVector,
    betweenness_brandes,
    betweenness_naive,
    bfs_distances,
    harmonic_closeness,
)
from .evaluation import ExperimentReport, aggregate_reports, mae, run_experiment, scc
from .generators import GenSpec, assign_probabilities, gen_ba, gen_er, gen_rh, generate
from .graph_model import (
    EdgeListParseError,
    PossibleWorld,
    UncertainGraph,
    load_graph,
    save_graph,
    world_probability,
)
from .monte_carlo import McConfig, mc_betweenness, mc_harmonic, mc_harmonic_betweenness
from .possible_worlds import (
    DEFAULT_ENUMERATION_CAP,
    DistanceDistribution,
    EnumerationCapExceeded,
    distance_er,
    distance_majority,
    distance_median,
    enumerate_worlds,
    exact_distance_distribution,
    exact_expected_centrality,
    sample_world,
)
from .psp import (
    ExplorationRound,
    all_shortest_paths_round,
    psp_betweenness_all,
    psp_distance_distribution,
    psp_distance_er,
    psp_harmonic_all,
    psp_harmonic_betweenness_all,
    retrieve_min_edges,
)

__version__ = "0.1.0"

__all__ = [
    "CentralityVector",
    "DistanceVector",
    "DistanceDistribution",
    "EdgeListParseError",
    "EnumerationCapExceeded",
    "ExperimentReport",
    "ExplorationRound",
    "GenSpec",
    "McConfig",
    "PossibleWorld",
    "UncertainGraph",
    "DEFAULT_ENUMERATION_CAP",
    "aggregate_reports",
    "all_shortest_paths_round",
    "assign_probabilities",
    "betweenness_brandes",
    "betweenness_naive",
    "bfs_distances",
    "distance_er",
    "distance_majority",
    "distance_median",
    "enumerate_worlds",
    "exact_distance_distribution",
    "exact_expected_centrality",
    "gen_ba",
    "gen_er",
    "gen_rh",
    "generate",
    "harmonic_closeness",
    "load_graph",
    "mae",
    "mc_betweenness",
    "mc_harmonic",
    "mc_harmonic_betweenness",
    "psp_betweenness_all",
    "psp_distance_distribution",
    "psp_distance_er",
    "psp_harmonic_all",
    "psp_harmonic_betweenness_all",
    "retrieve_min_edges",
    "run_experiment",
    "sample_world",
    "save_graph",
    "scc",
    "world_probability",
]
