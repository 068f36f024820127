"""Exact shortest-path and centrality algorithms on a single graph instance.

These run on possible worlds (deterministic graphs) and back both the Monte
Carlo estimators and the brute-force oracle. The all-pairs kernels work on a
dense adjacency matrix so the per-world cost is a handful of BLAS calls; this
is intended for desk-scale graphs (up to a few thousand nodes).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graph_model import PossibleWorld


@dataclass(eq=False)
class DistanceVector:
    """Unweighted shortest-path distances from one source; inf = unreachable."""

    source: int
    dist: np.ndarray


@dataclass(eq=False)
class CentralityVector:
    """Per-node scores plus provenance (method name, parameters, seed)."""

    scores: np.ndarray
    method: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __len__(self):
        return len(self.scores)


def as_scores(x) -> np.ndarray:
    """Accept a CentralityVector or any array-like and return the raw scores."""
    if isinstance(x, CentralityVector):
        return np.asarray(x.scores, dtype=np.float64)
    return np.asarray(x, dtype=np.float64)


_MIN_NODES = {"harmonic": ("harmonic closeness", 2), "betweenness": ("betweenness", 3)}


def require_nodes(measure: str, n: int) -> None:
    """Raise ValueError unless ``measure`` is known and defined on n nodes."""
    if measure not in _MIN_NODES:
        raise ValueError(f"unknown measure {measure!r}")
    name, least = _MIN_NODES[measure]
    if n < least:
        raise ValueError(f"{name} needs at least {least} nodes")


def require_node(n: int, node) -> None:
    """Raise ValueError unless node is an integer node id in 0..n-1."""
    if not isinstance(node, (int, np.integer)) or not 0 <= node < n:
        raise ValueError(f"node id {node!r} is not an integer in 0..{n - 1}")


def require_pair(n: int, s: int, t: int) -> None:
    """Raise ValueError unless s and t are distinct integer node ids in 0..n-1."""
    require_node(n, s)
    require_node(n, t)
    if s == t:
        raise ValueError("s and t must be distinct")


def require_phi(phi: float) -> None:
    """Raise ValueError unless the exploration threshold phi lies in [0, 1]."""
    if not 0.0 <= phi <= 1.0:
        raise ValueError("phi must lie in [0, 1]")


def require_seed(seed: int) -> None:
    """Raise ValueError unless the random seed is >= 0, as numpy requires."""
    if seed < 0:
        raise ValueError("seed must be >= 0")


def hop_distances(adj, source: int) -> list[int]:
    """Breadth-first hop distance from ``source`` over neighbour lists; -1 = unreachable."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = d
                queue.append(v)
    return dist


def bfs_distances(w: PossibleWorld, source: int) -> DistanceVector:
    """Breadth-first distances from ``source`` in the world w."""
    require_node(w.parent.node_count, source)
    dist = np.array(hop_distances(w.neighbor_lists(), source), dtype=np.float64)
    dist[dist < 0.0] = np.inf
    return DistanceVector(source=source, dist=dist)


_EXACT_F32 = 2.0**24  # float32 holds every integer below this exactly


def _level_masks(a: np.ndarray) -> list[np.ndarray]:
    """Per BFS level d + 1, the float32 0/1 matrix L[s, v] = 1 iff dist(s, v) == d + 1.

    The reach products run in float32: they count 0/1 terms, at most n of
    them, so they are exact and twice as cheap as in float64.
    """
    n = a.shape[0]
    a32 = a.astype(np.float32)
    visited = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=np.float32)
    levels = []
    while True:
        nxt = frontier @ a32 > 0.0
        nxt &= ~visited
        if not nxt.any():
            return levels
        visited |= nxt
        frontier = nxt.astype(np.float32)
        levels.append(frontier)


def harmonic_scores_from_adjacency(a: np.ndarray) -> np.ndarray:
    """Normalized harmonic closeness of every node for adjacency matrix a."""
    n = a.shape[0]
    ones = np.ones(n, dtype=np.float32)
    acc = np.zeros(n)
    for d, level in enumerate(_level_masks(a), start=1):
        acc += (ones @ level).astype(np.float64) / d  # sources at distance d, exact
    return acc / (n - 1)


def betweenness_scores_from_adjacency(a: np.ndarray, harmonic_out=None) -> np.ndarray:
    """Normalized betweenness of every node via the dependency recursion.

    Forward sweep counts shortest paths level-synchronously for all sources at
    once; the backward sweep accumulates dependencies. Each unordered pair is
    seen from both endpoints, hence the single 1/((n-1)(n-2)) normalization.

    With ``harmonic_out`` (a float64 n-vector) the forward sweep also writes
    the harmonic closeness there, equal to ``harmonic_scores_from_adjacency``
    bit for bit: its level d reaches the same (source, node) entries, and
    each node's count of them is the same exact integer.
    """
    n = a.shape[0]
    acc = np.zeros(n)
    # Path counts are integers, so float32 products count them exactly (and
    # twice as fast) while every count stays below 2**24; past that the
    # forward sweep continues in float64.
    a_fwd = a.astype(np.float32)
    visited = np.eye(n, dtype=bool)
    sigma_front = np.eye(n, dtype=np.float32)  # counts on the frontier, 0 elsewhere
    levels = []  # per level: flat (source, node) indices and their path counts
    while True:
        flow = sigma_front @ a_fwd
        if a_fwd.dtype == np.float32 and flow.max() >= _EXACT_F32:
            a_fwd = a
            flow = sigma_front.astype(np.float64) @ a
        nxt = flow > 0.0
        nxt &= ~visited
        idx = np.flatnonzero(nxt)
        if not idx.size:
            break
        sigma = flow.ravel()[idx]
        sigma_front = np.zeros((n, n), dtype=flow.dtype)
        sigma_front.ravel()[idx] = sigma
        visited |= nxt
        levels.append((idx, sigma.astype(np.float64)))
        if harmonic_out is not None:
            acc += np.bincount(idx % n, minlength=n) / len(levels)
    if harmonic_out is not None:
        harmonic_out[:] = acc / (n - 1)

    # Only the level entries of delta change, so the backward sweep reads and
    # writes just those. The product itself stays a dense matmul: a sparse one
    # sums in another order and changes the scores' last bits.
    delta = np.zeros(n * n)
    for i in range(len(levels) - 1, 0, -1):
        idx, sigma = levels[i]
        coef = np.zeros((n, n))
        coef.ravel()[idx] = (1.0 + delta[idx]) / sigma
        spread = (coef @ a).ravel()
        up_idx, up_sigma = levels[i - 1]
        delta[up_idx] += spread[up_idx] * up_sigma
    return delta.reshape(n, n).sum(axis=0) / ((n - 1) * (n - 2))


def harmonic_closeness(w: PossibleWorld) -> CentralityVector:
    """Normalized harmonic closeness; 1/inf counts as 0 for unreachable pairs."""
    require_nodes("harmonic", w.parent.node_count)
    scores = harmonic_scores_from_adjacency(w.adjacency_matrix())
    return CentralityVector(scores, method="harmonic", params={})


def betweenness_brandes(w: PossibleWorld) -> CentralityVector:
    """Normalized betweenness centrality (dependency-accumulation algorithm)."""
    require_nodes("betweenness", w.parent.node_count)
    scores = betweenness_scores_from_adjacency(w.adjacency_matrix())
    return CentralityVector(scores, method="betweenness", params={})


def _bfs_preds(adj, source):
    n = len(adj)
    dist = [-1] * n
    dist[source] = 0
    preds = [[] for _ in range(n)]
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                preds[v].append(u)
                queue.append(v)
            elif dist[v] == du + 1:
                preds[v].append(u)
    return dist, preds


def _all_shortest_paths(preds, source, target):
    """Every shortest source-target path as a node tuple (target..source)."""
    out = []
    stack = [(target, (target,))]
    while stack:
        node, path = stack.pop()
        if node == source:
            out.append(path)
            continue
        for p in preds[node]:
            stack.append((p, path + (p,)))
    return out


def betweenness_naive(w: PossibleWorld) -> CentralityVector:
    """Reference betweenness by explicit enumeration of all shortest paths.

    Exponential in the worst case; meant as an independent oracle on small
    graphs, not for production use.
    """
    n = w.parent.node_count
    require_nodes("betweenness", n)
    adj = w.neighbor_lists()
    totals = np.zeros(n)
    for s in range(n - 1):
        dist, preds = _bfs_preds(adj, s)
        for t in range(s + 1, n):
            if dist[t] < 0:
                continue  # sigma(s, t) = 0 contributes nothing
            paths = _all_shortest_paths(preds, s, t)
            share = 1.0 / len(paths)
            for path in paths:
                for v in path[1:-1]:
                    totals[v] += share
    scores = totals * (2.0 / ((n - 1) * (n - 2)))
    return CentralityVector(scores, method="betweenness-naive", params={})
