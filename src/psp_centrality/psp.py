"""Possible-shortest-path heuristics.

A possible shortest path between s and t is any path that is a shortest s-t
path in at least one instance of the uncertain graph. The heuristics explore
them in rounds: treat the graph as deterministic, collect all shortest s-t
paths, then delete one minimal-probability edge per path and repeat, until
the estimated connection probability reaches the threshold ``phi`` or the
pair disconnects. The explored paths drive

* an estimated s-t distance distribution (with a capping rule that keeps the
  total mass at 1),
* harmonic closeness based on the expected distance conditioned on
  connection, and
* betweenness based on estimated relative path probabilities.

Everything here is deterministic: given the same graph (including edge input
order, which fixes adjacency order) and phi, results are identical for any
worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import deque
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import _parallel
from .deterministic import (
    CentralityVector,
    hop_distances,
    require_nodes,
    require_pair,
    require_phi,
)
from .graph_model import UncertainGraph
from .possible_worlds import DistanceDistribution


# Rounds with more shortest paths than this are summed over the predecessor
# DAG (``_DagRound``) instead of path by path. Timed per round on seeded
# uniform-probability grids, the harmonic estimator's enumeration and its DAG
# sums break even near 64 paths, the betweenness one (which also tallies the
# inner nodes) near 40. Smaller rounds keep the enumeration and its
# floating-point results.
_DP_PATHS = 64
_TAIL_RTOL = 2.0**-53  # bound on ``_DagRound``'s truncated series, relative to its sum


class ExplorationRound(NamedTuple):
    """Result of one all-shortest-paths sweep for a pair.

    ``path_probs`` holds the existence probability of every shortest path;
    all paths share ``length``. ``min_edges`` are the edges to delete before
    the next round.
    """

    length: int | float
    path_probs: list[float]
    min_edges: list[tuple[int, int]]


class _Goal(NamedTuple):
    """One target t's entry of ``_round_bounds``.

    ``hops[v]`` is v's hop distance to t in the graph without deletions (-1
    outside t's component). ``toward[v]`` and ``within[v]`` hold the entries
    (u, p, edge) of ``g.adj[v]`` with hops[u] < hops[v], and with hops[u] <=
    hops[v]: those one hop closer to t, and those no farther from it, each
    in adjacency order. ``growth`` is the least growth of a round's length.
    """

    hops: list[int]
    toward: list[Sequence]
    within: list[Sequence]
    growth: int


def _forward_bfs(g: UncertainGraph, s: int, t: int, deleted, *, goal=None, bound=0):
    """Level BFS from s over non-deleted edges, recording predecessors and
    each node's least edge probability.

    ``least[v]`` is the smallest edge probability on any shortest s -> v
    path (inf at s, and at unreached nodes): a node's first predecessor
    sets it to min(p, least[parent]) over the edge it came by, and every
    further predecessor lowers it to that value when that is smaller.

    Stops when the first node at t's level is dequeued; the preds and least
    of every node up to t's level are complete by then. With ``t == s``
    nothing stops the sweep and it covers s's whole component. Returns
    (dist, preds, least) where dist is -1 for unreached nodes and preds[v]
    lists (parent, edge probability) pairs.

    With ``goal`` (t's ``_Goal``) the sweep admits a node found at level d
    only when d + hops[node] <= bound. Deletions only lengthen paths, so a
    node on a shortest s-t path passes whenever bound >= that length, and
    so does every shortest-path predecessor of a node that passes (hops
    change by at most 1 per edge). The admitted nodes are thus found at
    their true levels and in the unbounded queue order, so when t is
    reached, dist, preds and least agree with the unbounded sweep on every
    node of the shortest-path predecessor DAG, which is all that path
    enumeration and ``retrieve_min_edges`` read.

    Each list admits exactly what a per-edge test d + 1 + hops[child] <=
    bound admits, so the sweep tests nothing per edge. A node dequeued at
    level d has slack c = bound - d - hops[node], and c >= 0 because it was
    admitted; only s can have c < 0, and then the bound cuts every edge, so
    such a call sweeps once, without the bound. A neighbour lies at
    hops[node] + k with k in {-1, 0, 1}, and is admitted (or gains this node
    as a predecessor, which needs the same level) only when k <= c - 1. So
    at c = 0 exactly the ``toward`` entries pass, at c = 1 exactly the
    ``within`` entries, and at c >= 2 every entry. Each list keeps adjacency
    order, so the entries that pass are scanned in the order the per-edge
    test would scan them.

    A bounded sweep that misses t sweeps once more without the bound; that
    second sweep is the unbounded sweep itself, so its results agree on
    every node, and every call sweeps at most twice.
    """
    n = g.node_count
    adj = g.adj
    while True:
        dist = [-1] * n
        dist[s] = 0
        preds: list = [None] * n
        least = [math.inf] * n
        queue = deque([s])
        t_dist = -1
        if goal is not None:
            hops, toward, within, _ = goal
            if hops[s] > bound:
                goal = None
        while queue:
            curr = queue.popleft()
            d_curr = dist[curr]
            if t_dist >= 0 and d_curr >= t_dist:
                break
            if goal is None:
                nbrs = adj[curr]
            else:
                slack = bound - d_curr - hops[curr]
                nbrs = adj[curr] if slack > 1 else within[curr] if slack else toward[curr]
            low = least[curr]
            d_next = d_curr + 1
            for child, p, ekey in nbrs:
                # The deletion set is looked up last: most edges lead to a
                # node already found at a lower level.
                d_child = dist[child]
                if d_child < 0:
                    if ekey in deleted:
                        continue
                    dist[child] = d_next
                    preds[child] = [(curr, p)]
                    queue.append(child)
                    least[child] = p if p < low else low
                    if child == t:
                        t_dist = d_next
                elif d_child == d_next and ekey not in deleted:
                    preds[child].append((curr, p))
                    via = p if p < low else low
                    if via < least[child]:
                        least[child] = via
        if t_dist >= 0 or goal is None:
            return dist, preds, least
        goal = None


def _round_bounds(g: UncertainGraph) -> list[_Goal]:
    """Per target t, its ``_Goal``: hop row, next-hop lists and growth.

    One plain BFS from t gives the row, and the hop steps along every
    adjacency entry select each node's lists. A later round is at least one
    hop longer than the last, and two when t's component is bipartite,
    where every s-t path has the same parity. It is bipartite unless an
    edge joins two nodes at the same hop distance from t.

    The lists are built node by node: a node's list is the same for every
    target that selects the same entries, so it is built once and shared,
    and a list that filters nothing out is the node's own ``g.adj[v]``. The
    lists of t itself and of nodes outside t's component are never read.
    A list that drops entries is a list, not a tuple: CPython keeps up to
    2,000 freed tuples of each length below 20 for reuse, so tuples freed
    when a driver returns stay allocated, which raised the benchmark's peak
    RSS by about 3.5 MB.
    """
    adj = g.adj
    n = g.node_count
    nbrs = [[v for v, _, _ in edges] for edges in adj]
    heads = np.array([v for row in nbrs for v in row], dtype=np.intp)
    tails = np.repeat(np.arange(n), [len(row) for row in nbrs])
    rows, growth, toward_flags, within_flags = [], [], [], []
    for t in range(n):
        hops = hop_distances(nbrs, t)
        h = np.array(hops)
        step = h[heads] - h[tails]  # -1, 0 or 1 inside t's component, 0 outside
        rows.append(hops)
        growth.append(1 if np.any((step == 0) & (h[tails] >= 0)) else 2)
        toward_flags.append((step < 0).tobytes())
        within_flags.append((step <= 0).tobytes())
    toward = [[None] * n for _ in range(n)]  # every slot is set below
    within = [[None] * n for _ in range(n)]
    ends = list(itertools.accumulate(map(len, nbrs)))
    for v, (edges, span) in enumerate(zip(adj, map(slice, [0] + ends[:-1], ends))):
        shared = {}  # selector -> selected entries
        for flags, lists in ((toward_flags, toward), (within_flags, within)):
            for slots, key in zip(lists, map(operator.itemgetter(span), flags)):
                found = shared.get(key)
                if found is None:
                    found = shared[key] = (
                        edges if 0 not in key else list(itertools.compress(edges, key))
                    )
                slots[v] = found
    return list(map(_Goal, rows, toward, within, growth))


def retrieve_min_edges(t: int, preds, least):
    """Backward sweep from t over the predecessor DAG collecting one minimal
    edge per shortest path, from the ``least`` of ``_forward_bfs``.

    At t, every edge (u, t) with p <= least[u] is taken. At any other node v
    the walk reaches, the last edge (u, p) of preds[v] with p == least[v]
    and p <= least[u] is taken, or no edge when none qualifies. The walk
    goes on below every parent of an edge it does not take, so each
    shortest path loses at least one edge and every emitted edge lies on
    some shortest path. The edges come in no fixed order.
    """
    out = []
    queue = deque()
    for parent, p in preds[t]:
        if p <= least[parent]:
            out.append((parent, t) if parent < t else (t, parent))
        else:
            queue.append(parent)
    seen = set()
    while queue:
        curr = queue.popleft()
        low = least[curr]
        taken = None
        for parent, p in preds[curr]:
            if p == low and p <= least[parent]:
                taken = parent
        if taken is not None:
            out.append((taken, curr) if taken < curr else (curr, taken))
        for parent, _ in preds[curr]:
            if parent != taken and parent not in seen:
                seen.add(parent)
                queue.append(parent)
    return out


class _TooManyPaths(Exception):
    """A path enumeration passed its ``limit``."""


def _path_probs(preds, s: int, t: int, limit=math.inf) -> list[float]:
    """Existence probabilities of all shortest s-t paths in the predecessor DAG.

    Raises ``_TooManyPaths`` as soon as there are more than ``limit``.
    """
    out = []
    stack = [(t, 1.0)]
    while stack:
        node, prob = stack.pop()
        for parent, p in preds[node]:
            q = prob * p
            if parent == s:
                out.append(q)
                if len(out) > limit:
                    raise _TooManyPaths
            else:
                stack.append((parent, q))
    return out


def _paths_with_inner(preds, s: int, t: int, limit=math.inf):
    """(probability, inner nodes) of all shortest s-t paths.

    Raises ``_TooManyPaths`` as soon as there are more than ``limit``.
    """
    out = []
    stack = [(t, 1.0, ())]
    while stack:
        node, prob, inner = stack.pop()
        for parent, p in preds[node]:
            q = prob * p
            if parent == s:
                out.append((q, inner))
                if len(out) > limit:
                    raise _TooManyPaths
            else:
                stack.append((parent, q, (parent,) + inner))
    return out


class _DagRound:
    """Sums over every shortest path of one round, by dynamic programming over
    its predecessor DAG: O(K |DAG|) time and O(|DAG|) memory, whatever the
    number of paths.

    ``nodes`` lists the DAG in the order of a backward walk from t over
    ``preds``: t first, then by falling level, s last. ``edges`` holds one
    (child index, parent index, edge probability) per DAG edge, the edges
    into a node after those into any lower-level node, so one pass in list
    order runs from s to t. ``fwd[i]`` is the summed probability of the
    s -> nodes[i] paths, so ``s1`` is that of the round's paths.

    ``survival`` is the product of (1 - p) over the round's paths. It is at
    most exp(-s1), so it is 0 when that underflows (s1 above about 745).
    Otherwise the paths above 1/2, fewer than 2 s1 of them, are listed by a
    walk from t that follows an edge only while the likeliest completion of
    its path stays above 1/2, and their (1 - p) are multiplied. For the
    rest, ln(prod) = -sum_k S_k / k, with S_k the sum of the unlisted paths'
    probabilities to the power k. Every unlisted path is at most q: the
    likeliest path when no path is above 1/2, else the largest likeliest
    completion of the prefixes the walk stopped at (at most 1/2, and 0 when
    it stopped at none, so every path was listed and the series is skipped).
    The terms after the K-th sum to at most S_1 q^K / ((K + 1)(1 - q)); terms
    are added until that bound drops to 2^-53 of the partial sum, or until
    the partial sum is not positive: the unlisted paths then weigh less than
    the rounding of the listed ones.
    """

    __slots__ = ("nodes", "edges", "fwd", "s1", "survival")

    def __init__(self, preds, s: int, t: int):
        nodes = [t]
        index = {t: 0}
        edges = []
        for v, node in enumerate(nodes):
            if node != s:
                for parent, p in preds[node]:
                    u = index.get(parent)
                    if u is None:
                        u = index[parent] = len(nodes)
                        nodes.append(parent)
                    edges.append((v, u, p))
        edges.reverse()
        fwd = [0.0] * len(nodes)
        best = fwd[:]  # probability of the likeliest s -> v path
        fwd[-1] = best[-1] = 1.0
        for v, u, p in edges:
            fwd[v] += fwd[u] * p
            top = best[u] * p
            if top > best[v]:
                best[v] = top
        self.nodes = nodes
        self.edges = edges
        self.fwd = fwd
        self.s1 = fwd[0]
        self.survival = self._survival(preds, s, index, best)

    def _survival(self, preds, s: int, index, best) -> float:
        s1 = self.s1
        if math.exp(-s1) == 0.0:
            return 0.0
        listed = []  # probabilities of the paths above 1/2
        q = best[0] if best[0] <= 0.5 else 0.0  # bounds every unlisted path
        stack = [] if q else [(self.nodes[0], 1.0)]
        while stack:
            node, prob = stack.pop()
            for parent, p in preds[node]:
                r = prob * p
                top = r * best[index[parent]]  # likeliest completion of this prefix
                if top <= 0.5:
                    q = max(q, top)
                elif parent == s:
                    listed.append(r)
                else:
                    stack.append((parent, r))
        product = math.prod(1.0 - p for p in listed)
        if q == 0.0:
            return product
        s1 -= sum(listed)
        total = s1
        k = 1
        while total > 0.0 and s1 * q**k > _TAIL_RTOL * total * (k + 1) * (1.0 - q):
            k += 1
            total += (self._power_sum(k) - sum(p**k for p in listed)) / k
        return product * math.exp(-total)

    def _power_sum(self, k: int) -> float:
        """S_k, the sum over the round's paths of their probability to the
        power k: the forward pass with edge weights p ** k."""
        fwd = [0.0] * len(self.nodes)
        fwd[-1] = 1.0
        for v, u, p in self.edges:
            fwd[v] += fwd[u] * p**k
        return fwd[0]

    def inner_sums(self):
        """(v, summed probability of the round's paths through v) for every
        DAG node v other than s and t: fwd(v) times the summed probability
        bwd(v) of the v -> t paths (Brandes' accumulation, weighted)."""
        bwd = [0.0] * len(self.nodes)
        bwd[0] = 1.0
        for v, u, p in reversed(self.edges):
            bwd[u] += bwd[v] * p
        fwd = self.fwd
        return [(self.nodes[i], fwd[i] * bwd[i]) for i in range(1, len(bwd) - 1)]


def all_shortest_paths_round(
    g: UncertainGraph, s: int, t: int, deleted=frozenset()
) -> ExplorationRound:
    """One exploration round: all shortest s-t paths avoiding deleted edges.

    Returns length inf with empty lists when t is unreachable.
    """
    require_pair(g.node_count, s, t)
    dist, preds, least = _forward_bfs(g, s, t, deleted)
    if dist[t] < 0:
        return ExplorationRound(math.inf, [], [])
    min_edges = retrieve_min_edges(t, preds, least)
    return ExplorationRound(dist[t], _path_probs(preds, s, t), min_edges)


def _rounds(g: UncertainGraph, s: int, t: int, first=None, goal=None):
    """Drive the exploration rounds of one pair; yield (length, preds) per round.

    Only when the caller asks for another round is one minimal edge per
    shortest path of the last round deleted, so a pair that stops (phi
    reached, or the caller's capping rule) retrieves no edges it would not
    use. Stops when t becomes unreachable.

    The all-nodes drivers pass ``first``, the (dist, preds, least) of a full
    BFS from s without deletions, which serves as round one, and t's
    ``_Goal``, which bounds every later round: each shortest path lost an
    edge, so the next length is at least the last one plus the goal's
    growth. Without it (the single-pair API) ``_forward_bfs`` runs
    unbounded.
    """
    growth = 1 if goal is None else goal.growth
    deleted = set()
    length = 0
    while True:
        if length:
            deleted.update(retrieve_min_edges(t, preds, least))
            first = None
        dist, preds, least = first or _forward_bfs(
            g, s, t, deleted, goal=goal, bound=length + growth
        )
        length = dist[t]
        if length < 0:
            return
        yield length, preds


def _round_mass(preds, s: int, t: int, remaining: float):
    """(sum of the round's path probabilities, remaining times the product of
    (1 - Pr) over its paths).

    Up to ``_DP_PATHS`` paths are enumerated; larger rounds are summed over
    the DAG.
    """
    try:
        probs = _path_probs(preds, s, t, _DP_PATHS)
    except _TooManyPaths:
        dag = _DagRound(preds, s, t)
        return dag.s1, remaining * dag.survival
    for p in probs:
        remaining *= 1.0 - p
    return sum(probs), remaining


def _add_round_shares(preds, s: int, t: int, sigma: float, remaining: float, shares):
    """Add each path's relative probability (remaining x its probability) to
    ``sigma`` and to the share of each inner node in ``shares``; return
    (sigma, remaining times the product of (1 - Pr) over the paths, s1), s1
    being the sum of the round's path probabilities.

    Up to ``_DP_PATHS`` paths are enumerated; larger rounds are summed over
    the DAG.
    """
    try:
        paths = _paths_with_inner(preds, s, t, _DP_PATHS)
    except _TooManyPaths:
        dag = _DagRound(preds, s, t)
        for v, through in dag.inner_sums():
            shares[v] = shares.get(v, 0.0) + remaining * through
        return sigma + remaining * dag.s1, remaining * dag.survival, dag.s1
    after = remaining
    for prob, inner in paths:
        rel = prob * remaining
        sigma += rel
        after *= 1.0 - prob
        for v in inner:
            shares[v] = shares.get(v, 0.0) + rel
    return sigma, after, sum(p for p, _ in paths)


def _explore_pair(g: UncertainGraph, s, t, phis, masses, first=None, goal=None, shares=None):
    """Run the exploration rounds of one pair up to the largest of the
    ascending ``phis``; yield (sigma, 1 - remaining, rounds run) once per phi,
    in order, at the point where a pass at that phi alone stops.

    ``remaining`` is the product of (1 - Pr) over every path found so far;
    a pass at phi runs rounds until 1 - remaining, the estimated connection
    probability, reaches phi, or until t disconnects. The rounds do not
    depend on phi, so a smaller phi stops at a prefix of a larger one's.

    ``masses`` (a list) receives the estimated distance distribution, one
    (length, remaining x the sum of the round's path probabilities) per
    round. When the accumulated mass would reach 1, the current length takes
    what is left and the distribution is complete (capping rule); the caller
    treats 1 minus the total as the disconnection mass.

    ``shares`` (a dict) receives each inner node's summed relative path
    probability (remaining x Pr), and sigma sums it over every path. Without
    ``shares`` the rounds stop at the cap. With them, the distribution's
    rounds are a prefix of the shares' rounds: the path enumerations list
    the same probabilities in the same order, so each measure computes the
    same floats as when it runs alone. At each yield, ``masses`` and
    ``shares`` hold what a pass at that phi alone leaves in them.
    """
    remaining = 1.0
    sigma = 0.0
    total = 0.0  # mass in ``masses``
    capped = False  # ``masses`` is complete
    count = 0
    rounds = _rounds(g, s, t, first, goal)
    for phi in phis:
        if 1.0 - remaining < phi:
            for length, preds in rounds:
                count += 1
                if shares is None:
                    s1, after = _round_mass(preds, s, t, remaining)
                else:
                    sigma, after, s1 = _add_round_shares(preds, s, t, sigma, remaining, shares)
                if not capped:
                    new_mass = remaining * s1
                    if total + new_mass >= 1.0:
                        masses.append((length, 1.0 - total))
                        if shares is None:
                            rounds.close()  # no more rounds for any phi
                            break
                        capped = True  # the shares' rounds go on
                    else:
                        masses.append((length, new_mass))
                        total += new_mass
                remaining = after
                if 1.0 - remaining >= phi:
                    break
        yield sigma, 1.0 - remaining, count


def psp_distance_distribution(
    g: UncertainGraph, s: int, t: int, phi: float
) -> DistanceDistribution:
    """Estimated s-t distance distribution from explored shortest paths."""
    require_pair(g.node_count, s, t)
    require_phi(phi)
    masses = []
    [_] = _explore_pair(g, s, t, (phi,), masses)
    mass = np.zeros(g.node_count)
    total = 0.0
    for k, m in masses:
        mass[k] = m
        total += m
    return DistanceDistribution(s=s, t=t, mass=mass, mass_inf=1.0 - total)


def psp_distance_er(g: UncertainGraph, s: int, t: int, phi: float) -> float:
    """Estimated expected-reliable distance; inf when no path mass was found."""
    require_pair(g.node_count, s, t)
    require_phi(phi)
    gamma, delta = _pair_gamma_delta(g, s, t, phi)
    if gamma <= 0.0:
        return math.inf
    return delta / gamma


def _gamma_delta(masses):
    """Finite mass (gamma) of a distance distribution and its distance-weighted
    sum (delta); the reciprocal estimated distance is gamma / delta, with 0
    for gamma = 0."""
    gamma = 0.0
    delta = 0.0
    for k, m in masses:
        gamma += m
        delta += k * m
    return gamma, delta


def _pair_gamma_delta(g, s, t, phi, first=None, goal=None):
    """``_gamma_delta`` of the estimated s-t distance distribution."""
    masses = []
    [_] = _explore_pair(g, s, t, (phi,), masses, first, goal)
    return _gamma_delta(masses)


def _reachable_targets(g: UncertainGraph, goals, s: int):
    """Yield (t, round one, t's ``_Goal``) for every target t > s that s reaches.

    One BFS from s without deletions serves round one of every target; the
    other targets never connect, so they get no BFS at all.
    """
    first = _forward_bfs(g, s, s, frozenset())
    dist = first[0]
    for t in range(s + 1, g.node_count):
        if dist[t] >= 0:
            yield t, first, goals[t]


def _source_partials(g: UncertainGraph, reach: float, workers: int, task) -> list:
    """``task(goals, s)`` for every source s < n - 1, in source order, for
    rounds that run up to phi ``reach``.

    At reach 0 no pair runs a round: there are no sources, so no round bounds
    are built and no pool starts. Otherwise they are built once per call.
    """
    sources = range(g.node_count - 1) if reach > 0.0 else range(0)
    goals = _round_bounds(g) if sources else None
    return _parallel.run_ordered(functools.partial(task, goals), sources, workers)


def _merged(parts, shape, dtype=float) -> np.ndarray:
    """Sum of per-source arrays of ``shape``, added in source order."""
    total = np.zeros(shape, dtype)
    for part in parts:
        total += part
    return total


def _add_closeness(partial, s: int, t: int, gamma: float, delta: float) -> None:
    if gamma > 0.0:
        recip = gamma / delta
        partial[s] += recip
        partial[t] += recip


def _add_betweenness(partial, shares, sigma: float, phi_st: float) -> None:
    if sigma > 0.0:
        for v, share in shares.items():
            partial[v] += share / sigma * phi_st


def _harmonic_source_task(g: UncertainGraph, phi: float, goals, s: int) -> np.ndarray:
    partial = np.zeros(g.node_count)
    for t, first, goal in _reachable_targets(g, goals, s):
        _add_closeness(partial, s, t, *_pair_gamma_delta(g, s, t, phi, first, goal))
    return partial


def _betweenness_source_task(g: UncertainGraph, phis, goals, s: int):
    """Per phi of the ascending ``phis``, the betweenness partial sums over
    the pairs (s, t > s), and also the harmonic ones from the distance
    masses that the same rounds collect: a (len(phis), 2, n) array, harmonic
    first, and the rounds a pass at that phi alone runs for them."""
    # Plain lists: per-element adds to them are cheaper than to numpy arrays
    # and give the same floats.
    partial = [([0.0] * g.node_count, [0.0] * g.node_count) for _ in phis]
    rounds = [0] * len(phis)
    for t, first, goal in _reachable_targets(g, goals, s):
        masses = []
        shares = {}  # inner node -> summed relative path probability
        stops = _explore_pair(g, s, t, phis, masses, first, goal, shares)
        for k, (sigma, phi_st, count) in enumerate(stops):
            closeness, between = partial[k]
            _add_closeness(closeness, s, t, *_gamma_delta(masses))
            _add_betweenness(between, shares, sigma, phi_st)
            rounds[k] += count
    return np.array(partial), rounds


def _harmonic_vector(scores: np.ndarray, phi: float) -> CentralityVector:
    scores = scores / (len(scores) - 1)
    return CentralityVector(scores, method="psp-harmonic", params={"phi": phi})


def _betweenness_vector(scores: np.ndarray, phi: float) -> CentralityVector:
    n = len(scores)
    scores = scores * (2.0 / ((n - 1) * (n - 2)))
    return CentralityVector(scores, method="psp-betweenness", params={"phi": phi})


def psp_harmonic_all(g: UncertainGraph, phi: float, workers: int = 1) -> CentralityVector:
    """Estimated harmonic closeness of every node.

    Each unordered pair is explored once; per-source partial sums are merged
    in source order so the output is identical for any worker count.
    """
    require_nodes("harmonic", g.node_count)
    require_phi(phi)
    task = functools.partial(_harmonic_source_task, g, phi)
    scores = _merged(_source_partials(g, phi, workers, task), g.node_count)
    return _harmonic_vector(scores, phi)


def psp_betweenness_all(g: UncertainGraph, phi: float, workers: int = 1) -> CentralityVector:
    """Estimated betweenness of every node.

    Per pair, each explored path contributes its estimated relative
    probability to the nodes it crosses; the pair's share is scaled by the
    final estimated connection probability. Deterministic for any worker
    count (fixed-order merge of per-source partials). It is
    ``psp_harmonic_betweenness_grid`` at the one phi, which checks n and phi.
    """
    return psp_harmonic_betweenness_grid(g, (phi,), workers)[0].betweenness


class PhiScores(NamedTuple):
    """One phi of ``psp_harmonic_betweenness_grid``: both score vectors, and
    the exploration rounds a pass at that phi alone runs, over all pairs."""

    harmonic: CentralityVector
    betweenness: CentralityVector
    rounds: int


def psp_harmonic_betweenness_grid(
    g: UncertainGraph, phi_grid, workers: int = 1
) -> list[PhiScores]:
    """``psp_harmonic_all`` and ``psp_betweenness_all`` at every phi of
    ``phi_grid``, in the grid's order (duplicates included), from one
    exploration per pair.

    Each pair runs its rounds once, up to the grid's largest phi. Every
    smaller phi takes the pair's state where a pass at that phi alone stops
    (its estimated connection probability reaches phi, or t disconnects),
    so its scores equal those calls bit for bit. The pass does the BFS and
    min-edge work of a pass at the largest phi alone. Every phi is checked
    before any work; an empty grid gives [].
    """
    require_nodes("betweenness", g.node_count)
    for phi in phi_grid:
        require_phi(phi)
    phis = sorted(set(phi_grid))
    task = functools.partial(_betweenness_source_task, g, phis)
    parts = _source_partials(g, max(phis, default=0.0), workers, task)
    scores = _merged((p for p, _ in parts), (len(phis), 2, g.node_count))
    rounds = _merged((r for _, r in parts), len(phis), int)
    row = {phi: k for k, phi in enumerate(phis)}
    return [
        PhiScores(
            _harmonic_vector(scores[row[phi], 0], phi),
            _betweenness_vector(scores[row[phi], 1], phi),
            int(rounds[row[phi]]),
        )
        for phi in phi_grid
    ]
