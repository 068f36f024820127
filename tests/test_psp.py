import inspect
import math
import sys
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp_centrality import (
    GenSpec,
    UncertainGraph,
    all_shortest_paths_round,
    betweenness_brandes,
    harmonic_closeness,
    psp_betweenness_all,
    psp_distance_distribution,
    psp_distance_er,
    psp_harmonic_all,
    psp_harmonic_betweenness_grid,
    retrieve_min_edges,
)
from psp_centrality import deterministic, generate, psp
from psp_centrality.psp import _forward_bfs, _path_probs, _paths_with_inner

from conftest import full_world, random_deterministic_graph, random_uncertain_graph, star_graph


def two_hop(p_first, p_second):
    """Path s(0) - a(1) - t(2) with the given edge probabilities."""
    return UncertainGraph(3, [(0, 1), (1, 2)], [p_first, p_second])


# --- exploration rounds ---------------------------------------------------


def test_round_parallel_graph(parallel_graph):
    rnd = all_shortest_paths_round(parallel_graph, 0, 3)
    assert rnd.length == 2
    assert sorted(rnd.path_probs) == pytest.approx([0.9, 0.9])
    assert sorted(rnd.min_edges) == [(1, 3), (2, 3)]


def test_round_detour_graph(detour):
    rnd = all_shortest_paths_round(detour, 0, 3)
    assert rnd.length == 2
    assert sorted(rnd.path_probs) == pytest.approx([0.35, 0.6])
    assert sorted(rnd.min_edges) == [(0, 2), (1, 3)]
    rnd2 = all_shortest_paths_round(detour, 0, 3, deleted=set(rnd.min_edges))
    assert rnd2.length == 3
    assert rnd2.path_probs == pytest.approx([0.35])


def test_round_unreachable():
    g = UncertainGraph(3, [(0, 1)], [0.5])
    rnd = all_shortest_paths_round(g, 0, 2)
    assert rnd.length == math.inf
    assert rnd.path_probs == [] and rnd.min_edges == []


def test_paths_with_inner_carries_inner_nodes(detour):
    _, preds, _ = _forward_bfs(detour, 0, 3, frozenset())
    paths = _paths_with_inner(preds, 0, 3)
    assert {inner for _, inner in paths} == {(1,), (2,)}
    assert {round(prob, 10) for prob, _ in paths} == {0.6, 0.35}


def test_round_rejects_equal_endpoints(detour):
    with pytest.raises(ValueError):
        all_shortest_paths_round(detour, 1, 1)


def test_round_loop_exact_work(detour, monkeypatch):
    # The round loop must look both helpers up by module name at call time:
    # patching the module attributes is how the work gets counted.
    bfs_deleted = []
    min_edge_calls = []
    real_bfs, real_min_edges = psp._forward_bfs, psp.retrieve_min_edges

    def counting_bfs(g, s, t, deleted, **kwargs):
        bfs_deleted.append(set(deleted))
        return real_bfs(g, s, t, deleted, **kwargs)

    def counting_min_edges(*args):
        min_edge_calls.append(args)
        return real_min_edges(*args)

    monkeypatch.setattr(psp, "_forward_bfs", counting_bfs)
    monkeypatch.setattr(psp, "retrieve_min_edges", counting_min_edges)

    # Round one (length 2) leaves phi_st = 0.74 < 0.8; round two (length 3)
    # trips the cap, so its minimal edges are never retrieved.
    d = psp_distance_distribution(detour, 0, 3, 0.8)
    assert len(bfs_deleted) == 2 and len(min_edge_calls) == 1
    assert bfs_deleted == [set(), {(0, 2), (1, 3)}]
    assert d.mass[3] == pytest.approx(0.05, abs=1e-12) and d.mass_inf == 0.0

    # Round one reaches phi_st = 0.81 >= 0.5, so the pair stops without
    # retrieving the minimal edges of that round.
    bfs_deleted.clear()
    min_edge_calls.clear()
    psp_distance_distribution(two_hop(0.9, 0.9), 0, 2, 0.5)
    assert bfs_deleted == [set()] and min_edge_calls == []

    bfs_deleted.clear()
    psp_distance_distribution(detour, 0, 3, 0.0)
    psp_harmonic_all(detour, 0.0)
    psp_betweenness_all(detour, 0.0)
    assert bfs_deleted == [] and min_edge_calls == []


def two_components():
    """The detour graph (nodes 0-3) beside a triangle with a tail (nodes 4-7)."""
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (4, 6), (6, 7)]
    return UncertainGraph(8, edges, [1.0, 0.5, 0.5, 0.6, 0.7, 0.4, 0.9, 0.3, 0.8])


def test_all_nodes_drivers_exact_bfs_work(monkeypatch):
    # One BFS without deletions per source serves round one of every target;
    # later rounds run only for pairs that are connected.
    g = two_components()
    component = [0, 0, 0, 0, 1, 1, 1, 1]
    calls = []
    real_bfs = psp._forward_bfs

    def counting_bfs(g, s, t, deleted, **kwargs):
        calls.append((s, t, set(deleted)))
        return real_bfs(g, s, t, deleted, **kwargs)

    monkeypatch.setattr(psp, "_forward_bfs", counting_bfs)
    for driver in (psp_harmonic_all, psp_betweenness_all):
        calls.clear()
        driver(g, 0.8)
        assert [s for s, _, deleted in calls if not deleted] == list(range(g.node_count - 1))
        later = [(s, t) for s, t, deleted in calls if deleted]
        assert (0, 3) in later  # the detour pair needs a second round
        assert all(component[s] == component[t] and s < t for s, t in later)
        calls.clear()
        driver(g, 0.0)
        assert calls == []


def test_forward_bfs_keeps_four_positional_arguments(detour):
    # Tracers unpack ``g, s, t, deleted = args``; new inputs are keyword-only.
    params = list(inspect.signature(_forward_bfs).parameters.values())
    assert [p.name for p in params[:4]] == ["g", "s", "t", "deleted"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params[:4])
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[4:])
    found = _forward_bfs(detour, 0, 3, frozenset())
    assert len(found) == 3
    dist, _, least = found
    assert dist[3] == 2 and least[0] == math.inf


def _reference_tags(g, s, t, deleted):
    """The earlier unbounded sweep, which remembers one minimal edge per
    node as an (edge, prob, depth) tag: a newly traversed edge takes over
    when its probability is <= the inherited minimum, else the lower
    inherited tag wins, and on equal probabilities the deeper tag wins.
    Returns (dist, preds, tags); the source holds (None, inf, 0)."""
    n = g.node_count
    dist = [-1] * n
    dist[s] = 0
    preds = [None] * n
    tags = [(None, math.inf, 0)] * n
    queue = deque([s])
    t_dist = -1
    while queue:
        curr = queue.popleft()
        if t_dist >= 0 and dist[curr] >= t_dist:
            break
        ctag = tags[curr]
        cprob = ctag[1]
        d_next = dist[curr] + 1
        for child, p, ekey in g.adj[curr]:
            if ekey in deleted:
                continue
            if dist[child] < 0:
                dist[child] = d_next
                preds[child] = [(curr, p)]
                queue.append(child)
                tags[child] = (ekey, p, d_next) if cprob >= p else ctag
                if child == t:
                    t_dist = d_next
            elif dist[child] == d_next:
                preds[child].append((curr, p))
                chtag = tags[child]
                chprob = chtag[1]
                if chprob >= p and cprob >= p:
                    tags[child] = (ekey, p, d_next)
                elif chprob > cprob:
                    tags[child] = ctag
                elif cprob == chprob and ctag[2] > chtag[2]:
                    tags[child] = ctag
    return dist, preds, tags


def _reference_min_edges(g, t, dist, tags, deleted=frozenset()):
    """The earlier min-edge walk: it re-derives the predecessor DAG from the
    adjacency lists, ``dist`` and the deletion set."""
    visited = [False] * g.node_count
    visited[t] = True
    out = []
    queue = deque()
    d_t = dist[t]
    for child, p, ekey in g.adj[t]:
        if ekey in deleted:
            continue
        if dist[child] == d_t - 1:
            visited[child] = True
            if p <= tags[child][1]:
                out.append(ekey)
            else:
                queue.append(child)
    while queue:
        curr = queue.popleft()
        tag_edge = tags[curr][0]
        d_down = dist[curr] - 1
        for child, p, ekey in g.adj[curr]:
            if ekey in deleted:
                continue
            if dist[child] == d_down:
                if tag_edge == ekey:
                    out.append(ekey)
                elif not visited[child]:
                    visited[child] = True
                    queue.append(child)
    return out


def _reference_rounds(g, s, t, done):
    """Unbounded per-pair rounds: the earlier tag sweep for every round of
    every pair, and the earlier adjacency-scanning min-edge walk."""
    deleted = set()
    while not done():
        dist, preds, tags = _reference_tags(g, s, t, deleted)
        if dist[t] < 0:
            return
        yield dist[t], preds
        deleted.update(_reference_min_edges(g, t, dist, tags, deleted))


def _reference_harmonic(g, phi):
    n = g.node_count
    scores = np.zeros(n)
    for s in range(n - 1):
        partial = np.zeros(n)
        for t in range(s + 1, n):
            remaining, total, gamma, delta = 1.0, 0.0, 0.0, 0.0
            for length, preds in _reference_rounds(g, s, t, lambda: 1.0 - remaining >= phi):
                probs = _path_probs(preds, s, t)
                new_mass = remaining * sum(probs)
                if total + new_mass >= 1.0:
                    gamma += 1.0 - total
                    delta += length * (1.0 - total)
                    break
                gamma += new_mass
                delta += length * new_mass
                total += new_mass
                for p in probs:
                    remaining *= 1.0 - p
            if gamma > 0.0:
                partial[s] += gamma / delta
                partial[t] += gamma / delta
        scores += partial
    return scores / (n - 1)


def _reference_betweenness(g, phi):
    n = g.node_count
    scores = np.zeros(n)
    for s in range(n - 1):
        partial = np.zeros(n)
        for t in range(s + 1, n):
            buf = np.zeros(n)
            sigma, remaining = 0.0, 1.0
            for _, preds in _reference_rounds(g, s, t, lambda: 1.0 - remaining >= phi):
                after = remaining
                for prob, inner in _paths_with_inner(preds, s, t):
                    rel = prob * remaining
                    sigma += rel
                    after *= 1.0 - prob
                    for v in inner:
                        buf[v] += rel
                remaining = after
            if sigma > 0.0:
                touched = np.flatnonzero(buf)
                partial[touched] += buf[touched] / sigma * (1.0 - remaining)
        scores += partial
    return scores * (2.0 / ((n - 1) * (n - 2)))


def _hop_rows(g):
    """Each node's hop distance to every target t (row t), -1 outside t's
    component, from the deterministic module's plain BFS."""
    adj = g.neighbor_lists(g.probs > 0.0)
    return [deterministic.hop_distances(adj, t) for t in range(g.node_count)]


def _bit_identity_graphs():
    rng = np.random.default_rng(2024)
    for i in range(24):
        n = int(rng.integers(6, 16))
        g = random_uncertain_graph(rng, n=n, edge_prob=float(rng.uniform(0.12, 0.5)))
        kind = i % 3
        if kind == 0:  # uniform probabilities, no certain or impossible edges
            g = UncertainGraph(n, list(g.edges), rng.uniform(0.01, 0.99, g.edge_count))
        elif kind == 1:  # constant 0.5: every tie rule is exercised
            g = UncertainGraph(n, list(g.edges), [0.5] * g.edge_count)
        yield g  # kind 2: a mix with p=1 and p=0 edges


@pytest.mark.parametrize("phi", (0.1, 0.5, 0.8, 1.0))
def test_bounded_rounds_match_unbounded_reference_bit_for_bit(phi):
    # The shared first round and the hop-bounded later rounds must give the
    # same bits as running every round of every pair as a full BFS.
    disconnected = 0
    for g in _bit_identity_graphs():
        disconnected += any(-1 in row for row in _hop_rows(g))
        h = psp_harmonic_all(g, phi).scores
        b = psp_betweenness_all(g, phi).scores
        assert h.tobytes() == _reference_harmonic(g, phi).tobytes()
        assert b.tobytes() == _reference_betweenness(g, phi).tobytes()
    assert disconnected >= 3


def test_min_edges_over_preds_match_the_adjacency_walk():
    # Every round of every pair, in all three BFS modes: the full sweep that
    # serves round one, the sweep that stops at t's level, and the
    # hop-bounded later rounds, which take t's entry of ``_round_bounds``.
    # The expected edges come from the earlier tag sweep. Constant-probability
    # graphs exercise the ties.
    rounds = 0
    for g in _bit_identity_graphs():
        goals = psp._round_bounds(g)
        rows = _hop_rows(g)
        for s in range(g.node_count - 1):
            full = _forward_bfs(g, s, s, frozenset())
            for t in range(s + 1, g.node_count):
                deleted = set()
                length = 0
                while True:
                    dist, preds, tags = _reference_tags(g, s, t, deleted)
                    if dist[t] < 0:
                        break
                    expected = _reference_min_edges(g, t, dist, tags, deleted)
                    bounded = _forward_bfs(g, s, t, deleted, goal=goals[t], bound=length + 1)
                    # Round one's bound of 1 lies below s's hop distance to
                    # t whenever that is 2 or more.
                    assert bounded == _reference_bounded_sweep(
                        g, s, t, deleted, rows[t], length + 1
                    )
                    runs = [_forward_bfs(g, s, t, deleted)[1:], bounded[1:]]
                    if not deleted:
                        runs.append(full[1:])
                    for run_preds, run_least in runs:
                        assert run_preds[t] == preds[t]
                        edges = retrieve_min_edges(t, run_preds, run_least)
                        assert len(edges) == len(set(edges))
                        assert set(edges) == set(expected)
                    deleted.update(expected)
                    length = dist[t]
                    rounds += 1
    assert rounds > 1000


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_least_is_the_smallest_edge_on_the_shortest_paths_to_each_node(seed, with_deletions):
    # The oracle lists every shortest s -> v path with the deterministic
    # module's own BFS, over the edges left after the deletions, and takes
    # the smallest edge probability on any of them. Ties are common: most
    # probabilities come from {0.25, 0.5, 1}.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    g = random_uncertain_graph(rng, n=n, edge_prob=float(rng.uniform(0.2, 0.6)))
    tied = rng.choice([0.25, 0.5, 1.0], g.edge_count)
    g = UncertainGraph(n, list(g.edges), np.where(rng.random(g.edge_count) < 0.7, tied, g.probs))
    live = [(u, v, p) for u in range(n) for v, p, _ in g.adj[u] if u < v]
    deleted = set()
    if with_deletions:
        deleted = {(u, v) for u, v, _ in live if rng.random() < 0.3}
    prob = {}
    adj = [[] for _ in range(n)]
    for u, v, p in live:
        if (u, v) not in deleted:
            prob[u, v] = prob[v, u] = p
            adj[u].append(v)
            adj[v].append(u)
    s = int(rng.integers(n))
    oracle_dist, oracle_preds = deterministic._bfs_preds(adj, s)
    for t in (s, int(rng.integers(n))):
        dist, _, least = _forward_bfs(g, s, t, deleted)
        for v in range(n):
            if dist[v] < 0:
                continue
            assert dist[v] == oracle_dist[v]
            paths = deterministic._all_shortest_paths(oracle_preds, s, v)
            on_paths = [prob[e] for path in paths for e in zip(path, path[1:])]
            assert least[v] == min(on_paths, default=math.inf)


def test_later_rounds_reach_only_nodes_within_the_bound(monkeypatch):
    # A later round that finds t within its bound reaches node v only when
    # dist[v] + hops(v, t) <= bound, measured with t's own hop row. Any other
    # later round sweeps once more without the bound, so it returns exactly
    # what the unbounded sweep returns.
    within = unbounded = 0
    real_bfs = psp._forward_bfs

    def checking_bfs(g, s, t, deleted, **kwargs):
        nonlocal within, unbounded
        found = real_bfs(g, s, t, deleted, **kwargs)
        dist = found[0]
        if deleted and 0 <= dist[t] <= kwargs["bound"]:
            row = hops[t]
            assert all(d + row[v] <= kwargs["bound"] for v, d in enumerate(dist) if d >= 0)
            within += 1
        elif deleted:
            assert found == real_bfs(g, s, t, deleted)
            unbounded += 1
        return found

    monkeypatch.setattr(psp, "_forward_bfs", checking_bfs)
    for g in _bit_identity_graphs():
        hops = _hop_rows(g)
        psp_harmonic_all(g, 1.0)
        psp_betweenness_all(g, 1.0)
    assert within > 100 and unbounded > 100


def _reference_bounded_sweep(g, s, t, deleted, row, bound):
    """The earlier hop-bounded sweep: each edge to a new node is tested
    against t's hop ``row`` (None sweeps unbounded), and a sweep that misses
    t after the test rejected a non-deleted edge sweeps once more without
    the row."""
    n = g.node_count
    while True:
        dist = [-1] * n
        dist[s] = 0
        preds = [None] * n
        least = [math.inf] * n
        queue = deque([s])
        t_dist = -1
        rejected = False
        while queue:
            curr = queue.popleft()
            d_curr = dist[curr]
            if t_dist >= 0 and d_curr >= t_dist:
                break
            low = least[curr]
            d_next = d_curr + 1
            slack = bound - d_next
            for child, p, ekey in g.adj[curr]:
                d_child = dist[child]
                if d_child < 0:
                    if row is not None and row[child] > slack:
                        rejected = rejected or ekey not in deleted
                        continue
                    if ekey in deleted:
                        continue
                    dist[child] = d_next
                    preds[child] = [(curr, p)]
                    queue.append(child)
                    least[child] = min(p, low)
                    if child == t:
                        t_dist = d_next
                elif d_child == d_next and ekey not in deleted:
                    preds[child].append((curr, p))
                    least[child] = min(least[child], p, low)
        if t_dist >= 0 or not rejected:
            return dist, preds, least
        row = None


def test_every_sweep_returns_the_per_edge_hop_test_sweep(monkeypatch):
    # Every _forward_bfs call of both drivers at phi 1.0 returns the whole
    # (dist, preds, least) of the earlier sweep, which tests each edge
    # against t's hop row: the shared first rounds, the bounded later rounds,
    # and the calls whose bounded sweep misses t and sweeps again.
    calls = misses = 0
    real_bfs = psp._forward_bfs

    def checking_bfs(g, s, t, deleted, **kwargs):
        nonlocal calls, misses
        found = real_bfs(g, s, t, deleted, **kwargs)
        goal, bound = kwargs.get("goal"), kwargs.get("bound", 0)
        row = None if goal is None else rows[t]
        assert found == _reference_bounded_sweep(g, s, t, deleted, row, bound)
        calls += 1
        misses += goal is not None and not 0 <= found[0][t] <= bound
        return found

    monkeypatch.setattr(psp, "_forward_bfs", checking_bfs)
    for g in [*_bit_identity_graphs(), top_right_grid(0.99, 0.05), top_right_grid(0.5, 0.3)]:
        rows = _hop_rows(g)
        psp_harmonic_all(g, 1.0)
        psp_betweenness_all(g, 1.0)
    assert calls > 1000 and misses > 100


def test_round_bounds_match_networkx():
    # Per target t: the hop row of networkx (-1 outside t's component); per
    # node, its adjacency filtered to the nodes closer to t (toward) and no
    # farther (within), in adjacency order, and the node's own adjacency
    # tuple when the filter drops nothing; growth 2 exactly when t's
    # component is bipartite. Edges of probability 0 are no edges.
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(2025)
    split = impossible = 0
    for _ in range(20):
        n = int(rng.integers(4, 16))
        g = random_uncertain_graph(rng, n=n, edge_prob=float(rng.uniform(0.1, 0.5)))
        live = nx.Graph()
        live.add_nodes_from(range(n))
        live.add_edges_from(e for e, p in zip(g.edges, g.probs) if p > 0.0)
        split += nx.number_connected_components(live) > 1
        impossible += int(np.sum(g.probs == 0.0))
        for t, goal in enumerate(psp._round_bounds(g)):
            lengths = nx.single_source_shortest_path_length(live, t)
            row = [lengths.get(v, -1) for v in range(n)]
            assert goal.hops == row
            for v, edges in enumerate(g.adj):
                toward = [e for e in edges if row[e[0]] < row[v]]
                within = [e for e in edges if row[e[0]] <= row[v]]
                assert list(goal.toward[v]) == toward and list(goal.within[v]) == within
                assert (goal.toward[v] is edges) == (toward == list(edges))
                assert (goal.within[v] is edges) == (within == list(edges))
            component = live.subgraph(nx.node_connected_component(live, t))
            assert goal.growth == (2 if nx.is_bipartite(component) else 1)
    assert split >= 5 and impossible > 0


def grid(side, probs):
    """side x side grid, edges in row-major order, with the given probabilities."""
    edges = []
    for v in range(side * side):
        if v % side + 1 < side:
            edges.append((v, v + 1))
        if v + side < side * side:
            edges.append((v, v + side))
    return UncertainGraph(side * side, edges, np.broadcast_to(probs, len(edges)))


def seeded_grid(side, seed):
    return grid(side, np.random.default_rng(seed).uniform(0.0, 1.0, 2 * side * (side - 1)))


def test_round_bounds_grow_by_two_in_bipartite_components():
    # A 4-cycle (nodes 0-3) beside a triangle with a tail (nodes 4-7), and an
    # isolated node 8. The chord (1, 3) has probability 0, so it is no edge
    # and leaves the 4-cycle bipartite.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6), (6, 7), (1, 3)]
    g = UncertainGraph(9, edges, [0.5] * 8 + [0.0])
    bounds = psp._round_bounds(g)
    assert [goal.hops for goal in bounds] == _hop_rows(g)
    assert [goal.growth for goal in bounds] == [2, 2, 2, 2, 1, 1, 1, 1, 2]
    assert {goal.growth for goal in psp._round_bounds(seeded_grid(5, 0))} == {2}


@pytest.mark.parametrize("seed", range(4))
def test_bipartite_later_rounds_find_t_within_their_first_bound(seed, monkeypatch):
    # On a grid every s-t path has the parity of the first round, so a later
    # round starts at bound = last length + 2 and, on a 4 x 4 grid, finds t
    # without widening the bound. (On larger grids a round can grow by 4 or
    # more; its sweep then runs once more without the bound.)
    checked = 0
    real_bfs = psp._forward_bfs

    def checking_bfs(g, s, t, deleted, **kwargs):
        nonlocal checked
        dist, preds, least = real_bfs(g, s, t, deleted, **kwargs)
        if kwargs.get("goal") is not None and dist[t] >= 0:
            assert dist[t] <= kwargs["bound"]
            checked += 1
        return dist, preds, least

    monkeypatch.setattr(psp, "_forward_bfs", checking_bfs)
    g = seeded_grid(4, seed)
    psp_harmonic_all(g, 1.0)
    psp_betweenness_all(g, 1.0)
    assert checked > 100


def _count_dag_rounds(monkeypatch):
    """Count the rounds summed over the DAG from here on."""
    built = []
    real = psp._DagRound

    def counting(*args):
        dag = real(*args)
        built.append(dag.survival is not None)
        return dag

    monkeypatch.setattr(psp, "_DagRound", counting)
    return built


def _dense_er_graph():
    """45 nodes at edge density 0.25: 74 of its rounds pass the DP threshold."""
    rng = np.random.default_rng(7)
    g = random_uncertain_graph(rng, n=45, edge_prob=0.25)
    return UncertainGraph(45, list(g.edges), rng.uniform(0.05, 0.95, g.edge_count))


def _rounds_past_threshold(g, pairs):
    """(preds, s, t) of every round of the given pairs, explored until they
    disconnect, that has more than ``_DP_PATHS`` shortest paths."""
    for s, t in pairs:
        for _, preds in psp._rounds(g, s, t):
            try:
                _path_probs(preds, s, t, psp._DP_PATHS)
            except psp._TooManyPaths:
                yield preds, s, t


def test_path_enumeration_gives_up_past_its_limit(detour):
    _, preds, _ = _forward_bfs(detour, 0, 3, frozenset())
    assert len(_path_probs(preds, 0, 3, 2)) == len(_paths_with_inner(preds, 0, 3, 2)) == 2
    for enumerate_paths in (_path_probs, _paths_with_inner):
        with pytest.raises(psp._TooManyPaths):
            enumerate_paths(preds, 0, 3, 1)


# Per round the DAG sums S_1 and prod(1 - p) agree with exact sums over the
# enumerated path probabilities (math.fsum, and log1p summed by math.fsum)
# to this relative tolerance.
DAG_ROUND_RTOL = 1e-13
# When the likeliest path is above 1/2, ln prod(1 - p) agrees with that exact
# sum to this tolerance relative to max(1, |ln prod(1 - p)|), and prod(1 - p)
# to DAG_ROUND_RTOL wherever it is above 1e-12.
DAG_LN_SURVIVAL_RTOL = 1e-14


def _assert_survival_accurate(survival, probs):
    ln = math.fsum(math.log1p(-p) for p in probs)
    if survival < sys.float_info.min:  # underflowed, like the exact product
        assert ln < math.log(sys.float_info.min)
        return
    assert abs(math.log(survival) - ln) <= DAG_LN_SURVIVAL_RTOL * max(1.0, abs(ln))
    if ln > math.log(1e-12):
        assert survival == pytest.approx(math.exp(ln), rel=DAG_ROUND_RTOL, abs=0.0)


def test_dag_round_sums_match_enumeration():
    checked = 0
    for g in [seeded_grid(side, side) for side in (6, 7)] + [_dense_er_graph()]:
        pairs = [(s, t) for s in range(g.node_count) for t in range(s + 1, g.node_count)]
        for preds, s, t in _rounds_past_threshold(g, pairs):
            probs = _path_probs(preds, s, t)
            dag = psp._DagRound(preds, s, t)
            assert dag.s1 == pytest.approx(math.fsum(probs), rel=DAG_ROUND_RTOL, abs=0.0)
            survival = math.exp(math.fsum(math.log1p(-p) for p in probs))
            assert dag.survival == pytest.approx(survival, rel=DAG_ROUND_RTOL, abs=0.0)
            inner = {}
            for p, nodes in _paths_with_inner(preds, s, t):
                for v in nodes:
                    inner.setdefault(v, []).append(p)
            through = dict(dag.inner_sums())
            assert through.keys() == inner.keys()
            for v, ps in inner.items():
                assert through[v] == pytest.approx(math.fsum(ps), rel=DAG_ROUND_RTOL, abs=0.0)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("phi", (0.8, 1.0))
def test_dag_rounds_within_tolerance_of_the_enumeration_reference(phi, monkeypatch):
    # Rounds past the DP threshold are summed in another order than the
    # enumeration reference; the scores must stay within 1e-12 of it.
    built = _count_dag_rounds(monkeypatch)
    for g in [seeded_grid(side, side) for side in (6, 7, 8)] + [_dense_er_graph()]:
        built.clear()
        h = psp_harmonic_all(g, phi).scores
        b = psp_betweenness_all(g, phi).scores
        assert sum(built) > 0
        assert np.max(np.abs(h - _reference_harmonic(g, phi))) <= 1e-12
        assert np.max(np.abs(b - _reference_betweenness(g, phi))) <= 1e-12


def top_right_grid(p_path, p_rest):
    """5 x 5 grid whose top row and right column edges have p_path, and the
    other edges p_rest: corner to corner, 70 shortest paths."""
    top_right = [(u < 5 and v < 5) or (u % 5 == 4 and v % 5 == 4) for u, v in grid(5, 0.5).edges]
    return grid(5, np.where(top_right, p_path, p_rest))


def test_dag_round_with_a_certain_path_leaves_nothing_remaining():
    # Every edge of the path along the top row and down the right column is
    # certain.
    g = top_right_grid(1.0, 0.5)
    _, preds, _ = _forward_bfs(g, 0, 24, frozenset())
    assert len(_path_probs(preds, 0, 24)) == 70
    dag = psp._DagRound(preds, 0, 24)
    assert dag.survival == 0.0
    assert dag.s1 == pytest.approx(math.fsum(_path_probs(preds, 0, 24)), rel=DAG_ROUND_RTOL)
    assert psp._round_mass(preds, 0, 24, 0.5) == (dag.s1, 0.0)


def test_dag_round_lists_paths_above_one_half():
    # Every path of length 8 exists with probability 0.999 ** 8 = 0.992: all
    # 70 are listed and the product of their (1 - p) needs no series. Both
    # drivers' round functions take the DAG's sums.
    g = grid(5, 0.999)
    _, preds, _ = _forward_bfs(g, 0, 24, frozenset())
    probs = _path_probs(preds, 0, 24)
    assert len(probs) > psp._DP_PATHS
    dag = psp._DagRound(preds, 0, 24)
    _assert_survival_accurate(dag.survival, probs)
    assert psp._round_mass(preds, 0, 24, 0.75) == (dag.s1, 0.75 * dag.survival)
    shares = {}
    sigma, after, s1 = psp._add_round_shares(preds, 0, 24, 0.0, 0.75, shares)
    assert (sigma, after, s1) == (0.75 * dag.s1, 0.75 * dag.survival, dag.s1)
    assert shares == {v: 0.75 * through for v, through in dag.inner_sums()}


def test_dag_round_series_bounded_by_the_prefixes_the_walk_stops_at(monkeypatch):
    # The path along the top row and down the right column (p = 0.99) is
    # listed; every other path takes at least two edges at p = 0.05, so the
    # unlisted paths are below 0.003 and the series needs a few terms, not
    # the ~50 of a bound of 1/2.
    g = top_right_grid(0.99, 0.05)
    _, preds, _ = _forward_bfs(g, 0, 24, frozenset())
    probs = _path_probs(preds, 0, 24)
    assert len(probs) > psp._DP_PATHS and max(probs) > 0.5
    terms = []
    real_power_sum = psp._DagRound._power_sum

    def counting(dag, k):
        terms.append(k)
        return real_power_sum(dag, k)

    monkeypatch.setattr(psp._DagRound, "_power_sum", counting)
    _assert_survival_accurate(psp._DagRound(preds, 0, 24).survival, probs)
    assert 0 < len(terms) <= 10


@pytest.mark.parametrize("seed", range(8))
def test_dag_round_series_stops_when_the_unlisted_paths_are_below_rounding(seed, monkeypatch):
    # Every path but the top-right one takes at least two edges at p = 1e-9,
    # so the unlisted paths weigh less than one ulp of the listed one and
    # S_1 less the listed path is rounding noise of either sign. The series
    # must still stop after a few terms.
    on_path = np.random.default_rng(seed).uniform(0.9, 1.0, 40)
    g = top_right_grid(on_path, 1e-9)
    _, preds, _ = _forward_bfs(g, 0, 24, frozenset())
    probs = _path_probs(preds, 0, 24)
    assert len(probs) > psp._DP_PATHS and max(probs) > 0.5
    terms = []
    real_power_sum = psp._DagRound._power_sum

    def counting(dag, k):
        terms.append(k)
        assert len(terms) <= 10
        return real_power_sum(dag, k)

    monkeypatch.setattr(psp._DagRound, "_power_sum", counting)
    _assert_survival_accurate(psp._DagRound(preds, 0, 24).survival, probs)


def _likely_grid(side, lo, seed):
    """side x side grid with p uniform in [lo, 1), about one edge in eight
    reset to a p uniform in [0, 1/2)."""
    rng = np.random.default_rng(seed)
    m = 2 * side * (side - 1)
    probs = rng.uniform(lo, 1.0, m)
    reset = rng.random(m) < 0.125
    probs[reset] = rng.uniform(0.0, 0.5, int(reset.sum()))
    return grid(side, probs)


def test_dag_round_survival_accurate_when_a_path_is_above_one_half():
    # Every round past the DP threshold whose likeliest path is above 1/2,
    # some of whose products underflow.
    checked = underflows = 0
    for lo in (0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
        for side in (6, 7):
            g = _likely_grid(side, lo, side)
            pairs = [(s, t) for s in range(g.node_count) for t in range(s + 1, g.node_count)]
            for preds, s, t in _rounds_past_threshold(g, pairs):
                probs = _path_probs(preds, s, t)
                if max(probs) > 0.5:
                    survival = psp._DagRound(preds, s, t).survival
                    _assert_survival_accurate(survival, probs)
                    checked += 1
                    underflows += survival < sys.float_info.min
    assert checked > 500 and underflows > 0


def test_near_certain_grid_enumerates_no_round_past_the_threshold(monkeypatch):
    # p in [0.995, 1): the likeliest path of most large rounds is close to
    # certain. No round may be listed in full past _DP_PATHS paths.
    g = grid(7, np.random.default_rng(7).uniform(0.995, 1.0, 84))
    built = _count_dag_rounds(monkeypatch)
    largest = []
    for name in ("_path_probs", "_paths_with_inner"):
        real = getattr(psp, name)

        def recording(*args, real=real):
            paths = real(*args)
            largest.append(len(paths))
            return paths

        monkeypatch.setattr(psp, name, recording)
    h = psp_harmonic_all(g, 0.8).scores
    b = psp_betweenness_all(g, 0.8).scores
    assert sum(built) > 0 and max(largest) <= psp._DP_PATHS
    monkeypatch.undo()
    assert np.max(np.abs(h - _reference_harmonic(g, 0.8))) <= 1e-12
    assert np.max(np.abs(b - _reference_betweenness(g, 0.8))) <= 1e-12


def test_dag_shares_match_networkx_betweenness_on_a_certain_grid(monkeypatch):
    # With every p = 1 the first round is the whole story and each node's
    # share is Brandes' sigma_sv sigma_vt / sigma_st. The corner pair of a
    # 7 x 7 grid has 924 shortest paths, so the DAG route runs.
    nx = pytest.importorskip("networkx")
    built = _count_dag_rounds(monkeypatch)
    g = grid(7, 1.0)
    scores = psp_betweenness_all(g, 1.0).scores
    assert sum(built) > 0
    expected = nx.betweenness_centrality(nx.grid_2d_graph(7, 7), normalized=True)
    expected = np.array([expected[divmod(v, 7)] for v in range(49)])
    assert np.max(np.abs(scores - expected)) <= 1e-12


def test_large_grid_round_runs_in_bounded_memory(monkeypatch):
    # The corner pair of a 13 x 13 grid has 2,704,156 shortest paths in its
    # first round; listing them took about 213 MB. Summed over the DAG, the
    # whole call stays under a 1 MB budget.
    built = _count_dag_rounds(monkeypatch)
    g = seeded_grid(13, 2023)
    tracemalloc.start()
    try:
        d = psp_distance_distribution(g, 0, 168, 0.8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built == [True]
    assert peak < 1_000_000
    assert math.fsum(d.mass) + d.mass_inf == pytest.approx(1.0, abs=1e-12)


def test_min_edge_closest_to_target_when_last_edge_minimal():
    g = two_hop(0.9, 0.4)
    rnd = all_shortest_paths_round(g, 0, 2)
    assert rnd.min_edges == [(1, 2)]


def test_min_edge_deep_minimum_retrieved():
    g = two_hop(0.4, 0.9)
    rnd = all_shortest_paths_round(g, 0, 2)
    assert rnd.min_edges == [(0, 1)]


def test_min_edge_tie_prefers_edge_closest_to_target():
    g = two_hop(0.5, 0.5)
    rnd = all_shortest_paths_round(g, 0, 2)
    assert rnd.min_edges == [(1, 2)]


def test_retrieve_min_edges_direct_call(detour):
    _, preds, least = _forward_bfs(detour, 0, 3, frozenset())
    emin = retrieve_min_edges(3, preds, least)
    assert sorted(emin) == [(0, 2), (1, 3)]


def test_every_shortest_path_loses_an_edge():
    rng = np.random.default_rng(42)
    for _ in range(50):
        g = random_uncertain_graph(rng, n=9, edge_prob=0.45)
        s, t = 0, g.node_count - 1
        deleted: set = set()
        prev_len = 0
        for _ in range(g.edge_count + 1):
            rnd = all_shortest_paths_round(g, s, t, deleted)
            if rnd.length == math.inf:
                break
            assert rnd.length > prev_len  # lengths strictly increase
            assert rnd.min_edges
            assert set(rnd.min_edges) - deleted == set(rnd.min_edges)
            prev_len = rnd.length
            deleted.update(rnd.min_edges)
        else:
            pytest.fail("exploration did not terminate")


TIE_PROBS = (0.0, 0.25, 0.5, 1.0)  # few values, so min-edge ties are common


@st.composite
def tied_graph_pairs(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    probs = draw(st.lists(st.sampled_from(TIE_PROBS), min_size=len(edges), max_size=len(edges)))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return UncertainGraph(n, edges, probs), s, t


@settings(max_examples=80, deadline=None)
@given(tied_graph_pairs())
def test_every_round_cuts_every_shortest_path_hypothesis(case):
    """Each shortest path of a round, listed by networkx over the graph minus
    the edges deleted so far, holds one of the round's min edges."""
    nx = pytest.importorskip("networkx")
    g, s, t = case
    deleted: set = set()
    for _ in range(g.edge_count + 1):
        rnd = all_shortest_paths_round(g, s, t, deleted)
        live = nx.Graph()
        live.add_nodes_from(range(g.node_count))
        live.add_edges_from(
            (u, v) for u in range(g.node_count) for v, _, e in g.adj[u] if e not in deleted
        )
        if rnd.length == math.inf:
            assert not nx.has_path(live, s, t)
            return
        cut = set(rnd.min_edges)
        paths = list(nx.all_shortest_paths(live, s, t))
        assert len(paths[0]) - 1 == rnd.length
        for path in paths:
            assert cut & {(min(e), max(e)) for e in zip(path, path[1:])}, path
        deleted |= cut
    pytest.fail("exploration did not terminate")


def test_all_nodes_drivers_explore_each_pair_from_its_lower_label():
    """psp_harmonic_all runs each pair s < t from s; the other orientation
    gives other scores, so PSP scores depend on node labels."""
    g = UncertainGraph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)],
                       [0.09, 0.42, 0.66, 0.86, 0.9, 0.39])
    phi = 0.8

    def scores_from_pairs(orient):
        scores = np.zeros(g.node_count)
        for s in range(g.node_count):
            for t in range(s + 1, g.node_count):
                d = psp_distance_er(g, *orient(s, t), phi)
                if d != math.inf:
                    scores[[s, t]] += 1.0 / d
        return scores / (g.node_count - 1)

    all_nodes = psp_harmonic_all(g, phi, 1).scores
    assert np.max(np.abs(all_nodes - scores_from_pairs(lambda s, t: (s, t)))) <= 1e-12
    assert np.max(np.abs(all_nodes - scores_from_pairs(lambda s, t: (t, s)))) > 1e-3


# --- estimated distributions ----------------------------------------------


def test_distribution_parallel_capped(parallel_graph):
    d = psp_distance_distribution(parallel_graph, 0, 3, 1.0)
    assert d.mass[2] == 1.0
    assert d.mass[1] == d.mass[3] == 0.0
    assert d.mass_inf == 0.0


def test_distribution_detour_capped(detour):
    d = psp_distance_distribution(detour, 0, 3, 1.0)
    assert d.mass[2] == pytest.approx(0.95, abs=1e-12)
    assert d.mass[3] == pytest.approx(0.05, abs=1e-12)
    assert d.mass_inf == 0.0


def test_distribution_deterministic_unit_mass():
    g = UncertainGraph(4, [(0, 1), (1, 2), (2, 3)], [1.0] * 3)
    for phi in (0.1, 0.8, 1.0):
        d = psp_distance_distribution(g, 0, 3, phi)
        assert d.mass[3] == 1.0 and d.mass_inf == 0.0


def test_distribution_phi_zero_all_mass_inf(detour):
    d = psp_distance_distribution(detour, 0, 3, 0.0)
    assert d.mass_inf == 1.0
    assert not d.mass.any()


def test_distribution_validation(detour):
    with pytest.raises(ValueError):
        psp_distance_distribution(detour, 2, 2, 0.5)
    with pytest.raises(ValueError):
        psp_distance_distribution(detour, 0, 3, 1.5)
    for phi in (1.5, -0.5):
        with pytest.raises(ValueError, match=r"phi must lie in \[0, 1\]"):
            psp_distance_er(detour, 0, 3, phi)


@pytest.mark.parametrize("s,t", [(0, 9), (-1, 3), (4, 0), (0.0, 3)])
def test_single_pair_api_rejects_node_ids_outside_the_graph(detour, s, t):
    calls = (
        lambda: psp_distance_distribution(detour, s, t, 0.8),
        lambda: psp_distance_er(detour, s, t, 0.8),
        lambda: all_shortest_paths_round(detour, s, t),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"is not an integer in 0\.\.3"):
            call()


def test_distribution_normalized_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = random_uncertain_graph(rng, n=9, edge_prob=0.4)
        phi = float(rng.choice([0.2, 0.5, 0.8, 1.0]))
        d = psp_distance_distribution(g, 0, g.node_count - 1, phi)
        d.validate(tol=1e-9)


def test_rounds_monotone_in_phi():
    rng = np.random.default_rng(21)
    for _ in range(30):
        g = random_uncertain_graph(rng, n=8, edge_prob=0.45)
        counts = [
            np.count_nonzero(psp_distance_distribution(g, 0, 7, phi).mass)
            for phi in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        ]
        assert counts == sorted(counts)


def test_distance_er_worked_examples(parallel_graph, detour):
    assert psp_distance_er(parallel_graph, 0, 3, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert psp_distance_er(detour, 0, 3, 0.8) == pytest.approx(2.05, abs=1e-9)
    assert psp_distance_er(detour, 0, 3, 1.0) == pytest.approx(2.05, abs=1e-9)


def test_distance_er_disconnected():
    g = UncertainGraph(3, [(0, 1)], [0.5])
    assert psp_distance_er(g, 0, 2, 0.8) == math.inf


def test_median_and_majority_apply_to_estimated_distributions(detour):
    from psp_centrality import distance_majority, distance_median

    est = psp_distance_distribution(detour, 0, 3, 1.0)  # mass 0.95 at 2, 0.05 at 3
    assert distance_majority(est) == 2
    assert distance_median(est) == 1  # cumulative mass exceeds 1/2 already at 2


# --- all-nodes drivers ------------------------------------------------------


def test_harmonic_two_node_half_probability():
    g = UncertainGraph(2, [(0, 1)], [0.5])
    scores = psp_harmonic_all(g, 0.8).scores
    assert np.allclose(scores, [1.0, 1.0], atol=1e-15)


def test_harmonic_star_closed_forms():
    g = star_graph(5)
    scores = psp_harmonic_all(g, 0.8).scores
    assert scores[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(scores[1:], 0.625, atol=1e-12)


def test_betweenness_star_and_triangle(star5):
    scores = psp_betweenness_all(star5, 0.8).scores
    assert scores[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(scores[1:], 0.0)
    tri = UncertainGraph(3, [(0, 1), (1, 2), (0, 2)], [1.0] * 3)
    assert np.allclose(psp_betweenness_all(tri, 0.8).scores, 0.0)


def test_deterministic_reduction_any_phi():
    rng = np.random.default_rng(5)
    for phi in (0.05, 0.8, 1.0):
        g = random_deterministic_graph(rng, n=14, edge_prob=0.25)
        w = full_world(g)
        assert np.allclose(
            psp_harmonic_all(g, phi).scores, harmonic_closeness(w).scores, atol=1e-9
        )
        assert np.allclose(
            psp_betweenness_all(g, phi).scores, betweenness_brandes(w).scores, atol=1e-9
        )


def _assert_rows_equal_both_drivers(g, phi, rows):
    """Every ``PhiScores`` row equals psp_harmonic_all and psp_betweenness_all
    at phi bit for bit."""
    harmonic, betweenness = psp_harmonic_all(g, phi), psp_betweenness_all(g, phi)
    for h, b, _ in rows:
        assert h.scores.tobytes() == harmonic.scores.tobytes()
        assert b.scores.tobytes() == betweenness.scores.tobytes()
        assert (h.method, h.params) == ("psp-harmonic", {"phi": phi})
        assert (b.method, b.params) == ("psp-betweenness", {"phi": phi})


def _round_work(monkeypatch, driver, g, phi):
    """(_forward_bfs calls, retrieve_min_edges calls) of one driver call."""
    counts = Counter()
    real_bfs, real_min_edges = psp._forward_bfs, psp.retrieve_min_edges

    def counting_bfs(*args, **kwargs):
        counts["bfs"] += 1
        return real_bfs(*args, **kwargs)

    def counting_min_edges(*args):
        counts["min_edges"] += 1
        return real_min_edges(*args)

    with monkeypatch.context() as patch:
        patch.setattr(psp, "_forward_bfs", counting_bfs)
        patch.setattr(psp, "retrieve_min_edges", counting_min_edges)
        driver(g, phi)
    return counts["bfs"], counts["min_edges"]


def _rounds_with_shares(monkeypatch, g, phi):
    """Rounds of psp_betweenness_all(g, phi), counted by their share sums."""
    calls = []
    real = psp._add_round_shares

    def counting(*args):
        calls.append(None)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(psp, "_add_round_shares", counting)
        psp_betweenness_all(g, phi)
    return len(calls)


def test_joint_pass_does_the_betweenness_work_alone(monkeypatch):
    # Same BFS and min-edge calls as psp_betweenness_all at the same phi:
    # the harmonic rounds are a prefix of the betweenness rounds. The grid
    # pass does the work of psp_betweenness_all at its largest phi alone.
    capped = 0
    grid = (0.3, 0.8, 1.0)

    def one_phi_pass(g, phi):
        psp_harmonic_betweenness_grid(g, (phi,))

    for seed in range(6):
        g = generate(GenSpec(model="er", n=30, p=0.15, prob_dist="uniform01", seed=seed))
        for phi in grid:
            joint = _round_work(monkeypatch, one_phi_pass, g, phi)
            assert joint == _round_work(monkeypatch, psp_betweenness_all, g, phi)
            assert min(joint) > 0
            capped += _round_work(monkeypatch, psp_harmonic_all, g, phi)[0] < joint[0]
        rows = []

        def grid_pass(g, phis):
            rows.extend(psp_harmonic_betweenness_grid(g, phis))

        work = _round_work(monkeypatch, grid_pass, g, grid)
        assert work == _round_work(monkeypatch, psp_betweenness_all, g, max(grid))
        # Each phi counts the rounds a pass at that phi alone runs, which
        # add their shares once each.
        rounds = [row.rounds for row in rows]
        assert rounds == [_rounds_with_shares(monkeypatch, g, phi) for phi in grid]
        assert 0 < rounds[0] <= rounds[1] <= rounds[2]
    assert capped > 0


GRID = (0.5, 0.0, 0.3, 1.0, 0.8, 0.3)  # unsorted, a duplicate, both ends


def _assert_grid_equals_the_drivers(g, workers):
    """Each row of a pass over GRID, and a one-phi pass at each of its phi
    values, equals the two single-measure drivers at that phi."""
    rows = psp_harmonic_betweenness_grid(g, GRID, workers)
    assert len(rows) == len(GRID)
    for phi, row in zip(GRID, rows):
        [alone] = psp_harmonic_betweenness_grid(g, (phi,), workers)
        _assert_rows_equal_both_drivers(g, phi, (row, alone))


@pytest.mark.parametrize("workers", (1, 2))
def test_grid_pass_equals_a_pass_per_phi_bit_for_bit(workers, monkeypatch):
    # Every phi of the grid stops each pair where a pass at that phi alone
    # stops. The harmonic estimate stops at phi or at the capping rule; the
    # pass keeps exploring a capped pair for betweenness alone. Pairs stop on
    # the cap wherever the harmonic driver runs fewer BFS sweeps, at 0.8 and
    # at 1.0.
    capped = Counter()
    for g in _bit_identity_graphs():
        _assert_grid_equals_the_drivers(g, workers)
        for phi in (0.8, 1.0):
            harmonic = _round_work(monkeypatch, psp_harmonic_all, g, phi)[0]
            capped[phi] += harmonic < _round_work(monkeypatch, psp_betweenness_all, g, phi)[0]
    assert capped[0.8] > 0 and capped[1.0] > 0
    # The corner pair of this grid has 70 shortest paths, summed over the DAG
    # at every positive phi (counted in this process: by the drivers, and by
    # the passes when they run serially).
    dag_grid = top_right_grid(0.99, 0.05)
    built = _count_dag_rounds(monkeypatch)
    rows = psp_harmonic_betweenness_grid(dag_grid, GRID, workers)
    for phi, row in zip(GRID, rows):
        built.clear()
        [alone] = psp_harmonic_betweenness_grid(dag_grid, (phi,), workers)
        _assert_rows_equal_both_drivers(dag_grid, phi, (row, alone))
        assert sum(built) > 0 or phi == 0.0


def test_grid_pass_checks_every_phi_before_any_work(detour, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(psp, "_round_bounds", refuse)
    monkeypatch.setattr(psp, "_forward_bfs", refuse)
    for grid in ((0.5, 1.5), (-0.1, 0.3), (0.2, 0.8, float("nan"))):
        with pytest.raises(ValueError, match=r"phi must lie in \[0, 1\]"):
            psp_harmonic_betweenness_grid(detour, grid)
    assert psp_harmonic_betweenness_grid(detour, ()) == []
    assert [row.rounds for row in psp_harmonic_betweenness_grid(detour, (0.0, 0.0))] == [0, 0]


@st.composite
def graphs_with_isolated_nodes(draw):
    """Up to 10 connected-candidate nodes plus 1-3 isolated ones, labels
    shuffled; likely edges make parallel paths trip the capping rule."""
    n = draw(st.integers(min_value=3, max_value=10))
    isolated = draw(st.integers(min_value=1, max_value=3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    probs = draw(
        st.lists(
            st.sampled_from((0.3, 0.5, 0.9, 0.99, 1.0)),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    label = draw(st.permutations(range(n + isolated)))
    return UncertainGraph(n + isolated, [(label[u], label[v]) for u, v in edges], probs)


@settings(max_examples=60, deadline=None)
@given(graphs_with_isolated_nodes(), st.sampled_from((0.0, 0.3, 0.8, 1.0)))
def test_joint_pass_equals_both_drivers_hypothesis(g, phi):
    _assert_rows_equal_both_drivers(g, phi, psp_harmonic_betweenness_grid(g, (phi,)))


def test_phi_zero_scores_are_zero(detour):
    assert not psp_harmonic_all(detour, 0.0).scores.any()
    assert not psp_betweenness_all(detour, 0.0).scores.any()


def test_worker_count_does_not_change_output():
    rng = np.random.default_rng(9)
    g = random_uncertain_graph(rng, n=12, edge_prob=0.35)
    h1 = psp_harmonic_all(g, 0.8, workers=1).scores
    h4 = psp_harmonic_all(g, 0.8, workers=4).scores
    assert np.array_equal(h1, h4)
    b1 = psp_betweenness_all(g, 0.8, workers=1).scores
    b4 = psp_betweenness_all(g, 0.8, workers=4).scores
    assert np.array_equal(b1, b4)


@pytest.mark.parametrize("phi", (0.8, 0.0))
@pytest.mark.parametrize("driver", (psp_harmonic_all, psp_betweenness_all))
def test_all_nodes_drivers_reject_fewer_than_one_worker(detour, driver, phi):
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            driver(detour, phi, workers=workers)


def test_all_nodes_preconditions(detour):
    one = UncertainGraph(1, [], [])
    with pytest.raises(ValueError):
        psp_harmonic_all(one, 0.8)
    two = UncertainGraph(2, [(0, 1)], [0.5])
    with pytest.raises(ValueError):
        psp_betweenness_all(two, 0.8)
    with pytest.raises(ValueError):
        psp_harmonic_all(detour, -0.2)


def test_scores_within_unit_interval():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_uncertain_graph(rng, n=9, edge_prob=0.5)
        h = psp_harmonic_all(g, 0.8).scores
        b = psp_betweenness_all(g, 0.8).scores
        assert np.all((0.0 <= h) & (h <= 1.0))
        assert np.all((0.0 <= b) & (b <= 1.0 + 1e-12))


def test_edge_order_and_endpoint_order_do_not_change_scores():
    # With all edge probabilities distinct no tie rule fires, so the input
    # order of the edges (which fixes adjacency order) may only reorder the
    # floating-point sums. Node labels stay: pairs are oriented by label.
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(5, 12))
        g = random_uncertain_graph(rng, n=n, edge_prob=float(rng.uniform(0.25, 0.6)))
        probs = rng.uniform(0.01, 0.99, g.edge_count)
        assert len(set(probs)) == g.edge_count
        g = UncertainGraph(n, list(g.edges), probs)
        order = rng.permutation(g.edge_count)
        shuffled = UncertainGraph(n, [g.edges[i][::-1] for i in order], probs[order])
        for phi in (0.3, 0.8, 1.0):
            for driver in (psp_harmonic_all, psp_betweenness_all):
                a = driver(g, phi).scores
                b = driver(shuffled, phi).scores
                assert np.max(np.abs(a - b)) <= 1e-12


PHI_GRID = (0.0, 0.2, 0.5, 0.8, 0.95, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_phi_st_never_decreases_with_phi(seed):
    rng = np.random.default_rng(seed)
    g = random_uncertain_graph(rng, n=int(rng.integers(2, 9)), edge_prob=0.45)
    t = g.node_count - 1
    phi_st = [1.0 - psp_distance_distribution(g, 0, t, phi).mass_inf for phi in PHI_GRID]
    assert all(a <= b for a, b in zip(phi_st, phi_st[1:])), phi_st


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PHI_GRID))
def test_scores_within_unit_interval_hypothesis(seed, phi):
    rng = np.random.default_rng(seed)
    g = random_uncertain_graph(rng, n=int(rng.integers(3, 10)), edge_prob=0.45)
    h = psp_harmonic_all(g, phi).scores
    b = psp_betweenness_all(g, phi).scores
    assert np.all((0.0 <= h) & (h <= 1.0))
    assert np.all((0.0 <= b) & (b <= 1.0 + 1e-12))
