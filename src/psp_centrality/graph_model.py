"""Uncertain graph data structure, validation, and edge-list file I/O.

An uncertain graph is an undirected simple graph whose edges exist
independently with a given probability each. Nodes are dense integers
``0 .. node_count-1``.

File format (plain text):

    # nodes 4          <- optional header overriding the node count
    0 1 1.0            <- one "u v p" line per edge
    2 3 0.9            <- '#' starts a comment anywhere on a line

Probabilities are serialized with full round-trip fidelity, so
``load_graph(save_graph(g))`` reproduces the exact same floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EdgeListParseError(ValueError):
    """Raised when an edge-list file violates the format contract."""


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Canonical key of an undirected edge: endpoints in ascending order."""
    return (u, v) if u < v else (v, u)


class UncertainGraph:
    """Immutable uncertain graph with per-edge existence probabilities.

    Attributes
    ----------
    node_count : int
    edges : tuple of canonical ``(u, v)`` pairs, in input order
    probs : float64 array aligned with ``edges``
    adj : per-node list of ``(neighbor, prob, edge_key)`` triples; edges
        with probability 0 are excluded from adjacency (they can never be
        present) but are kept in ``edges`` for bookkeeping.

    Instances are immutable after construction and safe to share between
    threads and worker processes.
    """

    __slots__ = (
        "node_count",
        "edges",
        "probs",
        "adj",
        "edge_u",
        "edge_v",
        "certain_mask",
        "uncertain_idx",
    )

    def __init__(self, node_count, edges, probs):
        node_count = int(node_count)
        if node_count < 0:
            raise ValueError("node_count must be >= 0")
        canon = []
        probs = np.array(list(probs), dtype=np.float64)
        edges = list(edges)
        if len(edges) != len(probs):
            raise ValueError("edges and probs must have equal length")
        seen = set()
        for (u, v), p in zip(edges, probs):
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) not allowed")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u}, {v}) outside node range 0..{node_count - 1}")
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"edge ({u}, {v}) has probability {p} outside [0, 1]")
            e = canonical_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)

        self.node_count = node_count
        self.edges = tuple(canon)
        probs.setflags(write=False)
        self.probs = probs
        adj = [[] for _ in range(node_count)]
        for e, p in zip(canon, probs):
            if p == 0.0:
                continue
            u, v = e
            adj[u].append((v, float(p), e))
            adj[v].append((u, float(p), e))
        self.adj = tuple(tuple(lst) for lst in adj)
        self.edge_u = np.array([e[0] for e in canon], dtype=np.intp)
        self.edge_v = np.array([e[1] for e in canon], dtype=np.intp)
        self.certain_mask = probs == 1.0
        self.certain_mask.setflags(write=False)
        self.uncertain_idx = np.flatnonzero((probs > 0.0) & (probs < 1.0))
        self.uncertain_idx.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def uncertain_edge_count(self) -> int:
        """Number of edges with probability strictly between 0 and 1."""
        return len(self.uncertain_idx)

    def full_mask(self, uncertain_included) -> np.ndarray:
        """Presence mask over all edges given inclusion flags for the uncertain ones."""
        mask = self.certain_mask.copy()
        mask[self.uncertain_idx] = uncertain_included
        return mask

    def neighbor_lists(self, mask) -> list[list[int]]:
        """Neighbours of every node over the edges that ``mask`` flags present."""
        adj = [[] for _ in range(self.node_count)]
        for i in np.flatnonzero(mask):
            u, v = self.edges[i]
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def adjacency_matrix(self, mask) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix of the edges ``mask`` flags present."""
        n = self.node_count
        a = np.zeros((n, n))
        u = self.edge_u[mask]
        v = self.edge_v[mask]
        a[u, v] = 1.0
        a[v, u] = 1.0
        return a

    def __eq__(self, other):
        if not isinstance(other, UncertainGraph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.edges == other.edges
            and np.array_equal(self.probs, other.probs)
        )

    def __hash__(self):
        return hash((self.node_count, self.edges, self.probs.tobytes()))

    def __repr__(self):
        return (
            f"UncertainGraph(n={self.node_count}, edges={self.edge_count}, "
            f"uncertain={self.uncertain_edge_count})"
        )


@dataclass(frozen=True, eq=False)
class PossibleWorld:
    """One deterministic instance of an uncertain graph.

    ``mask`` flags, per parent edge, whether the edge is present. Edges with
    probability 1 are always present and edges with probability 0 never are.
    """

    parent: UncertainGraph
    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.parent.edge_count,):
            raise ValueError("mask length must match the parent edge count")
        probs = self.parent.probs
        if np.any(~mask & (probs == 1.0)):
            raise ValueError("edges with probability 1 must be present in every world")
        if np.any(mask & (probs == 0.0)):
            raise ValueError("edges with probability 0 cannot be present in any world")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_present_edges(cls, parent: UncertainGraph, present) -> "PossibleWorld":
        index = {e: i for i, e in enumerate(parent.edges)}
        mask = np.zeros(parent.edge_count, dtype=bool)
        for u, v in present:
            e = canonical_edge(int(u), int(v))
            if e not in index:
                raise ValueError(f"{e} is not an edge of the parent graph")
            mask[index[e]] = True
        return cls(parent, mask)

    def neighbor_lists(self) -> list[list[int]]:
        return self.parent.neighbor_lists(self.mask)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix of the present edges."""
        return self.parent.adjacency_matrix(self.mask)


def world_probability(g: UncertainGraph, w: PossibleWorld) -> float:
    """Probability of sampling exactly this world from g.

    Product of p over present edges times (1 - p) over absent edges.
    """
    if w.parent is not g and w.parent != g:
        raise ValueError("world does not belong to this graph")
    return float(np.prod(np.where(w.mask, g.probs, 1.0 - g.probs)))


def load_graph(path) -> UncertainGraph:
    """Parse an edge-list file. Raises EdgeListParseError naming the bad line."""
    header_nodes = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if stripped.startswith("#"):
                tokens = stripped[1:].split()
                if len(tokens) == 2 and tokens[0] == "nodes":
                    if header_nodes is not None:
                        raise EdgeListParseError(f"line {lineno}: duplicate node-count header")
                    try:
                        header_nodes = int(tokens[1])
                    except ValueError:
                        raise EdgeListParseError(f"line {lineno}: bad node count {tokens[1]!r}") from None
                    if header_nodes < 0:
                        raise EdgeListParseError(f"line {lineno}: negative node count {header_nodes}")
                continue
            text = stripped.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 3:
                raise EdgeListParseError(f"line {lineno}: expected 'u v p', got {text!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                p = float(parts[2])
            except ValueError:
                raise EdgeListParseError(f"line {lineno}: expected 'u v p', got {text!r}") from None
            if u < 0 or v < 0:
                raise EdgeListParseError(f"line {lineno}: negative node id")
            if u == v:
                raise EdgeListParseError(f"line {lineno}: loop edge ({u}, {v})")
            if not (0.0 <= p <= 1.0):
                raise EdgeListParseError(f"line {lineno}: probability {p} outside [0, 1]")
            rows.append((lineno, u, v, p))

    seen = {}
    for lineno, u, v, _ in rows:
        e = canonical_edge(u, v)
        if e in seen:
            raise EdgeListParseError(f"line {lineno}: duplicate edge {e} (first at line {seen[e]})")
        seen[e] = lineno

    max_node = max((max(u, v) for _, u, v, _ in rows), default=-1)
    node_count = header_nodes if header_nodes is not None else max_node + 1
    if max_node >= node_count:
        bad = next(lineno for lineno, u, v, _ in rows if max(u, v) >= node_count)
        raise EdgeListParseError(f"line {bad}: node id exceeds declared node count {node_count}")
    return UncertainGraph(node_count, [(u, v) for _, u, v, _ in rows], [p for *_, p in rows])


def save_graph(g: UncertainGraph, path) -> None:
    """Write g in the edge-list format; probabilities round-trip bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes {g.node_count}\n")
        for (u, v), p in zip(g.edges, g.probs):
            fh.write(f"{u} {v} {float(p)!r}\n")
