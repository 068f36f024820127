"""Host-speed reference used to normalise the benchmark's times.

The machine the benchmark runs on is shared, and its speed drifts by up to
1.5x over minutes. Recorded side by side, a pure-Python BFS plus a numpy
matmul loop slowed down with the PSP and MC code to within a few percent
(10 s buckets: PSP / reference stayed within 0.92-1.03 while PSP alone moved
0.90-1.53). So each PSP call is bracketed by reference samples, and a sweep pass, whose
two worker processes keep both CPUs busy for many seconds, is sampled
throughout by a Sampler child process that times the reference in CPU seconds
(which leave out waiting for a CPU). The benchmark reports

    normalised seconds = raw seconds * REFERENCE_S / measured reference seconds,

the time the call would take on a host where one reference sample takes
REFERENCE_S. The reference uses only the standard library and numpy, never
psp_centrality, so no change to the library can move it.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import time
from collections import deque

import numpy as np

# Median time of one reference sample on the 2-vCPU machine the bounds in
# BENCHMARK.json were set on. Only a scale: changing it rescales every time.
REFERENCE_S = 0.08

_REPS = 3
_NODES = 2000


def _fixed_graph():
    rng = random.Random(0)
    adj = [[] for _ in range(_NODES)]
    for _ in range(3 * _NODES):
        u, v = rng.randrange(_NODES), rng.randrange(_NODES)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


_ADJ = _fixed_graph()
_A = (np.random.default_rng(0).random((100, 100)) < 0.03).astype(np.float64)
_A = np.maximum(_A, _A.T)
np.fill_diagonal(_A, 0.0)


def _unit() -> None:
    """BFS from 30 sources over a fixed 2,000-node graph, then 300 boolean
    matrix products of a fixed 100 x 100 adjacency."""
    adj = _ADJ
    for s in range(30):
        dist = [-1] * _NODES
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    queue.append(v)
    x = np.eye(100)
    for _ in range(300):
        x = (x @ _A > 0.0).astype(np.float64)


def reference_seconds() -> float:
    """Wall time of one reference sample (a few units back to back)."""
    start = time.perf_counter()
    for _ in range(_REPS):
        _unit()
    return time.perf_counter() - start


def _sample_loop(interval: float) -> None:
    """Child side of Sampler: sample every ``interval`` seconds until stdin
    is closed (or the parent dies), then print the samples as JSON."""
    samples = []
    while True:
        start = time.process_time()
        _unit()
        samples.append(_REPS * (time.process_time() - start))
        readable, _, _ = select.select([sys.stdin], [], [], interval)
        if readable:
            break
    print(json.dumps(samples), flush=True)


class Sampler:
    """Takes a reference sample every ``interval`` seconds in a child process
    for as long as the ``with`` block runs; ``speed`` is then REFERENCE_S
    over their mean. The child costs about 3% of one CPU.

    The child is a plain subprocess told to stop by closing its stdin, and it
    is always waited for, so no process outlives the block. It also stops by
    itself if this process dies, since its stdin then closes.
    """

    def __init__(self, interval: float = 1.0):
        self._interval = interval
        self._proc = None
        self.speed = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--sample-every", repr(self._interval)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, exc_type, *exc):
        proc = self._proc
        try:
            out, _ = proc.communicate(input="", timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if exc_type is None:
            samples = json.loads(out)
            self.speed = REFERENCE_S * len(samples) / sum(samples)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--sample-every"] or len(sys.argv) != 3:
        sys.exit("usage: calibrate.py --sample-every SECONDS")
    _sample_loop(float(sys.argv[2]))
