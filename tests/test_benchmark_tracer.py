"""The benchmark's outside tracer still fits the library.

``perfbench/layers.py`` wraps private names of ``psp_centrality`` by
replacing module attributes; installing it fails if one of them is gone.
``python3 -m pytest perfbench`` checks the whole benchmark; this test keeps
the tracer's fit in the library's own suite.
"""

import os

from psp_centrality import UncertainGraph, psp

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_restores_and_counts_the_known_answer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import measure

    real = psp._forward_bfs
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert psp._forward_bfs is not real
    finally:
        tracer.restore()
    assert psp._forward_bfs is real
    assert measure.known_answer_problem() is None


def test_tracer_times_every_betweenness_source_task(monkeypatch):
    # The grid pass and psp_betweenness_all run one betweenness source task
    # per source s < n - 1; the tracer times each by wrapping that name.
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers

    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
    g = UncertainGraph(5, edges, [0.9, 0.5, 0.7, 0.6, 0.3, 0.8])
    name = "psp._betweenness_source_task"
    tracer = layers.Tracer()
    try:
        tracer.install()
        psp.psp_harmonic_betweenness_grid(g, (0.3, 0.8))
        assert tracer.calls[name] == g.node_count - 1
        psp.psp_betweenness_all(g, 0.8)
        assert tracer.calls[name] == 2 * (g.node_count - 1)
    finally:
        tracer.restore()
