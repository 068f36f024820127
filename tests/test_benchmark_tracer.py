"""The benchmark's outside tracer still fits the library.

``perfbench/layers.py`` wraps private names of ``psp_centrality`` by
replacing module attributes; installing it fails if one of them is gone.
``python3 -m pytest perfbench`` checks the whole benchmark; this test keeps
the tracer's fit in the library's own suite.
"""

import os

from psp_centrality import psp

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
