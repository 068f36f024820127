import os

from psp_centrality import _parallel


def test_pool_forks_at_most_one_worker_per_task(tmp_path, monkeypatch):
    # Each forked worker runs the pool's initializer once; it leaves a file
    # named by its pid.
    real_set_worker_fn = _parallel._set_worker_fn

    def marking(fn):
        (tmp_path / str(os.getpid())).touch()
        real_set_worker_fn(fn)

    monkeypatch.setattr(_parallel, "_set_worker_fn", marking)
    assert _parallel.run_ordered(abs, [-1, -2], 4) == [1, 2]
    assert 1 <= len(list(tmp_path.iterdir())) <= 2
