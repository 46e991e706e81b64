import multiprocessing

import pytest


@pytest.fixture
def pool_forks(monkeypatch):
    """The `processes` of every `multiprocessing.Pool` forked during the test.

    The pools are kept referenced until the test ends, so that their
    workers end only when the code under test closes or terminates them,
    not when garbage collection finalizes a dropped pool.
    """
    forks, pools = [], []
    real = multiprocessing.Pool

    def counting(*args, **kwargs):
        forks.append(kwargs.get("processes"))
        pools.append(real(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    yield forks
    for pool in pools:
        pool.terminate()
