import dqwalk  # noqa: F401  first: numpy loads with the BLAS threads a command gets

import multiprocessing

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property and oracle tests skip themselves
    pass
else:
    # CI's tier-1 step runs --hypothesis-profile=ci: ten times hypothesis's
    # default 100 cases for every test whose @settings leave max_examples
    # to the profile, the dense-matrix oracle's
    settings.register_profile("ci", max_examples=1000, deadline=None)


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


@pytest.fixture
def long_walks(monkeypatch):
    """Count every walk as long (`ensemble.POOL_MIN_CELLS` = 0), so that
    an ensemble of at most CALL_BLOCKS blocks is shared out over the
    workers as a larger one is, instead of running in-process."""
    from dqwalk import ensemble

    monkeypatch.setattr(ensemble, "POOL_MIN_CELLS", 0)
