"""Property tests: the windowed, stacked step against one-map steps.

Bounded example counts and deadlines keep the tier-1 run short.
"""

import math

import numpy as np
import pytest

from dqwalk import (
    DerivativePair,
    StepContext,
    WalkerState,
    generate_map,
    new_walker_state,
    qfi_pure,
    step_with_derivative,
)
from dqwalk.disorder import MapStack
from dqwalk.operators import OPERATOR_ORDERS
from dqwalk.states import light_cone

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=40, deadline=2000)
@given(
    kind=st.sampled_from(["none", "static", "dynamic"]),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    n_maps=st.integers(1, 4),
    n_steps=st.integers(1, 14),
    position=st.integers(-4, 4),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(-math.pi, math.pi),
    order=st.sampled_from(OPERATOR_ORDERS),
)
def test_windowed_stacked_steps_equal_one_map_steps(
        kind, p, seed, n_maps, n_steps, position, theta, phi, order):
    # stacked steps on light-cone windows of (coin, site, walker) buffers,
    # as the ensembles run them, against full-width one-map steps: every
    # amplitude and every QFI value agrees bit for bit
    if kind == "none":
        p = 0.0
    t_max = abs(position) + n_steps
    width = 2 * t_max + 1
    coin = (math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2))
    pmaps = [generate_map(kind, n_steps, p, seed=seed + b) for b in range(n_maps)]
    table = np.zeros((n_steps, width, n_maps), dtype=bool)
    pad = t_max - n_steps
    for b, pmap in enumerate(pmaps):
        table[:, pad:pad + 2 * n_steps + 1, b] = pmap.pi_mask
    stack = MapStack(table.transpose(2, 0, 1))

    def walkers(psi=None):
        cells = np.zeros((2, width, n_maps), dtype=complex)
        if psi is not None:
            cells[...] = psi.amplitudes.T[..., None]
        return WalkerState(t_max, cells.transpose(2, 1, 0)[:, None])

    start = new_walker_state(t_max, position, coin)
    cur = DerivativePair(walkers(start), walkers())
    nxt = DerivativePair(walkers(), walkers())
    singles = [DerivativePair.initial(start) for _ in pmaps]
    for t in range(1, n_steps + 1):
        h = light_cone(abs(position), t)
        step_with_derivative(cur.window(h), StepContext(phi, t, stack, order),
                             out=nxt.window(h))
        cur, nxt = nxt, cur
        singles = [step_with_derivative(pair, StepContext(phi, t, pmap, order))
                   for pair, pmap in zip(singles, pmaps)]
        values = qfi_pure(cur.window(h))
        for b, pair in enumerate(singles):
            assert np.array_equal(cur.psi.amplitudes[b, 0], pair.psi.amplitudes)
            assert np.array_equal(cur.dpsi.amplitudes[b, 0], pair.dpsi.amplitudes)
            assert values[b, 0] == qfi_pure(pair)
