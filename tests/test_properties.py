"""Property tests: the windowed, stacked step and the two-walker tensor step
against one-map steps.

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
    new_two_particle_state,
    new_walker_state,
    qfi_pure,
    step_with_derivative,
    two_particle_step_with_derivative,
)
from dqwalk.disorder import MapStack
from dqwalk.operators import OPERATOR_ORDERS
from dqwalk.states import INV_SQRT2, TWO_PARTICLE_KINDS, light_cone

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


@settings(max_examples=40, deadline=2000)
@given(
    kind=st.sampled_from(["none", "static", "dynamic"]),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    n_steps=st.integers(1, 8),
    position=st.integers(-2, 2),
    phi=st.floats(-math.pi, math.pi),
    order=st.sampled_from(OPERATOR_ORDERS),
    statistics=st.sampled_from(TWO_PARTICLE_KINDS),
)
def test_tensor_steps_equal_product_of_one_walker_steps(
        kind, p, seed, n_steps, position, phi, order, statistics):
    # the (W, 2, W, 2) tensor step, built on the stacked step, against the
    # product form of two composed one-map walkers a = |x,up>, b = |x,down>:
    # (a(x)b + s b(x)a)/sqrt2 and its derivative, s = 0 and no 1/sqrt2 for
    # separable input
    if kind == "none":
        p = 0.0
    t_max = abs(position) + n_steps
    pmap = generate_map(kind, n_steps, p, seed=seed)
    joint = DerivativePair.initial(
        new_two_particle_state(statistics, t_max, position))
    a, b = (DerivativePair.initial(new_walker_state(t_max, position, coin))
            for coin in ((1.0, 0.0), (0.0, 1.0)))
    s = {"separable": 0.0, "boson": 1.0, "fermion": -1.0}[statistics]
    norm = 1.0 if statistics == "separable" else INV_SQRT2
    outer = np.multiply.outer
    for t in range(1, n_steps + 1):
        ctx = StepContext(phi, t, pmap, order)
        joint = two_particle_step_with_derivative(joint, ctx)
        a, b = step_with_derivative(a, ctx), step_with_derivative(b, ctx)
        (pa, da), (pb, db) = ((w.psi.amplitudes, w.dpsi.amplitudes) for w in (a, b))
        psi = norm * (outer(pa, pb) + s * outer(pb, pa))
        dpsi = norm * (outer(da, pb) + outer(pa, db)
                       + s * (outer(db, pa) + outer(pb, da)))
        assert np.max(np.abs(joint.psi.amplitudes - psi)) < 1e-12
        assert np.max(np.abs(joint.dpsi.amplitudes - dpsi)) < 1e-12
