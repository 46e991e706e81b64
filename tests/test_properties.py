"""Property tests: the windowed, stacked step and the two-walker tensor step
against one-map steps, and `simulate` on mutated configs.

Bounded example counts and deadlines keep the tier-1 run short.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

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
from dqwalk.cli import main
from dqwalk.config import EXPERIMENTS
from dqwalk.disorder import KINDS, SEMANTICS, MapStack
from dqwalk.operators import OPERATOR_ORDERS
from dqwalk.states import INV_SQRT2, TWO_PARTICLE_KINDS, light_cone

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


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


# Small valid configs, one per experiment: no draw below allocates more than
# steps <= 7, maps <= 3, |position| <= 3.
_BASE_CONFIGS = {
    "qfi": {"experiment": "qfi", "disorder": {"kind": "dynamic", "p": 0.5},
            "steps": 6, "maps": 2, "seed": 1,
            "initial": {"kind": "single", "position": 1, "coin": [0.6, [0, 0.8]]}},
    "fit": {"experiment": "fit", "disorder": {"kind": "static", "p": 1.0},
            "steps": 6, "maps": 3, "fit": {"t_min": 2, "t_max": 6, "window": 5}},
    "variance": {"experiment": "variance", "steps": 5, "maps": 2,
                 "per_map_variance": True, "operator_order": "phase-last"},
    "distribution": {"experiment": "distribution", "steps": 4, "maps": 1,
                     "format": "json", "plot": True},
    "two-particle": {"experiment": "two-particle", "steps": 4, "maps": 2,
                     "disorder": {"kind": "dynamic", "p": 1.0,
                                  "semantics": "exact-pi-fraction"},
                     "initial": {"kind": "fermion", "position": -1}},
}
_DELETE = object()


def _near_unit_coin():
    # |c|^2 = (1 + eps)^2 around the 1e-12 tolerance, and non-numbers
    eps = st.sampled_from([0.0, 4e-13, -4e-13, 6e-13, 2e-12, -2e-12, 1e-10])
    theta = st.floats(0.0, math.pi / 2)
    exact = st.builds(
        lambda t, e: [math.cos(t) * (1 + e), [0.0, math.sin(t) * (1 + e)]], theta, eps)
    return st.one_of(exact, st.sampled_from([
        [0.707106781186, 0.707106781186], [float("nan"), 0], [float("inf"), 0],
        [True, False], [1], [[1, 0, 0], 0], "up",
    ]))


_JUNK = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "x", "1", [], {}, [1, 2]]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _ints(lo, hi):
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi).map(float))


# (path, values) for each field a mutation may touch
_FIELDS = {
    ("experiment",): st.sampled_from(EXPERIMENTS + ("x",)),
    ("steps",): _ints(-1, 7),
    ("maps",): _ints(-1, 3),
    ("seed",): st.sampled_from([-1, 0, 2**64 - 1, 2**64, 2**70]),
    ("phi",): st.floats(allow_nan=True, allow_infinity=True),
    ("operator_order",): st.sampled_from(OPERATOR_ORDERS + ("x",)),
    ("per_map_variance",): st.booleans(),
    ("plot",): st.booleans(),
    ("format",): st.sampled_from(["csv", "json", "xml"]),
    ("out",): st.sampled_from(["", "sub", 1]),
    ("disorder",): st.sampled_from([{}, {"kind": "none"}, []]),
    ("disorder", "kind"): st.sampled_from(KINDS + ("x",)),
    ("disorder", "p"): st.one_of(st.floats(-0.5, 1.5), st.sampled_from(
        [0, 1, float("nan"), float("inf")])),
    ("disorder", "semantics"): st.sampled_from(SEMANTICS + ("x",)),
    ("initial",): st.sampled_from([{}, {"kind": "boson"}, []]),
    ("initial", "kind"): st.sampled_from(("single",) + TWO_PARTICLE_KINDS + ("x",)),
    ("initial", "position"): _ints(-3, 3),
    ("initial", "coin"): _near_unit_coin(),
    ("fit",): st.fixed_dictionaries({"t_min": st.integers(-1, 7),
                                     "t_max": st.integers(-1, 7)}),
    ("fit", "t_min"): _ints(-1, 7),
    ("fit", "t_max"): _ints(-1, 7),
    ("fit", "window"): st.integers(3, 60),
}
_MUTATION = st.one_of(
    st.sampled_from(sorted(_FIELDS)).flatmap(
        lambda path: st.tuples(st.just(path), st.one_of(_FIELDS[path], _JUNK))),
    st.tuples(st.sampled_from(sorted(_FIELDS)), st.just(_DELETE)),
    st.tuples(st.sampled_from([("zz",), ("disorder", "zz"), ("initial", "zz"),
                               ("fit", "zz")]), st.just(1)),
)
_FLAGS = st.lists(st.one_of(
    st.tuples(st.just("--seed"), st.integers(-2, 5).map(str)),
    st.tuples(st.just("--format"), st.sampled_from(["csv", "json"])),
    st.tuples(st.just("--out"), st.sampled_from(["", "flag-out"])),
    st.just(("--plot",)),
), max_size=2)


def _mutate(cfg, path, value):
    *parents, key = path
    for name in parents:
        cfg = cfg.setdefault(name, {})
        if not isinstance(cfg, dict):
            return
    if value is _DELETE:
        cfg.pop(key, None)
    else:
        cfg[key] = value


@settings(max_examples=40, deadline=5000)
@given(
    base=st.sampled_from(sorted(_BASE_CONFIGS)),
    mutations=st.lists(_MUTATION, min_size=1, max_size=2),
    flags=_FLAGS,
)
@example(base="qfi", flags=[], mutations=[
    (("initial", "coin"), [0.707106781186, 0.707106781186])])
@example(base="fit", flags=[], mutations=[(("fit",), {"t_min": 1, "t_max": 2})])
@example(base="fit", flags=[], mutations=[(("fit", "window"), 50)])
def test_simulate_exits_0_or_2_never_3(base, mutations, flags):
    # a config simulate cannot run is rejected as a config (2), before or
    # instead of failing at run time (3)
    cfg = copy.deepcopy(_BASE_CONFIGS[base])
    for path, value in mutations:
        _mutate(cfg, path, value)
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "cfg.json"), "w") as fh:
            json.dump(cfg, fh)
        os.chdir(tmp)  # relative outputs, including the default ".", land here
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = main(["simulate", "--config", "cfg.json", "--workers", "1"]
                          + [arg for flag in flags for arg in flag])
        finally:
            os.chdir(cwd)
    assert rc in (0, 2), f"exit {rc} for {cfg} {flags}: {err.getvalue()}"
