"""Property tests: the stacked light-cone step, the block kernel and the
two-walker tensor step against one-map steps, the in-place cone step
against the out-of-place one, the map JSON round trip,
`simulate` on mutated configs and `reproduce` on bad sizes and seeds.

Bounded example counts and deadlines keep the tier-1 run short.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

import dqwalk.ensemble as ensemble_mod
from dqwalk import (
    DOWN,
    UP,
    DerivativePair,
    EnsembleConfig,
    InitialStateSpec,
    PhaseMap,
    StepContext,
    generate_map,
    map_from_json,
    map_to_json,
    new_two_particle_state,
    new_walker_state,
    position_distribution,
    qfi_pure,
    qfi_series,
    split_seed,
    step,
    step_with_derivative,
    two_particle_step,
    two_particle_step_with_derivative,
)
from dqwalk.cli import main
from dqwalk.config import EXPERIMENTS
from dqwalk.disorder import KINDS, SEMANTICS, MapStack
from dqwalk.ensemble import INITIAL_KINDS
from dqwalk.figures import FIGURES
from dqwalk.operators import OPERATOR_ORDERS, cone_step
from dqwalk.states import INV_SQRT2, TWO_PARTICLE_KINDS, ConeStack

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def _map_stack(pmaps, t_max, origin, order, phi):
    """The MapStack the ensembles build for pmaps at phi, in either layout,
    read off each map's `PhaseMap.step_signs`."""
    n = pmaps[0].n_steps
    lag = OPERATOR_ORDERS.index(order)  # 0 phase-first, 1 phase-last
    if pmaps[0].kind != "dynamic":
        signs = np.stack([m.step_signs(1, t_max) for m in pmaps], axis=1)
        return MapStack(n, phi, pi=signs < 0, origin=origin, lag=lag)
    wide = t_max + 2 * n  # every slot's site lies on this lattice
    cones = np.zeros((n, n + 1, len(pmaps)), dtype=bool)
    for t in range(1, n + 1):
        sites = origin - (t - 1 + lag) + 2 * np.arange(n + 1)
        for b, m in enumerate(pmaps):
            cones[t - 1, :, b] = m.step_signs(t, wide)[sites + wide] < 0
    return MapStack(n, phi, cones=cones, origin=origin, lag=lag)


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
@example(kind="dynamic", p=0.5, seed=1, n_maps=3, n_steps=6, position=1,
         theta=math.pi / 2, phi=0.4, order=OPERATOR_ORDERS[0])
@example(kind="dynamic", p=0.5, seed=1, n_maps=3, n_steps=6, position=1,
         theta=math.pi / 2, phi=0.4, order=OPERATOR_ORDERS[1])
def test_cone_stacked_steps_equal_one_map_steps(
        kind, p, seed, n_maps, n_steps, position, theta, phi, order):
    # stacked steps on light-cone slots of (coin, slot, walker) buffers, as
    # the ensembles run them, against full-width one-map steps: slot k of
    # step t holds site x0 - t + 2k bit for bit, every other cell of the
    # one-map state is exactly 0, and every QFI value agrees bit for bit
    if kind == "none":
        p = 0.0
    t_max = abs(position) + n_steps
    coin = (math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2))
    pmaps = [generate_map(kind, n_steps, p, seed=seed + b) for b in range(n_maps)]
    stack = _map_stack(pmaps, t_max, position, order, phi)

    # [psi, dpsi, plain psi] x [even steps, odd steps]
    bufs = np.zeros((3, 2, 2, n_steps + 1, n_maps), dtype=complex)
    bufs[0::2, 0, :, 0] = np.array(coin)[:, None]

    def cones(t):
        psi, dpsi, plain = (b[t % 2, :, :t + 1] for b in bufs)
        return ConeStack(psi, dpsi, position), ConeStack(plain, origin=position)

    start = new_walker_state(t_max, position, coin)
    cur, plain = cones(0)
    singles = [DerivativePair.initial(start) for _ in pmaps]
    x = np.arange(-t_max, t_max + 1)
    for t in range(1, n_steps + 1):
        if t == 2:
            bufs[0::2, 0, UP, 0] = 0.0  # the t = 0 state the shift never overwrites
        ctx = StepContext(phi, t, stack, order)
        nxt, plain_next = cones(t)
        step_with_derivative(cur, ctx, out=nxt)
        step(plain, ctx, out=plain_next)
        cur, plain = nxt, plain_next
        singles = [step_with_derivative(pair, StepContext(phi, t, pmap, order))
                   for pair, pmap in zip(singles, pmaps)]
        values = qfi_pure(cur)
        assert values.shape == (n_maps,)
        sites = cur.positions()
        np.testing.assert_array_equal(sites, position - t + 2 * np.arange(t + 1))
        off_cone = ~np.isin(x, sites)
        for b, pair in enumerate(singles):
            for got, want in ((cur.psi, pair.psi), (cur.dpsi, pair.dpsi),
                              (plain.psi, pair.psi)):
                assert np.array_equal(got[:, :, b].T,
                                      want.amplitudes[sites + t_max])
                assert not want.amplitudes[off_cone].any()
            assert values[b] == qfi_pure(pair)


@settings(max_examples=80, deadline=2000)
@given(
    t=st.integers(1, 12),
    spare=st.integers(0, 3),
    rows=st.integers(1, 5),
    order=st.sampled_from(OPERATOR_ORDERS),
    with_dpsi=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_cone_step_equals_out_of_place(t, spare, rows, order,
                                                with_dpsi, seed):
    # a stack of t slots stepped in place, one buffer per state as the
    # ensembles hold them, against `cone_step` out of place into fresh
    # buffers and fresh work space: every bit of slots 0..t, zero signs
    # included, and zeros in up at slot 0 and beyond slot t.  Every array
    # is laid out as in the ensembles, coin planes of slots with the rows
    # innermost: numpy's complex multiply rounds some short strided loops
    # differently.
    rng = np.random.default_rng(seed)
    n = t + spare  # the buffers hold n + 1 slots

    def buffer():
        b = np.zeros((2, n + 1, rows), dtype=complex)
        b[:, :t] = (rng.standard_normal((2, t, rows))
                    + 1j * rng.standard_normal((2, t, rows)))
        b[UP, 0] = 0.0  # the two cells no step writes
        b[DOWN, t - 1] = 0.0
        return b

    bufs = [buffer()] + ([buffer()] if with_dpsi else [])
    sites = t + (order != OPERATOR_ORDERS[0])  # the input's or the output's
    factor = np.exp(1j * rng.uniform(-math.pi, math.pi, (sites, rows)))
    factor = factor * rng.choice([-1.0, 1.0], (sites, rows))
    ins = [b[:, :t].copy() for b in bufs]
    outs = [np.zeros((2, t + 1, rows), dtype=complex) for _ in bufs]
    cone_step(ins[0], ins[1] if with_dpsi else None, factor, order,
              outs[0], outs[1] if with_dpsi else None,
              np.zeros((2, t + 1, rows), dtype=complex))
    work = np.full((2, n + 1, rows), np.nan + 1j * np.nan)  # never read
    cone_step(bufs[0][:, :t], bufs[1][:, :t] if with_dpsi else None,
              factor, order, bufs[0][:, :t + 1],
              bufs[1][:, :t + 1] if with_dpsi else None, work)
    for b, out in zip(bufs, outs):
        got = np.ascontiguousarray(b[:, :t + 1])
        assert np.array_equal(got.view(np.uint64), out.view(np.uint64))
        assert not b[UP, 0].any()
        assert not b[:, t + 1:].any()


@settings(max_examples=40, deadline=5000)
@given(
    kind=st.sampled_from(["none", "static", "dynamic"]),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    n_maps=st.integers(1, 3),
    n_steps=st.integers(1, 14),
    position=st.integers(-4, 4),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(-math.pi, math.pi),
    order=st.sampled_from(OPERATOR_ORDERS),
    initial=st.sampled_from(INITIAL_KINDS),
)
def test_block_rows_equal_one_map_series(
        kind, p, seed, n_maps, n_steps, position, theta, phi, order, initial):
    # the block kernel against the one-map route, member by member: QFI
    # rows, as `run_ensemble` forms them from the walkers' rows, and, for
    # one map, the distribution; bit for bit for one walker, to rounding
    # for two, whose one-map route is the joint tensor
    if kind == "none":
        p = 0.0
    single = initial == "single"
    coin = ((math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2))
            if single else (1.0, 0.0))
    spec = InitialStateSpec(kind=initial, position=position, coin=coin)
    cfg = EnsembleConfig(kind=kind, p=p, n_steps=n_steps, n_maps=n_maps,
                         master_seed=seed, phi=phi, initial=spec,
                         operator_order=order, collect_distribution=True)
    ((rows, exchange, (dist_sum,), _),) = ensemble_mod._run_family(
        ((cfg,), range(1)))
    tables = [rows] if single else [rows[0::2], rows[1::2], exchange]
    qfi = ensemble_mod._qfi_table(cfg, tables)
    same = (np.testing.assert_array_equal if single else
            lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12))
    for k in range(n_maps):
        pmap = generate_map(kind, n_steps, p, seed=split_seed(seed, k))
        start = spec.build(cfg.t_max)
        same(qfi[k], qfi_series(start, pmap, phi, n_steps, order=order).values)
    if n_maps == 1:
        state = start
        for t in range(n_steps + 1):
            if t > 0:
                stepper = step if single else two_particle_step
                state = stepper(state, StepContext(phi, t, pmap, order))
            same(dist_sum[t], position_distribution(state).probabilities)


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


@settings(max_examples=60, deadline=2000)
@given(
    kind=st.sampled_from(KINDS),
    semantics=st.sampled_from(SEMANTICS),
    p=st.floats(0.0, 1.0),
    n_steps=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
)
def test_map_json_round_trip_is_exact(kind, semantics, p, n_steps, seed):
    # through JSON text and back, every field and every mask bit survive
    if kind == "none":
        p = 0.0
    pmap = generate_map(kind, n_steps, p, semantics, seed)
    back = map_from_json(json.loads(json.dumps(map_to_json(pmap))))
    for f in dataclasses.fields(PhaseMap):
        got, want = getattr(back, f.name), getattr(pmap, f.name)
        if f.name == "pi_mask":
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        else:
            assert type(got) is type(want) and got == want, f.name


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
@example(base="qfi", flags=[], mutations=[(("steps",), 2**70)])
@example(base="qfi", flags=[], mutations=[(("maps",), 2**70)])
@example(base="qfi", flags=[], mutations=[(("initial", "position"), 2**70)])
def test_simulate_exits_0_or_2_never_3(base, mutations, flags):
    # a config simulate cannot run is rejected as a config (2), before or
    # instead of failing at run time (3)
    cfg = copy.deepcopy(_BASE_CONFIGS[base])
    for path, value in mutations:
        _mutate(cfg, path, value)
    rc, err = _main_in_tempdir(
        ["simulate", "--config", "cfg.json", "--workers", "1"]
        + [arg for flag in flags for arg in flag], cfg)
    assert rc in (0, 2), f"exit {rc} for {cfg} {flags}: {err}"


def _main_in_tempdir(argv, cfg=None):
    """(exit code, stderr) of `main(argv)` run in a fresh temporary directory,
    with `cfg`, if given, written there as cfg.json."""
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        if cfg is not None:
            with open(os.path.join(tmp, "cfg.json"), "w") as fh:
                json.dump(cfg, fh)
        os.chdir(tmp)  # relative outputs, including the default ".", land here
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            os.chdir(cwd)
    return rc, err.getvalue()


@settings(max_examples=15, deadline=10000)
@given(
    preset=st.sampled_from(sorted(FIGURES)),
    maps=st.sampled_from([None, -1, 0, 1, 2]),
    seed=st.sampled_from([-1, 0, 5, 2**64 - 1]),
    fmt=st.sampled_from(["csv", "json"]),
)
@example(preset="fig2b", maps=2_000_000_000, seed=0, fmt="csv")
@example(preset="fig4c", maps=2**70, seed=0, fmt="json")
def test_reproduce_exits_0_or_2_never_3(preset, maps, seed, fmt):
    # desk scale only when --maps is absent and the preset is ordered
    if maps is None and preset not in ("fig2a", "fig4a"):
        maps = 1
    flags = [] if maps is None else ["--maps", str(maps)]
    rc, err = _main_in_tempdir(["reproduce", preset, "--seed", str(seed),
                                "--format", fmt, "--workers", "1"] + flags)
    assert rc in (0, 2), f"exit {rc} for {preset} {flags} seed {seed}: {err}"
