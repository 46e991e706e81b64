import dataclasses
import inspect
import multiprocessing
import pickle
import time
import tracemalloc
import types

import numpy as np
import pytest

import dqwalk.ensemble as ensemble_mod
import dqwalk.metrology as metrology_mod
from dqwalk import (
    DOWN,
    UP,
    EnsembleConfig,
    EnsembleMemberError,
    InitialStateSpec,
    generate_map,
    new_walker_state,
    qfi_series,
    run_ensemble,
    split_seed,
)
from dqwalk.config import describe_ensemble
from dqwalk.disorder import SEMANTICS
from dqwalk.ensemble import pool_scope
from dqwalk.figures import FIGURES, PAPER_MAPS
from dqwalk.operators import OPERATOR_ORDERS
from dqwalk.output import canonical_json, config_sha256
from dqwalk.twoparticle import TwoParticleExperiment


def test_split_seed_deterministic_and_distinct():
    a = split_seed(0, 0)
    assert a == split_seed(0, 0)
    seen = {split_seed(12345, k) for k in range(20000)}
    assert len(seen) == 20000


def test_split_seed_depends_on_master():
    xs = [split_seed(1, k) for k in range(100)]
    ys = [split_seed(2, k) for k in range(100)]
    assert not set(xs) & set(ys)


def test_split_seed_range_and_validation():
    assert 0 <= split_seed(2**64 - 1, 10**9) < 2**64
    with pytest.raises(ValueError):
        split_seed(-1, 0)
    with pytest.raises(ValueError):
        split_seed(0, -1)
    # master seeds are 64-bit words: 2**64 would draw seed 0's maps
    for seed in (2**64, 2**64 + 5, 2**70):
        with pytest.raises(ValueError, match="not below 2\\*\\*64"):
            split_seed(seed, 0)
        with pytest.raises(ValueError, match="not below 2\\*\\*64"):
            EnsembleConfig(kind="none", p=0.0, n_steps=3, n_maps=1,
                           master_seed=seed)
    assert EnsembleConfig(kind="none", p=0.0, n_steps=3, n_maps=1,
                          master_seed=2**64 - 1).master_seed == 2**64 - 1


def test_initial_state_spec_builds_states():
    spec = InitialStateSpec()
    s = spec.build(5)
    assert s.amplitudes[5, 0] == 1.0
    spec = InitialStateSpec(kind="boson")
    assert spec.build(5).symmetry == "boson"
    with pytest.raises(ValueError):
        InitialStateSpec(kind="pairwise")
    with pytest.raises(ValueError):
        InitialStateSpec(kind="boson", coin=(0.0, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(kind="dynamic", p=2.0, n_steps=10, n_maps=5)
    with pytest.raises(ValueError):
        EnsembleConfig(kind="dynamic", p=0.5, n_steps=10, n_maps=0)
    with pytest.raises(ValueError):
        EnsembleConfig(kind="dynamic", p=0.5, n_steps=10, n_maps=5,
                       master_seed=-3)
    with pytest.raises(ValueError):
        EnsembleConfig(kind="dynamic", p=0.5, n_steps=10, n_maps=5,
                       phi=float("nan"))
    with pytest.raises(ValueError):
        EnsembleConfig(kind="dynamic", p=0.5, n_steps=10, n_maps=5,
                       operator_order="sideways")
    with pytest.raises(ValueError):
        EnsembleConfig(kind="dynamic", p=0.5, n_steps=10, n_maps=5,
                       collect_qfi=False)


@pytest.mark.parametrize("field, value", [
    ("master_seed", 1.5), ("master_seed", True), ("master_seed", "7"),
    ("n_steps", 10.0), ("n_steps", True), ("n_maps", 5.0), ("n_maps", True),
    ("p", True), ("p", "0.5"), ("phi", True), ("phi", "0.3"),
    ("initial", "boson"),
])
def test_config_names_a_field_of_the_wrong_type(field, value):
    kwargs = {"kind": "dynamic", "p": 0.5, "n_steps": 10, "n_maps": 5,
              field: value}
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        EnsembleConfig(**kwargs)
    # a TwoParticleExperiment has neither field: it sets n_maps and
    # builds its initial state from its statistics
    if field not in ("n_maps", "initial"):
        kwargs = {"statistics": "boson", **kwargs}
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            TwoParticleExperiment(**kwargs)


@pytest.mark.parametrize("kind", ["static", "dynamic"])
def test_config_takes_numpy_numbers_as_their_values(kind):
    # a float32 phi once formed complex64 phase factors, and failed the
    # norm check at step 1
    plain = EnsembleConfig(kind=kind, p=0.5, n_steps=10, n_maps=5,
                           master_seed=3, phi=float(np.float32(0.3)))
    numpy_ = EnsembleConfig(kind=kind, p=np.float32(0.5),
                            n_steps=np.int64(10), n_maps=np.int32(5),
                            master_seed=np.uint64(3), phi=np.float32(0.3))
    assert (canonical_json(describe_ensemble(numpy_, "qfi"))
            == canonical_json(describe_ensemble(plain, "qfi")))
    np.testing.assert_array_equal(run_ensemble(numpy_).qfi_mean,
                                  run_ensemble(plain).qfi_mean)
    # an int p is the float p
    ordered = (EnsembleConfig(kind="none", p=p, n_steps=10, n_maps=1)
               for p in (0, 0.0))
    assert len({canonical_json(describe_ensemble(c, "qfi")) for c in ordered}) == 1


def test_config_size_is_bounded():
    # every preset, at paper scale and with two walkers, fits the limit
    for _, params in FIGURES.values():
        for kind in ("single", "boson"):
            EnsembleConfig(kind="none", p=0.0, n_steps=params["n_steps"],
                           n_maps=PAPER_MAPS, initial=InitialStateSpec(kind))
    # mask and QFI tables past the limit, in each of the three sizes
    for steps, maps, position in ((2**15, 1, 0), (1, 2**30, 0), (1, 1, 2**30)):
        with pytest.raises(ValueError, match="over the limit"):
            EnsembleConfig(kind="none", p=0.0, n_steps=steps, n_maps=maps,
                           initial=InitialStateSpec(position=position))


def test_state_buffers_count_toward_the_size_limit():
    # a full two-walker block.  At 52000 steps of QFI its map, phase-factor
    # and QFI tables take about 4.4e8 bytes; psi, dpsi and scratch,
    # (2, 52001, 128) complex each, add about 6.4e8 more.  At 4650 steps of
    # distributions its lattice tables take about 1.06e9 bytes, under 2**30;
    # psi and scratch, (2, 4651, 128) complex each, add about 3.8e7 more
    boson = InitialStateSpec(kind="boson")
    distribution = {"collect_qfi": False, "collect_distribution": True}
    with pytest.raises(ValueError, match="over the limit"):
        EnsembleConfig(kind="static", p=1.0, n_steps=52000, n_maps=64,
                       initial=boson)
    with pytest.raises(ValueError, match="over the limit"):
        EnsembleConfig(kind="static", p=1.0, n_steps=4650, n_maps=64,
                       initial=boson, **distribution)
    # one-map runs of the same lengths still fit
    EnsembleConfig(kind="static", p=1.0, n_steps=52000, n_maps=1)
    EnsembleConfig(kind="static", p=1.0, n_steps=4650, n_maps=1,
                   **distribution)


def test_size_limit_prices_the_largest_kernel_call(monkeypatch):
    # 28000 steps of CALL_BLOCKS full blocks: the tables fit 2**30 bytes
    # at 64 rows, but not at the CALL_BLOCKS x 64 rows one call holds
    maps = ensemble_mod.CALL_BLOCKS * ensemble_mod.BLOCK_MAPS
    assert ensemble_mod.CALL_BLOCKS > 1
    with pytest.raises(ValueError, match="over the limit"):
        EnsembleConfig(kind="static", p=1.0, n_steps=28000, n_maps=maps)
    monkeypatch.setattr(ensemble_mod, "CALL_BLOCKS", 1)
    EnsembleConfig(kind="static", p=1.0, n_steps=28000, n_maps=maps)


_COLLECT = {
    "qfi": {},
    "distribution": {"collect_qfi": False, "collect_distribution": True,
                     "collect_variance": True},
    "qfi-own-variance": {"per_map_variance": True},
}


def _traced_peak(cfg, kept=None):
    """Peak bytes traced over a run of cfg, after a warm-up run of two of
    its maps and, if given, an untraced run of `kept`."""
    run_ensemble(dataclasses.replace(cfg, n_maps=2))
    if kept is not None:
        run_ensemble(kept)
    tracemalloc.start()
    try:
        run_ensemble(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind,p", [("none", 0.0), ("static", 0.6),
                                    ("dynamic", 0.6)])
@pytest.mark.parametrize("initial", ["single", "boson", "boson-in-scope"])
@pytest.mark.parametrize("collect", _COLLECT)
@pytest.mark.parametrize("x0", [0, 3])
def test_size_rule_bounds_the_traced_peak(kind, p, initial, collect, x0):
    # two kernel calls, the last block partial.  "boson-in-scope" runs the
    # boson ensemble inside a pool_scope in which a separable run over the
    # same maps has left its rows kept: a QFI-only run is built from them,
    # any other evolves in their place
    blocks = ensemble_mod.CALL_BLOCKS + 1
    walkers = InitialStateSpec(initial.split("-")[0], position=x0)
    cfg = EnsembleConfig(kind=kind, p=p, n_steps=10,
                         n_maps=(blocks - 1) * ensemble_mod.BLOCK_MAPS + 5,
                         initial=walkers, **_COLLECT[collect])
    assert len(ensemble_mod._call_blocks(blocks, 1)) == 2
    kept = None
    if initial == "boson-in-scope":
        kept = dataclasses.replace(
            cfg, initial=InitialStateSpec("separable", position=x0),
            collect_qfi=True, collect_distribution=False,
            collect_variance=False, per_map_variance=False)
    with pool_scope():
        assert _traced_peak(cfg, kept) <= ensemble_mod._table_bytes(cfg)


def test_size_rule_bounds_the_traced_peak_of_many_short_rows(monkeypatch):
    # the run's own tables (seeds, QFI and the temporary its std forms)
    # set the peak when maps far outnumber steps.  Kind "none" draws the
    # same all-False map for every seed, so one draw serves every member
    clean = generate_map("none", 3, 0.0)
    monkeypatch.setattr(ensemble_mod, "generate_map", lambda *args: clean)
    cfg = EnsembleConfig(kind="none", p=0.0, n_steps=3, n_maps=20000)
    assert _traced_peak(cfg) <= ensemble_mod._table_bytes(cfg)


@pytest.mark.parametrize("kind,p,semantics", [
    ("dynamic", 0.5, "bernoulli-uniform"), ("dynamic", 1.0, "bernoulli-uniform"),
    ("dynamic", 0.99, "exact-pi-fraction"), ("none", 0.0, "bernoulli-uniform"),
])
def test_size_rule_bounds_the_traced_peak_of_long_map_draws(kind, p, semantics):
    # 300 steps of three maps: a member's draw of 300 x 601 cells, not the
    # call's states, sets the peak.  An exact-pi-fraction map permutes its
    # cells as int64, about 17 bytes a cell at p near 1
    cfg = EnsembleConfig(kind=kind, p=p, n_steps=300, n_maps=3,
                         semantics=semantics)
    assert _traced_peak(cfg) <= ensemble_mod._table_bytes(cfg)


@pytest.mark.parametrize("kind,p", [("static", 0.6), ("none", 0.0)])
def test_size_rule_bounds_the_traced_peak_of_long_distribution_runs(kind, p):
    # 300 steps of three maps of two walkers: a call's block sums and the
    # run's distribution sum, (301, 601) floats each, set the peak.  Only
    # dynamic maps gather cones, so these runs build no (300, 301) int64
    # cone cell index, which their price does not hold
    cfg = EnsembleConfig(kind=kind, p=p, n_steps=300, n_maps=3,
                         initial=InitialStateSpec("boson"),
                         **_COLLECT["distribution"])
    assert _traced_peak(cfg) <= ensemble_mod._table_bytes(cfg)


@pytest.mark.parametrize("maps", [40, 13])
def test_size_rule_bounds_the_buffered_last_marginals(maps):
    # at a call's last step psi is contiguous whole and its float work
    # space is not: numpy buffers |psi| for one loop when the call holds
    # fewer than np.getbufsize() floats of it, 2 x 101 x 40 = 8080 here
    cfg = EnsembleConfig(kind="static", p=0.6, n_steps=100, n_maps=maps,
                         **_COLLECT["distribution"])
    assert _traced_peak(cfg) <= ensemble_mod._table_bytes(cfg)


def test_size_rule_adds_no_ufunc_buffer_allowance():
    # no allowance of 3 x 16 x np.getbufsize() bytes for ufunc buffers
    # sits on top of the listed arrays: 108455 steps of a 64-map block fit
    # within it of the limit, 108456 do not
    cfg = EnsembleConfig(kind="static", p=1.0, n_steps=108455, n_maps=64)
    assert (ensemble_mod._MAX_RUN_BYTES - 3 * 16 * np.getbufsize()
            < ensemble_mod._table_bytes(cfg) <= ensemble_mod._MAX_RUN_BYTES)
    with pytest.raises(ValueError, match="over the limit"):
        EnsembleConfig(kind="static", p=1.0, n_steps=108456, n_maps=64)


@pytest.mark.parametrize("kind,p", [("none", 0.0), ("static", 0.6),
                                    ("dynamic", 0.6)])
@pytest.mark.parametrize("initial", ["single", "boson"])
def test_map_stack_storage_is_the_listed_storage(kind, p, initial):
    # the stack the kernel steps on holds the masks, cones and phase
    # factors of the shapes and dtypes the size rule prices
    cfg = EnsembleConfig(kind=kind, p=p, n_steps=7, n_maps=5, phi=0.3,
                         initial=InitialStateSpec(initial, position=2))
    members = range(1, 4)
    walkers = 1 if initial == "single" else 2
    (stack,) = ensemble_mod._map_stacks((cfg,), members, walkers)
    listed = ensemble_mod._call_arrays(
        cfg, len(members), lambda shape, dtype: (shape, np.dtype(dtype)),
        "masks", "cones", "factors")
    masks, cones, (shape, dtype) = listed
    rows = len(members) * walkers
    if kind == "dynamic":
        assert masks == ((rows, 7, 8), np.dtype(bool))
        assert (stack.cones.shape, stack.cones.dtype) == cones
        factors = stack.factors[1]
        assert (shape, dtype) == ((8, rows), np.dtype(complex))
        assert (factors.shape, factors.dtype) == (shape, dtype)
    else:
        assert cones is None
        assert (stack.pi.shape, stack.pi.dtype) == masks
        even, odd = stack.factors
        assert even.dtype == odd.dtype == dtype
        assert shape == (2 * cfg.t_max + 1, rows)
        assert (len(even) + len(odd),) + even.shape[1:] == shape


@pytest.mark.parametrize("initial,own", [
    pytest.param(initial, own, id=initial + "-own-variance" * own)
    for own in (False, True) for initial in ensemble_mod.INITIAL_KINDS])
def test_marginal_update_allocates_no_ufunc_buffers(monkeypatch, initial, own):
    # a call of 256 members and 30 steps; from each step's marginals to
    # the next step, in which every block's distribution sum or own
    # variances are formed from the marginals' light-cone slots.  Pair
    # means once formed on the strided operands of a full-lattice member
    # table went through numpy's buffered iterator: about 190 KB a step,
    # 3 operands x 7936 float64.  A separable run reads walker a's rows,
    # every second row of the marginals
    call = ensemble_mod.CALL_BLOCKS * ensemble_mod.BLOCK_MAPS
    cfg = EnsembleConfig(kind="static", p=0.6, n_steps=30, n_maps=call,
                         phi=0.3, initial=InitialStateSpec(initial, position=1),
                         collect_qfi=False, collect_distribution=not own,
                         per_map_variance=own)
    real_marginals = ensemble_mod.position_distribution
    real_step = ensemble_mod.step
    traced = []

    def marginals(state):
        dist = real_marginals(state)
        traced.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return dist

    def step(*args, **kwargs):
        if traced:
            traced[-1] = tracemalloc.get_traced_memory()[1] - traced[-1]
        return real_step(*args, **kwargs)

    monkeypatch.setattr(ensemble_mod, "position_distribution", marginals)
    monkeypatch.setattr(ensemble_mod, "step", step)
    tracemalloc.start()
    try:
        ensemble_mod._run_family(((cfg,), range(ensemble_mod.CALL_BLOCKS)))
    finally:
        tracemalloc.stop()
    # the last step's marginals are followed by no step
    assert len(traced) == cfg.n_steps + 1
    assert max(traced[:-1]) < 16 * 1024


@pytest.mark.parametrize("kind,p", [("none", 0.0), ("static", 0.6),
                                    ("dynamic", 0.6), ("dynamic", 1.0)])
@pytest.mark.parametrize("order", OPERATOR_ORDERS)
@pytest.mark.parametrize("x0", [0, 3, -2])
@pytest.mark.parametrize("initial", ["single", "boson"])
def test_block_cone_signs_equal_one_map_step_signs(kind, p, order, x0, initial):
    # the phase factors of the MapStack a block builds, read where the
    # kernel reads them, and its cones table at every slot it holds,
    # against e^{i phi} times each member's own map's signs, bit for bit;
    # members 2..4 of the ensemble, each repeated for each of its walkers
    n, phi = 7, 0.3
    cfg = EnsembleConfig(kind=kind, p=p, n_steps=n, n_maps=5, master_seed=9,
                         phi=phi, initial=InitialStateSpec(initial, position=x0),
                         operator_order=order)
    walkers = 1 if initial == "single" else 2
    members = range(2, 5)
    (stack,) = ensemble_mod._map_stacks((cfg,), members, walkers)
    lag = OPERATOR_ORDERS.index(order)
    assert (stack.phi, stack.origin, stack.lag) == (phi, x0, lag)
    pmaps = [generate_map(kind, n, p, seed=split_seed(9, k)) for k in members]
    wide = cfg.t_max + 2 * n
    e = np.exp(1j * phi)

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    for t in range(1, n + 1):
        s = t - 1 + lag  # the cone step t's phase acts on
        got = stack.cone_factor(t)
        assert got.shape == (s + 1, 3 * walkers) and got.dtype == complex
        # from x0 != 0 the cone reaches past the map's lattice, where
        # step_signs carries +1
        sites = x0 - s + 2 * np.arange(s + 1)
        for row in range(3 * walkers):
            want = e * pmaps[row // walkers].step_signs(t, cfg.t_max)
            np.testing.assert_array_equal(bits(got[:, row]),
                                          bits(want[sites + cfg.t_max]))
        if kind == "dynamic":
            # all n + 1 slots of the table, and sites past the map's
            # lattice hold no pi cell
            sites = x0 - s + 2 * np.arange(n + 1)
            for row in range(3 * walkers):
                want = pmaps[row // walkers].step_signs(t, wide)[sites + wide]
                np.testing.assert_array_equal(stack.cones[t - 1, :, row],
                                              want < 0)
        else:
            # read in place from the even-site or the odd-site factors
            parity = (cfg.t_max + x0 - s) % 2
            assert np.shares_memory(got, stack.factors[parity])


_BALANCED = (complex(2 ** -0.5), complex(2 ** -0.5))

_ORACLE_CASES = [
    pytest.param(kind, p, order, initial, id=f"{kind}-{order}-{where}")
    for kind, p in (("none", 0.0), ("static", 0.7), ("dynamic", 0.6))
    for order in OPERATOR_ORDERS
    for where, initial in (
        ("origin", InitialStateSpec()),
        ("offcentre", InitialStateSpec(position=3, coin=_BALANCED)),
    )
]


def _member_qfi_rows(cfg):
    """Every member's QFI row from the block kernel, in member order: from
    one kernel call per block, and from one call of every block, which
    must agree bit for bit."""
    n_blocks = -(-cfg.n_maps // ensemble_mod.BLOCK_MAPS)
    rows = np.concatenate(
        [ensemble_mod._run_family(((cfg,), range(b, b + 1)))[0][0]
         for b in range(n_blocks)]
    )
    np.testing.assert_array_equal(
        ensemble_mod._run_family(((cfg,), range(n_blocks)))[0][0], rows)
    return rows


@pytest.mark.parametrize("kind,p,order,initial", _ORACLE_CASES)
def test_mean_matches_manual_average(kind, p, order, initial):
    # the block kernel must reproduce the one-map route bit for bit, member
    # by member; two blocks, the second one partial
    n_maps = ensemble_mod.BLOCK_MAPS + 3
    cfg = EnsembleConfig(kind=kind, p=p, n_steps=15, n_maps=n_maps,
                         master_seed=42, phi=0.3, initial=initial,
                         operator_order=order)
    series = run_ensemble(cfg)
    rows = []
    for k in range(n_maps):
        pmap = generate_map(kind, 15, p, seed=split_seed(42, k))
        rows.append(qfi_series(initial.build(cfg.t_max), pmap, 0.3, 15,
                               order=order).values)
    rows = np.array(rows)
    np.testing.assert_array_equal(_member_qfi_rows(cfg), rows)
    np.testing.assert_array_equal(series.qfi_mean, rows.mean(axis=0))
    np.testing.assert_allclose(
        series.qfi_stderr,
        rows.std(axis=0, ddof=1) / np.sqrt(cfg.n_maps),
        atol=1e-15,
    )
    np.testing.assert_array_equal(series.member_seeds,
                                  [split_seed(42, k) for k in range(n_maps)])


@pytest.mark.parametrize("order", OPERATOR_ORDERS)
@pytest.mark.parametrize("initial", [
    pytest.param(InitialStateSpec(), id="origin"),
    pytest.param(InitialStateSpec(position=3, coin=_BALANCED), id="offcentre"),
])
def test_rows_match_qfi_series_at_fig3_size(order, initial):
    # fig3's T = 100: windows grow to 207 sites, long enough for a summation
    # order that depends on the window, the width or the number of walkers
    # to show; a full block of walkers and a lone one
    n = 100
    expected = {}
    for n_maps in (ensemble_mod.BLOCK_MAPS, 1):
        cfg = EnsembleConfig(kind="static", p=1.0, n_steps=n, n_maps=n_maps,
                             master_seed=8, phi=0.3, initial=initial,
                             operator_order=order)
        rows = ensemble_mod._run_family(((cfg,), range(1)))[0][0]
        for k, row in enumerate(rows):
            if k not in expected:
                pmap = generate_map("static", n, 1.0, seed=split_seed(8, k))
                expected[k] = qfi_series(initial.build(cfg.t_max), pmap, 0.3, n,
                                         order=order).values
            np.testing.assert_array_equal(row, expected[k])


@pytest.mark.parametrize("collect_qfi", [True, False], ids=["qfi", "plain"])
@pytest.mark.parametrize("order", OPERATOR_ORDERS)
@pytest.mark.parametrize("kind,position", [
    ("single", 0), ("single", 3), ("boson", -2),
])
def test_block_steps_stay_in_the_light_cone(monkeypatch, collect_qfi, order,
                                            kind, position):
    # every block step writes the t + 1 light-cone slots x0 - t + 2k of a
    # (coin, slot, walker) buffer; the two cells the shift never writes (up
    # at slot 0, down at slot t) and the slots beyond t hold zeros
    n = 12
    cfg = EnsembleConfig(
        kind="dynamic", p=0.7, n_steps=n, n_maps=5, master_seed=4, phi=0.9,
        initial=InitialStateSpec(kind=kind, position=position,
                                 coin=_BALANCED if kind == "single" else (1, 0)),
        operator_order=order, collect_qfi=collect_qfi,
        collect_distribution=not collect_qfi,
    )
    rows = 5 if kind == "single" else 10
    steps = []

    def watch(real):
        def stepped(state, ctx, out):
            real(state, ctx, out=out)
            t = ctx.step_index
            assert (out.steps, out.origin) == (t, position)
            np.testing.assert_array_equal(
                out.positions(), position - t + 2 * np.arange(t + 1))
            assert (out.dpsi is not None) == collect_qfi
            outs = [out.psi, out.dpsi] if collect_qfi else [out.psi]
            for cells in outs:
                assert cells.shape == (2, t + 1, rows)
                assert not cells[UP, 0].any()
                assert not cells[DOWN, t].any()
                buf = cells.base  # the call's (coin, slot, walker) buffer
                assert buf.shape == (2, n + 1, rows)
                assert np.shares_memory(buf, state.psi if cells is out.psi
                                        else state.dpsi)
                assert not buf[:, t + 1:].any()
            steps.append(t)
            return out
        return stepped

    monkeypatch.setattr(ensemble_mod, "step_with_derivative",
                        watch(ensemble_mod.step_with_derivative))
    monkeypatch.setattr(ensemble_mod, "step", watch(ensemble_mod.step))
    ensemble_mod._run_family(((cfg,), range(1)))
    assert steps == list(range(1, n + 1))


@pytest.mark.parametrize("initial,collect", [
    ("single", {}), ("boson", {"collect_distribution": True}),
    ("single", {"collect_qfi": False, "per_map_variance": True}),
])
def test_kernel_builds_one_cone_stack_per_step(monkeypatch, initial, collect):
    # each step hands every layer the same one ConeStack: slots 0..t of the
    # call's buffers, with dpsi where the QFI is collected
    built = []

    class Counted(ensemble_mod.ConeStack):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(ensemble_mod, "ConeStack", Counted)
    n = 9
    cfg = EnsembleConfig(kind="dynamic", p=0.6, n_steps=n, n_maps=70,
                         initial=InitialStateSpec(initial), **collect)
    ensemble_mod._run_family(((cfg,), range(2)))
    assert [stack.steps for stack in built] == list(range(n + 1))
    assert {stack.dpsi is None for stack in built} == {not cfg.collect_qfi}
    assert len({id(stack.scratch) for stack in built}) == 1


@pytest.mark.parametrize("layer,cfg", [
    ("qfi_pure", EnsembleConfig(kind="static", p=1.0, n_steps=100, n_maps=64)),
    ("qfi_pure", EnsembleConfig(
        kind="dynamic", p=0.6, n_steps=100, n_maps=64,
        operator_order=OPERATOR_ORDERS[1], initial=InitialStateSpec("boson"))),
    ("position_distribution", EnsembleConfig(
        kind="dynamic", p=1.0, n_steps=100, n_maps=64, collect_qfi=False,
        collect_distribution=True, per_map_variance=True,
        initial=InitialStateSpec(coin=_BALANCED))),
    ("position_distribution", EnsembleConfig(
        kind="static", p=0.5, n_steps=100, n_maps=64, collect_qfi=False,
        collect_variance=True,
        initial=InitialStateSpec(position=3, coin=_BALANCED))),
], ids=["fig3", "boson-phase-last", "distribution-dynamic",
        "variance-static-offcentre"])
def test_block_steps_allocate_nothing_of_block_size(monkeypatch, layer, cfg):
    # the peak of traced memory between two calls of the layer, so over
    # one step and its reductions; the light cone grows every step, so a
    # temporary of the cone's size (the squares of psi alone are 2 x 101 x
    # 64 x 16 bytes at fig3's last step) would pass the level of step 1
    real = getattr(ensemble_mod, layer)
    peaks = []

    def record(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return real(*args, **kwargs)

    monkeypatch.setattr(ensemble_mod, layer, record)
    tracemalloc.start()
    try:
        ensemble_mod._run_family(((cfg,), range(1)))
    finally:
        tracemalloc.stop()
    rows = cfg.n_maps * (1 if cfg.initial.kind == "single" else 2)
    plane = (cfg.n_steps + 1) * rows * 16
    assert len(peaks) == cfg.n_steps + 1
    assert max(peaks[2:]) < peaks[1] + plane
    # from step 2 on, the peak may grow only by objects far smaller than
    # the cone
    assert max(peaks[2:]) < peaks[2] + plane // 4


def test_rerun_is_bit_identical():
    cfg = EnsembleConfig(kind="static", p=0.8, n_steps=20, n_maps=12,
                         master_seed=7, collect_distribution=True,
                         collect_variance=True)
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    np.testing.assert_array_equal(a.qfi_mean, b.qfi_mean)
    np.testing.assert_array_equal(a.distribution, b.distribution)
    np.testing.assert_array_equal(a.variance, b.variance)


def test_worker_count_does_not_change_results(long_walks, pool_forks):
    # four blocks, counted a long walk, so every pool size below gets more
    # than one of them; at phi = 0.3 each worker forms its calls' phase
    # factors at that phi
    for kind, phi in (("dynamic", 0.0), ("dynamic", 0.3), ("static", 0.0),
                      ("static", 0.3)):
        cfg = EnsembleConfig(kind=kind, p=0.5, n_steps=18,
                             n_maps=3 * ensemble_mod.BLOCK_MAPS + 5,
                             master_seed=3, phi=phi, collect_distribution=True,
                             per_map_variance=True)
        serial = run_ensemble(cfg, workers=1)
        for workers in (2, 3):
            pooled = run_ensemble(cfg, workers=workers)
            for name in ("qfi_mean", "qfi_stderr", "distribution",
                         "variance_per_map"):
                np.testing.assert_array_equal(
                    getattr(serial, name), getattr(pooled, name),
                    err_msg=f"{kind} phi={phi} workers={workers} {name}")
    # each pooled run forked a pool of its own
    assert pool_forks == [2, 3] * 4


@pytest.mark.parametrize("n_blocks", range(1, 12))
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_call_blocks_lay_out_whole_blocks_evenly(monkeypatch, n_blocks,
                                                 workers):
    calls = ensemble_mod._call_blocks(n_blocks, workers)
    assert [b for call in calls for b in call] == list(range(n_blocks))
    sizes = [len(call) for call in calls]
    assert max(sizes) <= ensemble_mod.CALL_BLOCKS
    assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True)
    assert len(calls) >= min(workers, n_blocks)
    # no more calls than the cap and the worker count need
    assert len(calls) == max(-(-n_blocks // ensemble_mod.CALL_BLOCKS),
                             min(workers, n_blocks))
    # an ensemble of a walk of one step runs those calls on min(workers,
    # n_blocks) processes if it has more than CALL_BLOCKS blocks, and its
    # one call in-process if not: a stand-in pool records its size and
    # runs the calls in-process
    ran, pools = [], []
    real = ensemble_mod._run_family

    def run(args):
        ran.append(args[1])
        return real(args)

    def pool(scope, processes):
        pools.append(processes)
        return types.SimpleNamespace(imap=map)

    monkeypatch.setattr(ensemble_mod, "_run_family", run)
    monkeypatch.setattr(ensemble_mod._PoolScope, "get", pool)
    cfg = EnsembleConfig(kind="none", p=0.0, n_steps=1,
                         n_maps=n_blocks * ensemble_mod.BLOCK_MAPS - 1)
    run_ensemble(cfg, workers=workers)
    split = n_blocks > ensemble_mod.CALL_BLOCKS
    assert ran == (calls if split else [range(n_blocks)])
    processes = min(workers, n_blocks) if split else 1
    assert pools == ([processes] if processes > 1 else [])


_LAYOUT_CASES = {
    "dynamic-distribution-offcentre": EnsembleConfig(
        kind="dynamic", p=0.6, n_steps=30, n_maps=1, master_seed=21,
        collect_qfi=False, collect_distribution=True, collect_variance=True,
        per_map_variance=True,
        initial=InitialStateSpec(position=3, coin=_BALANCED)),
    "static-qfi-distribution": EnsembleConfig(
        kind="static", p=0.7, n_steps=30, n_maps=1, master_seed=22,
        phi=0.4, collect_distribution=True),
    "boson-phase-last": EnsembleConfig(
        kind="dynamic", p=0.8, n_steps=30, n_maps=1, master_seed=23,
        operator_order=OPERATOR_ORDERS[1], initial=InitialStateSpec("boson"),
        collect_distribution=True),
    "fermion": EnsembleConfig(
        kind="static", p=1.0, n_steps=30, n_maps=1, master_seed=24,
        initial=InitialStateSpec("fermion"), collect_distribution=True),
}


def _bits(series):
    """Every array of an EnsembleSeries as uint64 bits, None where absent."""
    return {name: None if value is None else np.asarray(value).view(np.uint64)
            for name, value in vars(series).items() if name != "config"}


@pytest.mark.parametrize("case", _LAYOUT_CASES)
def test_call_layout_never_moves_a_bit(monkeypatch, long_walks, pool_forks,
                                      case):
    # four blocks, the last partial: one-block calls, the default calls
    # and the calls of two workers must give the same bits, array by array
    cfg = dataclasses.replace(_LAYOUT_CASES[case],
                              n_maps=3 * ensemble_mod.BLOCK_MAPS + 5)
    assert ensemble_mod.CALL_BLOCKS > 1
    default = _bits(run_ensemble(cfg, workers=1))
    assert pool_forks == []
    # counted a long walk, two two-block calls on two workers
    pooled = _bits(run_ensemble(cfg, workers=2))
    assert pool_forks == [2]
    monkeypatch.setattr(ensemble_mod, "CALL_BLOCKS", 1)
    assert len(ensemble_mod._call_blocks(4, 1)) == 4
    single = _bits(run_ensemble(cfg, workers=1))
    for name, bits in single.items():
        for other in (default, pooled):
            if bits is None:
                assert other[name] is None, name
            else:
                np.testing.assert_array_equal(other[name], bits, err_msg=name)
    # every case sums distributions by block, the layout-sensitive step
    assert single["distribution"] is not None


def test_single_map_stderr_is_zero():
    cfg = EnsembleConfig(kind="none", p=0.0, n_steps=10, n_maps=1)
    series = run_ensemble(cfg)
    assert (series.qfi_stderr == 0.0).all()


def test_distribution_and_variance_outputs():
    cfg = EnsembleConfig(kind="dynamic", p=1.0, n_steps=12, n_maps=8,
                         master_seed=5, collect_qfi=False,
                         collect_distribution=True, collect_variance=True,
                         per_map_variance=True)
    series = run_ensemble(cfg)
    assert series.qfi_mean is None
    assert series.distribution.shape == (13, 25)
    np.testing.assert_allclose(series.distribution.sum(axis=1), 1.0,
                               atol=1e-12)
    assert series.variance.shape == (13,)
    assert series.variance[0] == 0.0
    assert series.variance[1] == pytest.approx(1.0, abs=1e-12)
    # mean-then-variance and variance-then-mean are different statistics,
    # both start identically but diverge once maps decohere differently
    assert series.variance_per_map[1] == pytest.approx(1.0, abs=1e-12)


def test_offcenter_initial_state_gets_capacity():
    cfg = EnsembleConfig(kind="none", p=0.0, n_steps=8, n_maps=1,
                         initial=InitialStateSpec(position=3))
    series = run_ensemble(cfg)
    assert series.positions[0] == -11 and series.positions[-1] == 11
    assert len(series.qfi_mean) == 9


def test_member_failure_carries_index_and_seed(monkeypatch):
    real = ensemble_mod._family_masks

    def broken(family, seed):
        if seed == split_seed(9, 2):
            raise ValueError("synthetic failure")
        yield from real(family, seed)

    monkeypatch.setattr(ensemble_mod, "_family_masks", broken)
    cfg = EnsembleConfig(kind="dynamic", p=0.5, n_steps=5, n_maps=4,
                         master_seed=9)
    with pytest.raises(EnsembleMemberError) as info:
        run_ensemble(cfg)
    assert info.value.member_index == 2
    assert info.value.member_seed == split_seed(9, 2)
    assert "synthetic failure" in str(info.value)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched map draw")
def test_pooled_member_failure_surfaces_without_draining(monkeypatch,
                                                         long_walks,
                                                         pool_forks):
    real = ensemble_mod._family_masks
    bad_seed = split_seed(9, 0)

    def broken(family, seed):
        if seed == bad_seed:
            raise ValueError("synthetic failure")
        time.sleep(5.0)
        yield from real(family, seed)

    monkeypatch.setattr(ensemble_mod, "_family_masks", broken)
    # three blocks, counted a long walk, so the pool really runs two workers
    cfg = EnsembleConfig(kind="dynamic", p=0.5, n_steps=5,
                         n_maps=3 * ensemble_mod.BLOCK_MAPS, master_seed=9)
    start = time.monotonic()
    with pytest.raises(EnsembleMemberError) as info:
        run_ensemble(cfg, workers=2)
    elapsed = time.monotonic() - start
    assert pool_forks == [2]
    assert info.value.member_index == 0
    assert info.value.member_seed == bad_seed
    assert "synthetic failure" in str(info.value)
    # draining the queue would take the other call's block,
    # BLOCK_MAPS members x 5 s
    assert elapsed < 3.0


def _three_block_config(master_seed):
    """Three blocks, which the tests that take it count a long walk
    (`long_walks`), so that two or three workers share them."""
    return EnsembleConfig(kind="dynamic", p=0.5, n_steps=5,
                          n_maps=3 * ensemble_mod.BLOCK_MAPS,
                          master_seed=master_seed)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched map draw")
def test_failed_member_drops_the_shared_pool(monkeypatch, long_walks,
                                             pool_forks):
    real = ensemble_mod._family_masks
    bad_index = ensemble_mod.BLOCK_MAPS + 6  # in the second block
    bad_seed = split_seed(5, bad_index)

    def broken(family, seed):
        if seed == bad_seed:
            raise ValueError("synthetic failure")
        yield from real(family, seed)

    monkeypatch.setattr(ensemble_mod, "_family_masks", broken)
    good, bad = _three_block_config(4), _three_block_config(5)
    with pool_scope():
        first = run_ensemble(good, workers=2)
        with pytest.raises(EnsembleMemberError) as info:
            run_ensemble(bad, workers=2)
        # the failure terminated and joined the pool's workers
        assert multiprocessing.active_children() == []
        again = run_ensemble(good, workers=2)
    assert info.value.member_index == bad_index
    assert info.value.member_seed == bad_seed
    assert "synthetic failure" in str(info.value)
    # the ensemble after the failure forked a pool of its own
    assert pool_forks == [2, 2]
    assert multiprocessing.active_children() == []
    np.testing.assert_array_equal(first.qfi_mean, again.qfi_mean)


def test_pool_scope_forks_once_and_joins_on_exit(long_walks, pool_forks):
    # a seed of its own for every run, so that each one evolves: a rerun
    # would be served from the tables the scope stored
    seeds = iter(range(4, 10))
    with pool_scope():
        # serial: no pool yet
        run_ensemble(_three_block_config(next(seeds)), workers=1)
        assert pool_forks == []
        with pool_scope():  # nested scopes share the outer pool
            run_ensemble(_three_block_config(next(seeds)), workers=2)
        assert pool_forks == [2] and multiprocessing.active_children()
        run_ensemble(_three_block_config(next(seeds)), workers=2)
        # three blocks: a larger pool
        run_ensemble(_three_block_config(next(seeds)), workers=3)
    assert pool_forks == [2, 3]
    assert multiprocessing.active_children() == []
    # an exception leaving the scope stops the workers
    with pytest.raises(RuntimeError, match="after the ensemble"):
        with pool_scope():
            run_ensemble(_three_block_config(next(seeds)), workers=2)
            raise RuntimeError("after the ensemble")
    assert pool_forks == [2, 3, 2]
    assert multiprocessing.active_children() == []


def test_state_cells_count_rows_and_slots():
    # a row per member and walker, each of T + 1 slots
    one = EnsembleConfig(kind="static", p=0.5, n_steps=9, n_maps=7)
    assert ensemble_mod._state_cells(one) == 7 * 10
    two = dataclasses.replace(one, initial=InitialStateSpec("boson"))
    assert ensemble_mod._state_cells(two) == 2 * 7 * 10


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_only_a_long_walk_or_several_calls_forks_a_pool(monkeypatch,
                                                        pool_forks, workers):
    # CALL_BLOCKS blocks are one kernel call: in-process at any worker
    # count up to POOL_MIN_CELLS state cells, shared out past them; one
    # block more is shared out whatever the walk
    def run(blocks, seed):
        run_ensemble(EnsembleConfig(kind="static", p=0.5, n_steps=3,
                                    n_maps=blocks * ensemble_mod.BLOCK_MAPS,
                                    master_seed=seed),
                     workers=workers)

    blocks = ensemble_mod.CALL_BLOCKS
    cells = blocks * ensemble_mod.BLOCK_MAPS * 4
    with monkeypatch.context() as limit:
        limit.setattr(ensemble_mod, "POOL_MIN_CELLS", cells)
        run(blocks, 1)
        assert pool_forks == []
        limit.setattr(ensemble_mod, "POOL_MIN_CELLS", cells - 1)
        run(blocks, 2)
        assert pool_forks == [min(workers, blocks)]
    run(blocks + 1, 3)
    assert pool_forks == [min(workers, blocks), min(workers, blocks + 1)]
    assert multiprocessing.active_children() == []


def _call_rows(monkeypatch):
    """Wrap the kernel, run serially, so that row_of(member, walkers) gives
    the first walker row of `member` in the kernel call now running, or
    None if that call does not hold it."""
    real = ensemble_mod._run_block
    running = {}

    def run(config, members, maps):
        running["members"] = members
        return real(config, members, maps)

    def row_of(member, walkers):
        members = running["members"]
        return (member - members.start) * walkers if member in members else None

    monkeypatch.setattr(ensemble_mod, "_run_block", run)
    return row_of


@pytest.mark.parametrize("initial", ["single", "boson"])
def test_qfi_above_heisenberg_bound_fails_the_member(monkeypatch, initial):
    # plant F > (n t)^2, or a NaN F, on the third member of the second
    # block at step 5, wherever the call layout puts that member's row
    real = metrology_mod.qfi_rows
    walkers = 1 if initial == "single" else 2
    member = ensemble_mod.BLOCK_MAPS + 2
    row_of = _call_rows(monkeypatch)
    planted_value = None

    def planted(psi, dpsi, scratch=None):
        values = real(psi, dpsi, scratch)
        row = row_of(member, walkers)
        if psi.shape[1] == 5 + 1 and row is not None:  # step 5's t + 1 slots
            values[row] = planted_value
        return values

    monkeypatch.setattr(metrology_mod, "qfi_rows", planted)
    cfg = EnsembleConfig(kind="static", p=1.0, n_steps=8,
                         n_maps=ensemble_mod.BLOCK_MAPS + 4, master_seed=11,
                         initial=InitialStateSpec(kind=initial))
    for cap in (1, ensemble_mod.CALL_BLOCKS):
        for planted_value in (1e6, np.nan):
            with monkeypatch.context() as layout:
                layout.setattr(ensemble_mod, "CALL_BLOCKS", cap)
                with pytest.raises(EnsembleMemberError) as info:
                    run_ensemble(cfg)
            assert info.value.member_index == member
            assert info.value.member_seed == split_seed(11, member)
            assert "step 5" in str(info.value) and "outside" in str(info.value)


@pytest.mark.parametrize("initial,collect,state", [
    ("single", "qfi", "psi"),
    ("single", "qfi", "dpsi"),
    ("single", "distribution", "psi"),
    ("boson", "qfi", "dpsi"),
    ("boson", "distribution", "psi"),
])
def test_nan_amplitude_fails_its_member(monkeypatch, initial, collect, state):
    # a NaN compares False with every bound, so each check must be written
    # to fail on it: the norms (psi), the QFI (dpsi) and |<a|b>| (boson psi)
    monkeypatch.setattr(ensemble_mod, "CALL_BLOCKS", 4)
    n_blocks = 4
    cfg = EnsembleConfig(kind="dynamic", p=0.5, n_steps=8,
                         n_maps=(n_blocks - 1) * ensemble_mod.BLOCK_MAPS + 5,
                         master_seed=13, collect_qfi=collect == "qfi",
                         collect_distribution=collect == "distribution",
                         initial=InitialStateSpec(kind=initial))
    # one kernel call of four blocks; the member sits in the third
    assert ensemble_mod._call_blocks(n_blocks, 1) == [range(n_blocks)]
    member = 2 * ensemble_mod.BLOCK_MAPS + 3
    walkers = 1 if initial == "single" else 2
    row_of = _call_rows(monkeypatch)
    layer = "step_with_derivative" if collect == "qfi" else "step"
    real = getattr(ensemble_mod, layer)

    def planted(prev, ctx, out):
        real(prev, ctx, out=out)
        if ctx.step_index == 5:
            getattr(out, state)[UP, 2, row_of(member, walkers) + walkers - 1] = np.nan
        return out

    monkeypatch.setattr(ensemble_mod, layer, planted)
    with pytest.raises(EnsembleMemberError) as info:
        run_ensemble(cfg)
    assert info.value.member_index == member
    assert info.value.member_seed == split_seed(13, member)
    assert "step 5" in str(info.value) and "nan" in str(info.value)


def test_member_error_survives_pickling():
    err = EnsembleMemberError(3, 12345, "boom")
    back = pickle.loads(pickle.dumps(err))
    assert back.member_index == 3
    assert back.member_seed == 12345
    assert "boom" in str(back)


def test_workers_validation():
    cfg = EnsembleConfig(kind="none", p=0.0, n_steps=5, n_maps=1)
    for workers in (0, 1.5, "2", True):
        with pytest.raises(ValueError, match="^workers must be"):
            run_ensemble(cfg, workers=workers)


def test_initial_state_spec_checks_the_coin_norm():
    # the tolerance of new_walker_state, so a bad coin fails at construction
    with pytest.raises(ValueError, match="not normalized"):
        InitialStateSpec(coin=(1, 1))
    with pytest.raises(ValueError, match="not normalized"):
        InitialStateSpec(coin=(0.707106781186, 0.707106781186))
    with pytest.raises(ValueError, match="not normalized"):
        InitialStateSpec(coin=(float("nan"), 0.0))
    spec = InitialStateSpec(coin=(2 ** -0.5, 2 ** -0.5))
    assert spec.build(3).norm() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("coin", [(True, False), ("1", "0"), (np.True_, 0.0),
                                  (None, 1.0), (1.0, 0.0, 0.5), (1.0,)])
@pytest.mark.parametrize("build", [lambda coin: InitialStateSpec(coin=coin),
                                   lambda coin: new_walker_state(3, 0, coin)],
                         ids=["InitialStateSpec", "new_walker_state"])
def test_coin_amplitudes_must_be_numbers(build, coin):
    # complex() takes most of these, so each became a coin |up>, or failed
    # with a TypeError or IndexError of its own
    with pytest.raises(ValueError, match="coin amplitudes must be two numbers") as info:
        build(coin)
    assert repr(coin) in str(info.value)


def test_initial_position_must_be_an_integer():
    for position in (1.5, "1", True, None):
        with pytest.raises(ValueError) as info:
            InitialStateSpec(position=position)
        assert str(info.value).startswith("position must be")
    # numpy's integers pass, and describe and hash the run as Python's do
    configs = [EnsembleConfig(kind="static", p=0.5, n_steps=4, n_maps=2,
                              initial=InitialStateSpec(position=position))
               for position in (2, np.int64(2))]
    descs = [describe_ensemble(cfg, "qfi") for cfg in configs]
    assert descs[0] == descs[1]
    assert canonical_json(descs[0]) == canonical_json(descs[1])
    assert config_sha256(descs[0]) == config_sha256(descs[1])


def _map_draws(monkeypatch):
    """Count the member draws from here on: the seeds drawn for a lone
    config, a family of one, and those drawn for a map family of more."""
    real = ensemble_mod._family_masks
    lone, shared = [], []

    def counted(family, seed):
        (lone if len(family) == 1 else shared).append(seed)
        return real(family, seed)

    monkeypatch.setattr(ensemble_mod, "_family_masks", counted)
    return lone, shared


# two full blocks and a partial one, at phi != 0 and off the origin
_SHARED = EnsembleConfig(kind="dynamic", p=0.6, n_steps=12,
                         n_maps=2 * ensemble_mod.BLOCK_MAPS + 5,
                         master_seed=31, phi=0.3,
                         initial=InitialStateSpec("separable", position=2))


def _with_initial(cfg, kind, coin=(1.0, 0.0)):
    return dataclasses.replace(
        cfg, initial=InitialStateSpec(kind, position=cfg.initial.position,
                                      coin=coin))


def _assert_same_bits(got, want, label=""):
    """Two `_bits` dicts hold the same arrays bit for bit, None alike."""
    for name, bits in want.items():
        if bits is None:
            assert got[name] is None, f"{label} {name}"
        else:
            np.testing.assert_array_equal(got[name], bits,
                                          err_msg=f"{label} {name}")


def _five_series(cfg):
    """The configs of a two-walker preset panel's five series over cfg's
    maps: the three statistics and the single walkers |x0, up>, |x0, down>."""
    pairs = [_with_initial(cfg, kind)
             for kind in ("separable", "boson", "fermion")]
    return pairs + [_with_initial(cfg, "single", coin)
                    for coin in ((1.0, 0.0), (0.0, 1.0))]


@pytest.mark.parametrize("first", ["separable", "boson", "fermion"])
@pytest.mark.parametrize("workers", [1, 2])
def test_one_evolution_serves_all_five_series(monkeypatch, long_walks,
                                              pool_forks, first, workers):
    # whichever statistic runs first evolves a and b once per map; the
    # other four series are built from its rows, with the bits each run
    # made outside any scope has
    configs = _five_series(_SHARED)
    configs.sort(key=lambda cfg: cfg.initial.kind != first)
    alone = [_bits(run_ensemble(cfg, workers=workers)) for cfg in configs]
    draws, _ = _map_draws(monkeypatch)
    with pool_scope():
        shared = [_bits(run_ensemble(cfg, workers=workers)) for cfg in configs]
    if workers == 1:  # pool workers draw in their own processes
        assert len(draws) == _SHARED.n_maps
    assert (pool_forks == []) == (workers == 1)
    for cfg, want, got in zip(configs, alone, shared):
        _assert_same_bits(got, want, cfg.initial)


def test_outside_a_scope_every_run_evolves(monkeypatch):
    cfg = dataclasses.replace(_SHARED, n_maps=3)
    draws, _ = _map_draws(monkeypatch)
    for other in _five_series(cfg):
        run_ensemble(other)
    assert len(draws) == 5 * cfg.n_maps
    assert ensemble_mod._scope is None


_KEY_CHANGES = {
    "phi": {"phi": 0.5},
    "seed": {"master_seed": 32},
    "order": {"operator_order": OPERATOR_ORDERS[1]},
    "x0": {"initial": InitialStateSpec("separable", position=-1)},
    "p": {"p": 0.7},
    "kind": {"kind": "static"},
    "n_steps": {"n_steps": 11},
    "n_maps": {"n_maps": _SHARED.n_maps - 1},
    "semantics": {"semantics": "exact-pi-fraction"},
    "coin": {"initial": InitialStateSpec(position=2, coin=_BALANCED)},
}


@pytest.mark.parametrize("field", _KEY_CHANGES)
def test_a_run_differing_in_one_key_field_evolves(monkeypatch, field):
    # a two-walker evolution is kept; a run that differs from it in one
    # field that fixes the rows evolves its own maps, and equals its run
    # made outside any scope, while an unchanged rerun is served
    other = dataclasses.replace(_SHARED, **_KEY_CHANGES[field])
    assert other != _SHARED
    want = _bits(run_ensemble(other))
    draws, _ = _map_draws(monkeypatch)
    with pool_scope():
        run_ensemble(_SHARED)
        assert len(draws) == _SHARED.n_maps
        run_ensemble(_SHARED)
        assert len(draws) == _SHARED.n_maps
        got = _bits(run_ensemble(other))
        assert len(draws) == _SHARED.n_maps + other.n_maps
    _assert_same_bits(got, want)


def _stored(cfg):
    """The store keys of every table a run of cfg reads."""
    rows, *sums = ensemble_mod._keys(cfg)
    return set(rows) | {key for key in sums if key is not None}


@pytest.mark.parametrize("collect", [
    {"collect_distribution": True},
    {"collect_variance": True},
    {"per_map_variance": True},
])
def test_a_run_whose_sum_is_not_stored_evolves(monkeypatch, collect):
    # the separable evolution stores the QFI rows a boson run reads, but
    # not its distribution sum or own-variance rows: it evolves
    boson = dataclasses.replace(_with_initial(_SHARED, "boson"), **collect)
    want = _bits(run_ensemble(boson))
    draws, _ = _map_draws(monkeypatch)
    with pool_scope():
        run_ensemble(_SHARED)
        assert set(ensemble_mod._keys(boson)[0]) <= set(ensemble_mod._scope.kept)
        got = _bits(run_ensemble(boson))
        assert len(draws) == 2 * _SHARED.n_maps
        # its own tables are stored in place of the separable run's
        assert set(ensemble_mod._scope.kept) == _stored(boson)
        run_ensemble(_with_initial(_SHARED, "fermion"))
        assert len(draws) == 2 * _SHARED.n_maps
    _assert_same_bits(got, want)


@pytest.mark.parametrize("initial", ["single", "boson"])
@pytest.mark.parametrize("collect", [
    {"collect_qfi": False, "collect_distribution": True,
     "collect_variance": True},
    {"per_map_variance": True},
])
def test_a_rerun_reads_the_store_and_draws_no_map(monkeypatch, initial,
                                                  collect):
    # each rerun reads the tables the first run stored, which none of the
    # runs writes, so every run has the bits of its lone run
    cfg = dataclasses.replace(_with_initial(_SHARED, initial), **collect)
    want = _bits(run_ensemble(cfg))
    draws, _ = _map_draws(monkeypatch)
    with pool_scope():
        for _ in range(3):
            _assert_same_bits(_bits(run_ensemble(cfg)), want)
            assert len(draws) == cfg.n_maps


def test_a_sum_is_stored_under_its_whole_initial_state(monkeypatch):
    # distribution runs over the same maps from the same x0 whose walkers
    # differ evolve each in turn, with the bits of their lone runs
    configs = [dataclasses.replace(_with_initial(_SHARED, kind, coin),
                                   collect_qfi=False, collect_distribution=True)
               for kind, coin in (("separable", (1.0, 0.0)),
                                  ("boson", (1.0, 0.0)),
                                  ("single", (1.0, 0.0)),
                                  ("single", _BALANCED))]
    want = [_bits(run_ensemble(cfg)) for cfg in configs]
    draws, _ = _map_draws(monkeypatch)
    with pool_scope():
        got = [_bits(run_ensemble(cfg)) for cfg in configs]
    assert len(draws) == len(configs) * _SHARED.n_maps
    for cfg, a, b in zip(configs, got, want):
        _assert_same_bits(a, b, cfg.initial)


def test_exception_in_a_nested_scope_stops_the_pool_and_drops_the_store(
        long_walks, pool_forks):
    # the outer scope catches what left the nested one: the nested scope
    # alone stopped the pool and dropped the store
    with pool_scope():
        run_ensemble(_three_block_config(4), workers=2)
        assert pool_forks == [2] and ensemble_mod._scope.kept
        with pytest.raises(RuntimeError, match="inside the nested scope"):
            with pool_scope():
                raise RuntimeError("inside the nested scope")
        assert ensemble_mod._scope.pool is None
        assert ensemble_mod._scope.kept == {}
        assert multiprocessing.active_children() == []
    assert ensemble_mod._scope is None


def test_failure_drops_the_kept_rows():
    with pool_scope():
        run_ensemble(_SHARED)
        assert len(ensemble_mod._scope.kept) == 3
        ensemble_mod._scope.end(terminate=True)
        assert ensemble_mod._scope.kept == {}


def test_fermion_floor_fails_the_separable_run(monkeypatch):
    # F_a = F_b = 0 planted on the third member of the second block at
    # step 5: the separable F of 0 is in range, but the fermion F that the
    # same rows serve, -8 |<a|db>|^2, is not
    real = metrology_mod.qfi_rows
    member = ensemble_mod.BLOCK_MAPS + 2
    row_of = _call_rows(monkeypatch)

    def planted(psi, dpsi, scratch=None):
        values = real(psi, dpsi, scratch)
        row = row_of(member, 2)
        if psi.shape[1] == 5 + 1 and row is not None:  # step 5's t + 1 slots
            values[row:row + 2] = 0.0
        return values

    monkeypatch.setattr(metrology_mod, "qfi_rows", planted)
    cfg = EnsembleConfig(kind="static", p=1.0, n_steps=8,
                         n_maps=ensemble_mod.BLOCK_MAPS + 4, master_seed=11,
                         initial=InitialStateSpec("separable"))
    with pytest.raises(EnsembleMemberError) as info:
        run_ensemble(cfg)
    assert info.value.member_index == member
    assert info.value.member_seed == split_seed(11, member)
    assert "step 5" in str(info.value) and "fermion" in str(info.value)


# the four disordered panels of a scan: one map family
_PANELS = (("static", 0.1), ("static", 1.0), ("dynamic", 0.1), ("dynamic", 1.0))


def _family(cfg):
    return [dataclasses.replace(cfg, kind=kind, p=p) for kind, p in _PANELS]


# each family's configs as (kind, p, semantics): the three of a scan's
# kinds, then a lone config, a family of one, of every kind and semantics
_MASK_FAMILIES = [
    [(kind, p, "bernoulli-uniform")
     for kind in kinds for p in (0.0, 0.1, 0.5, 1.0)]
    for kinds in (("static", "dynamic"), ("static",), ("dynamic",))
] + [
    pytest.param([(kind, p, semantics)], id=f"lone-{kind}-{p}-{semantics}")
    for semantics in SEMANTICS
    for kind, p in [("none", 0.0)] + [(kind, p) for kind in ("static", "dynamic")
                                      for p in (0.0, 0.3, 0.5, 1.0)]
]


@pytest.mark.parametrize("n_steps", [1, 5, 50])
@pytest.mark.parametrize("kinds", _MASK_FAMILIES)
def test_family_masks_equal_generate_map(n_steps, kinds):
    # every config's mask of one family draw, held to its own map, bit for
    # bit: a static or kind "none" map's row, a dynamic map's table.  A
    # family of static maps alone draws only their 2 (2n + 1) cells
    family = [EnsembleConfig(kind=kind, p=p, n_steps=n_steps, n_maps=1,
                             semantics=semantics)
              for kind, p, semantics in kinds]
    for k in range(100):
        seed = split_seed(17, k)
        masks = list(ensemble_mod._family_masks(family, seed))
        assert len(masks) == len(family)
        for cfg, mask in zip(family, masks):
            want = generate_map(cfg.kind, n_steps, cfg.p, cfg.semantics,
                                seed).pi_mask
            if cfg.kind != "dynamic":
                want = want[0]
            assert mask.shape == want.shape and mask.dtype == bool
            np.testing.assert_array_equal(
                mask, want, err_msg=f"{cfg.kind} {cfg.p} {cfg.semantics} {k}")


def _scan_config(order=OPERATOR_ORDERS[0], initial="single"):
    # three blocks, the last partial, at phi != 0 and off the origin, with
    # every output collected
    coin = _BALANCED if initial == "single" else (1.0, 0.0)
    return EnsembleConfig(kind="static", p=0.1, n_steps=12,
                          n_maps=2 * ensemble_mod.BLOCK_MAPS + 2,
                          master_seed=23, phi=0.3,
                          initial=InitialStateSpec(initial, position=-3,
                                                   coin=coin),
                          collect_distribution=True, collect_variance=True,
                          per_map_variance=True, operator_order=order)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("order", OPERATOR_ORDERS)
@pytest.mark.parametrize("initial", ["single", "boson"])
def test_served_family_runs_equal_lone_runs(monkeypatch, long_walks,
                                            pool_forks, workers, order,
                                            initial):
    # the first run evolves all four configs from one draw per member and
    # stores every config's tables; the other three are served from the
    # store, and every run has its lone run's bits
    family = _family(_scan_config(order, initial))
    alone = [_bits(run_ensemble(cfg, workers=workers)) for cfg in family]
    draws, family_draws = _map_draws(monkeypatch)
    with pool_scope():
        ensemble_mod.share_maps(family)
        shared = [_bits(run_ensemble(cfg, workers=workers)) for cfg in family]
        assert set(ensemble_mod._scope.kept) == set().union(*map(_stored, family))
    assert draws == []
    if workers == 1:  # pool workers draw in their own processes
        n_maps = family[0].n_maps
        assert family_draws == [split_seed(23, k) for k in range(n_maps)]
    assert (pool_forks == []) == (workers == 1)
    for cfg, want, got in zip(family, alone, shared):
        _assert_same_bits(got, want, (cfg.kind, cfg.p))


def test_a_family_rerun_is_served_again_from_the_store(monkeypatch):
    # the family's first run stores every config's tables, and every run
    # of one of them after it, a rerun included, reads them and draws
    # nothing
    family = _family(dataclasses.replace(_scan_config(), n_maps=3))
    want = [_bits(run_ensemble(cfg)) for cfg in family]
    draws, family_draws = _map_draws(monkeypatch)
    with pool_scope():
        ensemble_mod.share_maps(family)
        run_ensemble(family[0])
        assert set(ensemble_mod._scope.kept) == set().union(*map(_stored, family))
        assert ensemble_mod._scope.families == {}
        for _ in range(2):
            for cfg, bits in zip(family, want):
                _assert_same_bits(_bits(run_ensemble(cfg)), bits, cfg.kind)
    assert draws == [] and len(family_draws) == 3


_FAMILY_CHANGES = {
    "phi": {"phi": 0.5},
    "phi-sign": {"phi": -0.0},
    "seed": {"master_seed": 24},
    "order": {"operator_order": OPERATOR_ORDERS[1]},
    "x0": {"initial": InitialStateSpec(position=-2, coin=_BALANCED)},
    "coin": {"initial": InitialStateSpec(position=-3)},
    "n_steps": {"n_steps": 11},
    "n_maps": {"n_maps": 2 * ensemble_mod.BLOCK_MAPS + 1},
    "semantics": {"semantics": "exact-pi-fraction"},
    "collect": {"per_map_variance": False},
}


@pytest.mark.parametrize("field", _FAMILY_CHANGES)
def test_a_config_differing_in_another_field_runs_alone(monkeypatch, field):
    # announced beside a family, it runs as a family of one, which draws
    # n_maps times, and the family still draws once per member for its
    # four configs
    cfg = _scan_config()
    if field == "phi-sign":
        cfg = dataclasses.replace(cfg, phi=0.0)
    family = _family(cfg)
    other = dataclasses.replace(family[3], **_FAMILY_CHANGES[field])
    assert ensemble_mod._map_key(other) != ensemble_mod._map_key(family[3])
    want = _bits(run_ensemble(other))
    draws, family_draws = _map_draws(monkeypatch)
    with pool_scope():
        ensemble_mod.share_maps(family + [other])
        assert len(ensemble_mod._scope.families) == len(family)
        got = _bits(run_ensemble(other))
        assert len(draws) == other.n_maps and family_draws == []
        for member in family:
            run_ensemble(member)
    assert len(draws) == other.n_maps
    assert len(family_draws) == cfg.n_maps
    _assert_same_bits(got, want)


def test_an_oversized_family_runs_each_config_alone(monkeypatch):
    # each config fits the limit, their sum does not
    family = _family(dataclasses.replace(_scan_config(), n_maps=5))
    sizes = [ensemble_mod._table_bytes(cfg) for cfg in family]
    monkeypatch.setattr(ensemble_mod, "_MAX_RUN_BYTES", sum(sizes) - 1)
    assert max(sizes) <= ensemble_mod._MAX_RUN_BYTES
    want = [_bits(run_ensemble(cfg)) for cfg in family]
    draws, family_draws = _map_draws(monkeypatch)
    with pool_scope():
        ensemble_mod.share_maps(family)
        assert ensemble_mod._scope.families == {}
        got = [_bits(run_ensemble(cfg)) for cfg in family]
    assert len(draws) == 4 * 5 and family_draws == []
    for a, b in zip(got, want):
        _assert_same_bits(a, b)


def test_share_maps_outside_a_scope_does_nothing(monkeypatch):
    family = _family(dataclasses.replace(_scan_config(), n_maps=2))
    ensemble_mod.share_maps(family)
    draws, _ = _map_draws(monkeypatch)
    for cfg in family:
        run_ensemble(cfg)
    assert len(draws) == 4 * 2


@pytest.mark.parametrize("bad", range(len(_PANELS)))
def test_family_member_failure_names_its_config(monkeypatch, bad):
    # member 70 fails in one config; the first run of the family raises it,
    # names that config, and drops what the scope kept
    real = ensemble_mod._family_masks
    family = _family(_scan_config())
    index = ensemble_mod.BLOCK_MAPS + 6
    bad_seed = split_seed(23, index)

    def broken(configs, seed):
        for cfg, mask in zip(configs, real(configs, seed)):
            if seed == bad_seed and cfg == family[bad]:
                raise ValueError("synthetic failure")
            yield mask

    monkeypatch.setattr(ensemble_mod, "_family_masks", broken)
    with pool_scope():
        ensemble_mod.share_maps(family)
        with pytest.raises(EnsembleMemberError) as info:
            run_ensemble(family[0])
        scope = ensemble_mod._scope
        assert (scope.pool, scope.kept, scope.families) == (None, {}, {})
    assert info.value.member_index == index
    assert info.value.member_seed == bad_seed
    kind, p = _PANELS[bad]
    assert f"{kind} p={p:g}: synthetic failure" in str(info.value)


@pytest.mark.parametrize("panels", [_PANELS, _PANELS[:2], _PANELS[2:3]])
def test_map_stacks_hold_no_draw_or_cell_index_through_a_call(panels):
    # the generator is suspended through every `_run_block` of its call,
    # and holds what its frame references: of the draw and the cone
    # tables, only bool tables, no member's draw nor the int64 cell index
    # (n_steps, n_steps + 1) that gathers dynamic cones
    n = 30
    base = EnsembleConfig(kind="static", p=0.1, n_steps=n, n_maps=3)
    family = [dataclasses.replace(base, kind=kind, p=p) for kind, p in panels]
    stacks = ensemble_mod._map_stacks(family, range(3), 1)
    for _ in family:
        next(stacks)
        held = stacks.gi_frame.f_locals.values()
        assert not [v for v in held if inspect.isgenerator(v)]
        assert not [v for v in held if isinstance(v, np.ndarray)
                    and v.dtype != bool and v.size >= n * (n + 1)]


@pytest.mark.parametrize("collect", _COLLECT)
def test_size_rule_bounds_the_traced_peak_of_a_map_family(collect):
    # a family's first run, two kernel calls, off the origin: it holds
    # every config's stack in a call and every config's results after it,
    # within the sum of the configs' limits
    blocks = ensemble_mod.CALL_BLOCKS + 1
    base = EnsembleConfig(kind="static", p=0.1, n_steps=10,
                          n_maps=(blocks - 1) * ensemble_mod.BLOCK_MAPS + 5,
                          initial=InitialStateSpec(position=3),
                          **_COLLECT[collect])
    family = _family(base)
    with pool_scope():
        warm = _family(dataclasses.replace(base, n_maps=2))
        ensemble_mod.share_maps(warm)
        for cfg in warm:
            run_ensemble(cfg)
        ensemble_mod.share_maps(family)
        tracemalloc.start()
        try:
            run_ensemble(family[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= sum(map(ensemble_mod._table_bytes, family))
