"""The step and its pieces, each seen in one step from a localized walker,
checked against hand-worked amplitudes.

The t = 2 clean-walk state from the up input is worked out explicitly:
psi_2 = (|2,up> + |0,down> + |0,up> - |-2,down>) / 2, and its derivative
state is i|2,up> + i|0,down> + (i/2)|0,up> - (i/2)|-2,down>.
"""

import math

import numpy as np
import pytest

from dqwalk import (
    DOWN,
    PHASE_FIRST,
    PHASE_LAST,
    UP,
    BoundaryError,
    DerivativePair,
    EnsembleConfig,
    InitialStateSpec,
    StepContext,
    TwoParticleState,
    WalkerState,
    generate_map,
    inner_product,
    new_two_particle_state,
    new_walker_state,
    qfi_pure,
    split_seed,
    step,
    step_with_derivative,
    support_radius,
    two_particle_step,
    two_particle_step_with_derivative,
)
from dqwalk.ensemble import _map_stacks
from dqwalk.states import ConeStack

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _ctx(phi=0.0, t=1, pmap=None, order=PHASE_FIRST, n_steps=8):
    if pmap is None:
        pmap = generate_map("none", n_steps, 0.0)
    return StepContext(phi, t, pmap, order)


def _one_step(coin, ctx, position=0, t_max=2):
    """The amplitudes one step takes a walker at `position` to."""
    return step(new_walker_state(t_max, position, coin), ctx).amplitudes


def test_coin_on_up_and_down():
    # a clean step at phi = 0 is S C: the coin's up output lands at x = 1,
    # its down output at x = -1
    a = _one_step((1.0, 0.0), _ctx())
    assert a[3, UP] == pytest.approx(INV_SQRT2)
    assert a[1, DOWN] == pytest.approx(INV_SQRT2)
    a = _one_step((0.0, 1.0), _ctx())
    assert a[3, UP] == pytest.approx(INV_SQRT2)
    assert a[1, DOWN] == pytest.approx(-INV_SQRT2)


@pytest.mark.parametrize("order", [PHASE_FIRST, PHASE_LAST])
def test_step_is_unitary(order):
    # <U u|U v> = <u|v> for walkers with room for a step, under disorder
    rng = np.random.default_rng(0)
    pmap = generate_map("dynamic", 3, 0.8, seed=5)
    u, v = (WalkerState(3, rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2)))
            for _ in range(2))
    for w in (u, v):
        w.amplitudes[[0, -1]] = 0
    ctx = _ctx(phi=0.9, t=2, pmap=pmap, order=order)
    assert inner_product(step(u, ctx), step(v, ctx)) == pytest.approx(
        inner_product(u, v), abs=1e-14)


def test_shift_moves_up_right_and_down_left():
    # the coin takes (1, 1)/sqrt2 to up alone, (1, -1)/sqrt2 to down alone
    a = _one_step((INV_SQRT2, INV_SQRT2), _ctx(), position=1)
    assert a[4, UP] == pytest.approx(1.0)
    assert np.count_nonzero(np.abs(a) > 1e-15) == 1
    a = _one_step((INV_SQRT2, -INV_SQRT2), _ctx(), position=1)
    assert a[2, DOWN] == pytest.approx(1.0)
    assert np.count_nonzero(np.abs(a) > 1e-15) == 1


def test_shift_raises_at_lattice_edge():
    # amplitude the shift would carry off either edge, of psi or of dpsi,
    # in either order; an edge site whose coined amplitude moves inward
    # steps
    for order in (PHASE_FIRST, PHASE_LAST):
        ctx = _ctx(order=order)
        for position, coin in ((2, (1.0, 0.0)), (-2, (0.0, 1.0))):
            s = new_walker_state(2, position, coin)
            with pytest.raises(BoundaryError):
                step(s, ctx)
            with pytest.raises(BoundaryError):
                step_with_derivative(DerivativePair.initial(s), ctx)
            with pytest.raises(BoundaryError):
                step_with_derivative(DerivativePair(new_walker_state(2), s), ctx)
        s = new_walker_state(2, 2, (INV_SQRT2, -INV_SQRT2))
        assert support_radius(step(s, ctx)) == 1


def test_phase_acts_on_up_only():
    # phase-last: P multiplies the up amplitude S C left at x = 1
    a = _one_step((1.0, 0.0), _ctx(phi=0.7, order=PHASE_LAST))
    assert a[3, UP] == pytest.approx(INV_SQRT2 * np.exp(0.7j))
    assert a[1, DOWN] == pytest.approx(INV_SQRT2)


def test_phase_picks_up_map_sign():
    pmap = generate_map("static", 3, 1.0, seed=1)
    row = pmap.row(1)
    a = _one_step((1.0, 0.0), _ctx(phi=0.0, pmap=pmap, order=PHASE_LAST),
                  t_max=3)
    expected = -1.0 if row[pmap.n_steps + 1] else 1.0
    assert a[4, UP] == pytest.approx(expected * INV_SQRT2)
    assert a[2, DOWN] == pytest.approx(INV_SQRT2)


def test_phase_derivative_multiplies_by_i_and_zeroes_down():
    # phase-last from dpsi = 0: dpsi' = dP S C psi
    pair = step_with_derivative(DerivativePair.initial(new_walker_state(2)),
                                _ctx(phi=0.3, order=PHASE_LAST))
    d = pair.dpsi.amplitudes
    assert d[3, UP] == pytest.approx(1j * np.exp(0.3j) * INV_SQRT2)
    assert d[1, DOWN] == 0.0
    assert pair.psi.amplitudes[1, DOWN] == pytest.approx(INV_SQRT2)


def test_phase_last_order_composes_after_shift():
    # P S C: the clean phase-free step, then e^{i(phi + dphi)} on up at
    # the sites the walker reached
    pmap = generate_map("dynamic", 4, 1.0, seed=9)
    s = new_walker_state(4)
    ctx = _ctx(phi=0.2, pmap=pmap, order=PHASE_LAST)
    via_step = step(s, ctx)
    composed = step(s, _ctx(phi=0.0, n_steps=4)).amplitudes
    composed[:, UP] *= np.exp(0.2j) * pmap.step_signs(1, 4)
    assert np.array_equal(via_step.amplitudes, composed)
    # with disorder the two orders genuinely differ
    first = step(s, _ctx(phi=0.2, pmap=pmap))
    assert not np.allclose(first.amplitudes, via_step.amplitudes)


def test_step_preserves_norm_under_disorder():
    pmap = generate_map("dynamic", 40, 0.6, seed=11)
    s = new_walker_state(40, coin=(0.6, 0.8j))
    for t in range(1, 41):
        s = step(s, _ctx(phi=1.1, t=t, pmap=pmap, n_steps=40))
    assert s.norm() == pytest.approx(1.0, abs=1e-13)


def test_light_cone():
    pmap = generate_map("dynamic", 20, 1.0, seed=2)
    s = new_walker_state(20)
    for t in range(1, 21):
        s = step(s, _ctx(phi=0.0, t=t, pmap=pmap, n_steps=20))
        assert support_radius(s) <= t


def test_two_step_amplitudes_hand_oracle():
    s = new_walker_state(2)
    pmap = generate_map("none", 2, 0.0)
    s1 = step(s, StepContext(0.0, 1, pmap))
    s2 = step(s1, StepContext(0.0, 2, pmap))
    idx = s.index_of
    a = s2.amplitudes
    assert a[idx(2), UP] == pytest.approx(0.5)
    assert a[idx(0), DOWN] == pytest.approx(0.5)
    assert a[idx(0), UP] == pytest.approx(0.5)
    assert a[idx(-2), DOWN] == pytest.approx(-0.5)


def test_two_step_derivative_hand_oracle():
    s = new_walker_state(2)
    pmap = generate_map("none", 2, 0.0)
    pair = DerivativePair.initial(s)
    pair = step_with_derivative(pair, StepContext(0.0, 1, pmap))
    # after one step: psi_1 = (|1,up> + |-1,down>)/sqrt2, dpsi_1 = i psi_1
    np.testing.assert_allclose(
        pair.dpsi.amplitudes, 1j * pair.psi.amplitudes, atol=1e-15
    )
    assert inner_product(pair.psi, pair.dpsi) == pytest.approx(1j)
    pair = step_with_derivative(pair, StepContext(0.0, 2, pmap))
    idx = s.index_of
    d = pair.dpsi.amplitudes
    assert d[idx(2), UP] == pytest.approx(1j)
    assert d[idx(0), DOWN] == pytest.approx(1j)
    assert d[idx(0), UP] == pytest.approx(0.5j)
    assert d[idx(-2), DOWN] == pytest.approx(-0.5j)
    assert inner_product(pair.dpsi, pair.dpsi) == pytest.approx(2.5)
    assert inner_product(pair.psi, pair.dpsi) == pytest.approx(1.5j)


def test_step_with_derivative_psi_component_bitwise():
    pmap = generate_map("static", 10, 0.5, seed=4)
    s = new_walker_state(10, coin=(0.6, 0.8))
    pair = DerivativePair.initial(s)
    plain = s
    for t in range(1, 11):
        ctx = StepContext(0.9, t, pmap)
        pair = step_with_derivative(pair, ctx)
        plain = step(plain, ctx)
        assert np.array_equal(pair.psi.amplitudes, plain.amplitudes)


@pytest.mark.parametrize("order", [PHASE_FIRST, PHASE_LAST])
def test_stacked_step_with_out_matches_one_map_steps(order):
    # three maps stacked as a block stacks them, on the light-cone slots the
    # ensembles step; walkers started off the origin reach sites past the
    # maps' lattice, so the cone table's cleared slots count
    n, position = 6, 1
    t_max = n + position
    cfg = EnsembleConfig(kind="dynamic", p=0.5, n_steps=n, n_maps=3, master_seed=1,
                         phi=0.4, initial=InitialStateSpec(position=position),
                         operator_order=order)
    (stack,) = _map_stacks((cfg,), range(3), 1)
    pmaps = [generate_map("dynamic", n, 0.5, seed=split_seed(1, b)) for b in range(3)]
    s = new_walker_state(t_max, position, (INV_SQRT2, INV_SQRT2))

    def cells(t):
        return np.zeros((2, t + 1, 3), dtype=complex)

    start = np.repeat(s.amplitudes[position + t_max][:, None, None], 3, axis=2)
    cur = ConeStack(start.copy(), cells(0), position)
    plain = ConeStack(start.copy(), origin=position)
    singles = [DerivativePair.initial(s) for _ in pmaps]
    for t in range(1, n + 1):
        nxt = ConeStack(cells(t), cells(t), position)
        plain_next = ConeStack(cells(t), origin=position)
        step_with_derivative(cur, StepContext(0.4, t, stack, order), out=nxt)
        step(plain, StepContext(0.4, t, stack, order), out=plain_next)
        cur, plain = nxt, plain_next
        singles = [step_with_derivative(pair, StepContext(0.4, t, pmap, order))
                   for pair, pmap in zip(singles, pmaps)]
        values = qfi_pure(cur)
        assert cur.psi.shape == cur.dpsi.shape == (2, t + 1, 3)
        assert values.shape == (3,)
        rows = cur.positions() + t_max
        for b, pair in enumerate(singles):
            assert np.array_equal(cur.psi[:, :, b].T, pair.psi.amplitudes[rows])
            assert np.array_equal(cur.dpsi[:, :, b].T, pair.dpsi.amplitudes[rows])
            assert np.array_equal(plain.psi[:, :, b].T, pair.psi.amplitudes[rows])
            assert values[b] == qfi_pure(pair)


@pytest.mark.parametrize("order", [PHASE_FIRST, PHASE_LAST])
def test_walker_stack_steps_equal_separate_steps_bitwise(order):
    # a (B, W, 2) stack of walkers, stepped as one state, against B
    # one-walker steps: the two-walker tensor step rests on this
    rng = np.random.default_rng(5)
    pmap = generate_map("dynamic", 6, 0.7, seed=8)
    a = rng.normal(size=(4, 13, 2)) + 1j * rng.normal(size=(4, 13, 2))
    a[:, [0, 1, -2, -1]] = 0  # room for two steps
    a /= np.linalg.norm(a, axis=(1, 2), keepdims=True)
    da = rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)
    da[:, [0, 1, -2, -1]] = 0
    pair = DerivativePair(WalkerState(6, a), WalkerState(6, da))
    plain = WalkerState(6, a)
    ones = [DerivativePair(WalkerState(6, a[b]), WalkerState(6, da[b]))
            for b in range(4)]
    for t in (1, 2):
        ctx = _ctx(phi=0.3, t=t, pmap=pmap, order=order)
        pair, plain = step_with_derivative(pair, ctx), step(plain, ctx)
        ones = [step_with_derivative(one, ctx) for one in ones]
        for b, one in enumerate(ones):
            for got, want in ((pair.psi, one.psi), (pair.dpsi, one.dpsi),
                              (plain, one.psi)):
                assert np.array_equal(got.amplitudes[b].view(np.uint64),
                                      want.amplitudes.view(np.uint64))
    # a walker that touches an edge stops the whole stack
    ctx = _ctx(t=1, pmap=pmap, order=order)
    for edge in (0, -1):
        for coin in (UP, DOWN):
            edged = WalkerState(6, np.zeros((4, 13, 2), dtype=complex))
            edged.amplitudes[:, 6, UP] = 1.0
            edged.amplitudes[2, 6, UP] = 0.0
            edged.amplitudes[2, edge, coin] = 1.0
            with pytest.raises(BoundaryError):
                step(edged, ctx)
            with pytest.raises(BoundaryError):
                step_with_derivative(DerivativePair.initial(edged), ctx)


def test_map_stack_steps_only_at_its_own_phi():
    # a MapStack forms its phase factors at its phi once; a step at any
    # other phi must not read them
    cfg = EnsembleConfig(kind="static", p=0.6, n_steps=4, n_maps=2, phi=0.3)
    (stack,) = _map_stacks((cfg,), range(2), 1)
    start = np.zeros((2, 1, 2), dtype=complex)
    start[UP] = 1.0
    out = ConeStack(np.zeros((2, 2, 2), dtype=complex))
    step(ConeStack(start), StepContext(0.3, 1, stack), out=out)
    with pytest.raises(ValueError, match="phi = 0.0 under a map stack formed at phi = 0.3"):
        step(ConeStack(start), StepContext(0.0, 1, stack), out=out)
    with pytest.raises(ValueError, match="map stack formed at"):
        step_with_derivative(
            ConeStack(start, np.zeros_like(start)), StepContext(0.4, 1, stack),
            out=ConeStack(out.psi, np.zeros_like(out.psi)))


@pytest.mark.parametrize("kind,p", [("none", 0.0), ("static", 0.6),
                                    ("dynamic", 0.6)])
@pytest.mark.parametrize("order", [PHASE_FIRST, PHASE_LAST])
def test_map_stack_steps_only_its_own_cones(kind, p, order):
    # a MapStack serves the one cone each step of its kernel call acts
    # on; walkers from another origin or one slot off, or a step in the
    # operator order the stack was not built for, must not read it
    cfg = EnsembleConfig(kind=kind, p=p, n_steps=4, n_maps=2, phi=0.3,
                         initial=InitialStateSpec(position=1),
                         operator_order=order)
    (stack,) = _map_stacks((cfg,), range(2), 1)
    other = PHASE_LAST if order == PHASE_FIRST else PHASE_FIRST

    def routes(slots, origin):
        """`step` and `step_with_derivative` from `slots` slots at origin
        into one slot more, by their `out` routes."""
        def cells(n):
            c = np.zeros((2, n, 2), dtype=complex)
            c[UP, 0] = 1.0
            return c

        return (
            lambda ctx: step(ConeStack(cells(slots), origin=origin), ctx,
                             out=ConeStack(cells(slots + 1), origin=origin)),
            lambda ctx: step_with_derivative(
                ConeStack(cells(slots), cells(slots), origin), ctx,
                out=ConeStack(cells(slots + 1), cells(slots + 1), origin)),
        )

    ctx = StepContext(0.3, 2, stack, order)
    for route in routes(2, 1):
        route(ctx)
    for (slots, origin), wrong in (((2, 0), ctx), ((3, 1), ctx),
                                   ((2, 1), StepContext(0.3, 2, stack, other))):
        for route in routes(slots, origin):
            with pytest.raises(ValueError, match="acts on the cone"):
                route(wrong)


def test_out_route_takes_cone_stacks_only():
    # `out` names the ConeStack a step is written into: a walker state, a
    # DerivativePair or bare cells there are caller errors, and a stack
    # with dpsi steps into one with dpsi, one without into one without
    cfg = EnsembleConfig(kind="static", p=0.6, n_steps=4, n_maps=2, phi=0.3)
    (stack,) = _map_stacks((cfg,), range(2), 1)
    ctx = StepContext(0.3, 1, stack)

    def cells(n):
        c = np.zeros((2, n, 2), dtype=complex)
        c[UP, 0] = 1.0
        return c

    walker = WalkerState(1, np.zeros((3, 2), dtype=complex))
    for out in (walker, DerivativePair(walker, walker), cells(2)):
        with pytest.raises(TypeError, match="out must be a ConeStack"):
            step(ConeStack(cells(1)), ctx, out=out)
        with pytest.raises(TypeError, match="out must be a ConeStack"):
            step_with_derivative(ConeStack(cells(1), cells(1)), ctx, out=out)
    with pytest.raises(ValueError, match="with dpsi steps into one with dpsi"):
        step(ConeStack(cells(1)), ctx, out=ConeStack(cells(2), cells(2)))
    with pytest.raises(ValueError, match="with dpsi steps into one with dpsi"):
        step_with_derivative(ConeStack(cells(1), cells(1)), ctx,
                             out=ConeStack(cells(2)))


def _fd_derivative(initial, pmap, phi, n_steps, order, h=1e-5):
    def evolve(phi_value):
        s = initial
        stepper = (
            two_particle_step
            if hasattr(initial, "symmetry")
            else step
        )
        for t in range(1, n_steps + 1):
            s = stepper(s, StepContext(phi_value, t, pmap, order))
        return s

    plus, minus = evolve(phi + h), evolve(phi - h)
    return (plus.amplitudes - minus.amplitudes) / (2.0 * h)


@pytest.mark.parametrize("kind,p", [("static", 0.7), ("dynamic", 0.4)])
@pytest.mark.parametrize("order", [PHASE_FIRST, PHASE_LAST])
def test_derivative_recursion_matches_finite_difference(kind, p, order):
    pmap = generate_map(kind, 12, p, seed=21)
    s = new_walker_state(12)
    pair = DerivativePair.initial(s)
    for t in range(1, 13):
        pair = step_with_derivative(pair, StepContext(0.5, t, pmap, order))
    fd = _fd_derivative(s, pmap, 0.5, 12, order)
    assert np.max(np.abs(pair.dpsi.amplitudes - fd)) < 1e-6


def test_step_context_validation():
    pmap = generate_map("none", 5, 0.0)
    with pytest.raises(ValueError):
        StepContext(0.0, 0, pmap)
    with pytest.raises(ValueError):
        StepContext(0.0, 6, pmap)
    with pytest.raises(ValueError):
        StepContext(0.0, 1, pmap, order="phase-middle")


def test_two_particle_step_norm_and_light_cone():
    pmap = generate_map("dynamic", 10, 1.0, seed=6)
    s = new_two_particle_state("boson", 10)
    for t in range(1, 11):
        s = two_particle_step(s, StepContext(0.3, t, pmap))
        assert support_radius(s) <= t
    assert s.norm() == pytest.approx(1.0, abs=1e-13)


def test_two_particle_step_factorizes_on_separable_input():
    # joint evolution of walker1 (x) walker2 must equal the tensor of the
    # single evolutions when the input is a product state
    pmap = generate_map("static", 8, 0.9, seed=13)
    joint = new_two_particle_state("separable", 8)
    s_up = new_walker_state(8, coin=(1.0, 0.0))
    s_down = new_walker_state(8, coin=(0.0, 1.0))
    for t in range(1, 9):
        ctx = StepContext(0.7, t, pmap)
        joint = two_particle_step(joint, ctx)
        s_up = step(s_up, ctx)
        s_down = step(s_down, ctx)
    tensor = np.tensordot(s_up.amplitudes, s_down.amplitudes, axes=0)
    assert np.max(np.abs(joint.amplitudes - tensor)) < 1e-14


@pytest.mark.parametrize("kind", ["separable", "boson", "fermion"])
def test_initial_pair_of_a_tensor_keeps_its_symmetry(kind):
    state = new_two_particle_state(kind, 3)
    pair = DerivativePair.initial(state)
    assert pair.psi is state
    assert isinstance(pair.dpsi, TwoParticleState)
    assert pair.dpsi.symmetry == kind
    assert pair.dpsi.amplitudes.dtype == complex
    assert not pair.dpsi.amplitudes.any()
    assert pair.dpsi.amplitudes.shape == state.amplitudes.shape


def test_initial_pair_of_a_stack_has_zeros_of_its_shape():
    stack = np.zeros((4, 3, 7, 2), dtype=complex)
    stack[..., 3, UP] = 1.0
    pair = DerivativePair.initial(WalkerState(3, stack))
    assert type(pair.dpsi) is WalkerState
    assert pair.dpsi.amplitudes.shape == (4, 3, 7, 2)
    assert pair.dpsi.amplitudes.dtype == complex
    assert not pair.dpsi.amplitudes.any()
    # each walker of the stack steps as it would alone
    ctx = _ctx(phi=0.3)
    one = step_with_derivative(DerivativePair.initial(new_walker_state(3)), ctx)
    out = step_with_derivative(pair, ctx)
    for got, alone in ((out.psi, one.psi), (out.dpsi, one.dpsi)):
        assert got.amplitudes.shape == (4, 3, 7, 2)
        assert np.array_equal(got.amplitudes,
                              np.broadcast_to(alone.amplitudes, (4, 3, 7, 2)))


def test_two_particle_derivative_psi_component_bitwise():
    pmap = generate_map("dynamic", 6, 0.5, seed=17)
    pair = DerivativePair.initial(new_two_particle_state("fermion", 6))
    plain = new_two_particle_state("fermion", 6)
    for t in range(1, 7):
        ctx = StepContext(0.2, t, pmap)
        pair = two_particle_step_with_derivative(pair, ctx)
        plain = two_particle_step(plain, ctx)
        assert np.array_equal(pair.psi.amplitudes, plain.amplitudes)


@pytest.mark.parametrize("statistics", ["separable", "boson", "fermion"])
def test_two_particle_derivative_matches_finite_difference(statistics):
    # both operator orders, from the origin and off centre
    pmap = generate_map("dynamic", 8, 0.6, seed=23)
    for order in (PHASE_FIRST, PHASE_LAST):
        for position in (0, 2):
            s = new_two_particle_state(statistics, position + 8, position=position)
            pair = DerivativePair.initial(s)
            for t in range(1, 9):
                pair = two_particle_step_with_derivative(
                    pair, StepContext(0.4, t, pmap, order))
            fd = _fd_derivative(s, pmap, 0.4, 8, order)
            assert np.max(np.abs(pair.dpsi.amplitudes - fd)) < 1e-6, (order, position)


def test_two_particle_step_raises_at_lattice_edge():
    # an amplitude on an edge site of either particle, in either coin state,
    # stops the joint step with and without the derivative
    ctx = _ctx(t=1, n_steps=3)
    for particle in (0, 1):
        for edge in (0, -1):
            for coin in (UP, DOWN):
                s = new_two_particle_state("separable", 3)
                cell = [3, DOWN, 3, UP]
                cell[2 * particle], cell[2 * particle + 1] = edge, coin
                s.amplitudes[tuple(cell)] = 1.0
                with pytest.raises(BoundaryError):
                    two_particle_step(s, ctx)
                with pytest.raises(BoundaryError):
                    two_particle_step_with_derivative(DerivativePair.initial(s), ctx)
