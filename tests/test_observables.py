import numpy as np
import pytest

from dqwalk import (
    PositionDistribution,
    StepContext,
    WalkerState,
    generate_map,
    new_two_particle_state,
    new_walker_state,
    position_distribution,
    position_variance,
    step,
    two_particle_step,
)
from dqwalk.errors import RowCheckError
from dqwalk.metrology import NORM_TOL
from dqwalk.states import ConeStack


def _evolve(state, pmap, n_steps, phi=0.0):
    stepper = two_particle_step if hasattr(state, "symmetry") else step
    for t in range(1, n_steps + 1):
        state = stepper(state, StepContext(phi, t, pmap))
    return state


def test_distribution_t2_clean_walk():
    s = _evolve(new_walker_state(2), generate_map("none", 2, 0.0), 2)
    dist = position_distribution(s)
    probs = dict(zip(dist.positions().tolist(), dist.probabilities.tolist()))
    assert probs[-2] == pytest.approx(0.25, abs=1e-12)
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[2] == pytest.approx(0.25, abs=1e-12)
    assert probs[-1] == probs[1] == 0.0


def test_distribution_normalization_under_disorder():
    pmap = generate_map("dynamic", 60, 0.8, seed=14)
    s = _evolve(new_walker_state(60), pmap, 60, phi=0.4)
    dist = position_distribution(s)
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert (dist.probabilities >= 0).all()


def test_distribution_rejects_unnormalized_state():
    s = new_walker_state(3)
    s.amplitudes *= 1.01
    with pytest.raises(ValueError):
        position_distribution(s)


def test_distribution_of_a_stack_is_one_marginal_per_walker():
    pmaps = [generate_map("dynamic", 9, 0.6, seed=seed) for seed in (1, 2, 3)]
    singles = [_evolve(new_walker_state(9), pmap, 9, phi=0.3) for pmap in pmaps]
    # (coin, site, walker) memory, as the ensembles hold their walkers
    cells = np.stack([s.amplitudes.T for s in singles], axis=-1)
    stack = WalkerState(9, cells.transpose(2, 1, 0)[:, None])
    dist = position_distribution(stack)
    assert dist.probabilities.shape == (3, 1, 19)
    for b, single in enumerate(singles):
        assert np.array_equal(dist.probabilities[b, 0],
                              position_distribution(single).probabilities)
    stack.amplitudes[2] *= 1.01
    with pytest.raises(RowCheckError) as info:
        position_distribution(stack)
    assert info.value.row == 2


def test_two_particle_marginals_symmetrized_states_match():
    pmap = generate_map("static", 10, 1.0, seed=4)
    for kind in ("boson", "fermion"):
        s = _evolve(new_two_particle_state(kind, 10), pmap, 10)
        d0 = position_distribution(s, particle=0)
        d1 = position_distribution(s, particle=1)
        np.testing.assert_allclose(
            d0.probabilities, d1.probabilities, atol=1e-12
        )
        assert d0.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_two_particle_marginal_equals_single_walker_for_product_state():
    pmap = generate_map("dynamic", 8, 0.6, seed=41)
    joint = _evolve(new_two_particle_state("separable", 8), pmap, 8)
    single_up = _evolve(new_walker_state(8, coin=(1.0, 0.0)), pmap, 8)
    single_down = _evolve(new_walker_state(8, coin=(0.0, 1.0)), pmap, 8)
    np.testing.assert_allclose(
        position_distribution(joint, particle=0).probabilities,
        position_distribution(single_up).probabilities,
        atol=1e-13,
    )
    np.testing.assert_allclose(
        position_distribution(joint, particle=1).probabilities,
        position_distribution(single_down).probabilities,
        atol=1e-13,
    )


def test_marginal_particle_index_validation():
    s = new_two_particle_state("boson", 3)
    with pytest.raises(ValueError):
        position_distribution(s, particle=2)


def test_variance_hand_values():
    # all mass at x = 0
    d = PositionDistribution(2, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    assert position_variance(d) == 0.0
    # half at -1, half at +1: mean 0, var 1
    d = PositionDistribution(1, np.array([0.5, 0.0, 0.5]))
    assert position_variance(d) == pytest.approx(1.0)
    # asymmetric: 3/4 at +2, 1/4 at -2 -> mean 1, <x^2> = 4, var 3
    d = PositionDistribution(2, np.array([0.25, 0.0, 0.0, 0.0, 0.75]))
    assert position_variance(d) == pytest.approx(3.0)


def test_variance_after_one_step_is_one():
    s = _evolve(new_walker_state(1), generate_map("none", 1, 0.0), 1)
    assert position_variance(position_distribution(s)) == pytest.approx(1.0)


def test_variance_requires_normalized_distribution():
    d = PositionDistribution(1, np.array([0.5, 0.0, 0.4]))
    with pytest.raises(ValueError):
        position_variance(d)


def test_variance_of_a_stack_is_the_variance_of_each_row():
    rng = np.random.default_rng(5)
    t_max = 20
    probs = rng.random((3, 4, 2 * t_max + 1))
    probs /= probs.sum(axis=-1, keepdims=True)
    stacked = position_variance(PositionDistribution(t_max, probs))
    assert stacked.shape == (3, 4)
    rows = [position_variance(PositionDistribution(t_max, row))
            for row in probs.reshape(12, -1)]
    assert all(type(v) is float for v in rows)
    # a row alone is a dot product and a stack one BLAS matrix-vector
    # product, which need not add a row's terms in the same order
    np.testing.assert_allclose(stacked.ravel(), rows, rtol=0,
                               atol=1e-15 * t_max**2)


@pytest.mark.parametrize("bad_row", ["off", "nan"])
def test_variance_checks_every_row_of_a_stack(bad_row):
    probs = np.full((3, 5), 0.2)
    probs[1] = np.nan if bad_row == "nan" else 0.2 * (1 + 2 * NORM_TOL)
    with pytest.raises(ValueError, match="sum to"):
        position_variance(PositionDistribution(2, probs))


def test_ballistic_variance_growth_clean_walk():
    # symmetric input spreads ballistically: var(2t) = 4 var(t) up to
    # the oscillatory subleading term
    c = 1.0 / np.sqrt(2.0)
    pmap = generate_map("none", 80, 0.0)
    s = new_walker_state(80, coin=(c, c * 1j))
    variances = {}
    state = s
    for t in range(1, 81):
        state = step(state, StepContext(0.0, t, pmap))
        if t in (40, 80):
            variances[t] = position_variance(position_distribution(state))
    ratio = variances[80] / variances[40]
    assert 3.5 < ratio < 4.5


def test_cone_distribution_lists_the_cone_sites():
    # the ordered walk two steps from x0 = 1, once on the lattice, once on
    # its three light-cone slots (sites -1, 1, 3)
    c = 1.0 / np.sqrt(2.0)
    pmap = generate_map("none", 2, 0.0)
    state = new_walker_state(3, position=1, coin=(c, c * 1j))
    for t in (1, 2):
        state = step(state, StepContext(0.0, t, pmap))
    lattice = position_distribution(state)
    # (coin, slot, row) cells of one row
    cells = state.amplitudes[2:7:2].T[:, :, None]
    cone = position_distribution(ConeStack(cells, origin=1))
    assert cone.probabilities.shape == (3, 1) and cone.t_max == 3
    np.testing.assert_array_equal(cone.positions(), [-1, 1, 3])
    np.testing.assert_array_equal(cone.probabilities[:, 0],
                                  lattice.probabilities[2:7:2])
    row = PositionDistribution(cone.t_max, cone.probabilities[:, 0], 1)
    assert position_variance(row) == pytest.approx(position_variance(lattice),
                                                   abs=1e-14)
