import math

import numpy as np
import pytest

from dqwalk import (
    DerivativePair,
    WalkerState,
    cramer_rao_bound,
    generate_map,
    new_two_particle_state,
    new_walker_state,
    qfi_finite_difference_crosscheck,
    qfi_pure,
    qfi_series,
)
from dqwalk.errors import RowCheckError
from dqwalk.metrology import check_norms, qfi_rows


def _random_pair(seed, t_max=6):
    rng = np.random.default_rng(seed)
    shape = (2 * t_max + 1, 2)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psi /= np.linalg.norm(psi)
    dpsi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return DerivativePair(WalkerState(t_max, psi), WalkerState(t_max, dpsi))


def test_qfi_pure_equals_subtraction_formula():
    for seed in range(10):
        pair = _random_pair(seed)
        psi, dpsi = pair.psi.amplitudes, pair.dpsi.amplitudes
        direct = 4.0 * (
            np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2
        )
        assert qfi_pure(pair) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_qfi_zero_for_proportional_derivative():
    # dpsi = c*psi carries no distinguishing information
    pair = _random_pair(3)
    pair.dpsi.amplitudes = (2.0 - 1.5j) * pair.psi.amplitudes
    assert qfi_pure(pair) == pytest.approx(0.0, abs=1e-12)


def test_qfi_requires_normalized_state():
    pair = _random_pair(4)
    pair.psi.amplitudes = pair.psi.amplitudes * 1.001
    with pytest.raises(ValueError):
        qfi_pure(pair)


def test_qfi_series_first_steps():
    pmap = generate_map("none", 10, 0.0)
    series = qfi_series(new_walker_state(10), pmap, 0.0, 10)
    assert series.n_steps == 10
    assert series.values[0] == 0.0
    assert abs(series.values[1]) < 1e-10
    assert series.values[2] == pytest.approx(1.0, abs=1e-10)
    assert (series.values >= 0.0).all()


def test_qfi_series_monotone_growth_clean_walk():
    pmap = generate_map("none", 40, 0.0)
    series = qfi_series(new_walker_state(40), pmap, 0.0, 40)
    assert (np.diff(series.values[2:]) > 0).all()


def test_qfi_series_phi_independence_clean_walk():
    # with no disorder the QFI cannot depend on the encoded phase value
    pmap = generate_map("none", 15, 0.0)
    a = qfi_series(new_walker_state(15), pmap, 0.0, 15)
    b = qfi_series(new_walker_state(15), pmap, 1.234, 15)
    np.testing.assert_allclose(a.values, b.values, atol=1e-9)


def test_qfi_series_validates_capacity_and_range():
    pmap = generate_map("none", 10, 0.0)
    with pytest.raises(ValueError):
        qfi_series(new_walker_state(5), pmap, 0.0, 10)
    with pytest.raises(ValueError):
        qfi_series(new_walker_state(20), pmap, 0.0, 11)
    with pytest.raises(ValueError):
        qfi_series(new_walker_state(20), pmap, 0.0, 0)


def test_qfi_series_two_particle_separable_additivity():
    pmap = generate_map("dynamic", 12, 0.5, seed=31)
    joint = qfi_series(new_two_particle_state("separable", 12), pmap, 0.0, 12)
    up = qfi_series(new_walker_state(12, coin=(1.0, 0.0)), pmap, 0.0, 12)
    down = qfi_series(new_walker_state(12, coin=(0.0, 1.0)), pmap, 0.0, 12)
    np.testing.assert_allclose(
        joint.values, up.values + down.values, atol=1e-10
    )


def test_finite_difference_crosscheck_value():
    pmap = generate_map("static", 15, 0.8, seed=19)
    s = new_walker_state(15)
    fd_value, fd_dpsi = qfi_finite_difference_crosscheck(s, pmap, 0.6, 15)
    exact = qfi_series(s, pmap, 0.6, 15).values[15]
    assert fd_value == pytest.approx(exact, rel=1e-6, abs=1e-6)
    assert fd_dpsi.amplitudes.shape == s.amplitudes.shape


def test_finite_difference_h_bounds():
    pmap = generate_map("none", 5, 0.0)
    s = new_walker_state(5)
    with pytest.raises(ValueError):
        qfi_finite_difference_crosscheck(s, pmap, 0.0, 5, h=1e-8)
    with pytest.raises(ValueError):
        qfi_finite_difference_crosscheck(s, pmap, 0.0, 5, h=1e-2)


def test_cramer_rao_bound():
    assert cramer_rao_bound(4.0, 1) == 0.5
    assert cramer_rao_bound(1.0, 100) == pytest.approx(0.1)
    assert cramer_rao_bound(0.0, 10) == math.inf
    with pytest.raises(ValueError):
        cramer_rao_bound(-1.0, 10)
    with pytest.raises(ValueError):
        cramer_rao_bound(math.nan, 3)
    with pytest.raises(ValueError):
        cramer_rao_bound(1.0, 0)


def test_bound_improves_with_information_and_trials():
    f1, f2 = 3.0, 12.0
    assert cramer_rao_bound(f2, 5) < cramer_rao_bound(f1, 5)
    assert cramer_rao_bound(f1, 50) < cramer_rao_bound(f1, 5)


def test_nan_fails_the_norm_and_qfi_checks():
    # a comparison with NaN is False, so each check is written to fail on it
    with pytest.raises(RowCheckError, match="nan") as info:
        check_norms(np.array([1.0, np.nan, 1.0]))
    assert info.value.row == 1
    # normalized walkers, one with a NaN derivative: the norms pass, the
    # QFI of that walker is NaN
    psi = np.zeros((2, 3, 3), dtype=np.complex128)
    psi[0, 1] = 1.0
    dpsi = np.zeros_like(psi)
    dpsi[1, 2, 2] = np.nan
    with pytest.raises(RowCheckError, match="nan") as info:
        qfi_rows(psi, dpsi)
    assert info.value.row == 2
