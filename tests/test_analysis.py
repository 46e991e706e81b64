import functools

import numpy as np
import pytest

from dqwalk import EnsembleConfig, fit_power_law, run_ensemble, windowed_alpha
from dqwalk.analysis import ZERO_FLOOR


def _planted(alpha, amplitude=1.0, n=101):
    t = np.arange(n, dtype=float)
    values = np.zeros(n)
    values[1:] = amplitude * t[1:] ** alpha
    return values


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_recovers_planted_exponent(alpha):
    fit = fit_power_law(_planted(alpha), 1, 100)
    assert fit.alpha == pytest.approx(alpha, abs=1e-10)
    assert fit.amplitude == pytest.approx(1.0, rel=1e-10)
    assert fit.residual_rms < 1e-12


def test_recovers_planted_amplitude():
    fit = fit_power_law(_planted(1.5, amplitude=0.037), 5, 80)
    assert fit.amplitude == pytest.approx(0.037, rel=1e-10)
    assert fit.alpha == pytest.approx(1.5, abs=1e-10)


def test_fit_range_is_inclusive_and_respected():
    # different exponents inside and outside the window
    t = np.arange(101, dtype=float)
    values = np.zeros(101)
    values[1:51] = t[1:51] ** 2.0
    values[51:] = values[50] * (t[51:] / 50.0) ** 0.5
    fit = fit_power_law(values, 10, 50)
    assert fit.alpha == pytest.approx(2.0, abs=1e-9)
    assert fit.n_points == 41


def test_zeros_are_excluded():
    values = _planted(2.0)
    values[7] = 0.0
    fit = fit_power_law(values, 1, 100)
    assert fit.alpha == pytest.approx(2.0, abs=1e-10)
    assert fit.n_points == 99


def test_cancellation_dust_counts_as_zero():
    # an analytically-zero entry can come back as ~1e-31 after cancellation;
    # its log must not be allowed to tilt the fit
    values = _planted(2.0)
    values[1] = 9.9e-32
    fit = fit_power_law(values, 1, 100)
    assert fit.alpha == pytest.approx(2.0, abs=1e-10)
    assert fit.n_points == 99


def test_negative_values_raise():
    values = _planted(1.0)
    values[11] = -0.5
    with pytest.raises(ValueError):
        fit_power_law(values, 1, 100)


def test_too_few_points_raise():
    values = _planted(1.0)
    with pytest.raises(ValueError):
        fit_power_law(values, 4, 5)
    sparse = np.zeros(101)
    sparse[10] = 10.0
    sparse[20] = 20.0
    with pytest.raises(ValueError):
        fit_power_law(sparse, 1, 100)


def test_range_validation():
    values = _planted(1.0)
    with pytest.raises(ValueError):
        fit_power_law(values, 0, 50)
    with pytest.raises(ValueError):
        fit_power_law(values, 30, 30)


def test_custom_steps_axis():
    steps = np.array([2, 4, 8, 16, 32, 64])
    values = 3.0 * steps.astype(float) ** 1.25
    fit = fit_power_law(values, 2, 64, steps=steps)
    assert fit.alpha == pytest.approx(1.25, abs=1e-10)
    assert fit.n_points == 6


def test_noise_tolerance_sanity():
    rng = np.random.default_rng(0)
    t = np.arange(1, 201, dtype=float)
    values = np.concatenate(([0.0], t**1.7 * np.exp(rng.normal(0, 0.05, 200))))
    fit = fit_power_law(values, 10, 200)
    assert fit.alpha == pytest.approx(1.7, abs=0.05)
    assert fit.residual_rms < 0.1


def test_windowed_alpha_constant_for_exact_power_law():
    series = windowed_alpha(_planted(1.5), window=20)
    np.testing.assert_allclose(series.alphas, 1.5, atol=1e-10)
    assert series.window == 20
    # centers cover every step whose window fits into 1..100
    assert series.centers[0] == 11
    assert series.centers[-1] == 90


def test_windowed_alpha_tracks_crossover():
    # ballistic early, frozen late: the local exponent must fall
    t = np.arange(101, dtype=float)
    values = np.zeros(101)
    values[1:31] = t[1:31] ** 2.0
    values[31:] = values[30]
    series = windowed_alpha(values, window=20)
    first = series.alphas[series.centers <= 15]
    last = series.alphas[series.centers >= 80]
    assert first.min() > 1.5
    assert np.abs(last).max() < 1e-10


def test_windowed_alpha_window_validation():
    values = _planted(1.0, n=31)
    with pytest.raises(ValueError):
        windowed_alpha(values, window=4)
    with pytest.raises(ValueError):
        windowed_alpha(values, window=200)


def test_windowed_alpha_names_an_empty_series():
    for steps in (None, []):
        with pytest.raises(ValueError, match="non-empty series"):
            windowed_alpha([], window=5, steps=steps)


@pytest.mark.parametrize("t_min,t_max", [(3, 3.5), (2.5, 40), (3, float("nan")),
                                         (np.float64(10.25), 50)])
def test_fit_power_law_rejects_fractional_bounds(t_min, t_max):
    # the fit reports int() of its bounds, so a fractional bound would fit
    # one range and report another
    with pytest.raises(ValueError, match=r"fit range .* needs whole steps"):
        fit_power_law(_planted(1.5), t_min, t_max)
    # whole-valued floats and numpy integers are whole steps
    fit = fit_power_law(_planted(1.5), np.int64(10), 50.0)
    assert (fit.t_min, fit.t_max) == (10, 50)


# np.polyfit, window by window: the reference the closed-form pass replaced
def _polyfit_fit(values, t_min, t_max, steps=None):
    values = np.asarray(values, dtype=float)
    steps = np.arange(len(values)) if steps is None else np.asarray(steps)
    keep = (steps >= t_min) & (steps <= t_max)
    t, f = steps[keep].astype(float), values[keep]
    floor = ZERO_FLOOR * f.max() if len(f) else 0.0
    if (f < -floor).any():
        raise ValueError("series contains negative values; cannot fit a power law")
    t, f = t[f > floor], f[f > floor]
    if len(f) < 3:
        raise ValueError(
            f"only {len(f)} usable points in [{t_min}, {t_max}]; need at least 3"
        )
    slope, intercept = np.polyfit(np.log(t), np.log(f), 1)
    resid = np.log(f) - (slope * np.log(t) + intercept)
    return slope, np.exp(intercept), np.sqrt(np.mean(resid**2))


def _polyfit_windows(values, window, steps=None):
    steps = np.arange(len(values)) if steps is None else np.asarray(steps)
    half = window // 2
    t_lo, t_hi = max(int(steps.min()), 1), int(steps.max())
    centers = np.arange(t_lo + half, t_hi - half + 1)
    alphas = [_polyfit_fit(values, c - half, c + half, steps)[0] for c in centers]
    return centers, np.array(alphas)


@functools.cache
def _fig3_series():
    # fig3's config (static p = 1, T = 100, seed 0) at 200 maps, the
    # benchmark's size for it
    cfg = EnsembleConfig(kind="static", p=1.0, n_steps=100, n_maps=200)
    return run_ensemble(cfg).qfi_mean


def _crossover():
    t = np.arange(101, dtype=float)
    values = np.zeros(101)
    values[1:31] = t[1:31] ** 2.0
    values[31:] = values[30] * (t[31:] / 30.0) ** 0.3
    return values


def _noisy():
    rng = np.random.default_rng(3)
    t = np.arange(1, 121, dtype=float)
    return np.concatenate(([0.0], t**1.3 * np.exp(rng.normal(0, 0.1, 120))))


def _with_zero():
    values = _planted(1.5)
    values[40] = 0.0
    return values


# name -> (series, atol against polyfit's alpha besides rtol 1e-12).  A noisy
# window can fit an exponent near 0, whose rounding (~1e-13 in either
# algorithm) is absolute: it keeps no relative digits to compare
_SERIES = {
    "planted-0.5": (lambda: _planted(0.5), 0.0),
    "planted-2": (lambda: _planted(2.0, amplitude=0.037), 0.0),
    "fig3": (lambda: _fig3_series().copy(), 0.0),
    "crossover": (_crossover, 0.0),
    "noisy": (_noisy, 1e-12),
    "zero-inside": (_with_zero, 0.0),
}


def _layouts(values):
    """(values, steps) as given, every second step, and shuffled rows."""
    steps = np.arange(len(values))
    shuffle = np.random.default_rng(7).permutation(len(values))
    return {
        "contiguous": (values, None),
        "every-second": (values[::2], steps[::2]),
        "unsorted": (values[shuffle], steps[shuffle]),
    }


@pytest.mark.parametrize("layout", ["contiguous", "every-second", "unsorted"])
@pytest.mark.parametrize("name", sorted(_SERIES))
@pytest.mark.parametrize("window", [8, 11, 20])
def test_windowed_alpha_is_fit_power_law_per_window(name, layout, window):
    make, atol = _SERIES[name]
    values, steps = _layouts(make())[layout]
    series = windowed_alpha(values, window=window, steps=steps)
    half = window // 2
    for center, alpha in zip(series.centers, series.alphas):
        fit = fit_power_law(values, center - half, center + half, steps=steps)
        assert alpha == fit.alpha  # bit for bit, not approximately
    centers, oracle = _polyfit_windows(values, window, steps)
    np.testing.assert_array_equal(series.centers, centers)
    np.testing.assert_allclose(series.alphas, oracle, rtol=1e-12, atol=atol)


@pytest.mark.parametrize("layout", ["contiguous", "every-second", "unsorted"])
@pytest.mark.parametrize("name", sorted(_SERIES))
def test_global_fit_agrees_with_polyfit(name, layout):
    values, steps = _layouts(_SERIES[name][0]())[layout]
    fit = fit_power_law(values, 10, 100, steps=steps)
    alpha, amplitude, rms = _polyfit_fit(values, 10, 100, steps)
    assert fit.alpha == pytest.approx(alpha, rel=1e-12, abs=0)
    assert fit.amplitude == pytest.approx(amplitude, rel=1e-12, abs=0)
    # an exact law leaves ~1e-15 of residual either way: no relative digits
    assert fit.residual_rms == pytest.approx(rms, rel=1e-12, abs=1e-14)


def _first_polyfit_error(values, window, steps=None):
    with pytest.raises(ValueError) as info:
        _polyfit_windows(values, window, steps)
    return str(info.value)


def test_windowed_alpha_raises_the_first_failing_windows_error():
    # zeros starve the windows around step 30; a negative value at step 80
    # fails a later window.  The earlier failure is the one raised
    values = _planted(1.0)
    values[25:36] = 0.0
    values[80] = -1.0
    expected = _first_polyfit_error(values, 10)
    assert expected == "only 2 usable points in [23, 33]; need at least 3"
    with pytest.raises(ValueError) as info:
        windowed_alpha(values, window=10)
    assert str(info.value) == expected
    # in one window the negative value is named before the missing points
    values[27] = -1.0
    expected = _first_polyfit_error(values, 10)
    assert "negative" in expected
    with pytest.raises(ValueError) as info:
        windowed_alpha(values, window=10)
    assert str(info.value) == expected


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_values_are_named_with_their_window(bad):
    values = _planted(1.5)
    values[12] = bad
    with pytest.raises(ValueError, match=r"non-finite values in \[5, 25\]"):
        fit_power_law(values, 5, 25)
    # the first window, in center order, that holds step 12
    with pytest.raises(ValueError, match=r"non-finite values in \[2, 12\]"):
        windowed_alpha(values, window=10)
    # out of range it is never read
    assert fit_power_law(values, 20, 60).alpha == pytest.approx(1.5, abs=1e-10)


def test_usable_points_at_one_step_raise():
    steps = np.array([4, 4, 4])
    with pytest.raises(ValueError, match=r"3 usable points in \[1, 9\] all share one step"):
        fit_power_law(np.array([1.0, 2.0, 3.0]), 1, 9, steps=steps)
    # duplicate rows at step 15, zeros at the steps around it: the window
    # centered on 15 has four usable points, all at one step
    steps = np.concatenate((np.arange(1, 31), [15, 15, 15]))
    values = steps.astype(float) ** 1.5
    values[np.isin(steps, [13, 14, 16, 17])] = 0.0
    with pytest.raises(ValueError, match=r"4 usable points in \[13, 17\] all share one step"):
        windowed_alpha(values, window=5, steps=steps)
    # two distinct steps are a line
    fit = fit_power_law(values, 12, 18, steps=steps)
    assert fit.n_points == 6
