"""Power-law characterization of information spreading.

A series F(t) ~ A * t^alpha appears as a line of slope alpha in log-log
coordinates; the exponent separates the transport regimes (alpha = 2
ballistic, 1 diffusive, between the two superdiffusive, below 1 subdiffusive,
flattening toward 0 localized).  Fits are least squares on (log t, log F).

Every fit, global or windowed, comes from one closed-form pass over an
(n_windows, width) gather of the sorted series: alpha = sum(dx*dy)/sum(dx^2)
from the centred logs, intercept = mean(y) - alpha*mean(x).  A global fit is
the one-window case, and a window's fit does not depend on the other windows
fitted beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Entries this far (relatively) below the window maximum count as zeros: an
# analytically-zero value can come back as ~1e-31 dust after cancellation,
# and its log would dominate the fit.  Relative, so rescaling the series
# cannot change which points are kept.
ZERO_FLOOR = 1e-12


@dataclass
class PowerLawFit:
    """Result of one log-log fit: F(t) ~ amplitude * t**alpha."""

    alpha: float
    amplitude: float
    t_min: int
    t_max: int
    n_points: int
    residual_rms: float


@dataclass
class AlphaSeries:
    """Sliding-window exponent estimates alpha(t) at the window centers."""

    centers: np.ndarray
    alphas: np.ndarray
    window: int


def _series(values, steps):
    """(values, steps) as float arrays, sorted by step."""
    values = np.asarray(values, dtype=float)
    if steps is None:
        return values, np.arange(len(values), dtype=float)
    steps = np.asarray(steps)
    if values.shape != steps.shape:
        raise ValueError("values and steps must have matching lengths")
    # stable, so duplicate steps keep their input order
    order = np.argsort(steps, kind="stable")
    return values[order], steps[order].astype(float)


def _row_sums(a):
    # in element order, so trailing padding (zeros) and the width of the
    # gather cannot change a window's sum: one window fitted alone and
    # fitted among others agree bit for bit
    return a.cumsum(axis=1)[:, -1]


def _fit_windows(f, t, lo, hi):
    """Least-squares log-log fits over the inclusive step windows [lo, hi].

    f and t are the series and its steps, sorted by step (see _series).
    Returns (alpha, dx, dy, x_mean, y_mean, n): each window's slope, its
    centred log steps and log values (zero off its usable points), their
    means and its number of usable points.  Raises ValueError for the first
    window, in the order given, that holds a non-finite value, a value
    negative beyond the zero floor, fewer than 3 usable points, or usable
    points that all share one step.
    """
    # logs of the whole series once, so a point's logs never depend on its
    # window; clamped so that no step or value gives log(0) or log(-1),
    # which only unusable points hold
    log_t = np.log(np.maximum(t, 1.0))
    log_f = np.log(np.maximum(f, 5e-324))

    start = np.searchsorted(t, lo, side="left")
    count = np.searchsorted(t, hi, side="right") - start
    # one row a window, its own points first; a Python max, as a process's
    # first numpy reduction over ints costs more than this whole gather
    cols = np.arange(max(count.tolist()))
    inside = cols < count[:, None]
    idx = start[:, None] + cols
    fw = f.take(idx, mode="clip")

    floor = ZERO_FLOOR * fw.max(axis=1, where=inside, initial=-np.inf)
    negative = fw.min(axis=1, where=inside, initial=np.inf) < -floor
    usable = inside & (fw > floor[:, None])
    n = usable.sum(axis=1)
    flat = np.zeros(len(n), dtype=bool)
    if (t[1:] == t[:-1]).any():
        # only a repeated step can put a window's usable points at one step
        tw = t.take(idx, mode="clip")
        flat = (tw.min(axis=1, where=usable, initial=np.inf)
                == tw.max(axis=1, where=usable, initial=-np.inf))
    # a NaN or inf sets its window's floor to NaN or inf, leaving no usable
    # point, and -inf is negative: every window holding one fails here, and
    # the first failing window is checked for them before anything else
    bad = negative | (n < 3) | flat
    if bad.any():
        i = int(np.argmax(bad))
        span = f"[{lo[i]}, {hi[i]}]"
        if not np.isfinite(fw[i, inside[i]]).all():
            raise ValueError(
                f"series contains non-finite values in {span}; "
                "cannot fit a power law"
            )
        if negative[i]:
            raise ValueError("series contains negative values; cannot fit a power law")
        if n[i] < 3:
            raise ValueError(
                f"only {n[i]} usable points in {span}; need at least 3"
            )
        raise ValueError(
            f"the {n[i]} usable points in {span} all share one step; "
            "cannot fit a slope"
        )

    x = np.where(usable, log_t.take(idx, mode="clip"), 0.0)
    y = np.where(usable, log_f.take(idx, mode="clip"), 0.0)
    x_mean = _row_sums(x) / n
    y_mean = _row_sums(y) / n
    dx = np.where(usable, x - x_mean[:, None], 0.0)
    dy = np.where(usable, y - y_mean[:, None], 0.0)
    alpha = _row_sums(dx * dy) / _row_sums(dx * dx)
    return alpha, dx, dy, x_mean, y_mean, n


def fit_power_law(values, t_min, t_max, steps=None):
    """Fit alpha over the step range [t_min, t_max] (inclusive).

    values[i] is the series at step steps[i]; steps defaults to 0..len-1 and
    need not be sorted or contiguous.  Steps whose value is zero up to
    ZERO_FLOOR relative to the window maximum are excluded (log undefined;
    for this family of series a zero carries no scaling information).
    Non-finite values in range, and values negative beyond that floor, raise.
    At least 3 usable points, at more than one step, are required.
    """
    values, steps = _series(values, steps)
    # the fit reports int() of its bounds, so they must be whole steps
    if not (float(t_min).is_integer() and float(t_max).is_integer()
            and 1 <= t_min < t_max):
        raise ValueError(f"fit range [{t_min}, {t_max}] needs whole steps 1 <= t_min < t_max")
    alpha, dx, dy, x_mean, y_mean, n = _fit_windows(values, steps, [t_min], [t_max])
    # y - (alpha*x + intercept), with intercept = y_mean - alpha*x_mean
    resid = dy - alpha[:, None] * dx
    return PowerLawFit(
        alpha=float(alpha[0]),
        amplitude=float(np.exp(y_mean[0] - alpha[0] * x_mean[0])),
        t_min=int(t_min),
        t_max=int(t_max),
        n_points=int(n[0]),
        residual_rms=float(np.sqrt(_row_sums(resid * resid)[0] / n[0])),
    )


def windowed_alpha(values, window=20, steps=None):
    """Local exponent from a sliding fit over [t - window//2, t + window//2].

    Lets localization show up as alpha(t) sinking toward zero while early-time
    windows still report transport.  Window centers run over every step whose
    full window fits inside the positive-step part of the series.  Each
    window follows fit_power_law's rules, and its alpha equals that of
    fit_power_law over the same range; the first window, in center order,
    that breaks one raises fit_power_law's error.
    """
    values, steps = _series(values, steps)
    if not len(values):
        raise ValueError("windowed_alpha needs a non-empty series")
    if window < 5:
        raise ValueError("window must be >= 5 steps for a stable fit")
    half = window // 2
    t_lo, t_hi = max(int(steps.min()), 1), int(steps.max())
    centers = np.arange(t_lo + half, t_hi - half + 1)
    if not len(centers):
        raise ValueError(
            f"window {window} does not fit inside steps {t_lo}..{t_hi}"
        )
    alphas = _fit_windows(values, steps, centers - half, centers + half)[0]
    return AlphaSeries(centers, alphas, int(window))
