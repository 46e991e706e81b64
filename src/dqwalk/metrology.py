"""Fisher information of the walker about the encoded phase.

For a pure state the quantum Fisher information is

    F = 4 * (<dpsi|dpsi> - |<psi|dpsi>|^2).

It is evaluated here in the equivalent residual form 4*||dpsi - <psi|dpsi>
psi||^2 (identical for normalized psi), because the textbook subtraction
cancels catastrophically once both terms grow like t^2: at t = 50 it already
loses enough digits to break sum rules that hold to 1e-12 in residual form.
`qfi_rows` evaluates it for a whole stack of states at once; `qfi_pure`
applies it to one state or to a stack of walkers, so the ensemble kernel and
`qfi_series` share every operation and agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RowCheckError
from .operators import (
    PHASE_FIRST,
    DerivativePair,
    StepContext,
    step,
    step_with_derivative,
    two_particle_step,
    two_particle_step_with_derivative,
)
from .states import TwoParticleState, WalkerState, support_radius

NORM_TOL = 1e-9
#: negative QFI beyond this magnitude means a broken caller, not rounding
NEGATIVE_TOL = 1e-9


@dataclass
class QfiSeries:
    """QFI per step, index t = 0..n_steps."""

    values: np.ndarray
    phi: float

    @property
    def n_steps(self):
        return len(self.values) - 1

    def steps(self):
        return np.arange(len(self.values))


def row_inner(u, v):
    """<u_r|v_r> for every row r of two stacks of shape (R, N).

    Each row is summed on its own, so a row's value does not depend on how
    many other rows share the stack.
    """
    return (u.conj() * v).sum(axis=-1)


def _first(bad):
    return int(np.flatnonzero(bad)[0])


def qfi_rows(psi, dpsi):
    """QFI of every row of stacked normalized pure states.

    psi and dpsi have shape (R, N): row r is one state flattened to N
    amplitudes and its exact derivative.  Returns the R values.  Raises
    RowCheckError naming the first row whose norm^2 is off 1 by more than
    NORM_TOL or whose QFI comes out below -NEGATIVE_TOL.
    """
    norm2 = row_inner(psi, psi).real
    off = np.abs(norm2 - 1.0) > NORM_TOL
    if off.any():
        row = _first(off)
        raise RowCheckError(
            row, f"state norm^2 = {norm2[row]!r} deviates from 1 beyond {NORM_TOL}"
        )
    overlap = row_inner(psi, dpsi)
    residual = dpsi - overlap[:, None] * psi
    values = 4.0 * row_inner(residual, residual).real
    negative = values < -NEGATIVE_TOL
    if negative.any():
        row = _first(negative)
        raise RowCheckError(row, f"QFI evaluated to {values[row]!r} < 0")
    return np.maximum(values, 0.0)


def qfi_pure(pair):
    """QFI of a normalized pure state given its exact derivative state.

    For a stack of walkers (WalkerState amplitudes of shape (..., W, 2)) it
    returns one value per walker, an array of shape (...), and a
    RowCheckError counts the walkers in C order.
    """
    psi, dpsi = pair.psi.amplitudes, pair.dpsi.amplitudes
    lead = psi.shape[:-2] if isinstance(pair.psi, WalkerState) else ()
    n_rows = math.prod(lead)
    values = qfi_rows(psi.reshape(n_rows, -1), dpsi.reshape(n_rows, -1))
    return values.reshape(lead) if lead else float(values[0])


def _evolvers(state):
    if isinstance(state, TwoParticleState):
        return two_particle_step, two_particle_step_with_derivative
    return step, step_with_derivative


def qfi_series(initial, phase_map, phi, n_steps, order=PHASE_FIRST):
    """Co-evolve (psi, dpsi) for n_steps and record the QFI after every step.

    Works for single- and two-walker initial states alike.  Entry 0 is the
    (zero) information of the unevolved state.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_steps > phase_map.n_steps:
        raise ValueError(
            f"requested {n_steps} steps but the map covers {phase_map.n_steps}"
        )
    if support_radius(initial) + n_steps > initial.t_max:
        raise ValueError(
            f"state capacity t_max = {initial.t_max} cannot hold {n_steps} steps"
        )
    _, stepper = _evolvers(initial)
    pair = DerivativePair.initial(initial)
    values = np.empty(n_steps + 1)
    values[0] = qfi_pure(pair)
    for t in range(1, n_steps + 1):
        pair = stepper(pair, StepContext(phi, t, phase_map, order))
        values[t] = qfi_pure(pair)
    return QfiSeries(values, float(phi))


def qfi_finite_difference_crosscheck(initial, phase_map, phi, n_steps,
                                     h=1e-5, order=PHASE_FIRST):
    """QFI at step n_steps with the derivative taken by central differences.

    Evolves plain states at phi and phi +/- h and forms (psi+ - psi-)/(2h).
    Slower and less accurate than the co-evolved derivative (truncation error
    grows with t), so this is a validation tool, not the production route.
    Returns (qfi_value, dpsi_numeric).
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"step h = {h!r} outside [1e-7, 1e-3]")
    single_step, _ = _evolvers(initial)

    def evolve(phi_value):
        s = initial
        for t in range(1, n_steps + 1):
            s = single_step(s, StepContext(phi_value, t, phase_map, order))
        return s

    center = evolve(phi)
    plus = evolve(phi + h)
    minus = evolve(phi - h)
    d_amp = (plus.amplitudes - minus.amplitudes) / (2.0 * h)
    if isinstance(initial, TwoParticleState):
        dpsi = TwoParticleState(initial.t_max, d_amp, initial.symmetry)
    else:
        dpsi = type(initial)(initial.t_max, d_amp)
    return qfi_pure(DerivativePair(center, dpsi)), dpsi


def cramer_rao_bound(qfi_value, n_trials):
    """Smallest achievable phase standard deviation: 1 / sqrt(M * F).

    Returns inf for F = 0 (an uninformative state pins nothing down).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if qfi_value < 0:
        raise ValueError("QFI must be nonnegative")
    if qfi_value == 0:
        return math.inf
    return 1.0 / math.sqrt(n_trials * qfi_value)
