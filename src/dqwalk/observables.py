"""Position-space observables: distributions and spreading variance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrology import NORM_TOL, check_norms, check_rows
from .states import DOWN, UP, ConeStack, TwoParticleState, WalkerState, cone_positions


@dataclass
class PositionDistribution:
    """Probabilities over lattice positions -t_max..t_max.

    With an `origin`, the probabilities are those of a light cone from
    that site (`states.ConeStack`), (slot, row): axis 0 holds its slots.
    """

    t_max: int
    probabilities: np.ndarray
    origin: int = None

    def positions(self):
        """Sites matching the last axis of `probabilities`, or axis 0 of a
        light cone's."""
        if self.origin is None:
            return np.arange(-self.t_max, self.t_max + 1)
        return cone_positions(self.origin, len(self.probabilities) - 1)


def position_distribution(state, particle=0):
    """Probability of finding the walker at each position (coin traced out).

    For a two-walker state this returns the single-particle marginal of the
    chosen particle (0 or 1); symmetrized states give the same marginal for
    both.  For a stack of walkers (WalkerState amplitudes of shape
    (..., W, 2)) the probabilities have shape (..., W), one marginal per
    walker, and a RowCheckError names the first walker, in C order, whose
    norm^2 is off 1 by more than NORM_TOL.  For a `states.ConeStack` the
    probabilities of its psi are (slot, row) cells, shape (t + 1, rows),
    and `positions()` lists the slots' sites; they are formed in its work
    space (`ConeStack.work`), and so hold until that is next written.
    """
    if isinstance(state, ConeStack):
        weights = np.abs(state.psi, out=state.work(np.float64))
        np.square(weights, out=weights)
        probs = weights[UP]
        probs += weights[DOWN]
        check_norms(probs.sum(axis=0))
        return PositionDistribution(abs(state.origin) + state.steps, probs,
                                    state.origin)
    if not isinstance(state, (TwoParticleState, WalkerState)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    weights = np.abs(state.amplitudes)
    np.square(weights, out=weights)
    if isinstance(state, TwoParticleState):
        if particle not in (0, 1):
            raise ValueError("particle must be 0 or 1")
        axes = (1, 2, 3) if particle == 0 else (0, 1, 3)
        probs = weights.sum(axis=axes)
    else:
        probs = weights[..., UP]
        probs += weights[..., DOWN]
    check_norms(probs.sum(axis=-1))
    return PositionDistribution(state.t_max, probs)


def position_variance(dist):
    """Var(x) = <x^2> - <x>^2 of a position distribution: a float for
    probabilities of shape (W,), one variance per row for a stack of
    shape (..., W) (a light cone's (slot, row) cells go one row at a
    time).  Raises RowCheckError, a ValueError, naming the first row, in
    C order, whose probabilities sum to NaN or off 1 by more than
    NORM_TOL."""
    x = dist.positions().astype(float)
    p = dist.probabilities
    totals = p.sum(axis=-1)
    check_rows(np.abs(totals - 1.0) <= NORM_TOL, totals,
               f"probabilities do not sum to 1 within {NORM_TOL}")
    mean = p @ x
    variance = p @ (x * x) - mean * mean
    return float(variance) if p.ndim == 1 else variance
