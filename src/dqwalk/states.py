"""Walker states on a bounded 1-D lattice.

A single walker lives on positions -t_max..t_max with a two-level coin, stored
as a dense complex array of shape (2*t_max + 1, 2).  Index 0 of the coin axis
is "up" (moves right under the shift), index 1 is "down" (moves left).  A pair
of walkers is stored as the full joint tensor of shape (W, 2, W, 2).  That
tensor is the one-map API and the reference the tests hold the ensembles to:
since both walkers share one map and U (x) U is linear, ensembles evolve a
pair exactly as (a (x) b + s b (x) a) / sqrt2 from the single-walker
evolutions a, b of |x,up>, |x,down> (see `dqwalk.ensemble`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UP = 0
DOWN = 1

INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: how far |c|^2 of a coin spinor may be off 1
COIN_TOL = 1e-12

#: symmetry tags a two-walker state can carry
TWO_PARTICLE_KINDS = ("separable", "boson", "fermion")


def _width(t_max):
    return 2 * t_max + 1


@dataclass
class WalkerState:
    """Amplitudes of one walker over (position, coin).

    t_max is the capacity in steps: a walker started at the origin can take at
    most t_max steps before its light cone reaches the array edge.  The
    amplitudes may also be a stack of shape (..., W, 2), one walker per
    leading index, which `step`, `qfi_pure` and `position_distribution`
    treat walker by walker: a two-walker tensor is such a stack for either
    particle.  The ensembles step their walkers on the light cones alone
    (`ConeStack`).
    """

    t_max: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        expected = (_width(self.t_max), 2)
        if self.amplitudes.shape[-2:] != expected:
            raise ValueError(
                f"amplitude array has shape {self.amplitudes.shape}, expected {expected}"
            )

    @classmethod
    def zeros(cls, t_max):
        return cls(t_max, np.zeros((_width(t_max), 2), dtype=np.complex128))

    def positions(self):
        """Lattice coordinates matching axis 0 of `amplitudes`."""
        return np.arange(-self.t_max, self.t_max + 1)

    def index_of(self, x):
        """Array row for lattice position x."""
        if abs(x) > self.t_max:
            raise ValueError(f"position {x} outside lattice (|x| <= {self.t_max})")
        return x + self.t_max

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class ConeStack:
    """Rows of walkers t steps after leaving `origin`, held on their light
    cone as (coin, slot, row) cells.

    After t steps from x0 a walker's amplitude sits only on the t + 1
    sites x0 - t + 2k, k = 0..t (Kempe, Contemp. Phys. 44, 307 (2003)).
    psi, and dpsi if given, are complex cells of shape (2, t + 1, rows):
    slot k holds the site x0 - t + 2k, so t = 0 is one slot at x0, and
    row r is one walker.  The ensembles hold slots 0..t of their kernel
    call's buffers this way, step them (`step`/`step_with_derivative` with
    `out`) and reduce them (`qfi_pure`, `position_distribution`), whose
    sums then skip only exact zeros.  These are the cells
    `operators.cone_step` steps; the one-map step gathers each parity
    class of a lattice's sites into them as well.

    `scratch`, if given, is complex work space of shape (2, s, rows),
    s >= t + 1, each coin plane contiguous and distinct from every stack
    it is used with.  A step into this stack and the reductions of it
    form their temporaries in its first t + 1 slots (`work`) instead of
    allocating them; the call's buffers and its scratch are laid out
    alike, so numpy iterates them together and never copies either into
    buffers of its own.
    """

    psi: np.ndarray
    dpsi: np.ndarray = None
    origin: int = 0
    scratch: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        shape = self.psi.shape
        if len(shape) != 3 or shape[0] != 2 or shape[1] < 1:
            raise ValueError(f"cells of shape {shape}, expected (2, t + 1, rows)")
        if self.dpsi is not None and self.dpsi.shape != shape:
            raise ValueError(
                f"dpsi of shape {self.dpsi.shape} beside psi of shape {shape}"
            )
        if self.scratch is not None and (
                self.scratch.ndim != 3 or self.scratch.shape[::2] != shape[::2]
                or self.scratch.shape[1] < shape[1]):
            raise ValueError(
                f"scratch of shape {self.scratch.shape} cannot hold cells of "
                f"shape {shape}"
            )

    @property
    def steps(self):
        """t, the steps taken since the walkers left the origin."""
        return self.psi.shape[1] - 1

    def positions(self):
        """Lattice coordinates matching the slot axis of the cells."""
        return cone_positions(self.origin, self.steps)

    def work(self, dtype=np.complex128):
        """Work space shaped like the cells, (2, t + 1, rows), of complex or
        float64 `dtype`, with undefined contents: the first t + 1 slots of
        `scratch`, or a new array.  Float work takes the front half of each
        coin plane of `scratch`, so it is laid out in planes as well.
        """
        if self.scratch is None:
            return np.empty(self.psi.shape, dtype)
        planes = self.scratch
        if dtype != np.complex128:
            flat = planes.reshape(2, -1).view(dtype)
            planes = flat[:, :planes[0].size].reshape(planes.shape)
        return planes[:, :self.psi.shape[1]]


@dataclass
class TwoParticleState:
    """Joint amplitudes of two walkers, shape (W, 2, W, 2).

    Axes are (position_1, coin_1, position_2, coin_2).  The symmetry tag
    records how the state was prepared ("separable", "boson", "fermion"); the
    evolution never reads it, but exchange checks and output labeling do.
    """

    t_max: int
    amplitudes: np.ndarray
    symmetry: str = "separable"

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        w = _width(self.t_max)
        if self.amplitudes.shape != (w, 2, w, 2):
            raise ValueError(
                f"amplitude array has shape {self.amplitudes.shape}, expected {(w, 2, w, 2)}"
            )
        if self.symmetry not in TWO_PARTICLE_KINDS:
            raise ValueError(f"unknown symmetry tag {self.symmetry!r}")

    @classmethod
    def zeros(cls, t_max, symmetry="separable"):
        w = _width(t_max)
        return cls(t_max, np.zeros((w, 2, w, 2), dtype=np.complex128), symmetry)

    def positions(self):
        return np.arange(-self.t_max, self.t_max + 1)

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


def cone_positions(origin, steps):
    """Sites origin - steps + 2k, k = 0..steps, of a light cone's slots."""
    return origin - steps + 2 * np.arange(steps + 1)


def coin_spinor(coin):
    """The (up, down) coin amplitudes as complex numbers.

    Raises ValueError unless |c|^2 is 1 within COIN_TOL.
    """
    cu, cd = complex(coin[0]), complex(coin[1])
    n2 = abs(cu) ** 2 + abs(cd) ** 2
    if not abs(n2 - 1.0) <= COIN_TOL:  # also rejects nan
        raise ValueError(f"coin amplitudes not normalized: |c|^2 = {n2!r}")
    return cu, cd


def new_walker_state(t_max, position=0, coin=(1.0, 0.0)):
    """Walker localized at `position` with the given (up, down) coin amplitudes.

    The coin spinor must be normalized; amplitudes are stored as given, no
    implicit renormalization.
    """
    cu, cd = coin_spinor(coin)
    state = WalkerState.zeros(t_max)
    row = state.index_of(position)
    state.amplitudes[row, UP] = cu
    state.amplitudes[row, DOWN] = cd
    return state


def new_two_particle_state(kind, t_max, position=0):
    """Two walkers at `position`, prepared with the requested exchange symmetry.

    separable:  |x,up> (x) |x,down>              walker 1 up, walker 2 down
    boson:      (|up,down> + |down,up>) / sqrt2  symmetrized coin pair
    fermion:    (|up,down> - |down,up>) / sqrt2  antisymmetrized coin pair
    """
    if kind not in TWO_PARTICLE_KINDS:
        raise ValueError(f"unknown two-particle kind {kind!r}")
    state = TwoParticleState.zeros(t_max, symmetry=kind)
    row = t_max + position
    if abs(position) > t_max:
        raise ValueError(f"position {position} outside lattice (|x| <= {t_max})")
    if kind == "separable":
        state.amplitudes[row, UP, row, DOWN] = 1.0
    elif kind == "boson":
        state.amplitudes[row, UP, row, DOWN] = INV_SQRT2
        state.amplitudes[row, DOWN, row, UP] = INV_SQRT2
    else:
        state.amplitudes[row, UP, row, DOWN] = INV_SQRT2
        state.amplitudes[row, DOWN, row, UP] = -INV_SQRT2
    return state


def inner_product(a, b):
    """<a|b> with the conjugate on the first argument.

    Both states must live on the same lattice and be of the same kind.
    """
    if type(a) is not type(b):
        raise ValueError("inner product between different state kinds")
    if a.t_max != b.t_max:
        raise ValueError("inner product between different lattice sizes")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def exchange_residual(state):
    """Max deviation from the tagged exchange symmetry of a two-walker state.

    Bosonic states satisfy A[x1,c1,x2,c2] = A[x2,c2,x1,c1], fermionic states
    the same with a minus sign.  Returns the largest absolute violation; a
    symmetry-preserving evolution keeps this at rounding level.
    """
    if not isinstance(state, TwoParticleState):
        raise ValueError("exchange symmetry is defined for two-particle states")
    if state.symmetry == "separable":
        raise ValueError("separable states carry no exchange symmetry to check")
    swapped = np.transpose(state.amplitudes, (2, 3, 0, 1))
    sign = 1.0 if state.symmetry == "boson" else -1.0
    return float(np.max(np.abs(state.amplitudes - sign * swapped)))


def support_radius(state):
    """Largest |x| holding any nonzero amplitude; -1 for the zero state."""
    if isinstance(state, TwoParticleState):
        occ = np.abs(state.amplitudes)
        occ1 = occ.sum(axis=(1, 2, 3))
        occ2 = occ.sum(axis=(0, 1, 3))
        hit = np.nonzero((occ1 > 0) | (occ2 > 0))[0]
    else:
        hit = np.nonzero(np.abs(state.amplitudes).sum(axis=1) > 0)[0]
    if hit.size == 0:
        return -1
    return int(np.abs(state.positions()[hit]).max())
