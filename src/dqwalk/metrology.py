"""Fisher information of the walker about the encoded phase.

For a pure state the quantum Fisher information is

    F = 4 * (<dpsi|dpsi> - |<psi|dpsi>|^2).

It is evaluated here in the equivalent residual form 4*||dpsi - <psi|dpsi>
psi||^2 (identical for normalized psi), because the textbook subtraction
cancels catastrophically once both terms grow like t^2: at t = 50 it already
loses enough digits to break sum rules that hold to 1e-12 in residual form.

`qfi_rows` evaluates it for a stack of walkers held as (coin, site, walker)
cells, the layout of the ensemble kernel's buffers, and `qfi_pure` applies
it to one state, to a stack of walkers or to a `states.ConeStack`.  Given
work space of the cells' shape, as the ensembles give it through
`states.ConeStack.scratch`, `qfi_rows` forms its products, residuals and
squares there and allocates nothing of the stack's size.  Each walker's
sums add the two coins of a site and then the sites in order
(`_site_sums`): the order is fixed by the walker's own cells, whatever
the number of walkers or their memory layout, and exact zeros leave a sum
unchanged.  So `qfi_series`,
which reduces a walker over its full lattice, and the ensemble kernel,
which reduces only the t + 1 light-cone sites a walker can occupy after t
steps (`states.ConeStack`), agree bit for bit.

Every check on a stack of rows raises through `check_rows`: the norms
(`check_norms`), the QFI floor of `qfi_rows`, the row sums of
`observables.position_variance` and the ensemble kernel's per-step checks.
It names the first failing row in a `RowCheckError`, from which the
kernel names the member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
from .states import ConeStack, TwoParticleState, WalkerState, support_radius

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


def _site_sums(x):
    """Column sums of x, shape (2, N, M) float, over its (coin, site) cells.

    The two coins of a site are added first, then the sites one after
    another, in order: the coin sums are a C-ordered (N, M) array whose
    columns are the re and im parts of the walkers side by side, so M >= 2,
    and numpy reduces its axis 0 row by row, vectorised over the columns
    (the ensemble and property tests pin this).  A column's sum thus
    depends on its own cells only, not on the number of walkers or their
    memory layout, and exact zeros beyond a walker's support leave it
    unchanged: a sum over a walker's light-cone sites equals the sum over
    its full lattice bit for bit.  x is scratch: the coin sums overwrite x[0].
    """
    return np.add.reduce(np.add(x[0], x[1], out=x[0]), axis=0)


def cell_inner(u, v, out=None):
    """<u_r|v_r> for every walker r of two (2, N, R) complex cell stacks.

    Cells are (coin, site, walker), as the ensembles store their walkers;
    the sum runs in `_site_sums` order.  The products are formed in `out`,
    complex (2, N, R) work space with the walker axis contiguous, if given.
    """
    prod = np.conjugate(u, out=out)
    np.multiply(prod, v, out=prod)
    return _site_sums(prod.view(np.float64)).view(np.complex128)


def pair_inner(u, v, out):
    """<u_r|v_r+1> for every even r, one value per pair of neighbouring
    walkers of two (2, N, R) complex cell stacks, with the bits of
    `cell_inner` on the pairs' columns.

    The products conj(u_r) v_r+1 are formed for every r, over whole coin
    planes, in `out`, (2, N, R) work space laid out as u and v, each coin
    plane contiguous: the columns of every other walker are strided, and
    numpy copies short strided rows into buffers as large as the operands.
    The products across pairs are formed as well, then dropped.
    """
    flat = out.reshape(2, -1)
    prod = np.conjugate(u.reshape(2, -1)[:, :-1], out=flat[:, :-1])
    np.multiply(prod, v.reshape(2, -1)[:, 1:], out=prod)
    flat[:, -1] = 0.0
    return _site_sums(out.view(np.float64)).view(np.complex128)[0::2]


def _abs2_sums(squares):
    """Sum of |z|^2 per walker, from the squared float view of z (scratch)."""
    sums = _site_sums(squares)
    return sums[0::2] + sums[1::2]


def check_rows(ok, values, what, per=1):
    """Raise RowCheckError for the first entry, in C order, where the mask
    `ok` is False; its message is `what` and the entry's value in `values`.

    Write `ok` so that NaN gives False: a comparison with NaN is False.
    The error's row is the entry's index times `per`, so that a check of
    one value per member names row = member x walkers, as a check of one
    value per walker row does.
    """
    ok = np.ravel(ok)
    if not ok.all():
        index = int(np.argmin(ok))
        raise RowCheckError(index * per,
                            f"{what}: {float(np.ravel(values)[index])!r}")


def check_norms(norm2):
    """Raise RowCheckError naming the first walker, in C order, whose
    norm^2, one entry of `norm2`, is off 1 by more than NORM_TOL or is NaN.
    """
    check_rows(np.abs(norm2 - 1.0) <= NORM_TOL, norm2,
               f"state norm^2 deviates from 1 beyond {NORM_TOL}")


def qfi_rows(psi, dpsi, scratch=None):
    """QFI of every walker of stacked normalized pure states.

    psi and dpsi are complex (2, N, R) cell stacks, walker r being column r
    (see `cell_inner`), with the walker axis contiguous in memory.  Returns
    the R values.  Raises RowCheckError naming the first walker whose norm^2
    is off 1 by more than NORM_TOL or whose QFI comes out below
    -NEGATIVE_TOL, either of them NaN included.

    The squares of psi, the products of <psi|dpsi>, the residual and its
    squares are formed one after another in `scratch`, complex (2, N, R)
    work space laid out as psi, or in one new array if it is None.
    """
    work = np.empty_like(psi) if scratch is None else scratch
    floats = work.view(np.float64)
    check_norms(_abs2_sums(np.square(psi.view(np.float64), out=floats)))
    # <psi|dpsi> * psi with the overlaps tiled over coin plane 1 first: the
    # same products as the broadcast, in long contiguous loops
    work[1] = cell_inner(psi, dpsi, out=work)
    np.multiply(work[1], psi[0], out=work[0])
    np.multiply(work[1], psi[1], out=work[1])
    np.subtract(dpsi, work, out=work)
    values = 4.0 * _abs2_sums(np.square(floats, out=floats))
    check_rows(values >= -NEGATIVE_TOL, values, "QFI not >= 0")
    return np.maximum(values, 0.0)


def _cells(amplitudes):
    """(2, N, R) cells of amplitudes shaped (..., N, 2), walkers in C order;
    a copy where the walker axis is not contiguous, as for one walker.
    """
    cells = amplitudes.reshape(-1, amplitudes.shape[-2], 2).transpose(2, 1, 0)
    if cells.strides[-1] != cells.itemsize:
        cells = np.ascontiguousarray(cells)
    return cells


def qfi_pure(pair):
    """QFI of a normalized pure state given its exact derivative state.

    For a stack of walkers (WalkerState amplitudes of shape (..., W, 2)) it
    returns one value per walker, an array of shape (...), and a
    RowCheckError counts the walkers in C order.  A two-walker tensor
    counts as one walker on W*2*W sites.  A `ConeStack`, which holds its
    own dpsi, gives one value per row, shape (rows,), reduced in its work
    space (`ConeStack.work`, `qfi_rows`).
    """
    if isinstance(pair, ConeStack):
        return qfi_rows(pair.psi, pair.dpsi, pair.work())
    psi, dpsi = pair.psi.amplitudes, pair.dpsi.amplitudes
    if isinstance(pair.psi, WalkerState):
        lead = psi.shape[:-2]
    else:
        lead = ()
        psi, dpsi = psi.reshape(-1, 2), dpsi.reshape(-1, 2)
    values = qfi_rows(_cells(psi), _cells(dpsi))
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
    radius = support_radius(initial)
    if radius + n_steps > initial.t_max:
        raise ValueError(
            f"state capacity t_max = {initial.t_max} cannot hold {n_steps} steps"
        )
    _, stepper = _evolvers(initial)
    pair = DerivativePair.initial(initial)
    values = np.empty(n_steps + 1)
    for t in range(n_steps + 1):
        if t > 0:
            pair = stepper(pair, StepContext(phi, t, phase_map, order))
        values[t] = qfi_pure(pair)
    return QfiSeries(values, float(phi))


def qfi_finite_difference_crosscheck(initial, phase_map, phi, n_steps,
                                     h=1e-5, order=PHASE_FIRST):
    """QFI at step n_steps with the derivative taken by central differences.

    Evolves plain states at phi and phi +/- h and forms (psi+ - psi-)/(2h).
    Slower and less accurate than the co-evolved derivative (truncation error
    grows with t), so this is a validation tool, not the production route.
    Returns (qfi_value, dpsi_numeric), dpsi `initial` rebuilt as its own
    kind (a tensor keeps its symmetry) with the differenced amplitudes.
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
    dpsi = replace(initial, amplitudes=(plus.amplitudes - minus.amplitudes) / (2.0 * h))
    return qfi_pure(DerivativePair(center, dpsi)), dpsi


def cramer_rao_bound(qfi_value, n_trials):
    """Smallest achievable phase standard deviation: 1 / sqrt(M * F).

    Returns inf for F = 0 (an uninformative state pins nothing down).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not qfi_value >= 0:
        raise ValueError("QFI must be nonnegative")
    if qfi_value == 0:
        return math.inf
    return 1.0 / math.sqrt(n_trials * qfi_value)
