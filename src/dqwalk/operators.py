"""One evolution step of the walk and its parameter derivative.

A step applies, in order: the position-dependent phase P (the encoded phase
phi plus the map's 0/pi offset, imprinted on the up component only), the
balanced coin C, and the coin-conditioned shift S.  The alternative order with
the phase imprinted after the shift is kept behind a toggle for sensitivity
checks; it is not the default.

The derivative of the step operator with respect to phi acts like P with every
up amplitude multiplied by an extra factor of i and every down amplitude
dropped.  Co-evolving (psi, dpsi) with the product rule gives the exact
derivative state at every step, which is what the Fisher-information layer
consumes; no finite differencing happens here.

`cone_step` is the one definition of the step, on walkers held on their
light-cone slots.  The ensembles step their stacks with it in place (the
`out` route of `step*`); the one-map API steps lattice states with it,
each parity class of sites as one light cone (`_lattice_step`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import PhaseMap
from .errors import BoundaryError
from .states import DOWN, INV_SQRT2, UP, ConeStack, TwoParticleState, WalkerState

PHASE_FIRST = "phase-first"
PHASE_LAST = "phase-last"
OPERATOR_ORDERS = (PHASE_FIRST, PHASE_LAST)


@dataclass(frozen=True)
class StepContext:
    """Everything one step needs: encoded phase, step number, disorder map."""

    phi: float
    step_index: int
    phase_map: PhaseMap
    order: str = PHASE_FIRST

    def __post_init__(self):
        if not 1 <= self.step_index <= self.phase_map.n_steps:
            raise ValueError(
                f"step index {self.step_index} outside map range 1..{self.phase_map.n_steps}"
            )
        if self.order not in OPERATOR_ORDERS:
            raise ValueError(f"unknown operator order {self.order!r}")


@dataclass
class DerivativePair:
    """A state together with its derivative with respect to the encoded phase."""

    psi: object
    dpsi: object

    @classmethod
    def initial(cls, state):
        """Pair for a phi-independent initial state: dpsi = 0."""
        if isinstance(state, TwoParticleState):
            zero = TwoParticleState.zeros(state.t_max, state.symmetry)
        else:
            zero = WalkerState.zeros(state.t_max)
        return cls(state, zero)


def step(state, ctx, out=None):
    """One full step of the walk on a single walker, or on each walker of
    a stack of shape (..., W, 2) alike (`_lattice_step`).

    With `out`, `state` is a `ConeStack` of psi alone, t = ctx.step_index
    slots from the origin of the `MapStack` ctx holds, and out the
    ConeStack of its t + 1 slots one step on; the step is written into out
    (`cone_step`)
    and out is returned.  out's cells may extend the memory of `state`'s
    by one slot, so that a stack steps in place; this is how ensembles
    step their walkers.  Both routes give the same bits.
    """
    if out is not None:
        _fused_step(state, ctx, out)
        return out
    (psi,) = _lattice_step((state,), ctx)
    return psi


def step_with_derivative(pair, ctx, out=None):
    """Advance (psi, dpsi) one step.

    psi steps as in `step`, bit for bit; dpsi picks up the inhomogeneous
    term from differentiating the phase operator:

        phase-first:  dpsi' = S C (dP psi + P dpsi)
        phase-last:   dpsi' = dP S C psi + P S C dpsi

    With `out`, pair and out are `ConeStack`s shaped as for `step`, each
    with its dpsi, and the step of both is written into out through
    `cone_step`, as for `step`.
    """
    if out is not None:
        _fused_step(pair, ctx, out)
        return out
    return DerivativePair(*_lattice_step((pair.psi, pair.dpsi), ctx))


def _lattice_step(states, ctx):
    """`cone_step` on the lattice: psi, or (psi, dpsi), each a walker or a
    stack of them, (..., W, 2), as new `WalkerState`s laid out as psi.

    The sites of either parity are the slots of one light cone: lattice
    index 2k + c is slot k of class c, and a step takes each class onto
    the other, slot k of its output to index 2k + c - 1.  Each class is
    gathered into (coin, slot, row) cells, rows innermost as the ensembles
    hold them, stepped into t_max + 2 - c slots and scattered back.  The
    outer class, c = 0, also steps onto the sites -t_max - 1 and t_max + 1
    beyond the lattice: BoundaryError if either holds amplitude, of psi or
    of dpsi, since a silent truncation would corrupt every later step.
    """
    t_max, psi = states[0].t_max, states[0].amplitudes
    # (coin, site, ...) views of the states, dpsi broadcast to psi's
    # stack, and of their results
    axes = (psi.ndim - 1, psi.ndim - 2) + tuple(range(psi.ndim - 2))
    lattices = [np.broadcast_to(s.amplitudes, psi.shape).transpose(axes)
                for s in states]
    results = [np.empty_like(psi) for _ in states]
    targets = [a.transpose(axes) for a in results]
    lag = ctx.order == PHASE_LAST  # the phase acts on the output's sites
    # e^{i(phi + dphi)} across the lattice and one site beyond either edge
    factors = np.exp(1j * ctx.phi) * ctx.phase_map.step_signs(ctx.step_index,
                                                              t_max + 1)
    for c in (0, 1):
        n = t_max + 1 - c
        cells = [np.ascontiguousarray(a[:, c::2]).reshape(2, n, -1)
                 for a in lattices]
        outs = [np.zeros((2, n + 1) + cells[0].shape[2:], complex)
                for _ in cells]
        cone_step(cells[0], cells[1] if len(cells) > 1 else None,
                  factors[c + 1 - lag::2][:n + lag, None], ctx.order,
                  outs[0], outs[1] if len(outs) > 1 else None,
                  np.empty_like(outs[0]))
        if c == 0 and any(out[DOWN, 0].any() or out[UP, -1].any()
                          for out in outs):
            raise BoundaryError(
                f"walker support reached the lattice edge (t_max = {t_max})"
            )
        for target, out in zip(targets, outs):
            target[:, 1 - c::2] = out[:, 1 - c:t_max + 1].reshape(
                target[:, 1 - c::2].shape)
    return [WalkerState(t_max, a) for a in results]


def _fused_step(stack, ctx, out):
    """The `out` route of `step*`: `cone_step` on the stacks' cells, psi
    and, where the stacks hold it, dpsi, with the phase factors of the
    `MapStack` ctx holds (`MapStack.cone_factor`), at the sites it acts
    on, those of the input for phase-first and of the output for
    phase-last, and out's work space (`ConeStack.work`).

    A `MapStack` serves the one cone each step acts on, s = step_index -
    1 + lag steps from its origin, at its own phi; a step at another phi,
    or on a cone of another origin or length, raises ValueError.  That
    includes a map stack built for the other operator order, whose cones
    are one step off.
    """
    if not isinstance(out, ConeStack):
        raise TypeError("out must be a ConeStack one slot longer than the input")
    if (stack.dpsi is None) != (out.dpsi is None):
        raise ValueError("a stack with dpsi steps into one with dpsi, and "
                         "one without into one without")
    maps = ctx.phase_map
    if ctx.phi != maps.phi:
        raise ValueError(
            f"step at phi = {ctx.phi!r} under a map stack formed at "
            f"phi = {maps.phi!r}"
        )
    sites = stack if ctx.order == PHASE_FIRST else out
    s = ctx.step_index - 1 + maps.lag
    if (sites.origin, sites.steps) != (maps.origin, s):
        raise ValueError(
            f"step {ctx.step_index} under a map stack acts on the cone "
            f"{s} steps from {maps.origin}, not {sites.steps} steps "
            f"from {sites.origin}"
        )
    cone_step(stack.psi, stack.dpsi, maps.cone_factor(ctx.step_index),
              ctx.order, out.psi, out.dpsi, out.work())


def _cone_coin_shift(up, down, out, tmp):
    """Balanced coin, then the shift onto light-cone slots, of (up, down),
    shape (t, ...), into out, cells of shape (2, t + 1, ...): slot k of
    step t is site x0 - t + 2k (`states.ConeStack`), so up moves one slot
    and down stays.

    down may be out's own down cells, and up out's up cells one slot back,
    as in a step in place; tmp, t slots of work space that shares memory
    with neither, holds up + down until up has been read.  Of the two
    cells the shift leaves empty, up at slot 0 is cleared; down at slot t
    is not written, so it must hold zero.
    """
    t = len(up)
    np.add(up, down, out=tmp)
    out_down = out[DOWN, :t]
    np.subtract(up, down, out=out_down)
    out_down *= INV_SQRT2
    np.multiply(tmp, INV_SQRT2, out=out[UP, 1:])
    out[UP, 0] = 0.0


def cone_step(psi, dpsi, factor, order, psi_out, dpsi_out, work):
    """One step of stacked single-walker rows on light-cone slots, on bare
    arrays, in place or not: the one definition of the step, which every
    route of `step` and `step_with_derivative` takes.

    psi and dpsi are (coin, slot, row) cells of t slots, shape (2, t,
    ...), one walker per row; dpsi is None to evolve psi alone.  psi_out
    (and dpsi_out) hold the t + 1 slots one step on, (2, t + 1, ...), and
    may be the same memory as their input with one more slot: psi =
    psi_out[:, :t] steps a stack in place.  `factor` holds each row's
    up-component multipliers e^{i(phi + dphi(t, x))} at the (slot, row)
    sites the phase acts on, the input's t for phase-first and the
    output's t + 1 for phase-last, and broadcasts against one coin plane
    of them.  work is complex work space of shape (2, s, ...), s >= t +
    1, that shares no memory with the states: its two coin planes hold
    the phased up component and the coin sums.  Of the two cells the
    shift leaves empty, up at slot 0 of the outputs is cleared, and down
    at slot t must be zero, as it is where a stack steps in place: no step
    writes a slot before it reaches it.

    The phase P multiplies up by the factor, the balanced coin C takes
    (up, down) to ((up + down), (up - down)) / sqrt2, and the shift S
    moves up one site right and down one left; dP = i n_up P.  So

        phase-first:  psi' = S C P psi,  dpsi' = S C (dP psi + P dpsi)
        phase-last:   psi' = P S C psi,  dpsi' = dP S C psi + P S C dpsi

    Every amplitude goes through the same operations in the same order
    whatever the number of rows, but numpy's complex multiply rounds some
    short strided loops differently, so every caller keeps each coin
    plane, of the states and of work, slot-major with the rows innermost.
    The order of the writes keeps every input cell until its last read:
    in phase-first order dpsi, which reads psi, steps first.
    """
    t = psi.shape[1]
    plane_a, plane_b = work[0, :t + 1], work[1, :t + 1]
    up, down = psi[UP], psi[DOWN]
    if order == PHASE_FIRST:
        a, b = plane_a[:t], plane_b[:t]
        if dpsi is not None:
            np.multiply(1j, factor, out=b)
            np.multiply(up, b, out=a)
            np.multiply(dpsi[UP], factor, out=b)
            a += b
            _cone_coin_shift(a, dpsi[DOWN], dpsi_out, b)
        np.multiply(up, factor, out=a)
        _cone_coin_shift(a, down, psi_out, b)
        return
    _cone_coin_shift(up, down, psi_out, plane_a[:t])
    if dpsi is not None:
        _cone_coin_shift(dpsi[UP], dpsi[DOWN], dpsi_out, plane_a[:t])
        out_up = dpsi_out[UP]
        out_up *= factor
        np.multiply(1j, factor, out=plane_b)
        out_up += np.multiply(psi_out[UP], plane_b, out=plane_b)
    psi_out[UP] *= factor


# -- two-walker evolution ----------------------------------------------------
#
# The joint step is U (x) U with both factors driven by the same phase map and
# the same phi.  A (W, 2, W, 2) tensor is a stack of walkers for either
# particle: particle 2 is its trailing (W, 2) axes as they stand, particle 1
# the trailing axes of the view a.transpose(2, 3, 0, 1).  So the joint step is
# the single-walker step on particle 1's view, then on particle 2's.


def _swap(state):
    """The walkers of the other particle: a joint tensor's view with its
    leading (W, 2) axes trailing, as a stack of walkers."""
    return WalkerState(state.t_max, state.amplitudes.transpose(2, 3, 0, 1))


def two_particle_step(state, ctx):
    """One joint step: the single-walker step for particle 1, then for 2.

    `step` raises BoundaryError if either particle's amplitude would cross
    an edge.
    """
    a = step(_swap(step(_swap(state), ctx)), ctx).amplitudes
    return TwoParticleState(state.t_max, a, state.symmetry)


def two_particle_step_with_derivative(pair, ctx):
    """Advance a joint (psi, dpsi) pair one step.

    (psi, dpsi) goes through `step_with_derivative` for particle 1, then
    for particle 2, so with U1, U2 the per-particle steps the product rule

        dpsi' = U2 dU1 psi + dU2 U1 psi + U2 U1 dpsi

    holds by construction, and psi' is `two_particle_step`'s bit for bit.
    """
    def swap(p):
        return DerivativePair(_swap(p.psi), _swap(p.dpsi))

    out = step_with_derivative(swap(step_with_derivative(swap(pair), ctx)), ctx)
    t_max, symmetry = pair.psi.t_max, pair.psi.symmetry
    return DerivativePair(TwoParticleState(t_max, out.psi.amplitudes, symmetry),
                          TwoParticleState(t_max, out.dpsi.amplitudes, symmetry))
