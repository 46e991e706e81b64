"""Disorder-averaged runs with reproducible seeding and optional parallelism.

Every ensemble member k draws its own phase map from a child seed derived from
the master seed by the SplitMix64 finalizer.  That derivation is a bijection
on 64-bit words for a fixed master seed, so members never share a map by
accident, and the full ensemble is pinned by (config, master_seed) alone.

Members are summed in fixed blocks of BLOCK_MAPS, and evolved in kernel
calls of up to CALL_BLOCKS whole blocks, through one block kernel,
`_run_block`.  After t steps from x0 a walker's amplitude sits only on the
t + 1 sites x0 - t + 2k (Kempe, Contemp. Phys. 44, 307 (2003)), so a call
holds psi and dpsi of all its walkers on those light-cone slots, one (2,
n_steps + 1, rows) buffer per state, coin, slot and walker, and steps each
in place: step t reads slots 0..t-1 and writes slots 0..t of the same
buffer.  A third buffer of that shape is the call's scratch, in which every
step forms its products and the reductions their squares and residuals, so
nothing of the call's size is allocated after the call starts.  The
walker axis is innermost in memory and the slots of a step are
contiguous, so each numpy operation of a step is one contiguous loop over
only the cells that can be nonzero.  Every per-member array of a call is
laid out on the slots, the marginals too: each block's distribution sum
and its members' own variances are formed from a step's slots and written
only at the t + 1 sites the step reaches.  Each step hands the public
layers slots 0..t of the buffers as they are, (coin, slot, row) cells, in one
`states.ConeStack` that carries the scratch, and the kernel calls
`step_with_derivative` (or `step`), `qfi_pure` and `position_distribution`
on it once per step of a call, whatever its number of blocks.  The call
draws each member's map once (`_family_masks`), into a `MapStack` with one
row per walker, the walker axis innermost as well: static maps as one row
of pi cells across the lattice, turned into phase factors at phi once,
and dynamic maps gathered into the cone coordinates of the slots each
step's phase acts on.
The kernel and the one-map step are one definition, `operators.cone_step`,
on cells laid out alike, and `qfi_pure` sums each walker's cells in an
order fixed by those cells alone, skipping only exact zeros, so every
member's series equals the one-map `qfi_series` bit for bit, in a call of
any size.  The distribution sums and the own variances are formed block
by block, with the calls a block of BLOCK_MAPS members alone would make;
block boundaries follow from the member index alone, and block sums are
accumulated strictly in block order, whether the blocks ran in one call
or several, serially or on a process pool.  So the same config produces
bit-identical aggregates no matter how the blocks were laid out into
calls or how the calls were scheduled.

The calls of an ensemble are laid out by its blocks and the worker count
(`_call_blocks`), and pool workers take whole calls.  An ensemble of up
to CALL_BLOCKS blocks whose walk is short, up to POOL_MIN_CELLS state
cells, is one call, run in-process at any worker count: split, it would
pay every step's per-call overhead once per part, and the pool's start,
which outweigh the array work a second worker takes.  Every ensemble
inside one `pool_scope` shares its pool: a `reproduce` preset opens one
scope, so the command forks its workers once, at the first ensemble it
shares out, and joins them once, when the preset ends, instead of once
per ensemble.

Two walkers share one map, and U (x) U is linear, so their joint state is
exactly (a (x) b + s b (x) a) / sqrt2 with a = U|x,up>, b = U|x,down> and
s = +1 for bosons, -1 for fermions (a (x) b alone for separable input).
The kernel evolves a and b as two single-walker rows per member and
rebuilds the joint QFI and marginal from them:

    F = F_a + F_b + 8 s |<a|db>|^2,
    P(x) = |a(x)|^2 (separable) or (|a(x)|^2 + |b(x)|^2) / 2,

both exact while <a|b> = 0, which the evolution conserves and every step
checks (Omar, Paunkovic, Sheridan & Bose, PRA 74, 042304 (2006)).

A failing check takes one path to the caller.  Every check of a step,
in the layers or in the kernel, raises a `RowCheckError` through
`metrology.check_rows`, naming a walker row, and one handler in
`_run_block` raises `EnsembleMemberError` for that row's member, with its
index, seed and step.  Leaving `pool_scope` on it, as on any exception,
stops the pool and drops the store.

The kernel returns each walker row's own QFI, and for two walkers each
member's |<a|db>|^2, and `run_ensemble` forms the run's F from those rows
(`_qfi_table`).  So one evolution of a and b holds every statistic's F,
and the single-walker F of |x0, up> and |x0, down> besides; each step
checks all of them.  A `pool_scope` stores every table of its latest
evolution under a key of the fields that fix it (`_keys`), and a run
reads its tables from that store, evolving only when one is missing: a
two-walker preset draws and evolves each map once for its five series.
Each value is formed from the same tables by the same operations either
way, so a run read from the store has the bits of one that evolves.

Every kernel call evolves a map family (`_run_family`): configs that
differ in their disorder (kind, p) alone, and so draw every member's
maps from the same child seed; a lone config is the family of one.  The
call draws a member's bernoulli-uniform uniforms once, takes every
config's pi mask from that one draw, bit for bit the `generate_map` mask
(`_family_masks`), and evolves the configs one after another through
`_run_block`.  Kind "none" and exact-pi-fraction maps, whose configs
always run alone, are drawn by `generate_map` itself.  The distribution
and variance scans run four disordered configs of one family:
`share_maps` announces it to the scope, and the first run of one of its
configs evolves them all and stores every config's tables, block sums
added in block order, from which each later run of one of them reads
its own.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .disorder import MapStack, check_int, check_real, generate_map, validate_disorder
from .errors import EnsembleMemberError, RowCheckError
from .metrology import NEGATIVE_TOL, NORM_TOL, check_rows, pair_inner, qfi_pure
from .observables import PositionDistribution, position_distribution, position_variance
from .operators import (
    OPERATOR_ORDERS,
    PHASE_FIRST,
    StepContext,
    step,
    step_with_derivative,
)
from .states import (
    TWO_PARTICLE_KINDS,
    ConeStack,
    coin_spinor,
    new_two_particle_state,
    new_walker_state,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

INITIAL_KINDS = ("single",) + TWO_PARTICLE_KINDS

#: members whose distribution sum and own variances are formed together.  A
#: constant, never derived from the worker count: block boundaries set the
#: order in which aggregates are summed, so they must not depend on
#: scheduling.
BLOCK_MAPS = 64

#: most whole blocks one kernel call evolves together.  Calls only share out
#: the steps; their layout may follow the worker count (`_call_blocks`)
#: without moving a bit of the output.
CALL_BLOCKS = 4

#: most state cells (`_state_cells`) of an ensemble of at most CALL_BLOCKS
#: blocks that runs in-process, as one kernel call, at any worker count;
#: past them it is shared out as a larger one is.  Measured on 2 vCPUs
#: at --workers 2, two calls broke even at about 20,000 cells, with or
#: without the QFI, for one walker or two; at 16,384 (256 maps of one
#: walker, 63 steps) the one call took about 0.7 of their time, the
#: pool's start and a second pass of per-step overhead outweighing the
#: halved array work.
POOL_MIN_CELLS = 16_384

#: bytes a run may hold in its map, state, QFI and lattice tables together
#: (`_table_bytes`), so that a mistyped size is refused as a config instead
#: of failing to allocate
_MAX_RUN_BYTES = 2**30

#: s in (a (x) b + s b (x) a) / sqrt2 for each two-walker initial kind
_EXCHANGE_SIGN = {"separable": 0, "boson": 1, "fermion": -1}

#: the coins of a = |x0, up> and b = |x0, down>, a two-walker member's rows
_PAIR_COINS = (coin_spinor((1, 0)), coin_spinor((0, 1)))


def split_seed(master_seed, index):
    """Child seed for ensemble member `index` (SplitMix64 output function).

    For a fixed master seed the map index -> child is injective over the full
    64-bit index range, so distinct members cannot collide.  Master seeds
    are 64-bit words: one of 2**64 or more would alias the seed it is
    congruent to, so it raises ValueError.
    """
    if master_seed < 0 or index < 0:
        raise ValueError("master_seed and index must be nonnegative")
    if master_seed > _MASK64:
        raise ValueError(f"master_seed {master_seed} is not below 2**64")
    z = (int(master_seed) + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_B) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_C) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class InitialStateSpec:
    """How each member prepares its t = 0 state."""

    kind: str = "single"
    position: int = 0
    coin: tuple = (1.0 + 0.0j, 0.0j)

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ValueError(f"unknown initial-state kind {self.kind!r}")
        check_int("position", self.position, -math.inf)
        object.__setattr__(self, "coin", coin_spinor(self.coin))
        if self.kind != "single" and self.coin != (1.0 + 0.0j, 0.0j):
            raise ValueError(
                "coin amplitudes are fixed by the exchange symmetry for "
                "two-particle initial states"
            )

    def build(self, t_max):
        if self.kind == "single":
            return new_walker_state(t_max, self.position, self.coin)
        return new_two_particle_state(self.kind, t_max, self.position)


@dataclass(frozen=True)
class EnsembleConfig:
    """Full description of a disorder-averaged run."""

    kind: str
    p: float
    n_steps: int
    n_maps: int
    master_seed: int = 0
    phi: float = 0.0
    semantics: str = "bernoulli-uniform"
    initial: InitialStateSpec = field(default_factory=InitialStateSpec)
    collect_qfi: bool = True
    collect_distribution: bool = False
    collect_variance: bool = False
    per_map_variance: bool = False
    operator_order: str = PHASE_FIRST

    def __post_init__(self):
        validate_disorder(self.kind, self.n_steps, self.p, self.semantics)
        check_int("n_maps", self.n_maps, 1)
        check_int("master_seed", self.master_seed, 0)
        check_real("phi", self.phi)
        if self.master_seed > _MASK64:
            raise ValueError(f"master_seed {self.master_seed} is not below 2**64")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if self.operator_order not in OPERATOR_ORDERS:
            raise ValueError(f"unknown operator order {self.operator_order!r}")
        if not isinstance(self.initial, InitialStateSpec):
            raise ValueError(f"initial must be an InitialStateSpec, got {self.initial!r}")
        size = _table_bytes(self)
        if size > _MAX_RUN_BYTES:
            raise ValueError(
                f"{self.n_steps} steps of {self.n_maps} maps from position "
                f"{self.initial.position} need {size} bytes of map, state, QFI "
                f"and lattice tables, over the limit of {_MAX_RUN_BYTES}"
            )
        if not (
            self.collect_qfi
            or self.collect_distribution
            or self.collect_variance
            or self.per_map_variance
        ):
            raise ValueError("nothing to collect: enable at least one output")

    @property
    def t_max(self):
        """Lattice half-width each member allocates."""
        return abs(self.initial.position) + self.n_steps


@dataclass
class EnsembleSeries:
    """Aggregated output of run_ensemble; entries are None unless collected.

    qfi_mean/qfi_stderr: per-step ensemble mean and standard error of the QFI.
    distribution: ensemble-mean position distribution, shape (n_steps+1, W).
    variance: per-step variance of the ensemble-mean distribution, by
        `position_variance`, so a row of it that does not sum to 1 fails
        the run.
    variance_per_map: per-step mean over members of each map's own variance.
    """

    config: EnsembleConfig
    member_seeds: np.ndarray
    steps: np.ndarray
    positions: np.ndarray
    qfi_mean: np.ndarray = None
    qfi_stderr: np.ndarray = None
    distribution: np.ndarray = None
    variance: np.ndarray = None
    variance_per_map: np.ndarray = None


def _member_error(config, index, message):
    """Member `index` of `config` failed: the error names its config's
    disorder, as a run of a map family evolves several configs at once."""
    return EnsembleMemberError(index, split_seed(config.master_seed, index),
                               f"{config.kind} p={config.p:g}: {message}")


def _call_arrays(config, n_members, make, *names):
    """The one list of the arrays a run of `config` forms, the shape and
    dtype of each stated once; returns make(shape, dtype) of each array
    named, None for one the run does not form, or, with no names, of
    every array the run forms.

    The kernel allocates through it: a call of `n_members` members its
    state buffers, result rows and block sums (`_run_block`)
    and its maps' mask tables (`_map_stacks`), the run around the calls
    its row tables, own-variance rows and distribution sum (`_evolve`),
    which the scope stores.  The size rule (`_table_bytes`) prices every
    entry as held at once.
    The entries after those are priced only, as numpy, `generate_map`,
    `MapStack` or the interpreter forms them: one member's map draw
    (`_family_masks`), a dynamic map's cone index and gathered cones, a
    stack's contiguous cones and phase factors, a step's check values,
    the buffer numpy takes for the last step's marginals, the interpreter's
    objects, and what `run_ensemble` forms: the member seeds, the QFI
    table, the mean distribution, formed out of the stored sum, and the
    series' positions and steps.
    """
    n, width = config.n_steps, 2 * config.t_max + 1
    walkers = len(_walker_coins(config.initial))
    rows, maps, blocks = n_members * walkers, config.n_maps, -(-n_members // BLOCK_MAPS)
    qfi, own = config.collect_qfi, config.per_map_variance
    dist = config.collect_distribution or config.collect_variance
    dynamic, drawn = config.kind == "dynamic", config.kind != "none"
    bernoulli = drawn and config.semantics == "bernoulli-uniform"
    state, lattice = ((2, n + 1, rows), complex), ((n + 1, width), float)
    # a dynamic map's cones; the map's N cells: a static map's row, a
    # dynamic map's table
    cone, cells = (n, n + 1), (2 * n + 1) * (n if dynamic else 1)
    arrays = {
        "psi": state,
        "dpsi": state if qfi else None,
        "scratch": state,
        "qfi": ((rows, n + 1), float) if qfi else None,
        "exchange": ((n_members, n + 1), float) if qfi and walkers == 2 else None,
        "own_var": ((n_members, n + 1), float) if own else None,
        "dist_sums": ((blocks, n + 1, width), float) if dist else None,
        # static maps' pi cells across the lattice, dynamic maps' cones as
        # each member's are gathered
        "masks": ((rows,) + cone if dynamic else (width, rows), bool),
        "row_tables": ((len(_keys(config)[0]), maps, n + 1), float) if qfi else None,
        "own_var_rows": ((maps, n + 1), float) if own else None,
        "dist_sum": lattice if dist else None,
        # priced only.  One member's draw: 2N uniforms, N at p = 1, beside
        # the mask and the comparison ANDed into it; an int64 permutation of
        # the cells and the pi cells it picks, beside the bool table; or kind
        # "none"'s all-False table
        "uniforms": (((2 - (config.p == 1)) * cells,), float) if bernoulli else None,
        "permutation": ((2, cells), np.int64) if drawn and not bernoulli else None,
        "draw masks": ((2 - (not bernoulli) if drawn else n, cells), bool),
        # a dynamic map's cell index and on-map tables, one member's cones
        # as taken from its map, then the stack's contiguous cones
        "cone index": (cone, np.int64) if dynamic else None,
        "cone masks": ((2,) + cone, bool) if dynamic else None,
        "cones": (cone + (rows,), bool) if dynamic else None,
        # `MapStack.factors`: one step's cone, or the lattice's factors
        "factors": ((n + 1 if dynamic else width, rows), complex),
        # a step's per-row reductions and checks: site sums, norms^2 and
        # their residuals, QFI values, |<a|b>|, <a|db> and the F of each
        # statistic; two walkers with QFI hold 9.1 floats a row at most
        # (512 rows, measured with the interpreter's objects)
        "checks": ((10, rows), float),
        # |psi| into float work at a call's last step: the states are then
        # contiguous whole, the work is not, and numpy buffers the output
        # whole, up to np.getbufsize() elements, to iterate it in one loop
        "marginal buffer": ((np.getbufsize(),), float) if dist or own else None,
        # the interpreter's objects beside the arrays: frames, array
        # headers, a step's ConeStack: about 8 KB measured, priced twice
        "objects": ((16 * 1024,), np.uint8),
        "seeds": ((maps,), np.uint64),
        # the temporary the QFI table's std, or its exchange term, forms,
        # and for two walkers the table itself
        "qfi table": ((walkers, maps, n + 1), float) if qfi else None,
        # the mean distribution, which leaves the stored sum as it is
        "dist_mean": lattice if dist else None,
        # the series' positions and steps
        "positions": ((width + n + 1,), np.int64),
    }
    if names:
        return [None if arrays[k] is None else make(*arrays[k]) for k in names]
    return [make(*spec) for spec in arrays.values() if spec is not None]


def _table_bytes(config):
    """Bytes of every array a run of `config` forms (`_call_arrays`), at
    its largest kernel call, as if all were held at once: an upper bound on
    what the run holds."""
    members = min(config.n_maps, CALL_BLOCKS * BLOCK_MAPS)
    return sum(_call_arrays(config, members, lambda shape, dtype: (
        math.prod(shape) * np.dtype(dtype).itemsize)))


def _family_masks(family, seed):
    """Each config's pi mask at map seed `seed`, in `family` order, bit for
    bit the `generate_map` one: the row of 2 n_steps + 1 cells that drives
    every step of a static map or kind "none", and a dynamic map's
    (n_steps, 2 n_steps + 1) table.

    The configs differ in (kind, p) alone, a lone config being a family of
    one.  Kind "none" and exact-pi-fraction configs, which are never in a
    family of more, are drawn by `generate_map`, the one-map definition.
    A static or dynamic bernoulli-uniform family is drawn once.
    `generate_map` draws the selections of a map's N cells (N = 2 n_steps
    + 1 for static maps, n_steps (2 n_steps + 1) for dynamic ones), then
    the halves, from one PCG64 stream, and at p = 1 advances the stream
    past the selections instead (see `disorder`).  So with U the stream's
    uniforms, a mask is (U[:N] < p) & (U[N:2N] < 0.5), or U[N:2N] < 0.5 at
    p = 1.  The draw advances past the lo uniforms no config reads, lo = 0
    if a config has p < 1 and the least N otherwise, and takes the
    uniforms up to the largest config's 2N."""
    config = family[0]
    n = config.n_steps
    if config.kind == "none" or config.semantics != "bernoulli-uniform":
        mask = generate_map(config.kind, n, config.p, config.semantics,
                            seed).pi_mask
        yield mask if config.kind == "dynamic" else mask[0]
        return
    sizes = [(2 * n + 1) * (n if c.kind == "dynamic" else 1) for c in family]
    lo = min(0 if c.p < 1 else size for c, size in zip(family, sizes))
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(lo)
    draw = rng.random(2 * max(sizes) - lo)
    for c, size in zip(family, sizes):
        mask = draw[size - lo:2 * size - lo] < 0.5
        if c.p < 1:
            mask &= draw[:size] < c.p
        yield mask.reshape(n, -1) if c.kind == "dynamic" else mask


def _map_stacks(family, members, walkers):
    """The members' maps of each config of `family`, one MapStack per
    config in `family` order, built once per kernel call, one map per
    walker row.

    The configs differ in (kind, p) alone, a lone config being a family
    of one.  Each member is drawn once for every config (`_family_masks`).
    A failure naming one config's mask fails the member in that config,
    and a member's masks are dropped once its cells are taken, before the
    next member is drawn.  Every member is drawn at the first stack
    taken; each stack is formed as it is taken.

    Each member's map is repeated for each of its walkers: factors
    broadcast over a walker axis of length 2 would make every numpy inner
    loop that short.  The row axis is innermost, as in the call's state
    buffers, so `MapStack.cone_factor` reads each step's cone as
    contiguous rows.  Every stack is built for the call's walkers alone:
    its origin is x0, and its lag, 0 for phase-first and 1 for
    phase-last, fixes the cone each step's phase acts on.

    Static maps, and kind "none", whose rows are all alike, give one row of
    pi cells per walker row across the lattice -t_max..t_max, (W, rows)
    bool; the stack turns it into phase factors at `config.phi` once.  A
    map covers -n_steps..n_steps; the columns beyond, which only walkers
    started off the origin reach, are False (no disorder), as in
    `PhaseMap.step_signs`.  Dynamic maps are gathered into cone
    coordinates, (n_steps, n_steps + 1, rows) bool: step t's row holds the
    cells at the sites its phase acts on, and False beyond the map's
    lattice.
    """
    config = family[0]
    n, t_max, x0 = config.n_steps, config.t_max, config.initial.position
    lag = int(config.operator_order != PHASE_FIRST)
    tables = [_call_arrays(cfg, len(members), np.zeros, "masks")[0]
              for cfg in family]
    if any(cfg.kind == "dynamic" for cfg in family):
        # slot k of step s + 1 sits at x0 - (s + lag) + 2k (`MapStack`); a
        # slot off the map's lattice reads some clipped cell, then is cleared
        s = np.arange(n)[:, None]
        cells = n + x0 - (s + lag) + 2 * np.arange(n + 1)
        on_map = (cells >= 0) & (cells <= 2 * n)
        cells += s * (2 * n + 1)
    for row, k in enumerate(members):
        drawn = _family_masks(family, split_seed(config.master_seed, k))
        walker_rows = slice(row * walkers, (row + 1) * walkers)
        for cfg, table in zip(family, tables):
            try:
                mask = next(drawn)
            except Exception as exc:
                raise _member_error(cfg, k, str(exc)) from exc
            if cfg.kind == "dynamic":
                table[walker_rows] = mask.take(cells, mode="clip")
            else:
                table[t_max - n:t_max + n + 1, walker_rows] = mask[:, None]
        # release the draw and its masks before the next member's draw
        del drawn, mask
    # and the cell index before the stacks are taken
    cells = None
    # a stack's phase factors and contiguous cones exist only from when
    # its config's evolution takes it
    for cfg in family:
        table = tables.pop(0)
        if cfg.kind != "dynamic":
            yield MapStack(n, cfg.phi, pi=table, origin=x0, lag=lag)
            continue
        table &= on_map
        table = np.ascontiguousarray(table.transpose(1, 2, 0))
        yield MapStack(n, cfg.phi, cones=table, origin=x0, lag=lag)


def _state_cells(config):
    """The cells of an ensemble's state at its last step: a row per member
    and walker, times the T + 1 slots of each.  A walk's array work grows
    as its cells times T, its per-step overhead as T alone."""
    walkers = len(_walker_coins(config.initial))
    return config.n_maps * walkers * (config.n_steps + 1)


def _call_blocks(n_blocks, workers):
    """The kernel calls of an ensemble of n_blocks blocks, as ranges of
    block indices: contiguous runs of whole blocks, at most CALL_BLOCKS
    each and at least min(workers, n_blocks) of them, their lengths as
    even as their number allows, longer calls first."""
    n_calls = max(-(-n_blocks // CALL_BLOCKS), min(workers, n_blocks))
    size, extra = divmod(n_blocks, n_calls)
    ends = [k * size + min(k, extra) for k in range(n_calls + 1)]
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def _run_family(args):
    """The kernel's one task: evolve the members of a run of whole blocks
    of every config of a map family in one kernel call each; returns each
    config's `_run_block` results, in family order.

    args is (family, blocks): configs that differ in (kind, p) alone, a
    lone config being the family (config,), and a range of block indices.
    The call draws each member's map once for every config and builds
    each config's MapStack from that draw (`_map_stacks`), then evolves
    the configs one after another, each through `_run_block`, so each has
    the bits of its lone call.  Runs in worker processes, so it must stay
    top-level picklable.
    """
    family, blocks = args
    members = range(blocks.start * BLOCK_MAPS,
                    min(blocks.stop * BLOCK_MAPS, family[0].n_maps))
    walkers = len(_walker_coins(family[0].initial))
    stacks = _map_stacks(family, members, walkers)
    return [_run_block(config, members, next(stacks)) for config in family]


def _run_block(config, members, maps):
    """Evolve `members`, those of a run of whole blocks of `config`, in one
    kernel call on their MapStack `maps`; returns (qfi, exchange,
    distribution sums, own variance).

    qfi holds one QFI row per walker row of the call, the walkers of a
    member next to each other; exchange, for two walkers, one |<a|db>|^2
    row per member, from which `_qfi_table` forms every exchange
    statistic's F.  Own variance holds one row per member, the
    distribution sums one (n_steps + 1, W) sum of the members' marginals
    per block; each is None unless collected.  A failure on one
    member's state raises EnsembleMemberError with that member's index
    and seed.

    Light-cone slots (see the module docstring): step t reads slots 0..t-1
    of each state's (2, n_steps + 1, rows) buffer and writes slots 0..t of
    the same buffer (`operators.cone_step`).  The two cells the shift
    leaves unwritten, up at slot 0 and down at slot t, are zero: the step
    clears up at slot 0, and down at slot t was never written, as no slot
    is written before the step that reaches it.  The one-map
    `step_with_derivative` steps its lattice through the same
    `cone_step`, so each element has the bits of the one-map evolution.
    The products of a step and the squares and residuals of its
    reductions, the marginals among them, are formed in the call's
    scratch, a third buffer of the same shape, which each step's ConeStack
    carries to the layers; the block sums and the phase factors have
    storage of their own.  Every buffer of the call is allocated when it
    starts, at the shape `_call_arrays` states for the size rule: the
    states and scratch of B members and w walkers each take (2 or 3) x 32
    (n_steps + 1) B w bytes.

    Rows equal `qfi_series`: it reduces every step over the full lattice,
    whose cells off the cone are exact zeros, and `qfi_pure` sums in an
    order fixed by each walker's own cells (`metrology._site_sums`), so
    neither the skipped zeros, the number of walkers nor the memory order
    changes a bit.  The marginals stay on the slots too, the (t + 1,
    rows) probabilities `position_distribution` forms: each block's
    distribution sum is the sum of that block's rows, written at the
    t + 1 sites x0 - t + 2k the step reaches, and its own variances are
    the moments of each row over those sites
    (`PositionDistribution.positions`).  A member's marginal is walker
    a's for a separable pair and the mean of both walkers' for bosons and
    fermions, so their sums and moments are averaged over the two rows.
    A block's results come from its own rows alone, with the calls a call
    of that one block makes, so they do not depend on the call that
    evolved it.

    Every step checks the norms, 0 <= F(t) <= t^2 for every walker row
    (the phase generator of t steps is a sum of t spin-up projectors) and,
    for two walkers, |<a|b>| <= NORM_TOL, which the product form relies
    on, and the fermion F >= 0 and the boson F <= (2t)^2, so that one
    evolution checks every statistic it can serve.  Each check is written
    to fail on NaN.  The norms and the floor F >= 0 are checked by the
    layers (`qfi_pure`, `position_distribution`), the rest here, and every
    one raises through `metrology.check_rows`, which names a walker row: a
    check of one value per member names the member's first row.  One
    handler around the steps turns that into EnsembleMemberError for the
    row's member, with the step.
    """
    # each block's rows of the call's member tables
    spans = [slice(k, k + BLOCK_MAPS) for k in range(0, len(members), BLOCK_MAPS)]
    n, t_max = config.n_steps, config.t_max
    spec, x0 = config.initial, config.initial.position
    walkers = 1 if spec.kind == "single" else 2
    # a member's marginal is the mean of `counted` of its rows, every
    # `stride`-th: a separable pair's walker a, a boson or fermion pair's two
    stride = 2 if spec.kind == "separable" else 1
    counted = walkers // stride

    psi, dpsi, scratch, qfi, exchange, dist_sums, own_var = (
        _call_arrays(config, len(members), np.zeros, "psi", "dpsi", "scratch",
                     "qfi", "exchange", "dist_sums", "own_var"))
    # one walker: the configured coin at x0; two walkers: a = |x0, up> and
    # b = |x0, down> (see the module docstring)
    for j, coin in enumerate(_walker_coins(spec)):
        psi[:, 0, j::walkers] = np.array(coin)[:, None]
    evolve = step if qfi is None else step_with_derivative

    try:
        for t in range(n + 1):
            # step t's walkers: slots 0..t of each buffer
            cells = psi[:, :t + 1]
            now = ConeStack(cells, None if dpsi is None else dpsi[:, :t + 1],
                            x0, scratch)
            if t > 0:
                ctx = StepContext(config.phi, t, maps, config.operator_order)
                evolve(prev, ctx, out=now)
            prev = now
            if walkers == 2:
                pairs = scratch[:, :t + 1]
                ab = np.abs(pair_inner(cells, cells, pairs))
                check_rows(ab <= NORM_TOL, ab, f"|<a|b>| exceeds {NORM_TOL}",
                           walkers)
            if qfi is not None:
                # `qfi_rows` holds the floor, and clamps at 0
                values = qfi[:, t] = qfi_pure(now)
                bound = t * t
                check_rows(values <= bound * (1 + NORM_TOL), values,
                           f"F outside [0, t^2 = {bound}]")
                if exchange is not None:
                    # |<a|db>|^2, and every statistic's F from the rows as
                    # `_qfi_table` forms it, held to [0, (2t)^2]: the
                    # separable F lies between the fermion and the boson one
                    a_db = pair_inner(cells, now.dpsi, pairs)
                    exchange[:, t] = np.abs(a_db) ** 2
                    both = qfi[0::2, t] + qfi[1::2, t]
                    swap = 8 * exchange[:, t]
                    fermion, boson = both - swap, both + swap
                    check_rows(fermion >= -NEGATIVE_TOL, fermion,
                               "fermion F outside [0, (2t)^2]", walkers)
                    check_rows(boson <= 4 * bound * (1 + NORM_TOL), boson,
                               f"boson F outside [0, (2t)^2 = {4 * bound}]",
                               walkers)
            if dist_sums is not None or own_var is not None:
                dist = position_distribution(now)
                x = dist.positions().astype(float)
                sites = slice(t_max + x0 - t, t_max + x0 + t + 1, 2)
                for i, span in enumerate(spans):
                    # the block's rows of step t's (t + 1, rows) probabilities
                    probs = dist.probabilities[:, span.start * walkers:
                                               span.stop * walkers:stride]
                    if dist_sums is not None:
                        sums = probs.sum(axis=1, out=dist_sums[i, t, sites])
                        sums /= counted
                    if own_var is not None:
                        # each member's moments, the mean of its rows'
                        mean, square = ((y @ probs).reshape(-1, counted)
                                        .mean(axis=1) for y in (x, x * x))
                        own_var[span, t] = square - mean * mean
    except RowCheckError as exc:
        # every check names a walker row: the member's first row or its own
        raise _member_error(config, members[exc.row // walkers],
                            f"step {t}: {exc}") from exc
    return qfi, exchange, dist_sums, own_var


def _walker_coins(spec):
    """The coin each walker row of a member starts in at x0: the configured
    one, or a = |x0, up> and b = |x0, down> for two walkers."""
    return (spec.coin,) if spec.kind == "single" else _PAIR_COINS


def _keys(config):
    """The store keys (`pool_scope`) of the tables a run of `config` reads:
    (row keys, distribution key, own-variance key).  A row key for each
    (n_maps, n_steps + 1) table of rows the run forms its QFI from: each
    walker's QFI, by the coin it starts in, then, for two walkers,
    |<a|db>|^2; none without the QFI.  Then the keys of its distribution
    sum and its own-variance rows, each None unless collected.  A key
    holds every field that fixes its table, floats by repr: 0.0 and -0.0
    compare equal, yet may form different bits.  A walker's rows are fixed
    by the coin it starts in, the two sums by the whole initial state."""
    maps = (config.kind, repr(config.p), config.n_steps, config.n_maps,
            config.master_seed, repr(config.phi), config.semantics,
            config.operator_order, config.initial.position)
    coins = _walker_coins(config.initial) if config.collect_qfi else ()
    sums = maps + (repr(config.initial),)
    dist = config.collect_distribution or config.collect_variance
    return ([maps + (repr(coin),) for coin in coins]
            + [maps + ("exchange",)] * (len(coins) == 2),
            sums + ("distribution",) if dist else None,
            sums + ("own variance",) if config.per_map_variance else None)


def _qfi_table(config, tables):
    """Each member's F, (n_maps, n_steps + 1), from the run's row tables in
    `_keys` order: F_c for one walker, F_a + F_b + 8 s |<a|db>|^2 for
    two (see the module docstring)."""
    if config.initial.kind == "single":
        return tables[0]
    f_a, f_b, exchange = tables
    table = f_a + f_b
    sign = _EXCHANGE_SIGN[config.initial.kind]
    if sign:
        table += 8 * sign * exchange
    # the exchange term can leave an analytic zero as -1e-16 dust
    return np.maximum(table, 0.0, out=table)


def _map_key(config):
    """Every field of `config` but (kind, p), floats by repr (see
    `_keys`): configs with one key draw their maps from the same
    member seeds, on the same lattice, and evolve from the same walkers."""
    return tuple(repr(getattr(config, f.name)) for f in fields(config)
                 if f.name not in ("kind", "p"))


class _PoolScope:
    """What every ensemble inside one `pool_scope` shares: the process pool,
    the announced map families, and the store of every table the scope's
    latest evolution formed, by key (`_keys`)."""

    def __init__(self):
        self.pool = None
        self.size = 0
        self.kept = {}
        self.families = {}

    def get(self, workers):
        """The pool, forked now, or re-forked if it has fewer than `workers`."""
        if self.size < workers:
            self.end()
            import multiprocessing  # only a pool needs it; keeps start-up lean

            # numpy 2 imports numpy.random at its first use: once here, not
            # in every forked worker at its first map draw
            import numpy.random  # noqa: F401

            self.pool = multiprocessing.Pool(processes=workers)
            self.size = workers
        return self.pool

    def family(self, config):
        """The announced family of `config`, `config` first, or `config`
        alone; the family is no longer announced once it evolves."""
        family = self.families.get(repr(config), ())
        for other in family:
            del self.families[repr(other)]
        return (config,) + tuple(c for c in family if repr(c) != repr(config))

    def end(self, terminate=False):
        """Close and join the pool, or stop its workers at once and drop
        the store and every announced family; then drop the pool."""
        if self.pool is not None:
            if terminate:
                self.pool.terminate()
            else:
                self.pool.close()
            self.pool.join()
        self.pool, self.size = None, 0
        if terminate:
            self.kept, self.families = {}, {}


_scope = None


@contextlib.contextmanager
def pool_scope():
    """Share one process pool, the store of the latest evolution's tables
    and the announced map families between every `run_ensemble` call
    inside.

    The pool is forked at the first call that needs one, an ensemble
    shared out over more than one worker (`_evolve`), with that call's
    number of processes, so its workers run the code as it stood then; a
    later call that needs more processes replaces it.  Leaving the scope
    closes and joins the pool, so its workers have exited, and their CPU
    time is reaped, by the time the scope ends.  Inside an open scope,
    `pool_scope()` opens no scope of its own, and `run_ensemble` outside
    any scope opens its own.  An exception leaving any scope, nested or
    not, a failed member or an interrupt inside `run_ensemble` among
    them, terminates the pool's workers at once, without waiting for its
    queue to drain, and drops the store and the announced families, so
    that nothing the failed run left is read later in the scope.  No
    other code stops the pool or drops the store on a failure.

    Every evolution drops the tables the scope stored, then stores every
    table it formed (`_evolve`): each config's QFI rows, each walker's by
    the coin it starts in and, for two walkers, the |<a|db>|^2 rows, its
    distribution sum and its own-variance rows, each under a key of the
    fields that fix it (`_keys`).  A run whose tables are all stored reads
    them, without drawing a map or taking a step, and any other evolves:
    one two-walker evolution serves the separable, boson and fermion runs
    and the single-walker runs from |x0, up> and |x0, down>, and a rerun
    is served again, each with the bits it would evolve.

    `share_maps` announces map families: configs that differ in (kind, p)
    alone.  Every run evolves its config's family in the same kernel
    task, `_run_family`, a config in no announced family as the family of
    one.  The first run of an announced family's config evolves every
    config of the family from one map draw per member and stores every
    config's tables, block sums added in block order as ever, from which
    each later run of one of them reads its own, with the bits it would
    evolve.  The store lives as long as the scope, or until a failure.
    """
    global _scope
    opened = _scope is None
    if opened:
        _scope = _PoolScope()
    scope = _scope
    try:
        yield
    except BaseException:
        scope.end(terminate=True)
        raise
    finally:
        if opened:
            scope.end()
            _scope = None


def share_maps(configs):
    """Announce to the open `pool_scope` the map families among `configs`,
    so that the first run of one of a family's configs evolves them all
    from one map draw per member; outside a scope, do nothing.

    A family is two or more configs that differ in (kind, p) alone and
    draw static or dynamic bernoulli-uniform maps, whose summed
    `_table_bytes` stays within the run limit: its kernel calls hold every
    config's map stack at once, and the store every config's tables.  Every
    other config, a family over that limit included, runs alone, as the
    family of one.  Every config's run has the bits it has alone either
    way.
    """
    if _scope is None:
        return
    groups = {}
    for config in configs:
        if config.kind != "none" and config.semantics == "bernoulli-uniform":
            groups.setdefault(_map_key(config), {})[repr(config)] = config
    for group in groups.values():
        family = tuple(group.values())
        if len(family) > 1 and sum(map(_table_bytes, family)) <= _MAX_RUN_BYTES:
            _scope.families.update(dict.fromkeys(group, family))


def _evolve(config, workers):
    """Evolve every member of `config`, and of every other config of its
    announced family, in one `_run_family` task per kernel call that
    `_call_blocks` lays out, on the scope's pool, and store every table
    each config formed, its QFI rows, distribution sum and own-variance
    rows, under its key (`_keys`).  One worker, one block, or a short walk
    (POOL_MIN_CELLS) of at most CALL_BLOCKS blocks runs in-process."""
    # the store holds one evolution's tables: drop them before this one's exist
    _scope.kept = {}
    family = _scope.family(config)
    n_maps = config.n_maps
    n_blocks = -(-n_maps // BLOCK_MAPS)
    if n_blocks <= CALL_BLOCKS and _state_cells(config) <= POOL_MIN_CELLS:
        # one call, too short a walk to pay for a second pass of per-step
        # overhead and for a pool's start
        workers = 1
    workers = min(workers, n_blocks)
    calls = _call_blocks(n_blocks, workers)
    tasks = ((family, blocks) for blocks in calls)
    walkers = len(_walker_coins(config.initial))

    runs = [_call_arrays(cfg, n_maps, np.zeros, "row_tables", "dist_sum",
                         "own_var_rows") for cfg in family]

    if workers == 1:
        results = map(_run_family, tasks)
    else:
        results = _scope.get(workers).imap(_run_family, tasks)
    # accumulate strictly in block order: neither the calls' layout nor
    # their scheduling can change bytes
    for blocks in calls:
        called = next(results)
        members = slice(blocks.start * BLOCK_MAPS, blocks.stop * BLOCK_MAPS)
        for (tables, dist_sum, own_var_rows), (qfi, pairs, dists, own_var) in zip(
                runs, called):
            if tables is not None:
                for j, table in enumerate(tables):
                    table[members] = qfi[j::walkers] if j < walkers else pairs
            if dist_sum is not None:
                for k in range(len(dists)):
                    dist_sum += dists[k]
            if own_var_rows is not None:
                own_var_rows[members] = own_var
        # release this call's results before the next call runs
        del called, qfi, pairs, dists, own_var
    for cfg, (tables, *sums) in zip(family, runs):
        rows, *sum_keys = _keys(cfg)
        _scope.kept.update(zip(rows, tables if rows else ()))
        _scope.kept.update((key, table) for key, table in zip(sum_keys, sums)
                           if key is not None)


def run_ensemble(config, workers=None):
    """Run all members and aggregate.

    workers is None, read as 1, or an integer >= 1 (`check_int`: numpy's
    pass, bool does not).  workers = 1, a single block, or a short walk of
    at most CALL_BLOCKS blocks (POOL_MIN_CELLS) runs in-process; otherwise
    the kernel calls, runs of whole blocks laid out by `_call_blocks`, are
    sharded over the process pool of the open `pool_scope`, one opened for
    this call if none is.  Aggregation order is by block, then member,
    either way, so results are bit-identical across worker counts and call
    layouts.  Every run reads its tables from the store of the scope,
    after evolving them, with its announced map family, only if one of
    them is missing (`pool_scope`); the bits are the same either way.  A
    failing member raises EnsembleMemberError with its index and seed,
    and, as any exception, stops the scope's pool and drops its store
    (`pool_scope`).
    """
    workers = 1 if workers is None else workers
    check_int("workers", workers, 1)
    n_maps, n = config.n_maps, config.n_steps
    rows, *sum_keys = _keys(config)
    with pool_scope():
        if not all(key in _scope.kept
                   for key in rows + sum_keys if key is not None):
            _evolve(config, workers)
        tables = [_scope.kept[key] for key in rows]
        # a table not collected has the key None, which is never stored
        dist_sum, own_var_rows = map(_scope.kept.get, sum_keys)

    out = EnsembleSeries(
        config=config,
        member_seeds=np.fromiter(
            (split_seed(config.master_seed, k) for k in range(n_maps)),
            dtype=np.uint64, count=n_maps,
        ),
        steps=np.arange(n + 1),
        positions=np.arange(-config.t_max, config.t_max + 1),
    )
    if rows:
        qfi_table = _qfi_table(config, tables)
        out.qfi_mean = qfi_table.mean(axis=0)
        if n_maps > 1:
            out.qfi_stderr = qfi_table.std(axis=0, ddof=1) / math.sqrt(n_maps)
        else:
            out.qfi_stderr = np.zeros(n + 1)
    if dist_sum is not None:
        # out of place: the store's sum serves every later run as it is
        dist_mean = dist_sum / n_maps
        if config.collect_distribution:
            out.distribution = dist_mean
        if config.collect_variance:
            out.variance = position_variance(
                PositionDistribution(config.t_max, dist_mean))
    if own_var_rows is not None:
        out.variance_per_map = own_var_rows.mean(axis=0)
    return out
