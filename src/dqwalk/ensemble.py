"""Disorder-averaged runs with reproducible seeding and optional parallelism.

Every ensemble member k draws its own phase map from a child seed derived from
the master seed by the SplitMix64 finalizer.  That derivation is a bijection
on 64-bit words for a fixed master seed, so members never share a map by
accident, and the full ensemble is pinned by (config, master_seed) alone.

Members run BLOCK_MAPS at a time through one block kernel: a block stacks
its members' pi masks into a `MapStack` and evolves their states together
as one stack of (B, rows, W, 2) walkers, one `step_with_derivative` (or
`step`) and one `qfi_pure` call per step, so every member's series equals
the one-map `qfi_series` bit for bit.  Block boundaries follow from the
member index alone, and block results are accumulated strictly in block order, whether the blocks
ran serially or on a process pool, so the same config produces
bit-identical aggregates no matter how the work was scheduled.

Two walkers share one map, and U (x) U is linear, so their joint state is
exactly (a (x) b + s b (x) a) / sqrt2 with a = U|x,up>, b = U|x,down> and
s = +1 for bosons, -1 for fermions (a (x) b alone for separable input).
The kernel evolves a and b as two single-walker rows per member and
rebuilds the joint QFI and marginal from them:

    F = F_a + F_b + 8 s |<a|db>|^2,
    P(x) = |a(x)|^2 (separable) or (|a(x)|^2 + |b(x)|^2) / 2,

both exact while <a|b> = 0, which the evolution conserves and every step
checks (Omar, Paunkovic, Sheridan & Bose, PRA 74, 042304 (2006)).
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .disorder import MapStack, generate_map, validate_disorder
from .errors import EnsembleMemberError, RowCheckError
from .metrology import NEGATIVE_TOL, NORM_TOL, qfi_pure, row_inner
from .operators import (
    OPERATOR_ORDERS,
    PHASE_FIRST,
    DerivativePair,
    StepContext,
    step,
    step_with_derivative,
)
from .states import (
    DOWN,
    TWO_PARTICLE_KINDS,
    UP,
    WalkerState,
    new_two_particle_state,
    new_walker_state,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

INITIAL_KINDS = ("single",) + TWO_PARTICLE_KINDS

#: members one kernel call evolves together.  A constant, never derived from
#: the worker count: block boundaries set the order in which aggregates are
#: summed, so they must not depend on scheduling.
BLOCK_MAPS = 32

#: s in (a (x) b + s b (x) a) / sqrt2 for each two-walker initial kind
_EXCHANGE_SIGN = {"separable": 0, "boson": 1, "fermion": -1}


def split_seed(master_seed, index):
    """Child seed for ensemble member `index` (SplitMix64 output function).

    For a fixed master seed the map index -> child is injective over the full
    64-bit index range, so distinct members cannot collide.
    """
    if master_seed < 0 or index < 0:
        raise ValueError("master_seed and index must be nonnegative")
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
        object.__setattr__(
            self, "coin", (complex(self.coin[0]), complex(self.coin[1]))
        )
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
        if self.n_maps < 1:
            raise ValueError("n_maps must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if self.operator_order not in OPERATOR_ORDERS:
            raise ValueError(f"unknown operator order {self.operator_order!r}")
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
    variance: per-step variance of the ensemble-mean distribution.
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


def _initial_rows(config, n_members):
    """t = 0 rows of a block, shape (n_members, rows per member, W, 2).

    One walker: the configured coin at the configured position.  Two
    walkers: a = |x, up> and b = |x, down>, from which the joint state is
    rebuilt (see the module docstring).
    """
    spec = config.initial
    coins = [spec.coin] if spec.kind == "single" else [(1.0, 0.0), (0.0, 1.0)]
    rows = [new_walker_state(config.t_max, spec.position, coin).amplitudes
            for coin in coins]
    return np.repeat(np.stack(rows)[None], n_members, axis=0)


def _member_error(config, index, message):
    return EnsembleMemberError(index, split_seed(config.master_seed, index), message)


def _stack_masks(config, members):
    """The members' pi masks as one MapStack of a (B, n_steps, W) bool table.

    A map covers -n_steps..n_steps; the columns beyond, which only walkers
    started off the origin reach, stay False (no disorder), as in
    `PhaseMap.step_signs`.
    """
    n, t_max = config.n_steps, config.t_max
    pad = t_max - n
    masks = np.zeros((len(members), n, 2 * t_max + 1), dtype=bool)
    for row, k in enumerate(members):
        try:
            pmap = generate_map(
                config.kind, n, config.p, config.semantics,
                split_seed(config.master_seed, k),
            )
        except Exception as exc:
            raise _member_error(config, k, str(exc)) from exc
        masks[row, :, pad:pad + 2 * n + 1] = pmap.pi_mask
    return MapStack(masks)


def _run_block(args):
    """Evolve one block of members; returns (qfi, distribution sum, own variance).

    qfi and own variance hold one row per member, the distribution sum is
    the member-order sum of the block's marginals; each is None unless
    collected.  Runs in worker processes, so it must stay top-level
    picklable.  A failure on one member's map or state raises
    EnsembleMemberError with that member's index and seed.  Every step checks
    the norms, 0 <= F(t) <= (n t)^2 for n walkers (each step's phase
    generator is a sum of n spin-up projectors) and, for two walkers,
    |<a|b>| <= NORM_TOL, which the product form relies on.
    """
    config, block = args
    start = block * BLOCK_MAPS
    members = range(start, min(start + BLOCK_MAPS, config.n_maps))
    n, t_max = config.n_steps, config.t_max
    width = 2 * t_max + 1
    maps = _stack_masks(config, members)

    def check(values, bad, what):
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            message = f"step {t}: {what}: {values[row]!r}"
            raise _member_error(config, members[row], message)

    kind = config.initial.kind
    walkers = 1 if kind == "single" else 2
    sign = _EXCHANGE_SIGN.get(kind, 0)
    want_dist = config.collect_distribution or config.collect_variance
    track_dist = want_dist or config.per_map_variance

    rows = _initial_rows(config, len(members))
    # two buffers that trade places every step; cur holds step t
    cur = WalkerState(t_max, rows)
    nxt = WalkerState(t_max, np.zeros_like(rows))
    qfi = dist_sum = own_var = None
    if config.collect_qfi:
        cur = DerivativePair(cur, WalkerState(t_max, np.zeros_like(rows)))
        nxt = DerivativePair(nxt, WalkerState(t_max, np.zeros_like(rows)))
        qfi = np.empty((len(members), n + 1))
    if want_dist:
        dist_sum = np.empty((n + 1, width))
    if config.per_map_variance:
        own_var = np.empty((len(members), n + 1))

    for t in range(n + 1):
        if t > 0:
            ctx = StepContext(config.phi, t, maps, config.operator_order)
            if qfi is None:
                step(cur, ctx, out=nxt)
            else:
                step_with_derivative(cur, ctx, out=nxt)
            cur, nxt = nxt, cur
        psi = cur.amplitudes if qfi is None else cur.psi.amplitudes
        if walkers == 2:
            a = psi[:, 0].reshape(len(members), -1)
            ab = np.abs(row_inner(a, psi[:, 1].reshape(len(members), -1)))
            check(ab, ab > NORM_TOL, f"|<a|b>| exceeds {NORM_TOL}")
        if qfi is not None:
            try:
                values = qfi_pure(cur).sum(axis=1)
            except RowCheckError as exc:
                member = members[exc.row // walkers]
                raise _member_error(config, member, f"step {t}: {exc}") from exc
            if sign:
                db = cur.dpsi.amplitudes[:, 1].reshape(len(members), -1)
                values += 8 * sign * np.abs(row_inner(a, db)) ** 2
            bound = (walkers * t) ** 2
            check(values,
                  (values < -NEGATIVE_TOL) | (values > bound * (1 + NORM_TOL)),
                  f"F outside [0, (n t)^2 = {bound}]")
            # the exchange term can leave an analytic zero as -1e-16 dust
            qfi[:, t] = np.maximum(values, 0.0)
        if track_dist:
            weights = np.abs(psi) ** 2
            probs = weights[..., UP] + weights[..., DOWN]
            marginal = probs[:, 0] if sign == 0 else (probs[:, 0] + probs[:, 1]) / 2
            total = marginal.sum(axis=-1)
            check(total, np.abs(total - 1.0) > NORM_TOL,
                  f"distribution sum deviates from 1 beyond {NORM_TOL}")
            if dist_sum is not None:
                dist_sum[t] = marginal.sum(axis=0)
            if own_var is not None:
                own_var[:, t] = _variance_rows(marginal, t_max)
    return qfi, dist_sum, own_var


def _variance_rows(dists, t_max):
    x = np.arange(-t_max, t_max + 1, dtype=float)
    means = dists @ x
    return dists @ (x * x) - means**2


def run_ensemble(config, workers=None):
    """Run all members and aggregate.

    workers = None or 1 runs in-process; larger values shard whole blocks
    over a pool of at most one process per block.  Aggregation order is by
    block, then member, either way, so results are bit-identical across
    worker counts.
    """
    if workers is None:
        workers = 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_maps = config.n_maps
    n_blocks = -(-n_maps // BLOCK_MAPS)
    workers = min(workers, n_blocks)

    tasks = ((config, block) for block in range(n_blocks))
    n = config.n_steps
    width = 2 * config.t_max + 1

    qfi_table = np.empty((n_maps, n + 1)) if config.collect_qfi else None
    want_dist = config.collect_distribution or config.collect_variance
    dist_sum = np.zeros((n + 1, width)) if want_dist else None
    own_var_rows = np.empty((n_maps, n + 1)) if config.per_map_variance else None

    if workers == 1:
        results = map(_run_block, tasks)
        pool = None
    else:
        pool = multiprocessing.Pool(processes=workers)
        results = pool.imap(_run_block, tasks)
    try:
        # accumulate strictly in block order: scheduling cannot change bytes
        for block, (qfi, dists, own_var) in enumerate(results):
            rows = slice(block * BLOCK_MAPS, (block + 1) * BLOCK_MAPS)
            if qfi_table is not None:
                qfi_table[rows] = qfi
            if dist_sum is not None:
                dist_sum += dists
            if own_var_rows is not None:
                own_var_rows[rows] = own_var
    except BaseException:
        # a failed member or an interrupt must not wait for the queue to drain
        if pool is not None:
            pool.terminate()
        raise
    if pool is not None:
        pool.close()
        pool.join()

    out = EnsembleSeries(
        config=config,
        member_seeds=np.array(
            [split_seed(config.master_seed, k) for k in range(n_maps)],
            dtype=np.uint64,
        ),
        steps=np.arange(n + 1),
        positions=np.arange(-config.t_max, config.t_max + 1),
    )
    if qfi_table is not None:
        out.qfi_mean = qfi_table.mean(axis=0)
        if n_maps > 1:
            out.qfi_stderr = qfi_table.std(axis=0, ddof=1) / math.sqrt(n_maps)
        else:
            out.qfi_stderr = np.zeros(n + 1)
    if dist_sum is not None:
        dist_mean = dist_sum / n_maps
        if config.collect_distribution:
            out.distribution = dist_mean
        if config.collect_variance:
            out.variance = _variance_rows(dist_mean, config.t_max)
    if own_var_rows is not None:
        out.variance_per_map = own_var_rows.mean(axis=0)
    return out
