"""Disorder-averaged runs with reproducible seeding and optional parallelism.

Every ensemble member k draws its own phase map from a child seed derived from
the master seed by the SplitMix64 finalizer.  That derivation is a bijection
on 64-bit words for a fixed master seed, so members never share a map by
accident, and the full ensemble is pinned by (config, master_seed) alone.

Member results are accumulated strictly in member order, whether the members
ran serially or on a process pool, so the same config produces bit-identical
aggregates no matter how the work was scheduled.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .disorder import generate_map, validate_disorder
from .errors import EnsembleMemberError
from .metrology import qfi_pure
from .observables import position_distribution
from .operators import (
    OPERATOR_ORDERS,
    PHASE_FIRST,
    DerivativePair,
    StepContext,
    step,
    step_with_derivative,
    two_particle_step,
    two_particle_step_with_derivative,
)
from .states import TWO_PARTICLE_KINDS, new_two_particle_state, new_walker_state

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

INITIAL_KINDS = ("single",) + TWO_PARTICLE_KINDS


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


def _steppers(initial_kind):
    if initial_kind == "single":
        return step, step_with_derivative
    return two_particle_step, two_particle_step_with_derivative


def _run_member(args):
    """Evolve one member; returns (qfi, distributions, own_variance) arrays.

    Runs in worker processes, so it must stay top-level picklable and raise
    only through EnsembleMemberError (which carries the member's seed).
    """
    config, index = args
    seed = split_seed(config.master_seed, index)
    try:
        pmap = generate_map(
            config.kind, config.n_steps, config.p, config.semantics, seed
        )
        t_max = config.t_max
        state = config.initial.build(t_max)
        n = config.n_steps
        want_dist = config.collect_distribution or config.collect_variance
        want_own_var = config.per_map_variance
        track_dist = want_dist or want_own_var

        qfi = np.empty(n + 1) if config.collect_qfi else None
        dists = np.empty((n + 1, 2 * t_max + 1)) if track_dist else None
        plain_step, deriv_step = _steppers(config.initial.kind)

        if config.collect_qfi:
            pair = DerivativePair.initial(state)
            qfi[0] = qfi_pure(pair)
            if track_dist:
                dists[0] = position_distribution(state).probabilities
            for t in range(1, n + 1):
                pair = deriv_step(
                    pair, StepContext(config.phi, t, pmap, config.operator_order)
                )
                qfi[t] = qfi_pure(pair)
                if track_dist:
                    dists[t] = position_distribution(pair.psi).probabilities
        else:
            dists[0] = position_distribution(state).probabilities
            for t in range(1, n + 1):
                state = plain_step(
                    state, StepContext(config.phi, t, pmap, config.operator_order)
                )
                dists[t] = position_distribution(state).probabilities

        own_var = _variance_rows(dists, t_max) if want_own_var else None
        return qfi, dists if want_dist else None, own_var
    except EnsembleMemberError:
        raise
    except Exception as exc:
        raise EnsembleMemberError(index, seed, str(exc)) from exc


def _variance_rows(dists, t_max):
    x = np.arange(-t_max, t_max + 1, dtype=float)
    means = dists @ x
    return dists @ (x * x) - means**2


def run_ensemble(config, workers=None):
    """Run all members and aggregate.

    workers = None or 1 runs in-process; larger values use a process pool.
    Aggregation order is by member index either way, so results are
    bit-identical across worker counts.
    """
    if workers is None:
        workers = 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_maps = config.n_maps
    workers = min(workers, n_maps)

    tasks = ((config, k) for k in range(n_maps))
    n = config.n_steps
    width = 2 * config.t_max + 1

    qfi_rows = np.empty((n_maps, n + 1)) if config.collect_qfi else None
    want_dist = config.collect_distribution or config.collect_variance
    dist_sum = np.zeros((n + 1, width)) if want_dist else None
    own_var_rows = np.empty((n_maps, n + 1)) if config.per_map_variance else None

    if workers == 1:
        results = map(_run_member, tasks)
        pool = None
    else:
        chunk = max(1, n_maps // (workers * 8))
        pool = multiprocessing.Pool(processes=workers)
        results = pool.imap(_run_member, tasks, chunksize=chunk)
    try:
        # accumulate strictly in member order: scheduling cannot change bytes
        for k, (qfi, dists, own_var) in enumerate(results):
            if qfi_rows is not None:
                qfi_rows[k] = qfi
            if dist_sum is not None:
                dist_sum += dists
            if own_var_rows is not None:
                own_var_rows[k] = own_var
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
    if qfi_rows is not None:
        out.qfi_mean = qfi_rows.mean(axis=0)
        if n_maps > 1:
            out.qfi_stderr = qfi_rows.std(axis=0, ddof=1) / math.sqrt(n_maps)
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
