"""Disordered discrete-time quantum walks and phase-estimation analysis.

The package simulates a coined walker on a 1-D lattice whose step operator
imprints an encoded phase plus binary (0/pi) positional disorder, co-evolves
the exact derivative state, and tracks how much Fisher information about the
phase the walker accumulates step by step.  Ensemble averaging over disorder
maps and log-log exponent fits classify the transport regime; a two-walker
layer compares exchange statistics on the same footing.
"""

import os as _os

# numpy's OpenBLAS starts nproc - 1 worker threads when it loads, and each
# spins for about 0.1 s, though the kernel is ufuncs on a few hundred cells
# and never gives BLAS work.  OpenBLAS reads its thread count only when it
# loads, so numpy is loaded with one thread and the variable removed again:
# os.environ and every subprocess see exactly what the caller set.  A thread
# count the caller sets, or numpy imported before dqwalk, still wins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(name in _os.environ for name in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from ._version import __version__
from .analysis import AlphaSeries, PowerLawFit, fit_power_law, windowed_alpha
from .disorder import (
    PhaseMap,
    disorder_fraction,
    generate_map,
    map_from_json,
    map_to_json,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleSeries,
    InitialStateSpec,
    run_ensemble,
    split_seed,
)
from .errors import BoundaryError, ConfigError, EnsembleMemberError
from .figures import FIGURES, reproduce_figure
from .metrology import (
    QfiSeries,
    cramer_rao_bound,
    qfi_finite_difference_crosscheck,
    qfi_pure,
    qfi_series,
)
from .observables import (
    PositionDistribution,
    position_distribution,
    position_variance,
)
from .operators import (
    PHASE_FIRST,
    PHASE_LAST,
    DerivativePair,
    StepContext,
    step,
    step_with_derivative,
    two_particle_step,
    two_particle_step_with_derivative,
)
from .states import (
    DOWN,
    UP,
    TwoParticleState,
    WalkerState,
    exchange_residual,
    inner_product,
    new_two_particle_state,
    new_walker_state,
    support_radius,
)
from .twoparticle import (
    TwoParticleExperiment,
    run_two_particle,
    separable_reference,
)

__all__ = [
    "__version__",
    "AlphaSeries", "PowerLawFit", "fit_power_law", "windowed_alpha",
    "PhaseMap", "disorder_fraction", "generate_map", "map_from_json", "map_to_json",
    "EnsembleConfig", "EnsembleSeries", "InitialStateSpec", "run_ensemble", "split_seed",
    "BoundaryError", "ConfigError", "EnsembleMemberError",
    "FIGURES", "reproduce_figure",
    "QfiSeries", "cramer_rao_bound", "qfi_finite_difference_crosscheck",
    "qfi_pure", "qfi_series",
    "PositionDistribution", "position_distribution", "position_variance",
    "PHASE_FIRST", "PHASE_LAST", "DerivativePair", "StepContext",
    "step", "step_with_derivative",
    "two_particle_step", "two_particle_step_with_derivative",
    "DOWN", "UP", "TwoParticleState", "WalkerState", "exchange_residual",
    "inner_product", "new_two_particle_state", "new_walker_state", "support_radius",
    "TwoParticleExperiment", "run_two_particle", "separable_reference",
]
