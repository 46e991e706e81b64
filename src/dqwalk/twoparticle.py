"""Two-walker experiments: exchange statistics vs phase information.

Both walkers traverse the same disordered medium (one shared phase map per
member).  U (x) U is linear and both factors see the same map, so the joint
state is exactly (a (x) b + s b (x) a) / sqrt2, s = +1 for bosons and -1 for
fermions (a (x) b for separable input), where a and b are the single-walker
evolutions of |x,up> and |x,down>; the ensemble kernel evolves a and b and
rebuilds the joint QFI from them.  This is exact linearity, not an
approximation, and the tests hold it to the full (W, 2, W, 2) tensor
evolution.  For separable inputs the joint QFI must equal the sum of the two
single-walker QFIs map by map; `separable_reference` computes that sum through
two single-walker ensembles.  Inside one `pool_scope`, as in a `reproduce`
preset, all of these ensembles are built from one evolution of a and b per
map (`dqwalk.ensemble`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .ensemble import EnsembleConfig, InitialStateSpec, run_ensemble
from .operators import PHASE_FIRST
from .states import TWO_PARTICLE_KINDS

#: statistics used when a config asks for indistinguishable walkers generically
DEFAULT_INDISTINGUISHABLE = "boson"


@dataclass(frozen=True)
class TwoParticleExperiment:
    """A disorder-averaged joint-QFI run for one choice of exchange statistics."""

    statistics: str
    kind: str
    p: float
    n_steps: int
    n_maps: int
    master_seed: int = 0
    phi: float = 0.0
    semantics: str = "bernoulli-uniform"
    operator_order: str = PHASE_FIRST

    def __post_init__(self):
        if self.statistics not in TWO_PARTICLE_KINDS:
            raise ValueError(
                f"statistics must be one of {TWO_PARTICLE_KINDS}, got {self.statistics!r}"
            )
        # refuse now what the joint run's EnsembleConfig refuses; it bounds
        # the single-walker runs of `separable_reference` over the same maps
        self._ensemble_config(InitialStateSpec(kind=self.statistics))

    def _ensemble_config(self, initial, collect_distribution=False):
        shared = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name != "statistics"}
        return EnsembleConfig(**shared, initial=initial,
                              collect_distribution=collect_distribution)


def run_two_particle(experiment, workers=None, collect_distribution=False):
    """Evolve the joint state for every map and average the joint QFI."""
    initial = InitialStateSpec(kind=experiment.statistics)
    config = experiment._ensemble_config(initial, collect_distribution)
    return run_ensemble(config, workers=workers)


def separable_reference(experiment, workers=None):
    """Sum of the two single-walker ensemble QFI means over the same maps.

    Uses the experiment's master seed, so member k sees the identical phase
    map in the single-walker runs and in the joint run; for separable inputs
    the joint QFI should reproduce this sum to rounding accuracy.  It is an
    independent check of that only outside a `pool_scope`: inside one, after
    a joint run over the same maps, both single-walker ensembles are built
    from the rows that run evolved.
    """
    total = None
    for coin in ((1.0, 0.0), (0.0, 1.0)):
        cfg = experiment._ensemble_config(InitialStateSpec(kind="single", coin=coin))
        mean = run_ensemble(cfg, workers=workers).qfi_mean
        total = mean if total is None else total + mean
    return total
