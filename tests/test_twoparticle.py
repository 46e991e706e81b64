import numpy as np
import pytest

import dqwalk.ensemble as ensemble_mod
from dqwalk import (
    EnsembleConfig,
    InitialStateSpec,
    StepContext,
    TwoParticleExperiment,
    exchange_residual,
    generate_map,
    new_two_particle_state,
    position_distribution,
    qfi_series,
    run_two_particle,
    separable_reference,
    split_seed,
    two_particle_step,
)
from dqwalk.operators import OPERATOR_ORDERS


def test_experiment_validates_statistics():
    with pytest.raises(ValueError):
        TwoParticleExperiment("maxwellian", "none", 0.0, 10, 1)


def test_separable_joint_equals_single_sum_clean():
    exp = TwoParticleExperiment("separable", "none", 0.0, 25, 1)
    joint = run_two_particle(exp)
    reference = separable_reference(exp)
    np.testing.assert_allclose(joint.qfi_mean, reference, atol=1e-10)


def test_separable_joint_equals_single_sum_disordered():
    # same master seed means identical maps member by member
    exp = TwoParticleExperiment("separable", "dynamic", 0.7, 20, 4,
                                master_seed=13, phi=0.5)
    joint = run_two_particle(exp)
    reference = separable_reference(exp)
    np.testing.assert_allclose(joint.qfi_mean, reference, atol=1e-10)


def test_boson_dominates_separable_clean():
    sep = run_two_particle(TwoParticleExperiment("separable", "none", 0.0, 30, 1))
    bos = run_two_particle(TwoParticleExperiment("boson", "none", 0.0, 30, 1))
    assert (bos.qfi_mean[2:] >= sep.qfi_mean[2:] - 1e-10).all()
    # and strictly more information at late times
    assert bos.qfi_mean[30] > sep.qfi_mean[30] * 1.05


def test_fermion_runs_and_differs_from_boson():
    bos = run_two_particle(TwoParticleExperiment("boson", "none", 0.0, 20, 1))
    fer = run_two_particle(TwoParticleExperiment("fermion", "none", 0.0, 20, 1))
    assert (fer.qfi_mean >= -1e-12).all()
    assert not np.allclose(bos.qfi_mean[2:], fer.qfi_mean[2:], rtol=1e-3)


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_exchange_symmetry_preserved_by_disordered_evolution(statistics):
    pmap = generate_map("dynamic", 15, 0.8, seed=29)
    s = new_two_particle_state(statistics, 15)
    for t in range(1, 16):
        s = two_particle_step(s, StepContext(0.7, t, pmap))
    assert exchange_residual(s) < 1e-12


@pytest.mark.parametrize("order", OPERATOR_ORDERS)
@pytest.mark.parametrize("kind,p", [("static", 1.0), ("dynamic", 0.8)])
@pytest.mark.parametrize("statistics", ["separable", "boson", "fermion"])
def test_single_walker_rows_match_tensor_evolution(statistics, kind, p, order):
    # the ensemble rebuilds the joint QFI from the QFI rows of a = U|x,up>
    # and b = U|x,down> and their |<a|db>|^2 rows, as `run_ensemble` does;
    # the full (W, 2, W, 2) tensor evolution is the reference
    n_steps, phi, n_maps = 10, 0.4, 3
    cfg = EnsembleConfig(kind=kind, p=p, n_steps=n_steps, n_maps=n_maps,
                         master_seed=5, phi=phi, operator_order=order,
                         initial=InitialStateSpec(kind=statistics),
                         collect_distribution=True)
    ((rows, exchange, (dist_sum,), _),) = ensemble_mod._run_family(
        ((cfg,), range(1)))
    qfi = ensemble_mod._qfi_table(cfg, [rows[0::2], rows[1::2], exchange])
    reference_dist = np.zeros_like(dist_sum)
    for k in range(n_maps):
        pmap = generate_map(kind, n_steps, p, seed=split_seed(5, k))
        state = new_two_particle_state(statistics, n_steps)
        reference = qfi_series(state, pmap, phi, n_steps, order=order).values
        assert np.all(np.abs(qfi[k] - reference)
                      <= 1e-12 * np.maximum(reference, 1.0))
        reference_dist[0] += position_distribution(state).probabilities
        for t in range(1, n_steps + 1):
            state = two_particle_step(state, StepContext(phi, t, pmap, order))
            reference_dist[t] += position_distribution(state).probabilities
    np.testing.assert_allclose(dist_sum, reference_dist, rtol=0, atol=1e-12)


def test_joint_qfi_nonnegative_under_disorder():
    exp = TwoParticleExperiment("boson", "static", 1.0, 15, 5, master_seed=2)
    series = run_two_particle(exp)
    assert (series.qfi_mean >= 0.0).all()


def test_collect_distribution_gives_marginal():
    exp = TwoParticleExperiment("boson", "none", 0.0, 10, 1)
    series = run_two_particle(exp, collect_distribution=True)
    assert series.distribution.shape == (11, 21)
    np.testing.assert_allclose(series.distribution.sum(axis=1), 1.0,
                               atol=1e-12)
