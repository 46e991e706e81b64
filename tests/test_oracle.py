"""An independent dense-matrix oracle for every statistic the walk serves.

One step is built as explicit matrices on the lattice -t_max..t_max, from
the definitions in README, with basis index 2 (x + t_max) + coin (up 0,
down 1):

- the balanced coin C as a block-diagonal matrix, one Hadamard block per
  site;
- the shift S as a permutation, up one site right and down one left,
  cyclic so that it is a permutation; no walker reaches the edge;
- the phase P(t) as a diagonal, e^{i(phi + dphi(t, x))} on up and 1 on
  down, dphi = pi on the map's pi cells;
- the step W = S C P (phase-first) or P S C (phase-last), and its
  derivative dW by the product rule, with dP = i n_up P next to P.

One walker evolves as psi -> W psi, dpsi -> dW psi + W dpsi.  Two walkers
evolve their amplitude matrix as Psi -> W Psi W^T, and F is taken on the
whole joint state (Omar, Paunkovic, Sheridan & Bose, PRA 74, 042304
(2006)).  F = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2) (Braunstein & Caves, PRL 72,
3439 (1994)).  The oracle reads nothing of dqwalk but the maps'
`generate_map(...).pi_mask` and the members' `split_seed`.  It draws maps
of both semantics; one example runs BLOCK_MAPS + 3 members, two blocks,
so that the blocks' distribution sums and two walkers' own variances meet
it past a block boundary.

The tolerances are measured.  Over 3000 cases drawn as the test draws
them, the worst deviation of any QFI value, ensemble mean or one-map, was
7.0e-15 of (walkers * n_steps)^2, the scale both terms of F grow as; of
any probability 1.9e-15; of any variance 9.2e-16 of t_max^2.  The bounds
below leave a margin of 50 or more.  The hypothesis profile
`ci` (tests/conftest.py) searches ten times as many cases as a local run.
"""

import math

import numpy as np
import pytest

from dqwalk import (
    EnsembleConfig,
    InitialStateSpec,
    generate_map,
    new_two_particle_state,
    new_walker_state,
    qfi_series,
    run_ensemble,
    split_seed,
)
from dqwalk.disorder import SEMANTICS
from dqwalk.ensemble import BLOCK_MAPS

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

#: F's bound, relative to the (walkers * t)^2 its terms grow as; the
#: probabilities' bound, absolute, and the variances', relative to t_max^2
QFI_TOL = 1e-12
PROB_TOL = 1e-13

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_SIGN = {"separable": 0.0, "boson": 1.0, "fermion": -1.0}


def oracle_steps(pi_mask, t_max, phi, order):
    """The (W, dW) matrices of steps 1..n of one map on -t_max..t_max."""
    w = 2 * t_max + 1
    coin = np.kron(np.eye(w), _HADAMARD)
    shift = np.zeros((2 * w, 2 * w))
    for s in range(w):
        shift[2 * ((s + 1) % w), 2 * s] = 1.0
        shift[2 * ((s - 1) % w) + 1, 2 * s + 1] = 1.0
    n_up = np.diag(np.tile([1.0, 0.0], w))
    n_map = pi_mask.shape[0]
    x = np.arange(-t_max, t_max + 1)
    on_map = np.abs(x) <= n_map
    steps = []
    for row in pi_mask:
        dphi = np.zeros(w)
        dphi[on_map] = math.pi * row[x[on_map] + n_map]
        up = np.exp(1j * (phi + dphi))
        phase = np.diag(np.ravel(np.column_stack([up, np.ones(w)])))
        d_phase = 1j * n_up @ phase
        if order == "phase-first":
            steps.append((shift @ coin @ phase, shift @ coin @ d_phase))
        else:
            steps.append((phase @ shift @ coin, d_phase @ shift @ coin))
    return steps


def _qfi(psi, dpsi):
    return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)


def _marginal(psi):
    """Particle 1's position distribution, its coin (and particle 2) traced
    out."""
    weights = np.abs(psi) ** 2
    if weights.ndim == 2:
        weights = weights.sum(axis=1)
    return weights.reshape(-1, 2).sum(axis=1)


def oracle_member(pi_mask, t_max, phi, order, initial, x0, coin):
    """(F, distribution) of one map: shapes (n + 1,) and (n + 1, W)."""
    w = 2 * t_max + 1
    ket_up, ket_down = np.zeros(2 * w), np.zeros(2 * w)
    ket_up[2 * (x0 + t_max)] = ket_down[2 * (x0 + t_max) + 1] = 1.0
    if initial == "single":
        psi = coin[0] * ket_up + coin[1] * ket_down
    else:
        psi = np.outer(ket_up, ket_down) + _SIGN[initial] * np.outer(ket_down, ket_up)
        psi /= np.linalg.norm(psi)
    psi = psi.astype(complex)
    dpsi = np.zeros_like(psi)
    qfi, dist = [_qfi(psi, dpsi)], [_marginal(psi)]
    for u, du in oracle_steps(pi_mask, t_max, phi, order):
        if initial == "single":
            psi, dpsi = u @ psi, du @ psi + u @ dpsi
        else:
            psi, dpsi = (u @ psi @ u.T,
                         du @ psi @ u.T + u @ psi @ du.T + u @ dpsi @ u.T)
        qfi.append(_qfi(psi, dpsi))
        dist.append(_marginal(psi))
    return np.array(qfi), np.array(dist)


def _variances(dist, t_max):
    x = np.arange(-t_max, t_max + 1)
    return dist @ x**2 - (dist @ x) ** 2


def check_against_oracle(kind, p, seed, n_maps, n_steps, position, phi,
                         order, initial, coin, semantics="bernoulli-uniform"):
    """Assert that `run_ensemble` and the one-map `qfi_series` agree with
    the oracle on every member and every statistic."""
    spec = InitialStateSpec(kind=initial, position=position,
                            coin=coin if initial == "single" else (1, 0))
    cfg = EnsembleConfig(kind=kind, p=p, n_steps=n_steps, n_maps=n_maps,
                         master_seed=seed, phi=phi, semantics=semantics,
                         initial=spec, operator_order=order,
                         collect_distribution=True, collect_variance=True,
                         per_map_variance=True)
    t_max = cfg.t_max
    qfi_atol = QFI_TOL * ((1 if initial == "single" else 2) * n_steps) ** 2
    var_atol = PROB_TOL * t_max**2
    start = (new_walker_state(t_max, position, spec.coin) if initial == "single"
             else new_two_particle_state(initial, t_max, position))
    qfis, dists = [], []
    for k in range(n_maps):
        pmap = generate_map(kind, n_steps, p, semantics, split_seed(seed, k))
        qfi, dist = oracle_member(pmap.pi_mask, t_max, phi, order, initial,
                                  position, spec.coin)
        np.testing.assert_allclose(
            qfi_series(start, pmap, phi, n_steps, order=order).values, qfi,
            rtol=0, atol=qfi_atol, err_msg=f"map {k}")
        qfis.append(qfi)
        dists.append(dist)
    series = run_ensemble(cfg)
    mean_dist = np.mean(dists, axis=0)
    np.testing.assert_allclose(series.qfi_mean, np.mean(qfis, axis=0),
                               rtol=0, atol=qfi_atol)
    np.testing.assert_allclose(series.distribution, mean_dist, rtol=0,
                               atol=PROB_TOL)
    np.testing.assert_allclose(series.variance, _variances(mean_dist, t_max),
                               rtol=0, atol=var_atol)
    np.testing.assert_allclose(
        series.variance_per_map,
        np.mean([_variances(d, t_max) for d in dists], axis=0),
        rtol=0, atol=var_atol)


@settings(deadline=None)
@given(
    kind=st.sampled_from(["none", "static", "dynamic"]),
    p=st.floats(0.0, 1.0),
    semantics=st.sampled_from(SEMANTICS),
    seed=st.integers(0, 2**32 - 1),
    n_maps=st.integers(1, 4),
    n_steps=st.integers(1, 10),
    position=st.integers(-3, 3),
    phi=st.floats(-math.pi, math.pi),
    order=st.sampled_from(["phase-first", "phase-last"]),
    initial=st.sampled_from(["single", "separable", "boson", "fermion"]),
    theta=st.floats(0.0, math.pi),
    chi=st.floats(-math.pi, math.pi),
)
@example(kind="static", p=0.6, semantics="bernoulli-uniform", seed=3,
         n_maps=3, n_steps=8, position=-2, phi=0.3, order="phase-last",
         initial="fermion", theta=0.0, chi=0.0)
@example(kind="dynamic", p=1.0, semantics="bernoulli-uniform", seed=5,
         n_maps=3, n_steps=8, position=3, phi=-1.2, order="phase-first",
         initial="single", theta=1.85, chi=math.pi / 2)
# two blocks, the second partial, of boson pairs: the blocks' slot sums
# added in block order and each member's pair-averaged own variances
@example(kind="dynamic", p=0.6, semantics="exact-pi-fraction", seed=7,
         n_maps=BLOCK_MAPS + 3, n_steps=5, position=1, phi=0.3,
         order="phase-last", initial="boson", theta=0.0, chi=0.0)
def test_walk_matches_dense_matrix_oracle(kind, p, semantics, seed, n_maps,
                                          n_steps, position, phi, order,
                                          initial, theta, chi):
    # mean QFI, distribution, variance and per-map variance of the
    # ensembles, and each map's one-map QFI series, single-walker or joint
    # tensor, against the oracle
    if kind == "none":
        p = 0.0
    coin = (math.cos(theta / 2), complex(math.cos(chi), math.sin(chi))
            * math.sin(theta / 2))
    check_against_oracle(kind, p, seed, n_maps, n_steps, position, phi,
                         order, initial, coin, semantics)


# A mistake the kernel, the one-map API and the two-walker sum shared
# would pass every test that holds them to each other; these show that the
# oracle catches two of them.

def test_oracle_catches_a_flipped_exchange_sign(monkeypatch):
    from dqwalk import ensemble

    args = ("static", 0.6, 3, 2, 6, 0, 0.3, "phase-first", "boson", (1.0, 0.0))
    check_against_oracle(*args)
    monkeypatch.setattr(ensemble, "_EXCHANGE_SIGN",
                        {"separable": 0, "boson": -1, "fermion": 1})
    with pytest.raises(AssertionError):
        check_against_oracle(*args)


def test_oracle_catches_a_dropped_phase_derivative(monkeypatch):
    # every route steps through cone_step; without the dP psi term dpsi
    # evolves as psi does, W dpsi, and stays zero
    from dqwalk import operators

    real = operators.cone_step

    def without_dp(psi, dpsi, factor, order, psi_out, dpsi_out, work):
        real(psi, None, factor, order, psi_out, None, work)
        if dpsi is not None:
            real(dpsi, None, factor, order, dpsi_out, None, work)

    args = ("dynamic", 0.6, 4, 2, 6, 1, 0.3, "phase-last", "single",
            (0.6, 0.8j))
    check_against_oracle(*args)
    monkeypatch.setattr(operators, "cone_step", without_dp)
    with pytest.raises(AssertionError):
        check_against_oracle(*args)
