import math

import numpy as np
import pytest

from dqwalk import (
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
from dqwalk.states import EXCHANGE_SIGN, TWO_PARTICLE_KINDS, ConeStack

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_new_walker_state_places_coin_amplitudes():
    s = new_walker_state(4, position=-2, coin=(0.6, 0.8j))
    assert s.amplitudes.shape == (9, 2)
    assert s.amplitudes[s.index_of(-2), UP] == 0.6
    assert s.amplitudes[s.index_of(-2), DOWN] == 0.8j
    assert np.count_nonzero(s.amplitudes) == 2
    assert s.norm() == pytest.approx(1.0, abs=1e-15)


def test_new_walker_state_rejects_unnormalized_coin():
    with pytest.raises(ValueError):
        new_walker_state(3, coin=(1.0, 1.0))


def test_new_walker_state_rejects_offlattice_position():
    with pytest.raises(ValueError):
        new_walker_state(3, position=4)


def test_walker_state_shape_validation():
    with pytest.raises(ValueError):
        WalkerState(3, np.zeros((5, 2), dtype=complex))


def test_positions_axis_matches_indexing():
    s = new_walker_state(5)
    assert s.positions()[s.index_of(-5)] == -5
    assert s.positions()[s.index_of(5)] == 5
    assert s.positions()[s.index_of(0)] == 0


def test_inner_product_conjugates_first_argument():
    a = new_walker_state(2, coin=(1.0, 0.0))
    b = new_walker_state(2, coin=(1j, 0.0))
    assert inner_product(a, b) == pytest.approx(1j)
    assert inner_product(b, a) == pytest.approx(-1j)


def test_inner_product_rejects_mixed_kinds():
    a = new_walker_state(2)
    b = new_two_particle_state("separable", 2)
    with pytest.raises(ValueError):
        inner_product(a, b)
    with pytest.raises(ValueError):
        inner_product(a, new_walker_state(3))


def test_separable_preparation():
    s = new_two_particle_state("separable", 3)
    c = s.t_max
    assert s.amplitudes[c, UP, c, DOWN] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1
    assert s.norm() == pytest.approx(1.0, abs=1e-15)


def test_boson_and_fermion_preparation():
    b = new_two_particle_state("boson", 3)
    f = new_two_particle_state("fermion", 3)
    c = 3
    assert b.amplitudes[c, UP, c, DOWN] == pytest.approx(INV_SQRT2)
    assert b.amplitudes[c, DOWN, c, UP] == pytest.approx(INV_SQRT2)
    assert f.amplitudes[c, UP, c, DOWN] == pytest.approx(INV_SQRT2)
    assert f.amplitudes[c, DOWN, c, UP] == pytest.approx(-INV_SQRT2)
    assert b.norm() == pytest.approx(1.0, abs=1e-15)
    assert f.norm() == pytest.approx(1.0, abs=1e-15)


def test_exchange_residual_detects_symmetry():
    b = new_two_particle_state("boson", 3)
    f = new_two_particle_state("fermion", 3)
    assert exchange_residual(b) == 0.0
    assert exchange_residual(f) == 0.0
    # breaking the symmetry by hand must show up
    b.amplitudes[0, UP, 1, UP] = 0.1
    assert exchange_residual(b) > 0.05


def test_pair_preparations_follow_the_exchange_sign_table():
    assert TWO_PARTICLE_KINDS == ("separable", "boson", "fermion")
    for kind, sign in EXCHANGE_SIGN.items():
        a = new_two_particle_state(kind, 2, position=-1).amplitudes
        norm = INV_SQRT2 if sign else 1.0
        assert a[1, UP, 1, DOWN] == norm
        assert a[1, DOWN, 1, UP] == sign * norm
        assert np.count_nonzero(a) == (2 if sign else 1)


def test_exchange_residual_rejects_separable_and_single():
    with pytest.raises(ValueError):
        exchange_residual(new_two_particle_state("separable", 2))
    with pytest.raises(ValueError):
        exchange_residual(new_walker_state(2))


def test_unknown_two_particle_kind():
    with pytest.raises(ValueError):
        new_two_particle_state("anyon", 3)
    with pytest.raises(ValueError):
        TwoParticleState.zeros(2, symmetry="anyon")


def test_support_radius():
    s = new_walker_state(6, position=0)
    assert support_radius(s) == 0
    s = new_walker_state(6, position=-4)
    assert support_radius(s) == 4
    assert support_radius(WalkerState.zeros(3)) == -1
    tp = new_two_particle_state("boson", 5, position=2)
    assert support_radius(tp) == 2


@pytest.mark.parametrize("walkers, walker, x", [(9, 8, 0), (3, 0, 0), (3, 1, -2)])
def test_support_radius_of_a_stack_reads_every_walker(walkers, walker, x):
    # one walker of the stack at x, the others empty: the leading axis
    # counts walkers, not sites
    stack = np.zeros((walkers, 7, 2), dtype=complex)
    stack[walker, x + 3, DOWN] = 1.0
    assert support_radius(WalkerState(3, stack)) == abs(x)
    stack[-1, 6, UP] = 1.0  # another walker at x = 3
    assert support_radius(WalkerState(3, stack)) == 3


def test_support_radius_of_a_tensor_reads_either_particle():
    for cell in [(1, UP, 4, DOWN), (4, DOWN, 1, UP)]:  # one particle at x = -3
        tp = TwoParticleState.zeros(4)
        tp.amplitudes[cell] = 1.0
        assert support_radius(tp) == 3


def test_cone_stack_checks_its_cells():
    # (coin, slot, row) cells of t + 1 slots, a dpsi of their shape, and
    # scratch of as many rows and at least t + 1 slots
    cells = np.zeros((2, 3, 4), dtype=complex)  # t = 2, 4 rows
    for shape in [(3, 3, 4), (1, 3, 4), (2, 0, 4), (2, 3), (2, 3, 4, 1),
                  (4, 1, 3, 2)]:
        with pytest.raises(ValueError, match=r"expected \(2, t \+ 1, rows\)"):
            ConeStack(np.zeros(shape, dtype=complex))
    for shape in [(2, 2, 4), (2, 4, 4), (2, 3, 5), (3, 4)]:
        with pytest.raises(ValueError, match="dpsi of shape"):
            ConeStack(cells, np.zeros(shape, dtype=complex))
    for shape in [(2, 2, 4), (2, 3, 5), (2, 3, 3), (1, 3, 4), (2, 3), (2, 3, 4, 1)]:
        with pytest.raises(ValueError, match="cannot hold"):
            ConeStack(cells, scratch=np.zeros(shape, dtype=complex))
    scratch = np.zeros((2, 5, 4), dtype=complex)
    stack = ConeStack(cells, np.zeros_like(cells), 3, scratch)
    assert stack.steps == 2
    np.testing.assert_array_equal(stack.positions(), [1, 3, 5])
    # work space: the first t + 1 slots of the scratch; float work the
    # front half of each of its coin planes
    work = stack.work()
    assert work.shape == (2, 3, 4) and work.dtype == complex
    assert np.shares_memory(work, scratch[:, :3])
    floats = stack.work(np.float64)
    assert floats.shape == (2, 3, 4) and floats.dtype == np.float64
    halves = scratch.reshape(2, -1).view(np.float64)
    assert np.shares_memory(floats, halves[:, :20])
    assert not np.shares_memory(floats, halves[:, 20:])
    assert ConeStack(cells).work().shape == (2, 3, 4)
