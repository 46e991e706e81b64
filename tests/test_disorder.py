import numpy as np
import pytest

from dqwalk import (
    PhaseMap,
    disorder_fraction,
    generate_map,
    map_from_json,
    map_to_json,
)
from dqwalk.disorder import MapStack


def test_same_seed_same_map():
    a = generate_map("dynamic", 30, 0.4, seed=5)
    b = generate_map("dynamic", 30, 0.4, seed=5)
    assert np.array_equal(a.pi_mask, b.pi_mask)


def test_different_seeds_differ():
    a = generate_map("dynamic", 30, 0.4, seed=5)
    b = generate_map("dynamic", 30, 0.4, seed=6)
    assert not np.array_equal(a.pi_mask, b.pi_mask)


def test_map_shape_and_none_kind():
    m = generate_map("none", 10, 0.0)
    assert m.pi_mask.shape == (10, 21)
    assert not m.pi_mask.any()


def test_none_kind_requires_p_zero():
    with pytest.raises(ValueError):
        generate_map("none", 10, 0.3)


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate_map("weird", 10, 0.5)
    with pytest.raises(ValueError):
        generate_map("dynamic", 10, 1.5)
    with pytest.raises(ValueError):
        generate_map("dynamic", 10, -0.1)
    with pytest.raises(ValueError):
        generate_map("dynamic", 0, 0.5)
    with pytest.raises(ValueError):
        generate_map("dynamic", 10, 0.5, semantics="almost-uniform")


def test_static_map_repeats_one_row():
    m = generate_map("static", 25, 0.7, seed=3)
    assert (m.pi_mask == m.pi_mask[0]).all()
    assert m.pi_mask[0].any()


def test_dynamic_map_rows_vary():
    m = generate_map("dynamic", 25, 0.7, seed=3)
    assert not (m.pi_mask == m.pi_mask[0]).all()


def test_bernoulli_uniform_pi_fraction_near_half_p():
    # cells are selected w.p. p, then flipped to pi w.p. 1/2
    m = generate_map("dynamic", 200, 0.6, seed=8)
    frac = disorder_fraction(m)
    n = m.pi_mask.size
    sigma = np.sqrt(0.3 * 0.7 / n)
    assert abs(frac - 0.3) < 5 * sigma


def test_p_one_bernoulli_still_half_pi():
    m = generate_map("dynamic", 200, 1.0, seed=9)
    frac = disorder_fraction(m)
    assert abs(frac - 0.5) < 0.01


def test_exact_pi_fraction_dynamic():
    m = generate_map("dynamic", 50, 0.37, semantics="exact-pi-fraction", seed=1)
    n_cells = 50 * 101
    assert int(m.pi_mask.sum()) == int(np.floor(0.37 * n_cells))
    assert disorder_fraction(m) == int(np.floor(0.37 * n_cells)) / n_cells


def test_exact_pi_fraction_static_counts_one_row():
    m = generate_map("static", 50, 0.37, semantics="exact-pi-fraction", seed=1)
    width = 101
    per_row = int(np.floor(0.37 * width))
    assert int(m.pi_mask[0].sum()) == per_row
    assert (m.pi_mask == m.pi_mask[0]).all()


def test_row_indexing_is_one_based():
    m = generate_map("dynamic", 5, 1.0, seed=2)
    assert np.array_equal(m.row(1), m.pi_mask[0])
    assert np.array_equal(m.row(5), m.pi_mask[4])
    with pytest.raises(ValueError):
        m.row(0)
    with pytest.raises(ValueError):
        m.row(6)


def test_step_signs_values_and_alignment():
    m = generate_map("dynamic", 4, 1.0, seed=12)
    signs = m.step_signs(2, 4)
    assert set(np.unique(signs)) <= {-1.0, 1.0}
    np.testing.assert_array_equal(signs, 1.0 - 2.0 * m.row(2))
    # a wider state lattice: outer cells see no disorder
    wide = m.step_signs(2, 7)
    assert wide.shape == (15,)
    np.testing.assert_array_equal(wide[3:12], signs)
    assert (wide[:3] == 1.0).all() and (wide[12:] == 1.0).all()


def test_map_stack_step_index_is_checked():
    # 2 maps of 4 steps on the lattice -4..4; the cone 3 steps from x0 = 1
    # reaches -2..4, the sites -2, 0, 2, 4
    masks = np.zeros((2, 4, 9), dtype=bool)
    masks[1, 2, [2, 6, 7]] = True  # x = -2, 2 and 3 of map 1 at step 3
    stack = MapStack(masks)
    assert stack.cone_signs(1, 1, 3).shape == (2, 1, 4)
    np.testing.assert_array_equal(stack.cone_signs(3, 1, 3)[:, 0],
                                  [[1, 1, 1, 1], [-1, 1, -1, 1]])
    assert stack.cone_signs(3, 1, 3).dtype == complex
    assert stack.cone_signs(4, -4, 0).shape == (2, 1, 1)
    for step_index in (0, 5):
        with pytest.raises(ValueError, match="step index"):
            stack.cone_signs(step_index, 0, 2)
    # cones that run past either edge of the table
    for origin, t in ((1, 4), (-1, 4), (0, 5), (5, 0), (-5, 0)):
        with pytest.raises(ValueError, match="sites wide"):
            stack.cone_signs(1, origin, t)


def test_json_round_trip():
    m = generate_map("static", 12, 0.5, semantics="exact-pi-fraction", seed=77)
    obj = map_to_json(m)
    assert obj["kind"] == "static"
    assert obj["T"] == 12
    assert obj["seed"] == 77
    assert len(obj["entries"]) == 12 * 25
    assert set(obj["entries"]) <= {0, 1}
    back = map_from_json(obj)
    assert np.array_equal(back.pi_mask, m.pi_mask)
    assert back.kind == m.kind and back.p == m.p
    assert back.semantics == m.semantics and back.seed == m.seed


def test_json_import_validation():
    m = generate_map("static", 4, 0.6, seed=0)
    obj = map_to_json(m)
    missing = dict(obj)
    del missing["entries"]
    with pytest.raises(ValueError):
        map_from_json(missing)
    short = dict(obj, entries=obj["entries"][:-1])
    with pytest.raises(ValueError):
        map_from_json(short)
    bad_values = dict(obj, entries=[2] + obj["entries"][1:])
    with pytest.raises(ValueError):
        map_from_json(bad_values)
    # static map whose rows disagree is inconsistent
    entries = list(obj["entries"])
    entries[0] = 1 - entries[0]
    with pytest.raises(ValueError):
        map_from_json(dict(obj, entries=entries))


def test_json_none_kind_must_be_empty():
    m = generate_map("none", 3, 0.0)
    obj = map_to_json(m)
    entries = list(obj["entries"])
    entries[0] = 1
    with pytest.raises(ValueError):
        map_from_json(dict(obj, entries=entries))


def test_phase_map_is_immutable_metadata():
    m = generate_map("dynamic", 5, 0.5, seed=0)
    with pytest.raises(AttributeError):
        m.p = 0.9
    assert isinstance(m, PhaseMap)
