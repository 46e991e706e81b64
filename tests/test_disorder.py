import numpy as np
import pytest

from dqwalk import (
    PhaseMap,
    disorder_fraction,
    generate_map,
    map_from_json,
    map_to_json,
    new_walker_state,
    qfi_series,
)
from dqwalk.disorder import MapStack
from dqwalk.operators import StepContext


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


def test_none_kind_draws_nothing(monkeypatch):
    # the clean walk needs no random numbers, so it never creates a
    # generator: numpy 2 imports numpy.random at its first use
    def refused(*args, **kwargs):
        raise AssertionError("kind none drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refused)
    m = generate_map("none", 10, 0.0, seed=4)
    assert m.pi_mask.shape == (10, 21) and m.pi_mask.dtype == bool
    assert not m.pi_mask.any()
    with pytest.raises(AssertionError, match="drew random numbers"):
        generate_map("static", 10, 0.5, seed=4)


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
    for name, args in (("n_steps", (10.0, 0.5)), ("p", (10, True)),
                       ("seed", (10, 0.5, "bernoulli-uniform", 1.5)),
                       ("seed", (10, 0.5, "bernoulli-uniform", -4))):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            generate_map("dynamic", *args)


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


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_map_stack_step_index_is_checked():
    # 2 maps of 4 steps from x0 = 1 in phase-last order (lag 1): step t
    # acts on the cone t steps from x0, so step 3 on the sites -2, 0, 2, 4
    phi = 0.3
    e = np.exp(1j * phi)
    pi = np.zeros((9, 2), dtype=bool)  # static: the lattice -4..4
    pi[[2, 6, 7], 1] = True  # x = -2, 2 and 3 of map 1
    # dynamic: step 3's slot k at x = -2 + 2k; x = 3 lies off that parity
    cones = np.zeros((4, 5, 2), dtype=bool)
    cones[2, [0, 2], 1] = True
    cones[0, [1, 2], 1] = True  # step 1: x = 2, and 4 past its cone
    static = MapStack(4, phi, pi=pi, origin=1, lag=1)
    dynamic = MapStack(4, phi, cones=cones, origin=1, lag=1)
    for stack in (static, dynamic):
        assert stack.cone_factor(1).shape == (2, 2)
        # e^{i phi} times the signs, as the one-map step forms its factor,
        # (slot, map) cells
        got = stack.cone_factor(3)
        assert got.dtype == complex
        np.testing.assert_array_equal(
            _bits(got), _bits(e * np.array([[1.0, 1, 1, 1], [-1, 1, -1, 1]]).T))
        # step 1's cone: the sites 0 and 2
        np.testing.assert_array_equal(
            _bits(stack.cone_factor(1)),
            _bits(e * np.array([[1.0, 1], [1, -1]]).T))
        # the steps a stack serves are those of its StepContext
        for step_index in (0, 5):
            with pytest.raises(ValueError, match="step index"):
                StepContext(phi, step_index, stack)
    # a static row is the same at every step, and read in place from the
    # even-site and the odd-site factors
    np.testing.assert_array_equal(static.cone_factor(1),
                                  static.cone_factor(3)[1:3])
    assert np.shares_memory(static.cone_factor(3), static.factors[0])
    assert np.shares_memory(static.cone_factor(2), static.factors[1])
    # a dynamic step is selected into the stack's one buffer
    assert np.shares_memory(dynamic.cone_factor(2), dynamic.factors[1])
    # step 4 holds slot k at x = 1 - 4 + 2k, k = 0..4: -3..5
    assert dynamic.cone_factor(4).shape == (5, 2)
    with pytest.raises(ValueError, match="either pi or cones"):
        MapStack(4, phi)
    with pytest.raises(ValueError, match="either pi or cones"):
        MapStack(4, phi, pi=pi, cones=cones)


@pytest.mark.parametrize("kind", ["static", "dynamic"])
def test_p1_skips_the_selection_draw_bit_for_bit(kind):
    # the shortcut rests on Generator.random taking one 64-bit output per
    # float64; compare it with the plain draw across seeds and sizes
    seeds = [0, 2**64 - 1, 2**63, 2**32 - 1] + list(range(1, 297))
    for i, seed in enumerate(seeds):
        n = 1 + i % 13
        shape = (2 * n + 1,) if kind == "static" else (n, 2 * n + 1)
        rng = np.random.default_rng(seed)
        want = (rng.random(shape) < 1.0) & (rng.random(shape) < 0.5)
        got = generate_map(kind, n, 1.0, seed=seed).pi_mask
        np.testing.assert_array_equal(got, np.broadcast_to(want, (n, 2 * n + 1)))


def test_static_mask_is_one_read_only_row():
    m = generate_map("static", 6, 0.7, seed=3)
    assert m.pi_mask.shape == (6, 13)
    assert m.pi_mask.strides[0] == 0 and not m.pi_mask.flags.writeable
    with pytest.raises(ValueError):
        m.pi_mask[0, 0] = True
    with pytest.raises(ValueError):
        m.row(2)[0] = True
    back = map_from_json(map_to_json(m))
    np.testing.assert_array_equal(back.pi_mask, m.pi_mask)
    assert disorder_fraction(m) == m.pi_mask[0].mean() > 0
    np.testing.assert_array_equal(m.row(4), m.pi_mask[0])
    np.testing.assert_array_equal(m.step_signs(5, 8)[2:-2], 1 - 2.0 * m.pi_mask[0])
    # the one-map route reads it as it read the tiled table
    tiled = PhaseMap(m.kind, m.p, m.n_steps, m.semantics, m.seed,
                     np.tile(m.pi_mask[0], (6, 1)))
    state = new_walker_state(6, coin=(0.6, 0.8j))
    np.testing.assert_array_equal(qfi_series(state, m, 0.3, 6).values,
                                  qfi_series(state, tiled, 0.3, 6).values)


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


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", "7"), ("seed", -4), ("seed", True),
    ("p", "0.5"), ("p", True), ("T", True), ("T", 4.0),
])
def test_json_import_names_a_field_of_the_wrong_type(field, value):
    obj = dict(map_to_json(generate_map("static", 4, 0.6, seed=0)),
               **{field: value})
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        map_from_json(obj)


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
