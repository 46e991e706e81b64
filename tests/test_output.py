import math

import numpy as np

from dqwalk.output import _cell, canonical_json, csv_text

_MANIFEST = {"config": {"kind": "static", "p": 0.1}}


def _per_cell(manifest, columns):
    """The CSV as formatted one cell at a time, through `_cell` alone."""
    lines = [f"# manifest: {canonical_json(manifest)}", ",".join(columns)]
    lines.extend(",".join(map(_cell, row)) for row in zip(*columns.values()))
    return "\n".join(lines) + "\n"


def test_columns_format_as_their_cells():
    subnormal = 5e-324
    floats = [0.0, -0.0, 1.0, 0.1, 1 / 3, -2.5e-17, 1e300, subnormal,
              -subnormal, 2.2250738585072014e-308, math.nan, math.inf,
              -math.inf]
    n = len(floats)
    ints = [0, -1, 7, 2**63, -(2**70), 3, 12, 5, 1, 0, 9, -4, 10**20]
    columns = {
        "int": ints,
        "float": floats,
        "bool": [k % 2 == 0 for k in range(n)],
        # ints and floats mixed, and ints among bools
        "mixed": [k if k % 2 else float(k) / 3 for k in range(n)],
        "int-bool": [True if k == 3 else k for k in range(n)],
        # numpy scalars, alone and among Python numbers
        "float64": list(np.array(floats)),
        "int64": list(np.arange(-6, n - 6)),
        "numpy-mixed": [np.float32(0.1), np.int8(-3), 2, 0.5, np.bool_(True),
                        np.float64(-0.0), np.float16(1e-5), np.uint64(2**64 - 1),
                        1.5, np.int32(4), np.float64(math.nan), -7, 0.25],
    }
    assert all(len(column) == n for column in columns.values())
    assert csv_text(_MANIFEST, columns) == _per_cell(_MANIFEST, columns)
    # each column alone, where it decides the formatter by itself
    for name, column in columns.items():
        one = {name: column}
        assert csv_text(_MANIFEST, one) == _per_cell(_MANIFEST, one), name


def test_distribution_file_formats_as_its_cells():
    # fig5's layout: t and x as ints, the probabilities as floats
    n_t, n_x = 6, 11
    rng = np.random.default_rng(3)
    probs = rng.random((n_t, n_x))
    probs[:, ::2] = 0.0
    columns = {
        "t": np.repeat(np.arange(n_t), n_x).tolist(),
        "x": np.tile(np.arange(-5, 6), n_t).tolist(),
        "probability": probs.ravel().tolist(),
    }
    assert csv_text(_MANIFEST, columns) == _per_cell(_MANIFEST, columns)


def test_empty_columns_write_the_header_alone():
    text = csv_text(_MANIFEST, {"t": [], "variance": []})
    assert text.splitlines()[1:] == ["t,variance"]
