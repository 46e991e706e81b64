"""Deterministic output files with embedded provenance.

Every data file carries a manifest: the canonical config that produced it, a
sha256 over that config, and the tool version.  No timestamps, hostnames or
other machine state are recorded, so rerunning the same config rewrites every
file byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from ._version import __version__

FORMATS = ("csv", "json")


def canonical_json(obj):
    """Key-sorted, whitespace-free JSON; the hashing and embedding form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_sha256(desc):
    return hashlib.sha256(canonical_json(desc).encode("utf-8")).hexdigest()


def build_manifest(desc, **extras):
    """Manifest dict for a run described by `desc` (see describe_ensemble)."""
    manifest = {
        "tool": {"name": "dqwalk", "version": __version__},
        "config": desc,
        "config_sha256": config_sha256(desc),
    }
    manifest.update(extras)
    return manifest


def _cell(value):
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return repr(float(value))


def write_text(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def csv_text(manifest, columns):
    """CSV with a '# manifest: ...' comment line above the header.

    `columns` maps header -> equal-length list.  Floats are written in
    shortest round-trip form, so files parse back to the exact binary values
    that were computed.  Each value is written as its `_cell`, in one `%`
    pass over the rows: `%d` for a column of ints alone, `%r` for one of
    floats alone (no bool, no subclass), and `%s` of `_cell` for any other.
    """
    specs, cells = [], []
    for values in columns.values():
        types = set(map(type, values))
        if types <= {int}:
            specs.append("%d")
        elif types == {float}:
            specs.append("%r")
        else:
            specs.append("%s")
            values = list(map(_cell, values))
        cells.append(values)
    n_rows = len(cells[0]) if cells else 0
    flat = [None] * (n_rows * len(cells))
    for i, values in enumerate(cells):
        flat[i::len(cells)] = values
    body = ((",".join(specs) + "\n") * n_rows) % tuple(flat)
    return f"# manifest: {canonical_json(manifest)}\n{','.join(columns)}\n{body}"


def write_csv(path, manifest, columns):
    write_text(path, csv_text(manifest, columns))


def write_json(path, manifest, columns):
    """JSON payload: the manifest plus named column arrays."""
    payload = {"manifest": manifest, "series": columns}
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_manifest(path, manifest):
    write_text(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def write_series(stem, fmt, manifest, columns):
    """Write `columns` to stem.csv or stem.json; returns the path written."""
    if fmt == "csv":
        path = stem + ".csv"
        write_csv(path, manifest, columns)
    elif fmt == "json":
        path = stem + ".json"
        write_json(path, manifest, columns)
    else:
        raise ValueError(f"unknown output format {fmt!r}; expected one of {FORMATS}")
    return path


# One column builder per series kind; the headers are the CSV_SCHEMAS of the CLI.

def qfi_columns(series):
    return {
        "t": series.steps.tolist(),
        "qfi_mean": series.qfi_mean.tolist(),
        "qfi_stderr": series.qfi_stderr.tolist(),
    }


def alpha_columns(alpha):
    return {"t_center": alpha.centers.tolist(), "alpha": alpha.alphas.tolist()}


def variance_columns(steps, variance):
    return {"t": steps.tolist(), "variance": variance.tolist()}


def distribution_columns(series):
    """One row per (t, x), t-major, from the (T+1, W) mean distribution."""
    n_t, n_x = series.distribution.shape
    return {
        "t": np.repeat(series.steps, n_x).tolist(),
        "x": np.tile(series.positions, n_t).tolist(),
        "probability": series.distribution.ravel().tolist(),
    }
