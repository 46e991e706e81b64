"""Output checks for the files one `dqwalk reproduce` run wrote.

Two kinds of check, both on the CSV series:

* invariants that hold for any seed: 0 <= F(t) <= (n t)^2 for a QFI series of
  n walkers (each step's phase generator is a sum of n spin-up projectors,
  whose spectral range is n), a non-negative standard error, and every
  time row of a position distribution summing to 1 within 1e-9;
* for the reference seed, agreement with a stored reference series within
  rounding-level tolerance.  Byte identity is not required, because a kernel
  may legitimately change summation order and move the last digits.
"""

from __future__ import annotations

import glob
import gzip
import json
import math
import os

RTOL = 1e-9
ATOL = 1e-12
ROW_SUM_TOL = 1e-9

QFI_COLUMNS = {"t", "qfi_mean", "qfi_stderr"}
DIST_COLUMNS = {"t", "x", "probability"}


def read_series(path):
    """(manifest dict, column names, columns as lists of floats) of one CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    prefix = "# manifest: "
    if not lines or not lines[0].startswith(prefix):
        raise ValueError(f"{path}: missing manifest line")
    manifest = json.loads(lines[0][len(prefix):])
    names = lines[1].split(",")
    columns = [[] for _ in names]
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"{path}: row {line!r} has {len(cells)} cells")
        for col, cell in zip(columns, cells):
            col.append(float(cell))
    return manifest, names, columns


def read_run(out_dir):
    """{file name: {column: values}} for every CSV series in `out_dir`."""
    series = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        manifest, names, columns = read_series(path)
        series[os.path.basename(path)] = {
            "walkers": 1 if manifest["config"]["initial"]["kind"] == "single" else 2,
            "columns": dict(zip(names, columns)),
        }
    return series


def invariant_problems(series):
    problems = []
    if not series:
        problems.append("no CSV series written")
    for name, entry in series.items():
        cols = entry["columns"]
        if set(cols) == QFI_COLUMNS:
            n = entry["walkers"]
            for t, f, err in zip(cols["t"], cols["qfi_mean"], cols["qfi_stderr"]):
                bound = (n * t) ** 2
                if not (0.0 <= f <= bound * (1 + RTOL) + ATOL):
                    problems.append(f"{name}: F({t:g}) = {f!r} outside [0, {bound:g}]")
                if not err >= 0.0:
                    problems.append(f"{name}: stderr({t:g}) = {err!r} < 0")
        elif set(cols) == DIST_COLUMNS:
            sums = {}
            for t, prob in zip(cols["t"], cols["probability"]):
                sums[t] = sums.get(t, 0.0) + prob
            for t, total in sums.items():
                if not abs(total - 1.0) <= ROW_SUM_TOL:
                    problems.append(f"{name}: row t={t:g} sums to {total!r}")
        for col, values in cols.items():
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{name}: non-finite value in {col}")
    return problems


def reference_problems(series, reference):
    problems = []
    if sorted(series) != sorted(reference):
        return [f"files {sorted(series)} differ from reference {sorted(reference)}"]
    for name, ref_cols in reference.items():
        cols = series[name]["columns"]
        if set(cols) != set(ref_cols):
            problems.append(f"{name}: columns {sorted(cols)} != {sorted(ref_cols)}")
            continue
        for col, ref_values in ref_cols.items():
            values = cols[col]
            if len(values) != len(ref_values):
                problems.append(f"{name}: {col} has {len(values)} rows, reference {len(ref_values)}")
                continue
            for i, (v, r) in enumerate(zip(values, ref_values)):
                if not math.isclose(v, r, rel_tol=RTOL, abs_tol=ATOL):
                    problems.append(f"{name}: {col}[{i}] = {v!r}, reference {r!r}")
                    break
    return problems


def check_run(out_dir, reference=None):
    """Problems found in one run's outputs; an empty list means it passed."""
    try:
        series = read_run(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    problems = invariant_problems(series)
    if reference is not None:
        problems += reference_problems(series, reference["series"])
    return problems


def load_reference(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(path, argv, out_dir):
    series = {name: entry["columns"] for name, entry in read_run(out_dir).items()}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # mtime=0 keeps the file byte-stable when regenerated from the same data
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps({"argv": argv, "series": series}, sort_keys=True).encode("utf-8"))
