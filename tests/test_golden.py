"""A golden record of every data file the ten presets and five simulate
configs write, held value by value.

The record, `golden.json.gz` beside this file, holds the sha256 and the
parsed JSON of each data file (SVGs are not recorded) that these commands
write, at 70 maps, two blocks of which the second is partial, and one
worker:

- `dqwalk reproduce <preset> --maps 70 --workers 1 --format json` for every
  preset;
- `dqwalk simulate --workers 1 --format json` on each of `CONFIGS`, which
  reach what no preset does: two-walker marginals and per-map variances,
  walkers off the origin, phase-last order, phi != 0 and exact-pi-fraction
  maps.

The test reruns them in-process.  A file whose bytes still have the
recorded sha256 passes.  One whose bytes moved passes if every value of it
is within RTOL of the recorded one, relative to the larger of the two, and
everything that is not a float is equal; each such file raises one
UserWarning naming the drift, so that the test log of every numpy version
shows it.  A missing or an extra file fails.

Regenerate the record after a change that moves bytes on purpose, and state
the drift of each file beside the change:

    PYTHONPATH=src python tests/test_golden.py
"""

import gzip
import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from dqwalk.cli import main
from dqwalk.figures import FIGURES

RECORD = Path(__file__).with_name("golden.json.gz")
MAPS = 70

#: the largest relative change of a recorded value that passes.  Kernel
#: changes that reorder a sum have moved values by 1e-16 to 1.6e-14
#: relative; a mistake moves them by far more
RTOL = 1e-13


def _simulate_config(experiment, kind, x0, initial, order, steps, **extra):
    disorder = {"kind": kind, "p": 0.6, **extra.pop("disorder", {})}
    return {"experiment": experiment, "disorder": disorder, "steps": steps,
            "maps": MAPS, "phi": 0.3,
            "initial": {"kind": initial, "position": x0},
            "operator_order": order, **extra}


#: simulate configs by output directory
CONFIGS = {
    # a boson run's pair-averaged marginals, a separable run's walker-a
    # marginals, and a fermion run's per-map variances, each off the origin
    "marginal-boson-x1": _simulate_config(
        "distribution", "dynamic", 1, "boson", "phase-first", 40),
    "marginal-separable-x2": _simulate_config(
        "distribution", "static", 2, "separable", "phase-last", 40),
    "marginal-fermion-x-2": _simulate_config(
        "variance", "static", -2, "fermion", "phase-last", 40,
        per_map_variance=True),
    # a dynamic map's cones at phi = 0.3, off the origin, phase-last
    "phi-dynamic-x-2": _simulate_config(
        "qfi", "dynamic", -2, "single", "phase-last", 100),
    "exact-static": _simulate_config(
        "qfi", "static", 0, "single", "phase-first", 100,
        disorder={"semantics": "exact-pi-fraction"}),
}


def write_outputs(root):
    """Run every recorded command under `root`; returns the bytes of each
    data file written, by its path relative to the outputs' directory."""
    out = root / "out"
    for name in sorted(FIGURES):
        assert main(["reproduce", name, "--maps", str(MAPS), "--workers", "1",
                     "--format", "json", "--out", str(out / name)]) == 0
    for name, cfg in CONFIGS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--workers", "1",
                     "--format", "json", "--out", str(out / name)]) == 0
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*.json"))}


def _sha256(blob):
    return hashlib.sha256(blob).hexdigest()


def _drift(old, new, where):
    """The largest relative difference between the floats of two parsed
    JSON documents; fails unless they have one structure and equal values
    elsewhere."""
    if isinstance(old, dict):
        assert isinstance(new, dict) and old.keys() == new.keys(), where
        return max((_drift(old[k], new[k], f"{where}/{k}") for k in old),
                   default=0.0)
    if isinstance(old, list):
        assert isinstance(new, list) and len(old) == len(new), where
        if old and all(type(v) is float for v in old + new):
            a, b = np.array(old), np.array(new)
            scale = np.maximum(np.abs(a), np.abs(b))
            moved = a != b
            return float(np.max(np.abs(a - b)[moved] / scale[moved], initial=0.0))
        return max((_drift(a, b, f"{where}[{i}]")
                    for i, (a, b) in enumerate(zip(old, new))), default=0.0)
    assert type(old) is type(new), where
    if isinstance(old, float) and old != new:
        return abs(old - new) / max(abs(old), abs(new))
    assert old == new, f"{where}: {old!r} became {new!r}"
    return 0.0


def test_outputs_match_the_golden_record(tmp_path):
    record = json.loads(gzip.decompress(RECORD.read_bytes()))
    assert record["maps"] == MAPS
    written = write_outputs(tmp_path)
    assert sorted(written) == sorted(record["files"])
    for name, blob in written.items():
        entry = record["files"][name]
        if _sha256(blob) == entry["sha256"]:
            continue
        drift = _drift(entry["data"], json.loads(blob), name)
        assert drift <= RTOL, f"{name}: values moved by {drift:.3g} relative"
        warnings.warn(f"{name}: sha256 differs from the golden record, "
                      f"values within {drift:.3g} relative", UserWarning)


def _regenerate():
    with tempfile.TemporaryDirectory() as root:
        written = write_outputs(Path(root))
    files = {name: {"sha256": _sha256(blob), "data": json.loads(blob)}
             for name, blob in written.items()}
    text = json.dumps({"maps": MAPS, "files": files}, sort_keys=True,
                      separators=(",", ":"))
    RECORD.write_bytes(gzip.compress(text.encode(), compresslevel=9, mtime=0))
    print(f"wrote {RECORD}: {len(files)} files", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
