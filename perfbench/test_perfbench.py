"""Self-tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import check
from tracing import Tracer, self_times, summarize

HERE = os.path.dirname(os.path.abspath(__file__))


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_calls():
    # outer [0, 10] calls inner [1, 3], which calls leaf [2, 2.5], then inner [4, 5]
    tracer = Tracer(clock=fake_clock([0, 1, 2, 2.5, 3, 4, 5, 10]))
    leaf = tracer.wrap(lambda: None, "leaf")

    def inner_body(deep):
        if deep:
            leaf()

    inner = tracer.wrap(inner_body, "inner")
    outer = tracer.wrap(lambda: (inner(True), inner(False)), "outer")
    outer()

    spans = tracer.spans()
    assert [(n, p) for _, n, _, _, p in spans] == [
        ("outer", -1), ("inner", 0), ("leaf", 1), ("inner", 0),
    ]
    assert self_times(spans) == {0: 7.0, 1: 1.5, 2: 0.5, 3: 1.0}
    summary = summarize(spans)
    assert summary["inner"] == {"calls": 2, "total_s": 3.0, "self_s": 2.5}
    assert summary["outer"]["self_s"] == 7.0


def test_overlapping_children_are_counted_once():
    spans = [
        (0, "parent", 0.0, 10.0, -1),
        (1, "a", 1.0, 4.0, 0),
        (2, "b", 3.0, 6.0, 0),
        (3, "c", 8.0, 12.0, 0),  # runs past the parent's end: clipped
    ]
    assert self_times(spans)[0] == 10.0 - 5.0 - 2.0


def test_span_recorded_when_call_raises():
    tracer = Tracer(clock=fake_clock([0, 1]))

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap(boom, "boom")
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.spans() == [(0, "boom", 0, 1, -1)]


def write_series(out_dir, name, walkers, columns):
    kind = "single" if walkers == 1 else "boson"
    manifest = {"config": {"initial": {"kind": kind}}}
    names = list(columns)
    lines = ["# manifest: " + json.dumps(manifest), ",".join(names)]
    for row in zip(*(columns[n] for n in names)):
        lines.append(",".join(repr(v) for v in row))
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_reference_run(out_dir, reference):
    for name, cols in reference["series"].items():
        write_series(out_dir, name, 2 if "_qfi_" in name else 1, cols)


def load(workload):
    return check.load_reference(os.path.join(HERE, "reference", f"{workload}.json.gz"))


def test_reference_run_passes(tmp_path):
    for workload in ("single-qfi", "distribution", "two-walker"):
        out = tmp_path / workload
        out.mkdir()
        ref = load(workload)
        write_reference_run(str(out), ref)
        assert check.check_run(str(out), ref) == []


def test_qfi_above_heisenberg_bound_is_rejected(tmp_path):
    ref = load("single-qfi")
    bad = copy.deepcopy(ref)
    cols = bad["series"]["fig3_qfi.csv"]
    cols["qfi_mean"][10] = 100.0 * (1 + 1e-6)  # t = 10, so F may be at most 100
    write_reference_run(str(tmp_path), bad)
    problems = check.check_run(str(tmp_path))
    assert any("F(10)" in p for p in problems), problems


def test_value_beyond_tolerance_is_rejected(tmp_path):
    ref = load("single-qfi")
    bad = copy.deepcopy(ref)
    bad["series"]["fig3_alpha.csv"]["alpha"][5] *= 1 + 1e-7
    write_reference_run(str(tmp_path), bad)
    assert check.check_run(str(tmp_path)) == []  # still physical
    problems = check.check_run(str(tmp_path), ref)
    assert any("alpha[5]" in p for p in problems), problems


def test_rounding_level_drift_is_accepted(tmp_path):
    ref = load("single-qfi")
    drifted = copy.deepcopy(ref)
    drifted["series"]["fig3_qfi.csv"]["qfi_mean"] = [
        v * (1 + 1e-14) for v in ref["series"]["fig3_qfi.csv"]["qfi_mean"]
    ]
    write_reference_run(str(tmp_path), drifted)
    assert check.check_run(str(tmp_path), ref) == []


def test_distribution_row_not_normalised_is_rejected(tmp_path):
    ref = load("distribution")
    bad = copy.deepcopy(ref)
    name = "fig5_distribution_static_p1.csv"
    cols = bad["series"][name]
    i = cols["probability"].index(max(cols["probability"][-101:]), len(cols["t"]) - 101)
    cols["probability"][i] += 1e-8
    write_reference_run(str(tmp_path), bad)
    problems = check.check_run(str(tmp_path))
    assert any(name in p and "sums to" in p for p in problems), problems


def test_traced_member_reports_layers(tmp_path):
    """child.py on a one-map preset: spans land on the layers that ran."""
    result = tmp_path / "r.json"
    spans = tmp_path / "s.jsonl"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--t0", "0",
         "--result", str(result), "--spans", str(spans), "--out", str(tmp_path / "o"),
         "--", "reproduce", "fig2a", "--maps", "1", "--workers", "1"],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    out = json.loads(result.read_text())
    layers = out["layers"]
    assert out["missing_layers"] == []
    assert layers["operators.step_with_derivative"]["calls"] == 100
    assert layers["metrology.qfi_pure"]["calls"] == 101
    assert layers["disorder.generate_map"]["calls"] == 1
    assert layers["ensemble.run_ensemble"]["calls"] == 1
    assert out["ensembles"][0]["member_steps"] == 100
    root = layers["cli.main"]
    assert root["calls"] == 1 and abs(root["total_s"] - out["wall_s"]) < 0.05
    self_sum = sum(row["self_s"] for row in layers.values())
    assert abs(self_sum - root["total_s"]) < 1e-6
    lines = spans.read_text().splitlines()
    assert len(lines) == sum(row["calls"] for row in layers.values())
