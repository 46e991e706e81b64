import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dqwalk.ensemble as ensemble_mod
from dqwalk import fit_power_law, windowed_alpha
from dqwalk.cli import main
from dqwalk.figures import FIGURES


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "experiment": "qfi",
        "disorder": {"kind": "dynamic", "p": 1.0},
        "steps": 12,
        "maps": 6,
        "seed": 4,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_csv(path):
    rows = []
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    header = lines[0].strip().split(",")
    for line in lines[1:]:
        rows.append([float(v) for v in line.strip().split(",")])
    return header, np.array(rows)


def test_simulate_writes_qfi_csv_and_manifest(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    header, rows = _read_csv(tmp_path / "out" / "qfi.csv")
    assert header == ["t", "qfi_mean", "qfi_stderr"]
    assert rows.shape == (13, 3)
    assert rows[0, 1] == 0.0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["config"]["disorder"]["kind"] == "dynamic"
    assert manifest["config"]["seed"] == 4
    assert len(manifest["config_sha256"]) == 64
    # the manifest is also embedded in the CSV comment line
    first = (tmp_path / "out" / "qfi.csv").read_text().splitlines()[0]
    assert first.startswith("# manifest: ")
    embedded = json.loads(first[len("# manifest: "):])
    assert embedded["config_sha256"] == manifest["config_sha256"]


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"), "--plot"])
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"), "--plot"])
    for name in ("qfi.csv", "run_manifest.json", "qfi.svg"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = _write_config(tmp_path)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
          "--seed", "99"])
    _, a = _read_csv(tmp_path / "a" / "qfi.csv")
    _, b = _read_csv(tmp_path / "b" / "qfi.csv")
    assert not np.array_equal(a[:, 1], b[:, 1])


def test_simulate_workers_do_not_change_bytes(tmp_path):
    cfg = _write_config(tmp_path)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
          "--workers", "3"])
    assert (tmp_path / "a" / "qfi.csv").read_bytes() == \
        (tmp_path / "b" / "qfi.csv").read_bytes()


def test_simulate_variance_and_distribution(tmp_path):
    cfg = _write_config(tmp_path, name="var.json", experiment="variance",
                        per_map_variance=True)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "v"),
               "--plot"])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "v" / "variance.csv")
    assert header == ["t", "variance"]
    assert rows[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert (tmp_path / "v" / "variance_per_map.csv").exists()
    assert (tmp_path / "v" / "variance.svg").read_text().startswith("<svg")

    cfg = _write_config(tmp_path, name="dist.json", experiment="distribution")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "d")])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "d" / "distribution.csv")
    assert header == ["t", "x", "probability"]
    # every step sums to one
    for t in (0, 5, 12):
        mask = rows[:, 0] == t
        assert rows[mask, 2].sum() == pytest.approx(1.0, abs=1e-12)


def test_simulate_json_format(tmp_path):
    cfg = _write_config(tmp_path, format="json")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "j")])
    assert rc == 0
    payload = json.loads((tmp_path / "j" / "qfi.json").read_text())
    assert "manifest" in payload and "series" in payload
    assert len(payload["series"]["qfi_mean"]) == 13


def test_simulate_two_particle(tmp_path):
    cfg = _write_config(tmp_path, name="tp.json", experiment="two-particle",
                        steps=8, maps=2)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "tp")])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "tp" / "qfi.csv")
    assert rows.shape == (9, 3)
    manifest = json.loads((tmp_path / "tp" / "run_manifest.json").read_text())
    assert manifest["config"]["initial"]["kind"] == "boson"


def test_simulate_fit_experiment(tmp_path, capsys):
    cfg = _write_config(tmp_path, name="fit.json", experiment="fit",
                        steps=30, maps=10,
                        fit={"t_min": 5, "t_max": 30, "window": 10})
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "f")])
    assert rc == 0
    assert "alpha = " in capsys.readouterr().out
    header, rows = _read_csv(tmp_path / "f" / "alpha.csv")
    assert header == ["t_center", "alpha"]
    manifest = json.loads((tmp_path / "f" / "run_manifest.json").read_text())
    assert "fit_result" in manifest


def test_unknown_config_field_is_named(tmp_path, capsys):
    cfg = _write_config(tmp_path, semantcs="bernoulli-uniform")
    rc = main(["simulate", "--config", cfg])
    assert rc == 2
    assert "semantcs" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["simulate", "--config", str(path)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file(capsys):
    rc = main(["simulate", "--config", "/no/such/file.json"])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_bad_field_values(tmp_path, capsys):
    cfg = _write_config(tmp_path, steps=0)
    assert main(["simulate", "--config", cfg]) == 2
    assert "'steps'" in capsys.readouterr().err
    cfg = _write_config(tmp_path, disorder={"kind": "none", "p": 0.5})
    assert main(["simulate", "--config", cfg]) == 2
    cfg = _write_config(tmp_path, experiment="fit")
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "fit" in err


def test_fit_command_matches_library(tmp_path, capsys):
    cfg = _write_config(tmp_path, steps=30, maps=10)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    capsys.readouterr()
    rc = main(["fit", "--input", str(tmp_path / "out" / "qfi.csv"),
               "--t-min", "5", "--t-max", "30", "--format", "json"])
    assert rc == 0
    reported = json.loads(capsys.readouterr().out)
    _, rows = _read_csv(tmp_path / "out" / "qfi.csv")
    expected = fit_power_law(rows[:, 1], 5, 30, steps=rows[:, 0].astype(int))
    assert reported["fit"]["alpha"] == pytest.approx(expected.alpha, rel=1e-12)
    assert reported["input_sha256"]


def test_fit_command_windowed_output(tmp_path, capsys):
    cfg = _write_config(tmp_path, steps=30, maps=10)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    capsys.readouterr()
    alpha_csv = str(tmp_path / "alpha.csv")
    rc = main(["fit", "--input", str(tmp_path / "out" / "qfi.csv"),
               "--t-min", "5", "--t-max", "30", "--window", "10",
               "--out", alpha_csv])
    assert rc == 0
    header, rows = _read_csv(alpha_csv)
    assert header == ["t_center", "alpha"]
    assert len(rows) > 5


def test_fit_command_out_needs_a_window(tmp_path, capsys):
    # --out writes the windowed series; without --window it is refused
    # before the input is read, and nothing is written
    alpha_csv = tmp_path / "alpha.csv"
    rc = main(["fit", "--input", str(tmp_path / "missing.csv"), "--t-min", "5",
               "--t-max", "30", "--out", str(alpha_csv)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--out" in err and "--window" in err
    assert "missing.csv" not in err
    assert not alpha_csv.exists()


def test_fit_command_windows_a_series_of_every_second_step(tmp_path, capsys):
    steps = np.arange(0, 61, 2)
    rng = np.random.default_rng(5)
    values = steps**1.4 * np.exp(rng.normal(0, 0.05, len(steps)))
    series = tmp_path / "halves.csv"
    series.write_text("t,value\n" + "".join(
        f"{t},{float(v)!r}\n" for t, v in zip(steps, values)))
    alpha_csv = tmp_path / "alpha.csv"
    rc = main(["fit", "--input", str(series), "--t-min", "2", "--t-max", "60",
               "--window", "10", "--out", str(alpha_csv)])
    assert rc == 0
    header, rows = _read_csv(alpha_csv)
    assert header == ["t_center", "alpha"]
    expected = windowed_alpha(values, window=10, steps=steps)
    np.testing.assert_array_equal(rows[:, 0], expected.centers)
    np.testing.assert_array_equal(rows[:, 1], expected.alphas)
    assert expected.centers.tolist() == list(range(6, 56))


def test_fit_command_rejects_unfittable_series(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n1,1.0\n2,-3.0\n3,2.0\n4,4.0\n")
    rc = main(["fit", "--input", str(path), "--t-min", "1", "--t-max", "4"])
    assert rc == 2
    assert "negative" in capsys.readouterr().err


def test_fit_command_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n1,abc\n")
    rc = main(["fit", "--input", str(path), "--t-min", "1", "--t-max", "4"])
    assert rc == 2


def test_reproduce_preset(tmp_path, capsys):
    rc = main(["reproduce", "fig2a", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha = 2.0" in out
    assert (tmp_path / "fig2a_qfi.csv").exists()
    assert (tmp_path / "fig2a_qfi.svg").exists()
    manifest = json.loads((tmp_path / "fig2a_manifest.json").read_text())
    assert manifest["figure"] == "fig2a"
    assert manifest["runs"][0]["fit"]["alpha"] == pytest.approx(2.03, abs=0.05)


def test_reproduce_with_reduced_maps(tmp_path):
    rc = main(["reproduce", "fig2c-dynamic", "--out", str(tmp_path),
               "--maps", "8"])
    assert rc == 0
    manifest = json.loads(
        (tmp_path / "fig2c-dynamic_manifest.json").read_text()
    )
    assert manifest["runs"][0]["config"]["maps"] == 8


def test_reproduce_unknown_figure_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["reproduce", "fig99"])
    assert info.value.code == 2


def test_cli_argument_validation(tmp_path, capsys):
    rc = main(["fit", "--input", "/no/file.csv", "--t-min", "1",
               "--t-max", "5"])
    assert rc == 2
    capsys.readouterr()
    rc = main(["reproduce", "fig2a", "--maps", "0"])
    assert rc == 2
    assert "--maps" in capsys.readouterr().err
    # fit limits are argument errors (2), as in a config 'fit' block
    series = tmp_path / "series.csv"
    series.write_text("t,value\n" + "".join(f"{t},{t * t}.0\n" for t in range(1, 21)))
    for flags, name in (
        (["--t-min", "0", "--t-max", "5"], "--t-min"),
        (["--t-min", "5", "--t-max", "5"], "--t-max"),
        (["--t-min", "1", "--t-max", "5", "--window", "3"], "--window"),
    ):
        rc = main(["fit", "--input", str(series)] + flags)
        assert rc == 2
        assert name in capsys.readouterr().err
    # fractional steps are rejected, not truncated to a shifted series
    halves = tmp_path / "halves.csv"
    halves.write_text("t,value\n" + "".join(
        f"{t + 0.5},{(t + 1.0) ** 2}\n" for t in range(5)))
    rc = main(["fit", "--input", str(halves), "--t-min", "1", "--t-max", "4"])
    assert rc == 2
    assert "line 2: step '0.5'" in capsys.readouterr().err
    # a non-finite value is named by its line, not fitted as a NaN floor
    holed = tmp_path / "holed.csv"
    holed.write_text("t,value\n" + "".join(
        f"{t},{'nan' if t == 3 else t * t}\n" for t in range(1, 7)))
    rc = main(["fit", "--input", str(holed), "--t-min", "1", "--t-max", "6"])
    assert rc == 2
    assert "line 4: value 'nan'" in capsys.readouterr().err
    # a window longer than the series is an argument error too
    short = tmp_path / "short.csv"
    short.write_text("t,value\n" + "".join(f"{t},{t * t}.0\n" for t in range(1, 5)))
    rc = main(["fit", "--input", str(short), "--t-min", "1", "--t-max", "4",
               "--window", "9"])
    assert rc == 2
    assert "window 9 does not fit inside steps 1..4" in capsys.readouterr().err
    # booleans are not coin amplitudes, alone or in a [re, im] pair
    for i, coin in ((0, [True, False]), (0, [[True, False], 0]),
                    (1, [1, [0, False]])):
        cfg = _write_config(tmp_path, initial={"coin": coin})
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"'initial.coin[{i}]'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "reproduce"])
def test_seeds_are_64_bit_words(tmp_path, capsys, command):
    # seed 2**64 would draw seed 0's maps under another manifest: both
    # commands refuse it before writing anything, and run at 2**64 - 1
    cfg = _write_config(tmp_path, steps=4, maps=2)
    for seed, rc in ((2**64, 2), (2**70, 2), (2**64 - 1, 0)):
        out = tmp_path / f"o{seed}"
        if command == "simulate":
            argv, manifest = ["simulate", "--config", cfg], "run_manifest.json"
        else:
            argv = ["reproduce", "fig2b", "--maps", "2", "--workers", "1"]
            manifest = "fig2b_manifest.json"
        assert main(argv + ["--seed", str(seed), "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert "not below 2**64" in err
            assert not out.exists()
        else:
            assert (out / manifest).exists()


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("an invalid config reached the ensemble")


def test_coin_off_tolerance_exits_2_before_running(tmp_path, capsys, monkeypatch):
    # within 1e-9 but not within the states' 1e-12 of |c|^2 = 1
    monkeypatch.setattr("dqwalk.cli.run_ensemble", _refuse_to_run)
    cfg = _write_config(tmp_path, steps=5, maps=2,
                        initial={"coin": [0.707106781186, 0.707106781186]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "not normalized" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fields, words", [
    ({"experiment": "fit", "fit": {"t_min": 1, "t_max": 2}}, "'fit.t_max'"),
    ({"experiment": "fit", "steps": 10,
      "fit": {"t_min": 1, "t_max": 10, "window": 50}}, "'fit.window' 50"),
    ({"experiment": "fit", "steps": 10,
      "fit": {"t_min": 1, "t_max": 10, "window": 10}}, "'fit.window' 10"),
    ({"experiment": "qfi", "fit": {"t_min": 1, "t_max": 5}},
     "only applies to experiment 'fit'"),
], ids=["two-points", "long-window", "window-one-short", "fit-on-qfi"])
def test_bad_fit_block_exits_2_before_running(tmp_path, capsys, monkeypatch,
                                              fields, words):
    monkeypatch.setattr("dqwalk.cli.run_ensemble", _refuse_to_run)
    cfg = _write_config(tmp_path, **fields)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert words in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["qfi", "fit", "distribution", "two-particle"])
def test_per_map_variance_off_experiment_variance_exits_2(tmp_path, capsys,
                                                         monkeypatch, experiment):
    # silently dropping it would run a different experiment than asked for
    monkeypatch.setattr("dqwalk.cli.run_ensemble", _refuse_to_run)
    extra = {"fit": {"fit": {"t_min": 2, "t_max": 12}},
             "two-particle": {"initial": {"kind": "boson"}}}.get(experiment, {})
    cfg = _write_config(tmp_path, experiment=experiment, per_map_variance=True,
                        **extra)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'per_map_variance' only applies to experiment 'variance'" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_per_map_variance_false_is_accepted_anywhere(tmp_path):
    cfg = _write_config(tmp_path, per_map_variance=False)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("preset", ["fig2b", "fig4b", "fig6"])
def test_reproduce_oversized_maps_exits_2_before_running(tmp_path, capsys,
                                                         monkeypatch, preset):
    monkeypatch.setattr("dqwalk.figures.run_ensemble", _refuse_to_run)
    monkeypatch.setattr("dqwalk.twoparticle.run_ensemble", _refuse_to_run)
    out = tmp_path / "o"
    rc = main(["reproduce", preset, "--maps", "2000000000", "--workers", "1",
               "--out", str(out)])
    assert rc == 2
    assert "over the limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset, maps", [("fig5", "1000000"),
                                          ("fig6", "500000")])
def test_reproduce_sizes_the_ensembles_it_runs(tmp_path, capsys, monkeypatch,
                                               preset, maps):
    # fig5 and fig6 collect no QFI: their largest ensembles need 11 and
    # 13 MB at these sizes, a single-walker QFI run of as many maps over
    # 2**30 bytes
    monkeypatch.setattr("dqwalk.figures.run_ensemble", _refuse_to_run)
    rc = main(["reproduce", preset, "--maps", maps, "--workers", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "reached the ensemble" in capsys.readouterr().err


def test_state_buffers_past_the_size_limit_exit_2(tmp_path, capsys,
                                                  monkeypatch):
    # 52000 two-walker steps of a 64-map block: the map, phase-factor and
    # QFI tables fit 2**30 bytes, the block's state buffers push them past it
    monkeypatch.setattr("dqwalk.cli.run_ensemble", _refuse_to_run)
    monkeypatch.setattr("dqwalk.figures.run_ensemble", _refuse_to_run)
    monkeypatch.setattr("dqwalk.twoparticle.run_ensemble", _refuse_to_run)
    cfg = _write_config(tmp_path, experiment="two-particle", steps=52000,
                        maps=64, disorder={"kind": "static", "p": 1.0},
                        initial={"kind": "boson"})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "over the limit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    panel, params = FIGURES["fig4b"]
    monkeypatch.setitem(FIGURES, "fig4b", (panel, dict(params, n_steps=52000)))
    out = tmp_path / "r"
    assert main(["reproduce", "fig4b", "--maps", "64", "--workers", "1",
                 "--out", str(out)]) == 2
    assert "over the limit" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_call_past_the_size_limit_exits_2(tmp_path, capsys,
                                                monkeypatch):
    # 28000 steps of CALL_BLOCKS full blocks fit 2**30 bytes at 64 rows;
    # one kernel call holds CALL_BLOCKS x 64 rows, and they do not
    monkeypatch.setattr("dqwalk.cli.run_ensemble", _refuse_to_run)
    maps = ensemble_mod.CALL_BLOCKS * ensemble_mod.BLOCK_MAPS
    cfg = _write_config(tmp_path, steps=28000, maps=maps,
                        disorder={"kind": "static", "p": 1.0})
    with monkeypatch.context() as one_block_calls:
        one_block_calls.setattr(ensemble_mod, "CALL_BLOCKS", 1)
        # it fits, so it reaches the ensemble, which this test refuses
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        assert "reached the ensemble" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "over the limit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_reproduce_ordered_preset_runs_one_map_whatever_maps(tmp_path):
    # --maps sizes the disordered runs only, so it cannot oversize fig2a
    rc = main(["reproduce", "fig2a", "--maps", "2000000000", "--workers", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "fig2a_manifest.json").read_text())
    assert manifest["runs"][0]["config"]["maps"] == 1


def _src_env(env, **extra):
    """`env` and `extra`, with this tree's src/ first on PYTHONPATH."""
    return dict(env, **extra, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_cli_import_skips_network_and_pool_modules():
    # xml.sax.saxutils pulls in urllib.request and friends, and a pool is
    # only needed with several workers; neither belongs in every start-up
    code = ("import sys, dqwalk, dqwalk.cli; "
            "print(sorted({'urllib.request', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(os.environ),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _threads_after(imports, **thread_vars):
    """Threads of a fresh interpreter after `imports`, and whether its
    os.environ is what it started with; only `thread_vars` of OpenBLAS's
    thread variables are set."""
    code = ("import os; before = dict(os.environ); " + imports + "; "
            "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(env, **thread_vars),
                         check=True, capture_output=True, text=True).stdout.split()
    return int(out[0]), out[1] == "True"


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads in /proc/self/task")


@needs_proc
def test_import_loads_blas_with_one_thread():
    # the kernel never gives BLAS work, so its idle workers only spin
    assert _threads_after("import dqwalk") == (1, True)


@needs_proc
@pytest.mark.parametrize("imports, thread_vars", [
    ("import dqwalk", {"OPENBLAS_NUM_THREADS": "2"}),
    ("import dqwalk", {"OMP_NUM_THREADS": "2"}),
    ("import numpy, dqwalk", {}),
], ids=["openblas-var", "omp-var", "numpy-first"])
def test_callers_blas_threads_win(imports, thread_vars):
    assert _threads_after(imports, **thread_vars) == \
        _threads_after("import numpy", **thread_vars)


def test_longest_window_that_fits_runs(tmp_path):
    # 2 * (9 // 2) = 8 <= steps - 1: one window, centred on t = 5
    cfg = _write_config(tmp_path, experiment="fit", steps=9,
                        fit={"t_min": 2, "t_max": 9, "window": 9})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    _, rows = _read_csv(tmp_path / "o" / "alpha.csv")
    assert rows[:, 0].tolist() == [5.0]


def test_fit_range_over_zero_qfi_exits_2(tmp_path, capsys):
    # F(1) = 0 for a walker started spin-up: [1, 3] holds two usable points
    cfg = _write_config(tmp_path, experiment="fit", steps=5,
                        fit={"t_min": 1, "t_max": 3})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'fit': only 2 usable points" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, key", [
    (["--seed", "-1"], "'seed'"),
    (["--out", ""], "'out'"),
], ids=["seed", "out"])
def test_flags_obey_the_rules_of_their_keys(tmp_path, capsys, flags, key):
    cfg = _write_config(tmp_path)
    assert main(["simulate", "--config", cfg] + flags) == 2
    assert key in capsys.readouterr().err


def test_flag_does_not_excuse_the_key_it_replaces(tmp_path, capsys):
    cfg = _write_config(tmp_path, seed=-1)
    assert main(["simulate", "--config", cfg, "--seed", "3",
                 "--out", str(tmp_path / "o")]) == 2
    assert "'seed'" in capsys.readouterr().err


def test_flags_set_their_keys(tmp_path):
    cfg = _write_config(tmp_path, format="csv", seed=4)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out),
                 "--format", "json", "--plot"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert (out / "qfi.json").exists() and (out / "qfi.svg").exists()


def test_fit_command_needs_three_points(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("t,value\n" + "".join(f"{t},{t * t}.0\n" for t in range(1, 9)))
    rc = main(["fit", "--input", str(series), "--t-min", "2", "--t-max", "3"])
    assert rc == 2
    assert "--t-max" in capsys.readouterr().err
    rc = main(["fit", "--input", str(series), "--t-min", "2", "--t-max", "4"])
    assert rc == 0
