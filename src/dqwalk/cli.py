"""Command-line front end.

Three subcommands:

  simulate   run one experiment described by a JSON config file
  reproduce  rerun a named preset end to end (data + SVG)
  fit        extract power-law exponents from an existing series CSV

Exit codes: 0 success, 2 invalid config or arguments, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import asdict

import numpy as np

from ._version import __version__
from .analysis import fit_power_law, windowed_alpha
from .config import describe_ensemble, load_config
from .ensemble import run_ensemble
from .errors import ConfigError
from .figures import FIGURES, density_plot, qfi_plot, reproduce_figure, variance_plot
from .output import (
    FORMATS,
    alpha_columns,
    build_manifest,
    canonical_json,
    csv_text,
    distribution_columns,
    qfi_columns,
    variance_columns,
    write_csv,
    write_manifest,
    write_series,
    write_text,
)


def _simulate_plot(cfg, series):
    where = f"({cfg.ensemble.kind}, p={cfg.ensemble.p:g})"
    if cfg.experiment == "variance":
        return variance_plot(f"variance {where}",
                             [(series.steps, series.variance, "Var(x)")])
    if cfg.experiment == "distribution":
        return density_plot(f"walker density {where}", series)
    return qfi_plot(f"QFI {where}", [(series.steps, series.qfi_mean, "QFI")])


def _write_simulate_outputs(cfg, series):
    desc = describe_ensemble(cfg.ensemble, cfg.experiment, fit=cfg.fit)
    extras = {}
    fit = alpha = None
    if cfg.experiment == "fit":
        try:
            fit = fit_power_law(series.qfi_mean, cfg.fit["t_min"], cfg.fit["t_max"])
            if "window" in cfg.fit:
                alpha = windowed_alpha(series.qfi_mean, window=cfg.fit["window"])
        except ValueError as exc:
            # a range the series is zero over, as F(1) is for a walker
            # started in one coin state: a config the run cannot serve
            raise ConfigError(f"'fit': {exc}") from exc
        extras["fit_result"] = asdict(fit)
    manifest = build_manifest(desc, **extras)

    # stem -> columns; the first stem also names the plot
    if cfg.experiment == "variance":
        data = {"variance": variance_columns(series.steps, series.variance)}
        if series.variance_per_map is not None:
            data["variance_per_map"] = variance_columns(
                series.steps, series.variance_per_map
            )
    elif cfg.experiment == "distribution":
        data = {"distribution": distribution_columns(series)}
    else:
        data = {"qfi": qfi_columns(series)}
        if alpha is not None:
            data["alpha"] = alpha_columns(alpha)

    files = [
        write_series(os.path.join(cfg.out_dir, stem), cfg.output_format,
                     manifest, columns)
        for stem, columns in data.items()
    ]
    if cfg.plot:
        path = os.path.join(cfg.out_dir, next(iter(data)) + ".svg")
        write_text(path, _simulate_plot(cfg, series))
        files.append(path)
    manifest_path = os.path.join(cfg.out_dir, "run_manifest.json")
    write_manifest(manifest_path, manifest)
    files.append(manifest_path)
    return files, fit


def _check_runtime_args(args):
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        raise ConfigError("--workers must be >= 1")
    maps = getattr(args, "maps", None)
    if maps is not None and maps < 1:
        raise ConfigError("--maps must be >= 1")


def _resolve_workers(args):
    if args.workers is not None:
        return args.workers
    return os.cpu_count() or 1


def _cmd_simulate(args):
    _check_runtime_args(args)
    flags = {key: getattr(args, key) for key in ("seed", "out", "format", "plot")}
    cfg = load_config(args.config, **{k: v for k, v in flags.items() if v is not None})
    series = run_ensemble(cfg.ensemble, workers=_resolve_workers(args))
    files, fit = _write_simulate_outputs(cfg, series)
    if fit is not None:
        print(
            f"alpha = {fit.alpha:.6g} over t in [{fit.t_min}, {fit.t_max}] "
            f"({fit.n_points} points, residual rms {fit.residual_rms:.3g})"
        )
    for path in files:
        print(f"wrote {path}")
    return 0


def _cmd_reproduce(args):
    _check_runtime_args(args)
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    result = reproduce_figure(
        args.figure, args.out, paper_scale=args.paper_scale, maps=args.maps,
        seed=args.seed, fmt=args.format, workers=_resolve_workers(args),
    )
    for label, fit in result.fits.items():
        print(f"{args.figure} {label}: alpha = {fit.alpha:.4f} "
              f"over t in [{fit.t_min}, {fit.t_max}]")
    for path in result.files:
        print(f"wrote {path}")
    return 0


def _read_series_csv(path):
    """Steps and values from a two-or-more-column CSV written by this tool."""
    steps, values = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            header = None
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if header is None:
                    header = line.split(",")
                    if len(header) < 2:
                        raise ConfigError(
                            f"{path}: need at least two columns, got {header}"
                        )
                    continue
                parts = line.split(",")
                step = float(parts[0])
                if not step.is_integer():
                    raise ConfigError(
                        f"{path}: line {lineno}: step {parts[0]!r} is not a whole number"
                    )
                value = float(parts[1])
                if not np.isfinite(value):
                    raise ConfigError(
                        f"{path}: line {lineno}: value {parts[1]!r} is not a finite number"
                    )
                steps.append(int(step))
                values.append(value)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ConfigError:
        raise
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: malformed series CSV: {exc}") from exc
    if not steps:
        raise ConfigError(f"{path}: no data rows")
    return steps, values


def _check_fit_args(args):
    # the limits (and wording) of a config file's 'fit' block
    if args.t_min < 1:
        raise ConfigError("--t-min must be a positive integer")
    if args.t_max - args.t_min < 2:
        raise ConfigError("--t-max must be at least --t-min + 2 (3 points)")
    if args.window is not None and args.window < 5:
        raise ConfigError("--window must be an integer >= 5")
    if args.out and args.window is None:
        raise ConfigError("--out writes the windowed series: it needs --window")


def _cmd_fit(args):
    _check_fit_args(args)
    steps, values = _read_series_csv(args.input)
    with open(args.input, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    steps = np.asarray(steps)
    values = np.asarray(values)
    try:
        fit = fit_power_law(values, args.t_min, args.t_max, steps=steps)
        alpha = None
        if args.window is not None:
            alpha = alpha_columns(
                windowed_alpha(values, window=args.window, steps=steps))
    except ValueError as exc:
        # a series the range or window cannot serve, as for simulate's 'fit'
        raise ConfigError(f"{args.input}: {exc}") from exc
    manifest = {
        "tool": {"name": "dqwalk", "version": __version__},
        "input": args.input,
        "input_sha256": digest,
        "fit": asdict(fit),
    }
    if args.out:
        write_csv(args.out, manifest, alpha)
        # status goes to stderr so stdout stays machine-readable
        print(f"wrote {args.out}", file=sys.stderr)
    if args.format == "json":
        if alpha is not None:
            manifest["alpha_series"] = alpha
        print(canonical_json(manifest))
        return 0
    if alpha is not None and not args.out:
        # windowed series streamed as CSV; the manifest comment carries the fit
        sys.stdout.write(csv_text(manifest, alpha))
        return 0
    print(
        f"alpha = {fit.alpha:.6g} over t in [{fit.t_min}, {fit.t_max}] "
        f"({fit.n_points} points, residual rms {fit.residual_rms:.3g})"
    )
    return 0


CSV_SCHEMAS = """\
CSV schemas (first line is a `# manifest: {...}` provenance comment):
  qfi          t,qfi_mean,qfi_stderr
  variance     t,variance
  distribution t,x,probability
  alpha        t_center,alpha
"""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dqwalk",
        description="Disordered quantum-walk simulation and Fisher-information analysis",
        epilog=CSV_SCHEMAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"dqwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment from a JSON config")
    sim.add_argument("--config", required=True, help="path to the JSON config file")
    sim.add_argument("--seed", type=int, default=None, help="override the master seed")
    sim.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: all available cores)")
    sim.add_argument("--out", default=None, help="override the output directory")
    sim.add_argument("--format", choices=FORMATS, default=None,
                     help="override the output format")
    sim.add_argument("--plot", action="store_true", default=None,
                     help="also write SVG plots")
    sim.set_defaults(handler=_cmd_simulate)

    rep = sub.add_parser("reproduce", help="rerun a named preset")
    rep.add_argument("figure", choices=sorted(FIGURES), help="preset name")
    rep.add_argument("--paper-scale", action="store_true",
                     help="use the full 10000-map ensembles")
    rep.add_argument("--maps", type=int, default=None,
                     help="override the ensemble size for disordered runs")
    rep.add_argument("--seed", type=int, default=0, help="master seed")
    rep.add_argument("--out", default=".", help="output directory")
    rep.add_argument("--format", choices=FORMATS, default="csv")
    rep.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: all available cores)")
    rep.set_defaults(handler=_cmd_reproduce)

    fit = sub.add_parser("fit", help="fit a power law to a series CSV")
    fit.add_argument("--input", required=True, help="CSV with (t, value) columns")
    fit.add_argument("--t-min", type=int, required=True)
    fit.add_argument("--t-max", type=int, required=True)
    fit.add_argument("--window", type=int, default=None,
                     help="also compute a sliding-window exponent series")
    fit.add_argument("--out", default=None,
                     help="write the windowed series to this CSV (needs --window)")
    fit.add_argument("--format", choices=("text", "json"), default="text")
    fit.set_defaults(handler=_cmd_fit)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report and set exit code
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
