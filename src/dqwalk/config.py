"""Run configuration: JSON in, validated experiment description out.

A config file is one JSON object.  Unknown fields are rejected by name rather
than ignored, so a typo like "semantcs" cannot silently fall back to a
default and change the science.  Example:

    {
      "experiment": "qfi",
      "disorder": {"kind": "dynamic", "p": 1.0},
      "steps": 50,
      "maps": 1000,
      "seed": 7
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .ensemble import EnsembleConfig, InitialStateSpec
from .errors import ConfigError
from .operators import PHASE_FIRST
from .output import FORMATS
from .states import TWO_PARTICLE_KINDS
from .twoparticle import DEFAULT_INDISTINGUISHABLE

EXPERIMENTS = ("qfi", "variance", "distribution", "two-particle", "fit")

_TOP_KEYS = {
    "experiment", "disorder", "steps", "maps", "phi", "initial", "seed",
    "out", "format", "plot", "fit", "per_map_variance", "operator_order",
}
_DISORDER_KEYS = {"kind", "p", "semantics"}
_INITIAL_KEYS = {"kind", "position", "coin"}
_FIT_KEYS = {"t_min", "t_max", "window"}


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved simulate run: the ensemble and what to do with it."""

    experiment: str
    ensemble: EnsembleConfig
    out_dir: str = "."
    output_format: str = "csv"
    plot: bool = False
    fit: dict = None


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _check_keys(obj, allowed, where):
    unknown = sorted(set(obj) - allowed)
    _require(not unknown, f"unknown {where} field(s): {', '.join(unknown)}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coin_amp(value, name):
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"'{name}' must be a number or a [re, im] pair")


def _parse_initial(obj, experiment):
    if obj is None:
        kind = DEFAULT_INDISTINGUISHABLE if experiment == "two-particle" else "single"
        return InitialStateSpec(kind=kind)
    _require(isinstance(obj, dict), "'initial' must be an object")
    _check_keys(obj, _INITIAL_KEYS, "'initial'")
    position = obj.get("position", 0)
    _require(_is_int(position), "'initial.position' must be an integer")
    coin = obj.get("coin", [1, 0])
    _require(
        isinstance(coin, list) and len(coin) == 2,
        "'initial.coin' must be a two-entry list [up, down]",
    )
    coin = tuple(_coin_amp(c, f"initial.coin[{i}]") for i, c in enumerate(coin))
    try:
        spec = InitialStateSpec(obj.get("kind", "single"), position, coin)
    except ValueError as exc:
        raise ConfigError(f"'initial': {exc}") from exc
    # the spec cannot tell a given coin from the default one
    _require(
        "coin" not in obj or spec.kind == "single",
        "'initial.coin' only applies to single-walker states",
    )
    return spec


def _parse_fit(obj, n_steps):
    _require(isinstance(obj, dict), "'fit' must be an object")
    _check_keys(obj, _FIT_KEYS, "'fit'")
    _require("t_min" in obj and "t_max" in obj, "'fit' needs 't_min' and 't_max'")
    t_min, t_max = obj["t_min"], obj["t_max"]
    for name, v in (("t_min", t_min), ("t_max", t_max)):
        _require(_is_int(v) and v >= 1, f"'fit.{name}' must be a positive integer")
    _require(
        t_max - t_min >= 2, "'fit.t_max' must be at least 'fit.t_min' + 2 (3 points)"
    )
    _require(t_max <= n_steps, "'fit.t_max' exceeds the number of steps")
    out = {"t_min": t_min, "t_max": t_max}
    if "window" in obj:
        w = obj["window"]
        _require(_is_int(w) and w >= 5, "'fit.window' must be an integer >= 5")
        # windowed_alpha needs one full window [t - w//2, t + w//2] in 1..n_steps
        _require(
            2 * (w // 2) <= n_steps - 1,
            f"'fit.window' {w} does not fit inside steps 1..{n_steps}",
        )
        out["window"] = w
    return out


def parse_config(raw):
    """Validate a decoded JSON object into a RunConfig.

    The science fields are checked once, by EnsembleConfig and
    InitialStateSpec; what is left here are JSON types, unknown keys and the
    fields EnsembleConfig does not hold.
    """
    _require(isinstance(raw, dict), "config must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config")

    experiment = raw.get("experiment")
    _require(
        experiment in EXPERIMENTS,
        f"'experiment' must be one of {'/'.join(EXPERIMENTS)}",
    )

    n_steps = raw.get("steps")
    _require(_is_int(n_steps) and n_steps >= 1, "'steps' must be an integer >= 1")

    disorder = raw.get("disorder", {"kind": "none"})
    _require(isinstance(disorder, dict), "'disorder' must be an object")
    _check_keys(disorder, _DISORDER_KEYS, "'disorder'")
    p = disorder.get("p", 0.0)
    _require(_is_number(p), "'disorder.p' must be a number")

    # Unspecified ensembles default to the full publication-grade size;
    # desk-scale runs should say "maps" explicitly.
    n_maps = raw.get("maps", 10000)
    _require(_is_int(n_maps) and n_maps >= 1, "'maps' must be an integer >= 1")

    phi = raw.get("phi", 0.0)
    _require(_is_number(phi) and math.isfinite(phi), "'phi' must be a finite number")

    seed = raw.get("seed", 0)
    _require(_is_int(seed) and seed >= 0, "'seed' must be a nonnegative integer")

    out_dir = raw.get("out", ".")
    _require(isinstance(out_dir, str) and out_dir, "'out' must be a directory path")

    output_format = raw.get("format", "csv")
    _require(
        output_format in FORMATS, f"'format' must be one of {'/'.join(FORMATS)}"
    )

    plot = raw.get("plot", False)
    _require(isinstance(plot, bool), "'plot' must be true or false")

    per_map_variance = raw.get("per_map_variance", False)
    _require(
        isinstance(per_map_variance, bool), "'per_map_variance' must be true or false"
    )
    _require(
        experiment == "variance" or not per_map_variance,
        "'per_map_variance' only applies to experiment 'variance'",
    )

    initial = _parse_initial(raw.get("initial"), experiment)
    if experiment == "two-particle":
        _require(
            initial.kind in TWO_PARTICLE_KINDS,
            "'two-particle' experiments need a two-particle 'initial.kind'",
        )

    fit = None
    if "fit" in raw:
        _require(experiment == "fit", "'fit' only applies to experiment 'fit'")
        fit = _parse_fit(raw["fit"], n_steps)
    _require(
        experiment != "fit" or fit is not None,
        "'fit' experiments need a 'fit' object with 't_min' and 't_max'",
    )

    try:
        ensemble = EnsembleConfig(
            kind=disorder.get("kind"),
            p=float(p),
            n_steps=n_steps,
            n_maps=n_maps,
            master_seed=seed,
            phi=float(phi),
            semantics=disorder.get("semantics", "bernoulli-uniform"),
            initial=initial,
            collect_qfi=experiment in ("qfi", "two-particle", "fit"),
            collect_distribution=experiment == "distribution",
            collect_variance=experiment == "variance",
            per_map_variance=per_map_variance,
            operator_order=raw.get("operator_order", PHASE_FIRST),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(experiment, ensemble, out_dir, output_format, plot, fit)


def load_config(path, **overrides):
    """Read and validate a JSON config file.

    The file must be valid on its own.  `overrides` are top-level keys, as
    set by `simulate`'s flags, that then replace the file's under the same
    rules.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    cfg = parse_config(raw)
    return parse_config({**raw, **overrides}) if overrides else cfg


def describe_ensemble(config, experiment, fit=None):
    """Canonical dict of the science-relevant parameters of a run.

    This is what gets hashed into output manifests: everything that can
    change the numbers, and nothing that cannot (output paths, worker
    counts, plot toggles).  Numbers are recorded as Python ints and
    floats, so p = 0 and p = 0.0, or numpy's and Python's 3, describe one
    run alike.
    """
    initial = {
        "kind": config.initial.kind,
        "position": int(config.initial.position),
        "coin": [
            [config.initial.coin[0].real, config.initial.coin[0].imag],
            [config.initial.coin[1].real, config.initial.coin[1].imag],
        ],
    }
    desc = {
        "experiment": experiment,
        "disorder": {
            "kind": config.kind,
            "p": float(config.p),
            "semantics": config.semantics,
        },
        "steps": int(config.n_steps),
        "maps": int(config.n_maps),
        "phi": float(config.phi),
        "seed": int(config.master_seed),
        "initial": initial,
        "operator_order": config.operator_order,
    }
    if config.per_map_variance:
        desc["per_map_variance"] = True
    if fit is not None:
        desc["fit"] = dict(fit)
    return desc
