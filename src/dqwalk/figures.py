"""Named experiment presets bundling config, outputs and plots.

Each preset runs one reference panel end to end: build the ensemble, write
the data files (with embedded manifests), fit the scaling exponents that the
panel is about, and render an SVG through the one plot of each series kind
(`qfi_plot`, `variance_plot`, `density_plot`), which `simulate --plot`
draws through as well.  Disordered presets default to 1000 maps,
which reproduces every exponent well inside its stated tolerance on a laptop;
--paper-scale raises that to the full 10000-map ensembles.  A panel builds
the config of every ensemble it runs before the first one runs, so a size
`EnsembleConfig` refuses stops the preset as a ConfigError before any
ensemble has run or any file is written.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field

from .analysis import fit_power_law, windowed_alpha
from .config import describe_ensemble
from .ensemble import (
    EnsembleConfig,
    InitialStateSpec,
    pool_scope,
    run_ensemble,
    share_maps,
)
from .errors import ConfigError
from .output import (
    alpha_columns,
    build_manifest,
    distribution_columns,
    qfi_columns,
    variance_columns,
    write_manifest,
    write_series,
    write_text,
)
from .svgplot import heatmap, line_plot
from .twoparticle import TwoParticleExperiment, run_two_particle, separable_reference

DESK_MAPS = 1000
PAPER_MAPS = 10000

_BALANCED = (complex(1 / math.sqrt(2.0)), complex(1 / math.sqrt(2.0)))


@dataclass
class FigureResult:
    name: str
    files: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)


class _Job:
    """Shared knobs for one reproduce invocation, and the runs it made."""

    def __init__(self, name, out_dir, paper_scale=False, maps=None, seed=0,
                 fmt="csv", workers=None):
        self.name = name
        self.out_dir = out_dir
        self.scale = PAPER_MAPS if paper_scale else DESK_MAPS
        self.maps_override = maps
        self.seed = seed
        self.fmt = fmt
        self.workers = workers
        self.result = FigureResult(name)
        self.runs = []

    def n_maps(self, p):
        if p == 0:
            return 1
        return self.scale if self.maps_override is None else self.maps_override

    def config(self, kind, p, n_steps, **collect):
        """One single-walker ensemble at this job's size and seed."""
        return _refused(EnsembleConfig, kind=kind, p=p, n_steps=n_steps,
                        n_maps=self.n_maps(p), master_seed=self.seed,
                        **collect)

    def manifest(self, config, experiment, fit_range=None, **extras):
        """The manifest of one run of `config`, naming this figure, with
        `extras`; kept for `emit_manifest`."""
        fit = None if fit_range is None else dict(zip(("t_min", "t_max"), fit_range))
        manifest = build_manifest(describe_ensemble(config, experiment, fit=fit),
                                  figure=self.name, **extras)
        self.runs.append(manifest)
        return manifest

    def path(self, suffix):
        return os.path.join(self.out_dir, f"{self.name}_{suffix}")

    def emit_series(self, stem, columns, manifest):
        self.result.files.append(
            write_series(self.path(stem), self.fmt, manifest, columns)
        )

    def emit_svg(self, stem, svg):
        path = self.path(stem + ".svg")
        write_text(path, svg)
        self.result.files.append(path)

    def emit_manifest(self):
        path = self.path("manifest.json")
        write_manifest(path, {"figure": self.name, "runs": self.runs})
        self.result.files.append(path)


def _refused(build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError raised as ConfigError: a
    config a preset cannot run is the caller's arguments at fault."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# One plot per series kind, for `reproduce` and `simulate --plot` alike.
# Curves are (steps, values, label).  A log axis starts past the zeros:
# F(0) = 0, F(1) = 0 for a walker started in one coin state, Var(x) = 0 at
# t = 0.

def qfi_plot(title, curves):
    """Log-log QFI curves from t = 2."""
    return line_plot([(t[2:], f[2:], label) for t, f, label in curves],
                     title=title, xlabel="step t", ylabel="QFI",
                     log_x=True, log_y=True)


def variance_plot(title, curves):
    """Log-log spreading-variance curves from t = 1."""
    return line_plot([(t[1:], v[1:], label) for t, v, label in curves],
                     title=title, xlabel="step t", ylabel="Var(x)",
                     log_x=True, log_y=True)


def density_plot(title, series):
    """Heatmap of an ensemble's mean position distribution over (x, t)."""
    return heatmap(series.distribution, series.positions, series.steps,
                   title=title, xlabel="position x", ylabel="step t")


def _label(kind, p):
    return f"{kind} p={p:g}" if p > 0 else "ordered"


def _slug(kind, p):
    return "ordered" if kind == "none" else f"{kind}_p{p:g}"


def _single_qfi_panel(job, kind, p, n_steps, fit_range):
    cfg = job.config(kind, p, n_steps)
    series = run_ensemble(cfg, workers=job.workers)
    fit = job.result.fits["qfi"] = fit_power_law(series.qfi_mean, *fit_range)
    manifest = job.manifest(cfg, "qfi", fit_range, fit=asdict(fit))
    job.emit_series("qfi", qfi_columns(series), manifest)
    job.emit_svg("qfi", qfi_plot(
        f"{job.name}: QFI, alpha[{fit.t_min},{fit.t_max}] = {fit.alpha:.3f}",
        [(series.steps, series.qfi_mean, _label(kind, p))],
    ))


def _alpha_panel(job, kind, p, n_steps, window):
    cfg = job.config(kind, p, n_steps)
    series = run_ensemble(cfg, workers=job.workers)
    alpha = windowed_alpha(series.qfi_mean, window=window)
    manifest = job.manifest(cfg, "qfi", window=window)
    job.emit_series("qfi", qfi_columns(series), manifest)
    job.emit_series("alpha", alpha_columns(alpha), manifest)
    job.emit_svg("qfi", qfi_plot(
        f"{job.name}: QFI", [(series.steps, series.qfi_mean, _label(kind, p))]
    ))
    job.emit_svg("alpha", line_plot(
        [(alpha.centers, alpha.alphas, f"window {window}")],
        title=f"{job.name}: local exponent", xlabel="window center t",
        ylabel="alpha(t)",
    ))


def _two_particle_panel(job, kind, p, n_steps):
    curves = []
    experiments = [
        _refused(TwoParticleExperiment, statistics, kind, p, n_steps,
                 job.n_maps(p), master_seed=job.seed)
        for statistics in ("separable", "boson", "fermion")
    ]
    for exp in experiments:
        statistics = exp.statistics
        series = run_two_particle(exp, workers=job.workers)
        manifest = job.manifest(series.config, "two-particle",
                                statistics=statistics)
        job.emit_series(f"qfi_{statistics}", qfi_columns(series), manifest)
        curves.append((series.steps, series.qfi_mean, statistics))
        if statistics == "separable":
            reference = separable_reference(exp, workers=job.workers)
            curves.append((series.steps, reference, "single-walker sum"))
    job.emit_svg("qfi", qfi_plot(
        f"{job.name}: joint QFI ({_label(kind, p)})", curves
    ))


# the five disorder panels of the distribution and variance scans
_SCAN = (
    ("none", 0.0), ("static", 0.1), ("static", 1.0),
    ("dynamic", 0.1), ("dynamic", 1.0),
)


def _scan(job, n_steps, **collect):
    """(kind, p, config) of each panel of a scan, all built up front.  The
    disordered panels' configs differ in (kind, p) alone, so they are
    announced as one map family: the first of them to run evolves all
    four from one map draw per member (`share_maps`)."""
    panels = [(kind, p, job.config(kind, p, n_steps, collect_qfi=False,
                                   initial=InitialStateSpec(coin=_BALANCED),
                                   **collect))
              for kind, p in _SCAN]
    share_maps([cfg for _, _, cfg in panels])
    return panels


def _distribution_panels(job, n_steps):
    for kind, p, cfg in _scan(job, n_steps, collect_distribution=True):
        series = run_ensemble(cfg, workers=job.workers)
        slug = _slug(kind, p)
        job.emit_series(f"distribution_{slug}", distribution_columns(series),
                        job.manifest(cfg, "distribution"))
        job.emit_svg(f"distribution_{slug}", density_plot(
            f"{job.name}: walker density ({slug})", series
        ))


def _variance_panels(job, n_steps):
    curves = {"static": [], "dynamic": []}
    for kind, p, cfg in _scan(job, n_steps, collect_variance=True):
        series = run_ensemble(cfg, workers=job.workers)
        slug = _slug(kind, p)
        fit = job.result.fits[slug] = fit_power_law(series.variance, 10, n_steps)
        job.emit_series(
            f"variance_{slug}", variance_columns(series.steps, series.variance),
            job.manifest(cfg, "variance", fit=asdict(fit)),
        )
        label = "ordered" if kind == "none" else f"p = {p:g}"
        # the ordered curve is drawn on both plots
        for plot in curves if kind == "none" else (kind,):
            curves[plot].append((series.steps, series.variance, label))
    for kind, plot_curves in curves.items():
        job.emit_svg(f"variance_{kind}", variance_plot(
            f"{job.name}: spreading variance ({kind} disorder)", plot_curves
        ))


# preset -> (panel function, its parameters)
FIGURES = {
    "fig2a": (_single_qfi_panel,
              {"kind": "none", "p": 0.0, "n_steps": 100, "fit_range": (10, 100)}),
    "fig2b": (_single_qfi_panel,
              {"kind": "dynamic", "p": 0.1, "n_steps": 50, "fit_range": (10, 50)}),
    "fig2c-static": (_single_qfi_panel,
                     {"kind": "static", "p": 1.0, "n_steps": 50, "fit_range": (10, 50)}),
    "fig2c-dynamic": (_single_qfi_panel,
                      {"kind": "dynamic", "p": 1.0, "n_steps": 50, "fit_range": (10, 50)}),
    "fig3": (_alpha_panel,
             {"kind": "static", "p": 1.0, "n_steps": 100, "window": 20}),
    "fig4a": (_two_particle_panel, {"kind": "none", "p": 0.0, "n_steps": 50}),
    "fig4b": (_two_particle_panel, {"kind": "static", "p": 1.0, "n_steps": 50}),
    "fig4c": (_two_particle_panel, {"kind": "dynamic", "p": 1.0, "n_steps": 50}),
    "fig5": (_distribution_panels, {"n_steps": 50}),
    "fig6": (_variance_panels, {"n_steps": 100}),
}


def reproduce_figure(name, out_dir, paper_scale=False, maps=None, seed=0,
                     fmt="csv", workers=None):
    """Run one named preset; returns the FigureResult with the written paths."""
    if name not in FIGURES:
        known = ", ".join(sorted(FIGURES))
        raise ValueError(f"unknown figure {name!r}; available: {known}")
    job = _Job(name, out_dir, paper_scale=paper_scale, maps=maps, seed=seed,
               fmt=fmt, workers=workers)
    panel, params = FIGURES[name]
    # one pool for all of the preset's ensembles, joined before the return
    with pool_scope():
        panel(job, **params)
    job.emit_manifest()
    return job.result

