"""One benchmark member: a fresh interpreter that runs `dqwalk reproduce`.

    python3 perfbench/child.py --t0 T --result R.json --out DIR [--spans S.jsonl] -- reproduce ...

It imports dqwalk from `src/`, wraps `run_ensemble` wherever dqwalk looks it
up (to time set-up and the ensembles), and calls `dqwalk.cli.main` with the
arguments after `--`, which is the path a user's `dqwalk reproduce` takes.
With `--spans` it also wraps every public layer function listed in LAYERS,
records one span per call, writes the spans to that file after the run and
puts the per-layer totals in the result.  `--t0` is the parent's
`time.monotonic()` just before it started this process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time

from tracing import Tracer, summarize

# module -> public functions that get a span each; the span is "module.func".
# Some are not reported as metrics; they are wrapped so that their time is
# not counted as self time of the figure code that calls them.
LAYERS = {
    "figures": ["reproduce_figure"],
    "twoparticle": ["run_two_particle", "separable_reference"],
    "ensemble": ["run_ensemble"],
    "disorder": ["generate_map"],
    "operators": [
        "step", "step_with_derivative",
        "two_particle_step", "two_particle_step_with_derivative",
    ],
    "metrology": ["qfi_pure"],
    "observables": ["position_distribution"],
    "analysis": ["fit_power_law", "windowed_alpha"],
    "config": ["describe_ensemble"],
    "output": ["build_manifest", "write_csv", "write_json", "write_manifest", "write_text"],
    "svgplot": ["line_plot", "heatmap"],
}


def cpu_seconds():
    """User+sys time of this process and of its children that have been reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def rebind(original, replacement):
    """Replace `original` in every dqwalk namespace that binds it.

    Callers look layer functions up in their own module's globals, so the
    wrapper has to sit there, not only in the defining module.
    """
    for name, module in list(sys.modules.items()):
        if name != "dqwalk" and not name.startswith("dqwalk."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def ipc_bytes(config, workers):
    """Bytes of member results a pool ships back, computed from array sizes.

    Mirrors what `_run_member` returns: the QFI row, the (n+1, W)
    distribution stack and the own-variance row, each float64.
    """
    n_maps = config.n_maps
    if min(workers or 1, n_maps) <= 1:
        return 0
    rows = config.n_steps + 1
    width = 2 * config.t_max + 1
    per_member = 0
    if config.collect_qfi:
        per_member += rows * 8
    if config.collect_distribution or config.collect_variance:
        per_member += rows * width * 8
    if config.per_map_variance:
        per_member += rows * 8
    return n_maps * per_member


class EnsembleProbe:
    """Times every `run_ensemble` call at the worker count the caller asked for."""

    def __init__(self):
        self.first_entry = None
        self.calls = []

    def wrap(self, fn):
        @functools.wraps(fn)
        def probed(config, *args, **kwargs):
            if self.first_entry is None:
                self.first_entry = time.monotonic()
            workers = args[0] if args else kwargs.get("workers")
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                return fn(config, *args, **kwargs)
            finally:
                self.calls.append({
                    "wall_s": time.perf_counter() - t0,
                    "cpu_s": cpu_seconds() - cpu0,
                    "member_steps": config.n_maps * config.n_steps,
                    "ipc_bytes": ipc_bytes(config, workers),
                })

        return probed


def install_tracer(tracer):
    """Wrap every function in LAYERS; returns the ones dqwalk does not define."""
    missing = []
    for mod_name, funcs in LAYERS.items():
        module = sys.modules.get("dqwalk." + mod_name)
        for func in funcs:
            original = getattr(module, func, None)
            if original is None:
                missing.append(f"{mod_name}.{func}")
                continue
            rebind(original, tracer.wrap(original, f"{mod_name}.{func}"))
    return missing


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--out", required=True, help="the reproduce --out directory")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    import dqwalk  # noqa: F401  (loads every layer module)
    import dqwalk.cli
    import dqwalk.ensemble

    probe = EnsembleProbe()
    rebind(dqwalk.ensemble.run_ensemble, probe.wrap(dqwalk.ensemble.run_ensemble))

    tracer = None
    missing = []
    if opts.spans:
        tracer = Tracer()
        missing = install_tracer(tracer)
    entry = dqwalk.cli.main
    if tracer is not None:
        entry = tracer.wrap(entry, "cli.main")

    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    code = entry(argv + ["--out", opts.out])
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": None if probe.first_entry is None else probe.first_entry - opts.t0,
        "peak_rss_mb": max(own, kids) / 1024.0,
        "ensembles": probe.calls,
        "bytes_written": dir_bytes(opts.out),
    }
    if tracer is not None:
        result["layers"] = summarize(tracer.spans())
        result["missing_layers"] = missing
        tracer.write(opts.spans, trace_id=" ".join(argv))
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
