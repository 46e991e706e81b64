"""dqwalk benchmark: `dqwalk reproduce` presets, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dqwalk checkout.  Each member of a run is a fresh
interpreter (perfbench/child.py) that imports dqwalk from `src/` and calls
`dqwalk.cli.main(["reproduce", PRESET, "--seed", ..., "--maps", ...,
"--workers", ..., "--out", ...])`, the same path a user's command takes.
Members run one after another until S seconds have passed (at least
MIN_MEMBERS of them); every member's outputs are checked (check.py), and the
run reports medians over its members.

Member 0 always uses reproduce seed 0 and is compared with the stored
reference series in perfbench/reference/; the other members use seeds drawn
from --seed, so the same --seed gives the same inputs.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics: spans from a traced member at --workers 1, pool figures from an
untraced member at the workload's worker count, and the tracing overhead
(traced minus untraced wall time, both at --workers 1).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it are a readable table and the machine facts.
--write-reference regenerates the reference series for a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
NPROC = len(os.sched_getaffinity(0))

# Removed from every member's environment so the program's own default
# threading is what gets measured, whatever the calling shell sets.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_MEMBERS = 3  # fewest members a median is taken over
HARD_LIMIT_S = 170.0  # a whole run must end within 180 s

# Why each workload: see perfbench/NOTES.md.
WORKLOADS = {
    # static p=1, T=100, QFI + windowed alpha, no pool: the single-walker
    # derivative step and qfi_pure do over 90% of the work
    "single-qfi": {"preset": "fig3", "maps": 200, "workers": 1},
    # five distribution panels, T=50: plain step, position_distribution,
    # pool IPC of (T+1, W) arrays, the largest CSVs and the heatmaps
    "distribution": {"preset": "fig5", "maps": 200, "workers": NPROC},
    # static p=1, T=50, separable/boson/fermion joint ensembles plus two
    # single-walker references: the (W,2,W,2) tensor step and its QFI
    "two-walker": {"preset": "fig4b", "maps": 2, "workers": NPROC},
}

# (name, unit) in the order printed; end-to-end with --trace 0
END_TO_END = [
    ("wall_s", "s"),
    ("member_steps_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# layer functions reported with calls and us_per_call under --trace 1
LAYER_FUNCS = [
    "disorder.generate_map",
    "operators.step",
    "operators.step_with_derivative",
    "operators.two_particle_step_with_derivative",
    "metrology.qfi_pure",
    "observables.position_distribution",
    "analysis.windowed_alpha",
    "ensemble.run_ensemble",
    "output.write_csv",
    "svgplot.heatmap",
    "svgplot.line_plot",
]
PER_LAYER = [(f"{f}.calls", "count") for f in LAYER_FUNCS] + [
    (f"{f}.us_per_call", "us") for f in LAYER_FUNCS
] + [
    ("ensemble.run_ensemble.self_s", "s"),
    ("figures.self_s", "s"),
    ("output.write_csv.s", "s"),
    ("svgplot.heatmap.s", "s"),
    ("svgplot.line_plot.s", "s"),
    ("output.bytes_written", "bytes"),
    ("ensemble.pool_wall_s", "s"),
    ("ensemble.pool_cpu_s", "s"),
    ("ensemble.ipc_bytes", "bytes"),
    ("tracing_overhead_s", "s"),
]


def member_seeds(seed):
    """Reproduce seeds for members 0, 1, ...: 0 (the reference), then drawn from `seed`."""
    rng = random.Random(seed)
    yield 0
    while True:
        yield rng.randrange(1, 2**31)


def reference_path(workload):
    return os.path.join(HERE, "reference", f"{workload}.json.gz")


def member_argv(workload, seed, workers):
    spec = WORKLOADS[workload]
    return ["reproduce", spec["preset"], "--seed", str(seed),
            "--maps", str(spec["maps"]), "--workers", str(workers)]


def reference_argv(workload):
    """What the reference outputs depend on; they do not depend on --workers."""
    return member_argv(workload, 0, 1)[:-2]


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def machine_facts():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env_set": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


@dataclass
class Member:
    """One finished member: its own measurements and the problems found."""

    index: int
    seed: int
    workers: int
    traced: bool
    sample: dict
    problems: list

    @property
    def ok(self):
        return not self.problems


def run_member(workload, index, seed, workers, traced, deadline):
    out_dir = os.path.join(OUT, workload, "member")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    result_path = os.path.join(OUT, workload, "member.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--result", result_path, "--out", out_dir]
    if traced:
        cmd += ["--spans", os.path.join(OUT, workload, "spans.jsonl")]
    argv = member_argv(workload, seed, workers)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0), "--"] + argv, cwd=ROOT, env=child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        problems = [] if proc.returncode == 0 else [
            f"exit {proc.returncode}: {err.decode(errors='replace').strip()[-500:]}"
        ]
    except subprocess.TimeoutExpired:
        problems = ["timed out"]
    finally:
        # the member's session also holds its pool workers
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sample = None
    if not problems:
        try:
            with open(result_path, encoding="utf-8") as fh:
                sample = json.load(fh)
        except (OSError, ValueError) as exc:
            return Member(index, seed, workers, traced, None, [f"no member result: {exc}"])
        if sample["setup_s"] is None:
            problems.append("run_ensemble was never called")
        reference = None
        if seed == 0:
            reference = check.load_reference(reference_path(workload))
            if reference["argv"] != reference_argv(workload):
                problems.append(f"reference made with {reference['argv']}, run is {argv}")
        problems += check.check_run(out_dir, reference)
    return Member(index, seed, workers, traced, sample, problems)


def run_members(workload, seed, seconds, plan):
    """Run members, cycling through `plan` ((workers, traced) pairs), for `seconds`."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    min_members = MIN_MEMBERS if len(plan) == 1 else len(plan)
    seeds = member_seeds(seed)
    members = []
    while time.monotonic() < deadline:
        for workers, traced in plan:
            members.append(run_member(workload, len(members), next(seeds),
                                      workers, traced, deadline))
        if time.monotonic() - start >= seconds and len(members) >= min_members:
            break
    return members


def median_of(members, fn):
    return statistics.median(fn(m.sample) for m in members)


def count_of(members, fn):
    """A count: the same in every member unless the run itself changed."""
    return statistics.median_low(fn(m.sample) for m in members)


def steps_per_s(sample):
    ens = sample["ensembles"]
    return sum(e["member_steps"] for e in ens) / sum(e["wall_s"] for e in ens)


# end-to-end metric -> its value in one member
MEMBER_VALUE = {
    "wall_s": lambda s: s["wall_s"],
    "member_steps_per_s": steps_per_s,
    "cpu_s": lambda s: s["cpu_s"],
    "setup_s": lambda s: s["setup_s"],
    "peak_rss_mb": lambda s: s["peak_rss_mb"],
}


def per_layer_metrics(traced, plain_w1, pooled):
    """Medians over traced members, pool figures over `pooled` members."""

    def layer(name, key):
        return median_of(traced, lambda s: s["layers"].get(name, {}).get(key, 0.0))

    def per_call(name):
        def fn(s):
            row = s["layers"].get(name)
            return row["total_s"] / row["calls"] * 1e6 if row else 0.0
        return median_of(traced, fn)

    out = {}
    for f in LAYER_FUNCS:
        out[f"{f}.calls"] = count_of(traced, lambda s: s["layers"].get(f, {}).get("calls", 0))
    for f in LAYER_FUNCS:
        out[f"{f}.us_per_call"] = per_call(f)
    out["ensemble.run_ensemble.self_s"] = layer("ensemble.run_ensemble", "self_s")
    out["figures.self_s"] = layer("figures.reproduce_figure", "self_s")
    out["output.write_csv.s"] = layer("output.write_csv", "total_s")
    out["svgplot.heatmap.s"] = layer("svgplot.heatmap", "total_s")
    out["svgplot.line_plot.s"] = layer("svgplot.line_plot", "total_s")
    out["output.bytes_written"] = count_of(traced, lambda s: s["bytes_written"])
    out["ensemble.pool_wall_s"] = median_of(
        pooled, lambda s: sum(e["wall_s"] for e in s["ensembles"]))
    out["ensemble.pool_cpu_s"] = median_of(
        pooled, lambda s: sum(e["cpu_s"] for e in s["ensembles"]))
    out["ensemble.ipc_bytes"] = count_of(
        pooled, lambda s: sum(e["ipc_bytes"] for e in s["ensembles"]))
    out["tracing_overhead_s"] = (median_of(traced, lambda s: s["wall_s"])
                                 - median_of(plain_w1, lambda s: s["wall_s"]))
    return out


def write_reference(workload):
    workers = WORKLOADS[workload]["workers"]
    out_dir = os.path.join(OUT, workload, "reference")
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = member_argv(workload, 0, workers) + ["--out", out_dir]
    subprocess.run([sys.executable, "-m", "dqwalk.cli"] + argv, cwd=ROOT,
                   env=child_env(), stdout=subprocess.DEVNULL, check=True)
    check.save_reference(reference_path(workload), reference_argv(workload), out_dir)
    print(f"wrote {reference_path(workload)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the workload's reference series and exit")
    opts = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dqwalk", "cli.py")):
        print(f"error: no dqwalk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if opts.write_reference:
        write_reference(opts.workload)
        return 0

    spec = WORKLOADS[opts.workload]
    real = spec["workers"]
    if opts.trace:
        plan = [(1, False), (1, True)]
        if real != 1:
            plan.insert(0, (real, False))
    else:
        plan = [(real, False)]
    members = run_members(opts.workload, opts.seed, opts.seconds, plan)

    failed = [m for m in members if not m.ok]
    for m in failed:
        print(f"member {m.index} (seed {m.seed}, workers {m.workers}"
              f"{', traced' if m.traced else ''}) failed: {'; '.join(m.problems[:5])}")
    if not all(any(m.ok and (m.workers, m.traced) == p for m in members) for p in plan):
        print("error: not enough successful members to report metrics", file=sys.stderr)
        return 1

    facts = machine_facts()
    good = [m for m in members if m.ok]
    print(f"# machine: {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {opts.workload}: {' '.join(member_argv(opts.workload, 'S', real))}; "
          f"{len(members)} members, seeds {[m.seed for m in members]}")
    if opts.trace:
        traced = [m for m in good if m.traced]
        plain_w1 = [m for m in good if not m.traced and m.workers == 1]
        pooled = [m for m in good if not m.traced and m.workers == real]
        metrics = per_layer_metrics(traced, plain_w1, pooled)
        names = PER_LAYER
        print(f"# wall_s at --workers 1: traced {median_of(traced, lambda s: s['wall_s']):.6g} s, "
              f"untraced {median_of(plain_w1, lambda s: s['wall_s']):.6g} s")
        for name, unit in names:
            print(f"{name:48s} {metrics[name]:14.6g} {unit}")
    else:
        metrics = {}
        names = END_TO_END
        for name, unit in names:
            values = [MEMBER_VALUE[name](m.sample) for m in good]
            metrics[name] = statistics.median(values)
            print(f"{name:48s} {metrics[name]:14.6g} {unit:6s} median "
                  f"(min {min(values):.6g}, max {max(values):.6g}, n={len(values)})")
    print(f"{'error_rate':48s} {len(failed) / len(members):14.6g} "
          f"       ({len(failed)} of {len(members)} members failed)")

    os.makedirs(os.path.join(OUT, opts.workload), exist_ok=True)
    with open(os.path.join(OUT, opts.workload, f"result_trace{opts.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({
            "machine": facts, "workload": opts.workload, "seed": opts.seed,
            "members": [asdict(m) for m in members],
            "metrics": metrics,
        }, fh, indent=1)

    print(json.dumps({
        "correct": not failed,
        "attempted": len(members),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
