#!/usr/bin/env python3
"""dmdkit benchmark: time to a certified spectrum, closed loop, one caller.

    python3 bench/run.py --workload refine-large --seed 1 --seconds 15 --trace 0

Runs one workload (see harness.WORKLOADS and bench/README.md) from the root
of a source checkout, importing dmdkit from ./src.  Every iteration starts
only after the previous one and its check have finished.  Each output is
checked against the ground-truth operator outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced iterations with traced, recomposed
ones (bench/tracing.py) and reports per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are a readable
summary, the environment and, when tracing, every layer number measured.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# A seed kept out of tuning, for confirming a claimed gain on fresh inputs.
HELD_OUT_SEED = 7919
# Set-ups per run, each in a cold interpreter, whose median is setup_s.
SETUP_REPEATS = 3
WORKLOADS = ("refine-large", "tall-cli", "variant-sweep")

END_TO_END = {
    "setup_s": "s",
    "decompose_s": "s",
    "pairs_per_s": "pairs/s",
    "peak_mem_ratio": "ratio",
    "pass_frac": "ratio",
}
# Layer metrics measured on every workload; the rest of the traced layer
# numbers are printed on the "layers" line only.
PER_LAYER = {
    "ritz.refine_s": "s",
    "ritz.refine_ms_per_call": "ms",
    "ritz.refine_calls": "count",
    "ritz.qr_stack_s": "s",
    "ritz.qr_stack_peak_mib": "MiB",
    "ritz.action_s": "s",
    "ritz.eig_s": "s",
    "pod.svd_s": "s",
    "pod.svd_peak_mib": "MiB",
    "pod.rank": "count",
    "snapshots.scale_s": "s",
    "snapshots.scale_peak_mib": "MiB",
    "variants.lift_s": "s",
    "variants.package_s": "s",
    "blas.cpu_util": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.faithful": "flag",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement time of the run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas_threads():
    """Pin BLAS to one thread per available core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    # The refinement worker pool stays at its default (off).
    os.environ.pop("DMD_NUM_THREADS", None)
    return nproc


def median(values):
    return float(statistics.median(values)) if values else 0.0


def supported_percentile(n):
    """Highest percentile with at least ten samples beyond it, if any."""
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            return p
    return None


def set_up(harness, workload, seed, workdir, import_s, stats):
    """Seeded inputs and one warm-up iteration.  Returns the inputs, the set-up
    time (import, input generation and warm-up) and its three parts."""
    clock = time.perf_counter
    t0 = clock()
    inp = workload.generate(seed, workdir)
    generate_s = clock() - t0
    t0 = clock()
    warm = harness.attempt(workload, inp, stats)
    warm_s = warm.seconds if warm is not None else clock() - t0
    parts = (import_s, generate_s, warm_s)
    return inp, sum(parts), parts


def set_up_in_subprocess(args):
    """Set-up time of a fresh interpreter: cold import and a cold first call."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def measure(harness, workload, seed, seconds, workdir, import_s, other_setups=()):
    """End-to-end metrics of one run, and the summary lines to print.

    ``setup_s`` is the median of this process's set-up and ``other_setups``,
    the set-up times of fresh interpreters on the same inputs.
    """
    stats = harness.Stats()
    inp, own_setup_s, parts = set_up(harness, workload, seed, workdir, import_s, stats)
    setups = [own_setup_s, *other_setups]
    setup_s = median(setups)

    probe = harness.attempt(workload, inp, stats, memory=True)
    peak = probe.peak_bytes if probe is not None else 0
    done = harness.closed_loop(workload, inp, seconds, stats)
    times = [d.seconds for d in done]
    metrics = {
        "setup_s": setup_s,
        "decompose_s": median(times),
        "pairs_per_s": median([d.pairs / d.seconds for d in done]),
        "peak_mem_ratio": peak / inp.input_bytes,
        "pass_frac": (stats.attempted - stats.failed) / stats.attempted,
    }
    p = supported_percentile(len(times))
    tail = ("p%d %.4f s" % (p, statistics.quantiles(times, n=100)[p - 1]) if p
            else "no percentile has ten samples beyond it")
    lines = [
        "setup_s        %.4f s  (median of %d cold set-ups: %s; this process: import %.3f, "
        "input generation %.3f, warm-up %.3f)"
        % (setup_s, len(setups), ", ".join("%.3f" % x for x in setups), *parts),
        "decompose_s    %.4f s  (median of %d timed iterations; %s)" % (metrics["decompose_s"], len(times), tail),
        "pairs_per_s    %.3f pairs/s" % metrics["pairs_per_s"],
        "peak_mem_ratio %.3f ratio  (%.1f MiB peak over %.1f MiB of input)"
        % (metrics["peak_mem_ratio"], peak / 2**20, inp.input_bytes / 2**20),
        "failed_frac    %.4f ratio  (%d of %d iterations failed)"
        % (stats.failed / stats.attempted, stats.failed, stats.attempted),
    ]
    return stats, metrics, lines


def trace(harness, tracing, workload, seed, seconds, workdir):
    """Per-layer metrics: medians over rounds of one untraced and one traced
    iteration each."""
    stats = harness.Stats()
    inp = workload.generate(seed, workdir)
    harness.attempt(workload, inp, stats)
    rounds = []
    start = time.perf_counter()
    while True:
        ref = harness.attempt(workload, inp, stats)
        if ref is not None:
            tracer = tracing.Tracer()
            stats.attempted += 1
            tracemalloc.start()
            try:
                faithful = workload.traced(inp, tracer, ref.out)
            except Exception as exc:  # noqa: BLE001 - counted, like any failed iteration
                stats.failed += 1
                stats.errors.append("traced: %s: %s" % (type(exc).__name__, exc))
                faithful = False
            finally:
                tracemalloc.stop()
            layers = tracing.layer_metrics(tracer)
            layers["trace.faithful"] = float(faithful)
            layers["trace.overhead_s"] = tracing.iteration_seconds(tracer) - ref.seconds
            layers["blas.cpu_util"] = ref.cpu_seconds / ref.seconds
            rounds.append(layers)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {name: median([r[name] for r in rounds]) for name in (rounds[0] if rounds else ())}
    if rounds:
        metrics["trace.faithful"] = min(r["trace.faithful"] for r in rounds)
    lines = ["traced rounds  %d" % len(rounds),
             "layers " + json.dumps(metrics, sort_keys=True)]
    return stats, metrics, lines


def environment(seed, nproc):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_lines = 0
    pkg = os.path.join(SRC, "dmdkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": nproc,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": nproc,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None):
    t0 = time.perf_counter()
    args = parse_args(argv)
    nproc = pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "dmdkit", "__init__.py")):
        print("bench: no dmdkit sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    import tracing

    import_s = time.perf_counter() - t0
    workload = harness.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        if args.setup_only:
            _, setup_s, _ = set_up(harness, workload, args.seed, workdir, import_s, harness.Stats())
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            stats, metrics, lines = trace(harness, tracing, workload, args.seed, args.seconds, workdir)
            units = PER_LAYER
        else:
            others = [set_up_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)]
            stats, metrics, lines = measure(harness, workload, args.seed, args.seconds, workdir, import_s, others)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("workload %s  seed %d  seconds %g  trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    for line in lines:
        print(line)
    for err in stats.errors:
        print("failure: " + err)
    print("env " + json.dumps(environment(args.seed, nproc), sort_keys=True))
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
