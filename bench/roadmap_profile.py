#!/usr/bin/env python3
"""One-shot stage profile: the ROADMAP "Recent" tables and the compression crossover.

    python3 bench/roadmap_profile.py

Not a gated workload.  For each of the five ROADMAP cases, it runs the
pipeline once under tracemalloc (total time and peak memory over the input
trajectory's bytes) and once through the traced recomposition of
bench/tracing.py (where the time goes).  It then times ``ddmd_rrr`` against
``ddmd_rrr_compressed`` at n/(m+1) in {2, 4, 8, 16, 32} for a fixed m and
prints the measured crossover next to ``_COMPRESS_CROSSOVER``.  The inputs
are seeded Gaussian n x (m+1) trajectories, so the rank is k = m.  BLAS is
pinned to one thread per core, as in run.py.
"""

import json
import os
import statistics
import sys
import time

import run

CASES = (
    ("ddmd_rrr", 20000, 300),
    ("ddmd_rrr", 100000, 200),
    ("ddmd_rrr_compressed", 100000, 200),
    ("dmd", 100000, 200),
    ("ddmd_rrr", 1000, 99),
)
RATIOS = (2, 4, 8, 16, 32)
SEED = 1
CROSSOVER_M = 100
REPS = 5


def pipelines():
    import dmdkit
    import tracing

    def traced_compressed(tr, F):
        with tr.span("variants.ddmd_rrr_compressed", kind="pipeline"):
            return tracing.ddmd_rrr_compressed(tr, dmdkit.SequentialTrajectory(F))

    return {
        "ddmd_rrr": (lambda F: dmdkit.ddmd_rrr(F[:, :-1], F[:, 1:]),
                     lambda tr, F: tracing.ddmd_rrr(tr, F[:, :-1], F[:, 1:])),
        "ddmd_rrr_compressed": (lambda F: dmdkit.ddmd_rrr_compressed(dmdkit.SequentialTrajectory(F)),
                                traced_compressed),
        "dmd": (lambda F: dmdkit.dmd(F[:, :-1], F[:, 1:]),
                lambda tr, F: tracing.dmd(tr, F[:, :-1], F[:, 1:])),
    }


def stage_split(tracer, top=4):
    import tracing

    layers = tracing.layer_metrics(tracer)
    stages = sorted(((layers[name + "_s"], name) for name in tracing.STAGES), reverse=True)[:top]
    total = sum(s.seconds for s in tracer.spans if s.kind == "pipeline")
    return ", ".join("%s %.2f s (%.0f %%)" % (name, sec, 100 * sec / total) for sec, name in stages)


def profile_cases():
    import tracemalloc

    import harness
    import tracing

    table = {}
    print("| case | total (tracemalloc on) | where the time goes (traced recomposition) |")
    print("|---|---|---|")
    for name, n, m in CASES:
        F = harness.rng_for(SEED).standard_normal((n, m + 1))
        plain, traced = pipelines()[name]
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            plain(F)
            total = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracer = tracing.Tracer()
        traced(tracer, F)
        table[(name, n, m)] = peak / F.nbytes
        print("| `%s`, n=%d, m=%d | %.2f s | %s |" % (name, n, m, total, stage_split(tracer)), flush=True)
    print()
    print("| pipeline, input MiB | peak memory (tracemalloc) |")
    print("|---|---|")
    for (name, n, m), ratio in table.items():
        print("| `%s` n=%d m=%d, %.0f MiB | %.1f× input |" % (name, n, m, n * (m + 1) * 8 / 2**20, ratio))


def crossover():
    import harness
    import tracing
    from dmdkit.variants import _COMPRESS_CROSSOVER

    routes = pipelines()
    print()
    print("ddmd_rrr vs ddmd_rrr_compressed at m=%d, median of %d alternating runs each" % (CROSSOVER_M, REPS))
    print("| n/(m+1) | n | direct s | compressed s | direct minus refinement s | compressed minus refinement s |")
    print("|---|---|---|---|---|---|")
    rows = []
    for ratio in RATIOS:
        F = harness.rng_for(SEED).standard_normal((ratio * (CROSSOVER_M + 1), CROSSOVER_M + 1))
        times = {"ddmd_rrr": [], "ddmd_rrr_compressed": []}
        rest = {"ddmd_rrr": [], "ddmd_rrr_compressed": []}
        for rep in range(REPS):
            order = list(times) if rep % 2 == 0 else list(times)[::-1]
            for route in order:
                tracer = tracing.Tracer()
                t0 = time.perf_counter()
                routes[route][1](tracer, F)
                seconds = time.perf_counter() - t0
                times[route].append(seconds)
                rest[route].append(seconds - tracing.layer_metrics(tracer)["ritz.refine_s"])
        med = {k: statistics.median(v) for k, v in times.items()}
        med_rest = {k: statistics.median(v) for k, v in rest.items()}
        # A win counts only when the medians differ by more than the wider
        # quartile spread of the two routes.
        spread = max(_iqr(v) for v in times.values())
        rows.append((ratio, med["ddmd_rrr_compressed"] < med["ddmd_rrr"] - spread))
        print("| %d | %d | %.4f | %.4f | %.4f | %.4f |" % (
            ratio, F.shape[0], med["ddmd_rrr"], med["ddmd_rrr_compressed"],
            med_rest["ddmd_rrr"], med_rest["ddmd_rrr_compressed"]), flush=True)
    measured = None
    for i, (ratio, wins) in enumerate(rows):
        if all(w for _, w in rows[i:]):
            measured = ratio
            break
    print()
    print("measured crossover: %s; _COMPRESS_CROSSOVER = %d (auto compresses when n > %d (m+1))" % (
        "compressed wins beyond noise from n/(m+1) = %d on" % measured if measured
        else "none in the grid (no ratio from which compressed wins beyond noise at every larger ratio)",
        _COMPRESS_CROSSOVER, _COMPRESS_CROSSOVER))


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def main():
    nproc = run.pin_blas_threads()
    if not os.path.isfile(os.path.join(run.SRC, "dmdkit", "__init__.py")):
        print("roadmap_profile: no dmdkit sources under %s" % run.SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    print("env " + json.dumps(run.environment(SEED, nproc), sort_keys=True))
    profile_cases()
    crossover()
    return 0


if __name__ == "__main__":
    sys.exit(main())
