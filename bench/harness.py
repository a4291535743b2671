"""Workloads, ground truth and the closed measurement loop of the benchmark.

Every input is built from a seed as X = Q G and Y = Q A_r G, where Q is an
n x r matrix with orthonormal columns and A_r a small oracle operator from
``dmdkit.verify.make_oracle``.  The true operator A = Q A_r Q^T is applied
in O(n r) and never formed.  With r > m the span of X is not invariant
under A, so every certificate the pipelines report is nontrivial and can be
checked against ||A z - lambda z|| computed from A itself.

Checking always runs outside the timed region.
"""

import filecmp
import json
import os
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from dmdkit import (
    InnerProduct,
    SnapshotPair,
    ddmd_rrr,
    ddmd_rrr_auto,
    dmd,
    exact_dmd,
    fb_dmd_mrf,
    load_matrix,
    match_eigenvalues,
    store_matrix,
    two_sided_weighted_dmd,
    weighted_dmd,
)
from dmdkit.cli import main as cli_main
from dmdkit.verify import make_oracle

import tracing

# |r_i - true_i| <= REL_TOL * true_i + ABS_TOL for every reported residual.
# The relative part is acceptance criterion 1's tolerance.  The absolute part
# keeps roundoff in the true residual itself, summed over n ~ 1e5 rows, from
# failing pairs whose residual is tiny.
REL_TOL = 1e-6
ABS_TOL = 1e-12

# Extra oracle dimensions beyond the snapshot count: r = m + EXTRA_DIMS > m
# keeps range(X) from being invariant, so residuals stay far from zero.
EXTRA_DIMS = 8
CONDITIONING = 40.0


class CheckFailed(Exception):
    """An output disagrees with the ground truth or with itself."""


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def band_spectrum(r, lo=0.9, hi=1.0):
    """Conjugate-closed spectrum, moduli spread over [lo, hi], angles equispaced.

    The same for every seed: Krylov matrices of a trajectory under it keep
    full numerical rank, so every seed of a workload decomposes at the same
    rank and does the same amount of work.
    """
    p = r // 2
    vals = np.linspace(lo, hi, p) * np.exp(1j * np.pi * (np.arange(p) + 0.5) / p)
    spec = np.full(r, 0.5 * (lo + hi), dtype=complex)
    spec[: 2 * p : 2] = vals
    spec[1 : 2 * p : 2] = vals.conj()
    return spec


def orthonormal_columns(rng, n, r):
    """Random n x r matrix with orthonormal columns.

    Two passes of Cholesky QR: a tall Gaussian block is within a few percent
    of orthonormal already, so this is as accurate as Householder QR and
    an order of magnitude faster for n in the hundred thousands.
    """
    Q = rng.standard_normal((n, r))
    for _ in range(2):
        L = np.linalg.cholesky(Q.T @ Q)
        Q = Q @ np.linalg.inv(L).T
    return Q


class Truth:
    """The operator A = Q A_r Q^T, applied without forming the n x n matrix."""

    def __init__(self, n, r, rng, seed):
        self.Ar = make_oracle(r, spectrum=band_spectrum(r), conditioning=CONDITIONING, seed=seed).A
        self.Q = orthonormal_columns(rng, n, r)

    def apply(self, Z):
        """A Z for a C-contiguous complex Z.  A is real, so it acts on the
        interleaved real and imaginary columns of Z viewed as float64, and the
        tall Q is never promoted to complex."""
        Zr = Z.view(np.float64)
        return (self.Q @ (self.Ar @ (self.Q.T @ Zr))).view(complex)


def check_certificates(truth, lambdas, vectors, residuals, weight=None):
    """Compare each reported residual with ||A z - lambda z|| (in the weight's norm).

    Every residual must be finite and every vector present.  Returns the
    number of certified pairs; raises :class:`CheckFailed` otherwise.
    """
    lambdas = np.asarray(lambdas, dtype=complex)
    residuals = np.asarray(residuals, dtype=np.float64)
    if vectors.shape[1] != lambdas.shape[0] or residuals.shape != lambdas.shape:
        raise CheckFailed("%d values, %d residuals, %d vectors"
                          % (lambdas.shape[0], residuals.shape[0], vectors.shape[1]))
    if not np.all(np.isfinite(residuals)):
        raise CheckFailed("a certified pipeline reported a non-finite residual")
    chunk = 32  # columns at a time, to bound the memory of the tall products
    for j in range(0, lambdas.shape[0], chunk):
        Z = np.ascontiguousarray(vectors[:, j : j + chunk], dtype=complex)
        if not np.all(np.isfinite(Z)):
            raise CheckFailed("pair %d..%d has no vector" % (j, j + Z.shape[1] - 1))
        R = truth.apply(Z) - Z * lambdas[None, j : j + chunk]
        if weight is not None:
            R = weight.transform(R)
        true = np.linalg.norm(R, axis=0)
        got = residuals[j : j + chunk]
        bad = np.flatnonzero(np.abs(got - true) > REL_TOL * true + ABS_TOL)
        if bad.size:
            i = int(bad[0])
            raise CheckFailed("pair %d: reported residual %.17g, true %.17g" % (j + i, got[i], true[i]))
    return int(lambdas.shape[0])


def check_decomposition(truth, dec):
    return check_certificates(truth, dec.lambdas, dec.vectors, dec.residuals, dec.weight)


# ---------------------------------------------------------------------------
# Workloads.  Each builds its inputs from a seed, runs one iteration, checks
# an iteration's output and runs one traced, recomposed iteration.


@dataclass
class Inputs:
    truth: Truth
    input_bytes: int
    data: dict = field(default_factory=dict)


class RefineLarge:
    """ddmd_rrr on an in-memory general pair; the refinement loop dominates."""

    name = "refine-large"

    def __init__(self, n=10000, m=120):
        self.n, self.m = n, m

    def generate(self, seed, workdir):
        rng = rng_for(seed)
        truth = Truth(self.n, self.m + EXTRA_DIMS, rng, seed)
        G = rng.standard_normal((self.m + EXTRA_DIMS, self.m))
        pair = SnapshotPair(truth.Q @ G, truth.Q @ (truth.Ar @ G))
        return Inputs(truth, pair.X.nbytes + pair.Y.nbytes, {"pair": pair})

    def iterate(self, inp):
        pair = inp.data["pair"]
        return ddmd_rrr(pair.X, pair.Y)

    def check(self, inp, dec):
        return check_decomposition(inp.truth, dec)

    def traced(self, inp, tracer, reference):
        pair = inp.data["pair"]
        dec = tracing.ddmd_rrr(tracer, pair.X, pair.Y)
        return tracing.same_decomposition(dec, reference)


class TallCli:
    """The disk-to-disk CLI route on a tall trajectory, compressed variant."""

    name = "tall-cli"
    CAP = 1e-6

    def __init__(self, n=150000, m=80):
        self.n, self.m = n, m

    def generate(self, seed, workdir):
        rng = rng_for(seed)
        r = self.m + EXTRA_DIMS
        truth = Truth(self.n, r, rng, seed)
        G = np.empty((r, self.m + 1))
        G[:, 0] = rng.standard_normal(r)
        G[:, 0] /= np.linalg.norm(G[:, 0])
        for j in range(self.m):
            G[:, j + 1] = truth.Ar @ G[:, j]
        F = truth.Q @ G
        paths = {name: os.path.join(workdir, name)
                 for name in ("traj.dmm", "report.json", "modes.dmm", "modes-recomposed.dmm")}
        store_matrix(F, paths["traj.dmm"])
        return Inputs(truth, F.nbytes, paths)

    def argv(self, inp):
        return ["decompose", "--seq", inp.data["traj.dmm"], "--variant", "rrr-compressed",
                "--select-cap", repr(self.CAP), "--dt", "0.01",
                "--out", inp.data["report.json"], "--modes-out", inp.data["modes.dmm"]]

    def iterate(self, inp):
        rc = cli_main(self.argv(inp))
        if rc != 0:
            raise CheckFailed("dmdkit decompose exited with code %d" % rc)

    def remove_outputs(self, inp):
        for name in ("report.json", "modes.dmm", "modes-recomposed.dmm"):
            if os.path.exists(inp.data[name]):
                os.remove(inp.data[name])

    def check(self, inp, _):
        try:
            with open(inp.data["report.json"]) as fh:
                report = json.load(fh)
            modes = load_matrix(inp.data["modes.dmm"])
        finally:
            self.remove_outputs(inp)
        meta, records = report["meta"], report["records"]
        if (meta["n"], meta["m"], meta["k"]) != (self.n, self.m, len(records)):
            raise CheckFailed("report meta %r disagrees with %d records" % (meta, len(records)))
        if modes.shape != (self.n, len(records)):
            raise CheckFailed("modes file is %r for %d records" % (modes.shape, len(records)))
        residuals = np.array([rec["residual"] for rec in records], dtype=np.float64)
        if any(rec["selected"] != (rec["residual"] <= self.CAP) for rec in records):
            raise CheckFailed("selection flags disagree with the residual cap")
        lambdas = np.array([complex(rec["lambda_re"], rec["lambda_im"]) for rec in records])
        return check_certificates(inp.truth, lambdas, modes, residuals)

    def traced(self, inp, tracer, reference):
        with tracer.span("cli.main", kind="opaque"):
            self.iterate(inp)
        try:
            dec = tracing.compressed_cli_route(tracer, inp.data["traj.dmm"], inp.data["modes-recomposed.dmm"])
            with open(inp.data["report.json"]) as fh:
                records = json.load(fh)["records"]
            same_modes = filecmp.cmp(inp.data["modes.dmm"], inp.data["modes-recomposed.dmm"], shallow=False)
        finally:
            self.remove_outputs(inp)
        return (
            same_modes
            and len(records) == dec.k
            and all(rec["lambda_re"] == lam.real and rec["lambda_im"] == lam.imag and rec["residual"] == res
                    for rec, lam, res in zip(records, dec.lambdas, dec.residuals))
        )


class VariantSweep:
    """One pass of six pipelines over one graded pair, all default configs."""

    name = "variant-sweep"

    def __init__(self, n=20000, m=60):
        self.n, self.m = n, m

    def generate(self, seed, workdir):
        rng = rng_for(seed)
        r = self.m + EXTRA_DIMS
        truth = Truth(self.n, r, rng, seed)
        G = rng.standard_normal((r, self.m)) * np.geomspace(1.0, 1e-3, self.m)[None, :]
        pair = SnapshotPair(truth.Q @ G, truth.Q @ (truth.Ar @ G))
        M = InnerProduct.diagonal(rng.uniform(0.5, 2.0, self.n))
        N = InnerProduct.diagonal(np.geomspace(1.0, 0.25, self.m))
        return Inputs(truth, pair.X.nbytes + pair.Y.nbytes, {"pair": pair, "M": M, "N": N})

    def iterate(self, inp):
        pair, M, N = inp.data["pair"], inp.data["M"], inp.data["N"]
        X, Y = pair.X, pair.Y
        return {
            "dmd": dmd(X, Y),
            "exact_dmd": exact_dmd(X, Y),
            "fb_dmd_mrf": fb_dmd_mrf(X, Y)[0],
            "ddmd_rrr_auto": ddmd_rrr_auto(pair),
            "weighted_dmd": weighted_dmd(X, Y, M),
            "two_sided_weighted_dmd": two_sided_weighted_dmd(X, Y, M, N),
        }

    def check(self, inp, out):
        if out["ddmd_rrr_auto"].variant != "rrr-compressed":
            raise CheckFailed("ddmd_rrr_auto took the %r route" % out["ddmd_rrr_auto"].variant)
        exact, ref = out["exact_dmd"], out["dmd"]
        if exact.k != ref.k or match_eigenvalues(exact.lambdas, ref.lambdas) > 1e-12 * np.abs(ref.lambdas).max():
            raise CheckFailed("exact_dmd Ritz values differ from dmd's")
        return sum(check_decomposition(inp.truth, dec) for name, dec in out.items() if name != "exact_dmd")

    def traced(self, inp, tracer, reference):
        pair, M, N = inp.data["pair"], inp.data["M"], inp.data["N"]
        X, Y = pair.X, pair.Y
        faithful = tracing.same_decomposition(tracing.dmd(tracer, X, Y), reference["dmd"])
        with tracer.span("variants.exact_dmd", kind="opaque"):
            exact_dmd(X, Y)
        with tracer.span("variants.fb_dmd_mrf", kind="opaque"):
            fb_dmd_mrf(X, Y)
        with tracer.span("variants.ddmd_rrr_auto", kind="opaque"):
            ddmd_rrr_auto(pair)
        dec = tracing.weighted_dmd(tracer, X, Y, M)
        faithful = faithful and tracing.same_decomposition(dec, reference["weighted_dmd"])
        with tracer.span("weighted.two_sided_weighted_dmd", kind="opaque"):
            two_sided_weighted_dmd(X, Y, M, N)
        return faithful


WORKLOADS = {w.name: w for w in (RefineLarge(), TallCli(), VariantSweep())}


# ---------------------------------------------------------------------------
# Measurement.


@dataclass
class Stats:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


@dataclass
class Done:
    seconds: float
    cpu_seconds: float
    pairs: int
    out: object
    peak_bytes: int = 0


def attempt(workload, inp, stats, clock=time.perf_counter, memory=False):
    """Run and check one iteration; only the run is timed.

    With ``memory``, tracemalloc runs around the iteration alone, and its
    peak above the pre-iteration level is kept; the check runs after
    tracemalloc has stopped, so its temporaries never count.

    Returns a :class:`Done`, or None when the pipeline raised or the check
    failed.  Any exception counts the iteration as failed; the loop must
    keep running, so the error is kept for the report instead of raised.
    """
    stats.attempted += 1
    try:
        peak = 0
        if memory:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0] if memory else 0
            c0, t0 = time.process_time(), clock()
            out = workload.iterate(inp)
            seconds, cpu_seconds = clock() - t0, time.process_time() - c0
            if memory:
                peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if memory:
                tracemalloc.stop()
        pairs = workload.check(inp, out)
    except Exception as exc:  # noqa: BLE001 - a benchmark boundary counts every failure
        stats.failed += 1
        stats.errors.append("%s: %s" % (type(exc).__name__, exc))
        return None
    return Done(seconds, cpu_seconds, pairs, out, peak)


def closed_loop(workload, inp, seconds, stats, clock=time.perf_counter):
    """One caller; each iteration starts only after the previous one and its
    check have finished.  Runs at least once, then until ``seconds`` have
    passed.  Returns the :class:`Done` record of every iteration that passed."""
    done = []
    start = clock()
    while True:
        d = attempt(workload, inp, stats, clock)
        if d is not None:
            done.append(d)
        if clock() - start >= seconds:
            return done
