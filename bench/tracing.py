"""Outside-in stage trace: pipelines recomposed from dmdkit's public stages.

The library carries no instrumentation.  Instead, the pipelines named
below are rebuilt here, stage by stage, from the public functions they
call, with a span around each call:

* ``ddmd_rrr`` and the refined engine it shares with ``weighted_dmd`` and
  ``ddmd_rrr_compressed`` (default config: scaling on, every pair refined,
  no worker pool),
* the ``dmdkit decompose --variant rrr-compressed --seq`` route,
* ``dmd``,
* ``weighted_dmd``.

Each recomposition must return a result bit-identical to the pipeline's
own; :func:`same_decomposition` checks that, and the benchmark reports it
as ``trace.faithful``.  A span records wall time, self time (its time
minus that of its child spans) and the tracemalloc peak above its start.
"""

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from dmdkit import (
    RankPolicy,
    RefinedPair,
    RitzDecomposition,
    SequentialTrajectory,
    SnapshotPair,
    action_on_basis,
    data_driven_residuals,
    default_epsilon,
    load_matrix,
    order_pairs,
    qr_stack,
    rayleigh_from_qr,
    refine_ritz,
    refined_rayleigh_value,
    ritz_pairs,
    scale_columns,
    store_matrix,
    truncated_svd,
)

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    kind: str
    count: int
    start: float
    nbytes: int = 0
    end: float = 0.0
    children: float = 0.0
    start_mem: int = 0
    high_mem: int = 0

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_seconds(self):
        return self.seconds - self.children

    @property
    def peak_bytes(self):
        return self.high_mem - self.start_mem


@dataclass
class Tracer:
    """Spans kept in memory.  ``kind`` is ``stage`` for a public stage call,
    ``pipeline`` for a recomposed pipeline (its children are stages) and
    ``opaque`` for a pipeline timed as one call.

    Peaks need tracemalloc running; the benchmark starts it around a traced
    iteration.  Opening a span resets the tracemalloc peak, so the running
    high-water mark of every open span is folded in first.
    """

    spans: list = field(default_factory=list)
    _open: list = field(default_factory=list)

    def _fold_peak(self):
        peak = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0
        for s in self._open:
            s.high_mem = max(s.high_mem, peak)
        tracemalloc.reset_peak()

    @contextmanager
    def span(self, name, kind="stage", count=0):
        self._fold_peak()
        current = tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else 0
        s = Span(name, kind, count, start=time.perf_counter(), start_mem=current, high_mem=current)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._fold_peak()
            self._open.pop()
            if self._open:
                self._open[-1].children += s.seconds
            self.spans.append(s)


def same_decomposition(a, b):
    """Bit-identical Ritz values, vectors, residuals and ordering."""
    return (
        a.variant == b.variant
        and a.rank == b.rank
        and np.array_equal(a.ordering, b.ordering)
        and all(np.array_equal(x, y, equal_nan=True) for x, y in
                ((a.lambdas, b.lambdas), (a.vectors, b.vectors), (a.residuals, b.residuals)))
    )


def _default_policy(n, m):
    return RankPolicy.spectral(default_epsilon(n, m))


def _package(tr, lambdas, Z, residuals, refined, variant, rank, weight=None):
    with tr.span("variants.package"):
        lambdas = np.asarray(lambdas, dtype=complex)
        Z = np.asarray(Z, dtype=complex)
        residuals = np.asarray(residuals, dtype=np.float64)
        perm = order_pairs(residuals, lambdas)
        refined = refined if refined is not None else [None] * len(lambdas)
        return RitzDecomposition(
            lambdas=lambdas[perm],
            vectors=Z[:, perm],
            residuals=residuals[perm],
            refined=tuple(refined[i] for i in perm),
            ordering=perm,
            variant=variant,
            rank=int(rank),
            weight=weight,
        )


def refined_engine(tr, Gx, Gy, policy, variant, weight=None):
    """The refined Rayleigh-Ritz engine behind ddmd_rrr, weighted_dmd and the
    compressed route, with every pair refined."""
    with tr.span("snapshots.scale"):
        scaled, _ = scale_columns(SnapshotPair(Gx, Gy))
    with tr.span("pod.svd") as s:
        basis = truncated_svd(scaled.X, policy)
        s.count = basis.rank
    with tr.span("ritz.action"):
        B = action_on_basis(scaled.Y, basis.V, basis.sigma)
    with tr.span("ritz.qr_stack"):
        stack = qr_stack(basis.U, B)
        S = rayleigh_from_qr(stack)
    with tr.span("ritz.eig"):
        lambdas = np.linalg.eigvals(S)
    k = basis.rank
    with tr.span("ritz.refine", count=k):
        refined = []
        for lam in lambdas:
            w, sigma = refine_ritz(stack, lam)
            refined.append(RefinedPair(w=w, sigma_min=sigma, rho=refined_rayleigh_value(S, w)))
    W = np.column_stack([rec.w for rec in refined])
    residuals = np.array([rec.sigma_min for rec in refined])
    with tr.span("variants.lift"):
        Z = basis.U @ W
    if weight is not None:
        with tr.span("inner.lift"):
            Z = weight.lift(Z)
    return _package(tr, lambdas, Z, residuals, refined, variant, k, weight=weight)


def ddmd_rrr(tr, X, Y):
    with tr.span("variants.ddmd_rrr", kind="pipeline"):
        pair = SnapshotPair(X, Y)
        return refined_engine(tr, pair.X, pair.Y, _default_policy(*pair.X.shape), "rrr")


def ddmd_rrr_compressed(tr, traj):
    """ddmd_rrr_compressed on a trajectory: thin QR, engine on R, lift by Q."""
    policy = _default_policy(traj.n, traj.m)
    with tr.span("variants.compress"):
        Q, R = scipy.linalg.qr(traj.F, mode="economic")
    inner = refined_engine(tr, R[:, :-1], R[:, 1:], policy, "rrr-compressed")
    with tr.span("variants.lift"):
        vectors = Q @ inner.vectors
    return RitzDecomposition(
        lambdas=inner.lambdas,
        vectors=vectors,
        residuals=inner.residuals,
        refined=inner.refined,
        ordering=inner.ordering,
        variant="rrr-compressed",
        rank=inner.rank,
        weight=None,
    )


def compressed_cli_route(tr, seq_path, modes_path):
    """What ``dmdkit decompose --seq FILE --variant rrr-compressed --modes-out
    FILE`` computes, minus the JSON report."""
    with tr.span("cli.route_rrr_compressed", kind="pipeline"):
        with tr.span("matrixio.load") as s:
            F = load_matrix(seq_path)
            s.nbytes = F.nbytes
        dec = ddmd_rrr_compressed(tr, SequentialTrajectory(F))
        with tr.span("matrixio.store") as s:
            modes = dec.vectors[:, dec.vector_present]
            s.nbytes = modes.nbytes
            store_matrix(modes, modes_path)
        return dec


def dmd(tr, X, Y):
    with tr.span("variants.dmd", kind="pipeline"):
        pair = SnapshotPair(X, Y)
        with tr.span("snapshots.scale"):
            scaled, _ = scale_columns(pair)
        Xs, Ys = scaled.X, scaled.Y
        with tr.span("pod.svd") as s:
            basis = truncated_svd(Xs, _default_policy(*Xs.shape))
            s.count = basis.rank
        with tr.span("variants.quotient"):
            S = ((basis.U.conj().T @ Ys) @ basis.V) / basis.sigma[None, :]
        with tr.span("ritz.eig"):
            lambdas, W, Z = ritz_pairs(S, basis.U)
        with tr.span("ritz.action"):
            B = action_on_basis(Ys, basis.V, basis.sigma)
        with tr.span("ritz.residuals"):
            residuals = data_driven_residuals(B, basis.U, W, lambdas)
        return _package(tr, lambdas, Z, residuals, None, "dmd", basis.rank)


def weighted_dmd(tr, X, Y, M):
    with tr.span("weighted.weighted_dmd", kind="pipeline"):
        pair = SnapshotPair(X, Y)
        with tr.span("inner.transform"):
            Gx = M.transform(pair.X)
            Gy = M.transform(pair.Y)
        return refined_engine(tr, Gx, Gy, _default_policy(*Gx.shape), "weighted", weight=M)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced iteration.

# Stage spans reported by self time; their peaks are reported where a stage
# allocates copies of the input.
STAGES = (
    "matrixio.load", "matrixio.store", "variants.compress", "snapshots.scale", "pod.svd",
    "ritz.action", "ritz.qr_stack", "variants.quotient", "ritz.eig", "ritz.refine",
    "ritz.residuals", "variants.lift", "inner.transform", "inner.lift", "variants.package",
)
PEAKS = ("variants.compress", "snapshots.scale", "pod.svd", "ritz.qr_stack")
# Whole pipelines reported by inclusive time.
PIPELINES = (
    "variants.dmd", "variants.exact_dmd", "variants.fb_dmd_mrf", "variants.ddmd_rrr_auto",
    "weighted.weighted_dmd", "weighted.two_sided_weighted_dmd", "cli.main",
)


def layer_metrics(tracer):
    """Per-layer numbers of one traced iteration, every stage name present."""
    spans = tracer.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, attr="self_seconds"):
        return sum(getattr(s, attr) for s in by_name.get(name, ()))

    out = {}
    for name in STAGES:
        out[name + "_s"] = total(name)
    for name in PEAKS:
        out[name + "_peak_mib"] = max((s.peak_bytes for s in by_name.get(name, ())), default=0) / MIB
    for name in PIPELINES:
        out[name + "_s"] = total(name, "seconds")

    calls = sum(s.count for s in by_name.get("ritz.refine", ()))
    out["ritz.refine_calls"] = calls
    out["ritz.refine_ms_per_call"] = 1e3 * out["ritz.refine_s"] / calls if calls else 0.0
    out["pod.rank"] = by_name["pod.svd"][0].count if "pod.svd" in by_name else 0
    for io in ("load", "store"):
        name = "matrixio." + io
        seconds = out[name + "_s"]
        out[name + "_mib_per_s"] = total(name, "nbytes") / MIB / seconds if seconds else 0.0

    recomposed = [s for s in spans if s.kind == "pipeline"]
    recomposed_s = sum(s.seconds for s in recomposed)
    out["trace.coverage"] = sum(s.children for s in recomposed) / recomposed_s if recomposed_s else 0.0
    if "cli.main" in by_name:
        route = by_name["cli.route_rrr_compressed"]
        out["cli.overhead_s"] = total("cli.main", "seconds") - sum(s.children for s in route)
    return out


def iteration_seconds(tracer):
    """Traced wall time of the calls one untraced iteration makes: every
    pipeline span except tall-cli's recomposed route, which runs beside the
    traced CLI call only to be compared with it."""
    return sum(s.seconds for s in tracer.spans if s.kind != "stage" and s.name != "cli.route_rrr_compressed")
