"""End-to-end modal decomposition pipelines.

Each variant composes the same stages: optional column scaling, truncated
POD of X, the basis image B_k = Y V_k Sigma_k^{-1}, a Rayleigh quotient,
an eigensolve, and residual-ordered packaging.  They differ in how the
quotient is formed, whether vectors are refined, and where the vectors
live (POD subspace vs range of Y).
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import _one_blas_thread
from .errors import BackendError, ConditioningError, DataError, ShapeError
from .pod import RankPolicy, _apply_reflectors, _householder_qr, default_epsilon, truncated_svd
from .ritz import (
    _eig,
    _lift,
    RefinedPair,
    RitzDecomposition,
    action_on_basis,
    data_driven_residuals,
    order_pairs,
    qr_stack,
    rayleigh_from_qr,
    refine_ritz,
    refined_rayleigh_value,
    residuals_from_stack,
)
from .snapshots import SnapshotPair, _as_trajectory, _column_norms, _scale_arrays, companion_decomposition

__all__ = [
    "VariantConfig",
    "FbSpectrum",
    "SequentialDiagnostic",
    "dmd",
    "ddmd_rrr",
    "ddmd_rrr_compressed",
    "ddmd_rrr_auto",
    "exact_dmd",
    "exact_dmd_sequential_diagnostic",
    "fb_dmd_mrf",
    "select_pairs",
]

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class VariantConfig:
    """Shared knobs of all pipelines.

    ``policy=None`` resolves to the spectral threshold max(n, m+1) * eps
    of the matrix actually decomposed.  ``refine`` is ``'none'``,
    ``'all'``, or a residual cap: the refined pipelines then refine
    exactly the pairs whose Ritz residual :func:`select_pairs` keeps at
    that cap.  A NaN, negative, boolean or non-numeric cap is rejected.

    One thread rule holds: every LAPACK kernel, the refined pipelines and
    :func:`fb_dmd_mrf` from start to finish, and every dense weight run on
    one thread of every OpenBLAS in the process (the one BLAS scope,
    :data:`dmdkit._blas._one_blas_thread`), whatever its thread setting;
    refinement solves run one after another.  Only the quotient U* Y of
    :func:`dmd` and :func:`exact_dmd`, which must round like the same
    product written inline, and the QR that compresses a trajectory in
    :func:`ddmd_rrr_compressed` keep the process's threads, so their bits
    depend on the thread count.  The counts are process-wide: while the
    scope is held, a pipeline running concurrently in another Python
    thread computes with one BLAS thread too, and may round differently
    from run to run.  Reports are byte-identical across runs only where
    the process runs one pipeline at a time.
    """

    policy: RankPolicy | None = None
    scale: bool = True
    refine: str | float = "all"

    def __post_init__(self):
        if not isinstance(self.scale, (bool, np.bool_)):
            raise DataError("scale must be a boolean, got %r" % (self.scale,))
        if isinstance(self.refine, str):
            if self.refine not in ("none", "all"):
                raise DataError("refine must be 'none', 'all', or a residual cap")
        else:
            _check_cap(self.refine)


@dataclass(frozen=True, eq=False)
class FbSpectrum:
    """Square roots taken in the forward-backward variant.

    ``omegas`` are the eigenvalues of the product quotient, ``lambdas``
    the signed square roots actually reported, and ``sign_evidence`` the
    Rayleigh values w* S_k w that arbitrated each sign.
    """

    omegas: np.ndarray
    lambdas: np.ndarray
    sign_evidence: np.ndarray


@dataclass(frozen=True)
class SequentialDiagnostic:
    """Computable factors of the exact-vector residual identity.

    The true residual of an exact-DMD eigenpair from sequential data
    equals |eta_m| times the norm of the image of the companion residual;
    only eta_m (last expansion coefficient of the vector in the columns of
    Y) and the companion residual norm are observable without the
    operator.
    """

    eta_m: complex | None
    r_norm: float


def _check_cap(cap):
    """A residual cap as a float; NaN, negative, boolean, text and non-numeric caps are rejected."""
    if isinstance(cap, (bool, np.bool_, str, bytes)):
        raise DataError("residual cap must be a real number, got %r" % (cap,))
    try:
        value = float(cap)
    except (TypeError, ValueError) as exc:
        raise DataError("residual cap must be a real number, got %r" % (cap,)) from exc
    if not value >= 0.0:
        raise DataError("residual cap must be nonnegative, got %r" % (cap,))
    return value


def _selected(residuals, cap):
    """Mask of the residuals at or below a checked cap; NaN passes an infinite cap only."""
    return (residuals <= cap) | (np.isnan(residuals) & np.isinf(cap))


def _resolve_policy(config, shape):
    if config.policy is not None:
        return config.policy
    n, m = shape
    return RankPolicy.spectral(default_epsilon(n, m))


def _project(X, Y, config, policy=None, weight=None, right=None):
    """Weight, scale, truncated POD of X, and the image B_k = Y V_k Sigma_k^{-1}.

    The one front end of every pipeline.  ``weight`` maps both snapshot
    matrices into the Euclidean coordinates of its geometry and ``right``
    then weights their columns; each transformed pair lives only in this
    frame, up to the next step.  ``policy`` defaults to the config's, and
    :func:`truncated_svd` resolves a missing one on the shape of X.
    Returns (basis, Ys, B), where ``basis`` is the :class:`PodBasis` of
    the scaled X and ``Ys`` is Y after the column scaling; callers drop
    ``Ys`` after its last use, so the n x m copy does not outlive it.
    """
    if weight is not None:
        X = weight.transform(X)
        Y = weight.transform(Y)
    if right is not None:
        X = right.transform_right(X)
        Y = right.transform_right(Y)
    if config.scale:
        X, Y, _ = _scale_arrays(X, Y)
    basis = truncated_svd(X, policy or config.policy)
    return basis, Y, action_on_basis(Y, basis.V, basis.sigma)


def _quotient(basis, Ys):
    """The historical quotient S = ((U* Y) V) Sigma^{-1} and its eigenpairs.

    Returns (S, lambdas, W) with unit-norm coefficient columns W.

    Unlike the refined pipelines, :func:`dmd` and :func:`exact_dmd` do not
    hold the one BLAS scope: the long-K product U* Y rounds differently by
    thread count, and it must keep rounding like the same product written
    inline by a caller, so that a recomposition from the public stages
    stays bit-identical to :func:`dmd`.  Their POD's kernels hold the
    scope inside :func:`truncated_svd`, which a recomposition calls too.
    Both pipelines share this quotient and its eigensolve, so exact_dmd's
    Ritz values stay bitwise dmd's.
    """
    S = ((basis.U.conj().T @ Ys) @ basis.V) / basis.sigma[None, :]
    return (S, *_eig(S))


def _permute_columns(Z, perm):
    """Z[:, perm] written into Z itself, one cycle of the permutation at a time.

    Column i receives column perm[i]; each cycle is followed with one
    column buffer, so no second copy of Z is formed.
    """
    done = np.zeros(len(perm), dtype=bool)
    for start in range(len(perm)):
        if done[start] or perm[start] == start:
            continue
        held = Z[:, start].copy()
        i = start
        while perm[i] != start:
            Z[:, i] = Z[:, perm[i]]
            done[i] = True
            i = perm[i]
        Z[:, i] = held
        done[i] = True
    return Z


def _package(lambdas, Z, residuals, refined, variant, rank, weight=None):
    """Order the pairs by residual into a decomposition.

    Z must be an array the pipeline allocated itself: a column-major
    complex Z is reordered in place, so it is not copied.
    """
    lambdas = np.asarray(lambdas, dtype=complex)
    Z = np.asarray(Z, dtype=complex, order="F")
    residuals = np.asarray(residuals, dtype=np.float64)
    perm = order_pairs(residuals, lambdas)
    refined = refined if refined is not None else [None] * len(lambdas)
    return RitzDecomposition(
        lambdas=lambdas[perm],
        vectors=_permute_columns(Z, perm),
        residuals=residuals[perm],
        refined=tuple(refined[i] for i in perm),
        ordering=perm,
        variant=variant,
        rank=int(rank),
        weight=weight,
    )


def dmd(X, Y, config=VariantConfig()):
    """Classic projected DMD with data-driven residuals appended.

    The Rayleigh quotient is assembled in the historical order
    ((U_k* Y) V_k) Sigma_k^{-1}; vectors are the plain Ritz vectors.
    Refinement is the business of :func:`ddmd_rrr` and is not applied
    here regardless of the config.
    """
    pair = SnapshotPair(X, Y)
    basis, Ys, B = _project(pair.X, pair.Y, config)
    _, lambdas, W = _quotient(basis, Ys)
    del Ys
    residuals = data_driven_residuals(B, basis.U, W, lambdas)
    del B
    return _package(lambdas, _lift(basis.U, W), residuals, None, "dmd", basis.rank)


@_one_blas_thread
def _rrr_pipeline(X, Y, config, variant, weight=None, right=None):
    """Shared refined Rayleigh-Ritz engine.

    ``weight`` and ``right`` are the state and snapshot-index weights that
    :func:`_project` applies; ``weight`` also tags the output and lifts
    the vectors back to ambient coordinates.
    """
    basis, B = _project(X, Y, config, weight=weight, right=right)[::2]
    k = basis.rank
    stack = qr_stack(basis.U, B)
    del B
    S = rayleigh_from_qr(stack)

    if config.refine == "all":
        # Every vector is replaced, so only the eigenvalues are needed.
        try:
            lambdas = np.linalg.eigvals(S)
        except np.linalg.LinAlgError as exc:
            raise BackendError("eigensolver failed on the Rayleigh quotient: %s" % exc) from exc
        W = residuals = None
        chosen = range(k)
    else:
        lambdas, W = _eig(S)
        residuals = residuals_from_stack(stack, lambdas, W)
        # A cap refines exactly the pairs select_pairs keeps at it.
        chosen = () if config.refine == "none" else np.flatnonzero(_selected(residuals, float(config.refine)))
    refined = [None] * k
    for i in chosen:
        w, sigma_min = refine_ritz(stack, lambdas[i])
        refined[i] = RefinedPair(w=w, sigma_min=sigma_min, rho=refined_rayleigh_value(S, w))
    if any(rec is not None for rec in refined):
        W = np.column_stack([W[:, i] if rec is None else rec.w for i, rec in enumerate(refined)])
        residuals = np.array([residuals[i] if rec is None else rec.sigma_min for i, rec in enumerate(refined)])

    Z = _lift(basis.U, W)
    del basis
    if weight is not None:
        Z = weight.lift(Z)
    return _package(lambdas, Z, residuals, refined, variant, k, weight=weight)


def ddmd_rrr(X, Y, config=VariantConfig()):
    """Refined Rayleigh-Ritz decomposition with certified residuals.

    Column scaling (on by default), POD of the scaled data, Rayleigh
    quotient read off the QR stack, then a per-eigenvalue refinement loop
    that replaces each Ritz vector by the residual-optimal unit vector of
    the subspace.  Reported residuals are the refinement certificates.
    """
    pair = SnapshotPair(X, Y)
    return _rrr_pipeline(pair.X, pair.Y, config, "rrr")


def _compressed_pair(pair, config):
    """The compressed route of a general pair: one Householder QR, Q never formed.

    [X Y] is factored in place in one column-major buffer; the engine runs
    on the blocks R_x and R_y of its triangular factor, and the vectors are
    lifted once by applying the reflectors to their zero-padded
    coefficients.  Real reflectors act on [Re W | Im W] in real
    arithmetic, and the buffer is released before the complex result is
    assembled.
    """
    n, m = pair.n, pair.m
    XY, T, R = _householder_qr(pair.X, pair.Y)
    inner = _rrr_pipeline(R[:, :m], R[:, m:], config, "rrr-compressed")
    W = inner.vectors
    if np.iscomplexobj(XY):
        return dataclasses.replace(inner, vectors=_apply_reflectors(XY, T, W))
    k = W.shape[1]
    C = _apply_reflectors(XY, T, np.hstack([W.real, W.imag]))
    del XY, T
    Z = np.empty((n, k), dtype=complex, order="F")
    Z.real = C[:, :k]
    Z.imag = C[:, k:]
    return dataclasses.replace(inner, vectors=Z)


def _compressed_trajectory(F, config):
    """The compressed route of a checked trajectory F, overwritten in place.

    Returns (Q, inner): the thin QR factor Q, in F's buffer where F is a
    column-major double array, and the engine's decomposition on R, whose
    vectors are coefficients in Q.  The route keeps scipy's QR and the
    explicit Q because bench/tracing.py recomposes it as scipy.linalg.qr
    and Q @ vectors and must match it bit for bit (ROADMAP item 2).  For
    the same reason this QR runs outside the one BLAS scope, on the
    process's BLAS threads, so its bits depend on the thread count.
    """
    config = dataclasses.replace(config, policy=_resolve_policy(config, (F.shape[0], F.shape[1] - 1)))
    Q, R = scipy.linalg.qr(F, mode="economic", overwrite_a=True, check_finite=False)
    return Q, _rrr_pipeline(R[:, :-1], R[:, 1:], config, "rrr-compressed")


def ddmd_rrr_compressed(data, config=VariantConfig()):
    """Refined decomposition after QR compression of the raw data.

    Works on the triangular factor of a thin QR (of the trajectory, or of
    the stacked pair for general data), then lifts the vectors back to
    the ambient space.  A pair keeps its Householder reflectors and
    applies them to the coefficients; a trajectory factors a
    column-major copy of F in place, so the caller's array is never
    modified, and multiplies the orthonormal factor Q, held in that
    copy, by the coefficients (by row blocks for real data).  Residuals
    and Ritz values are unchanged by the unitary change of basis.  The
    default threshold is read off the ambient shape, not the compressed
    one, so compressed and direct runs truncate identically.  The
    containers have checked the data for non-finite entries already.
    Also exported as ``ddmd_rrr_auto``.
    """
    if isinstance(data, SnapshotPair):
        config = dataclasses.replace(config, policy=_resolve_policy(config, (data.n, data.m)))
        return _compressed_pair(data, config)
    Q, inner = _compressed_trajectory(np.array(_as_trajectory(data).F, order="F"), config)
    return dataclasses.replace(inner, vectors=np.asfortranarray(_lift(Q, inner.vectors)))


# Kept while bench/harness.py imports it; the name goes with ROADMAP item 6.
ddmd_rrr_auto = ddmd_rrr_compressed


def exact_dmd(X, Y, config=VariantConfig()):
    """DMD with vectors rebuilt inside range(Y).

    Shares Ritz values with :func:`dmd`; each vector is the normalized
    image B_k w / lambda.  Ritz values too close to zero (below a spectral
    guard of 1e3 ulp) have no exact vector and are flagged absent.  The
    decomposition carries NaN residuals: residuals of exact vectors are
    not computable from data alone, only via the sequential diagnostic or
    an explicit-operator audit.
    """
    pair = SnapshotPair(X, Y)
    basis, Ys, B = _project(pair.X, pair.Y, config)
    S, lambdas, W = _quotient(basis, Ys)
    k = basis.rank
    del basis, Ys
    guard = 1e3 * _EPS * float(np.linalg.norm(S, 2))
    alive = np.abs(lambdas) > guard
    if not np.any(alive):
        raise ConditioningError(
            "exact_dmd: all Ritz values are numerically zero; no exact vectors exist",
            sigma_min=float(np.abs(lambdas).max(initial=0.0)),
        )
    # B (W / lambda), NaN in the columns that are not alive; a column
    # whose norm is 0 divides to NaN too.
    with np.errstate(invalid="ignore"):
        Z = _lift(B, W / np.where(alive, lambdas, np.nan))
        del B
        Z /= _column_norms(Z)
    return _package(lambdas, Z, np.full(k, np.nan), None, "exact", k)


def exact_dmd_sequential_diagnostic(F, decomposition):
    """Computable residual factors for exact vectors of sequential data.

    For each returned pair: the last coefficient eta_m of the vector
    expanded in the columns of Y, and the companion residual norm.  The
    unobservable true residual is |eta_m| times the norm of the operator
    image of the companion residual.  Pairs with absent vectors yield a
    record with ``eta_m=None``.
    """
    if isinstance(F, SnapshotPair):
        raise DataError("sequential trajectory required; general pairs carry no companion residual")
    traj = _as_trajectory(F)
    comp = companion_decomposition(traj)
    Y = traj.F[:, 1:]
    if decomposition.vectors.shape[0] != traj.n:
        raise ShapeError(
            "decomposition vectors have %d rows but the trajectory has %d"
            % (decomposition.vectors.shape[0], traj.n)
        )
    present = decomposition.vector_present
    eta_m = [None] * decomposition.k
    if np.any(present):
        # One factorization of Y serves every present vector.
        eta, *_ = scipy.linalg.lstsq(Y, decomposition.vectors[:, present])
        for i, e in zip(np.flatnonzero(present), eta[-1]):
            eta_m[i] = complex(e)
    return tuple(SequentialDiagnostic(eta_m=e, r_norm=comp.r_norm) for e in eta_m)


@_one_blas_thread
def fb_dmd_mrf(X, Y, config=VariantConfig()):
    """Forward-backward DMD without any matrix square root.

    Forms the forward Rayleigh quotient S_k, the backward quotient of the
    swapped pair at the same fixed rank, written in the forward basis as
    S_back = (U_f* B_b)(U_b* U_f), and the product M_k = S_k S_back^{-1}
    by a linear solve.  Eigenvalues of M_k are the squares of the
    reported Ritz values; each square root's sign is chosen to minimize
    the distance to the Rayleigh value w* S_k w, which keeps conjugate
    pairs closed for real data.  Residuals use the forward data
    with the chosen eigenvalues.  When the largest entry of S_k lies
    beyond 2^256 or below 2^-256, both quotients are first rescaled by an
    exact power of two, so the squares stay in the double range; the
    reported values are scaled back, and an omega overflows or underflows
    only where lambda^2 itself does.
    """
    pair = SnapshotPair(X, Y)
    X, Y = pair.X, pair.Y
    policy = _resolve_policy(config, X.shape)

    fwd, Bf = _project(X, Y, config, policy)[::2]
    Uf, k = fwd.U, fwd.rank
    stack_f = qr_stack(Uf, Bf)
    del fwd, Bf
    S_fwd = rayleigh_from_qr(stack_f)

    try:
        back, Bb = _project(Y, X, config, RankPolicy.fixed(k))[::2]
    except ConditioningError as exc:
        raise ConditioningError(
            "fb_dmd_mrf: backward POD cannot support the forward rank %d (%s)" % (k, exc),
            sigma_min=exc.sigma_min,
            sigma_max=exc.sigma_max,
        ) from exc
    sb_all = back.sigma_all
    if policy.kind == "spectral" and sb_all[k - 1] <= policy.epsilon * sb_all[0]:
        raise ConditioningError(
            "fb_dmd_mrf: backward POD cannot support the forward rank %d "
            "(backward sigma_%d/sigma_1 = %.3e below threshold %.3e)"
            % (k, k, sb_all[k - 1] / sb_all[0], policy.epsilon),
            sigma_min=float(sb_all[k - 1]),
            sigma_max=float(sb_all[0]),
        )
    # The backward quotient in the forward basis: a sign change or rotation
    # of the backward basis cancels between the two factors.
    S_back = (Uf.conj().T @ Bb) @ (back.U.conj().T @ Uf)
    del back, Bb

    sv = scipy.linalg.svdvals(S_back)
    if sv[0] <= 0.0 or sv[-1] <= k * _EPS * sv[0]:
        raise ConditioningError(
            "fb_dmd_mrf: S_back is singular to working precision (sigma_min(S_back) = %.3e)"
            % (float(sv[-1]),),
            sigma_min=float(sv[-1]),
            sigma_max=float(sv[0]),
        )
    e = int(np.frexp(np.abs(S_fwd).max())[1])
    c = np.ldexp(1.0, min(-e, 1023)) if abs(e) > 256 else 1.0
    if c != 1.0:
        S_fwd, S_back = c * S_fwd, S_back / c
    M = np.linalg.solve(S_back.T, S_fwd.T).T

    omegas, W = _eig(M)
    evidence = np.einsum("ij,ij->j", W.conj(), S_fwd @ W)
    roots = np.sqrt(omegas)
    d_plus = np.abs(roots - evidence)
    d_minus = np.abs(-roots - evidence)
    lambdas = np.where(d_plus <= d_minus, roots, -roots)
    tied = np.flatnonzero(d_plus == d_minus)
    if tied.size:
        # A real eigenvector makes the evidence real, so for a negative real
        # omega both imaginary roots are equidistant from it and the rule
        # above cannot decide.  A conjugate pair of imaginary Ritz values
        # shares one such omega; alternating signs over the tied columns in
        # omega order keeps that pair closed for real data.
        order = tied[np.lexsort((omegas[tied].imag, omegas[tied].real))]
        lambdas[order[1::2]] = -roots[order[1::2]]
    if c != 1.0:
        with np.errstate(over="ignore"):
            lambdas, omegas, evidence = lambdas / c, omegas / c / c, evidence / c

    Z = _lift(Uf, W)
    del Uf
    dec = _package(lambdas, Z, residuals_from_stack(stack_f, lambdas, W), None, "fb", k)
    perm = dec.ordering
    fb = FbSpectrum(
        omegas=omegas[perm],
        lambdas=lambdas[perm],
        sign_evidence=np.asarray(evidence, dtype=complex)[perm],
    )
    return dec, fb


def select_pairs(decomposition, residual_cap):
    """Keep the pairs whose residual is at or below the cap.

    Ascending order is preserved.  NaN residuals (exact-vector variant)
    survive only an infinite cap, since they certify nothing.
    """
    r = decomposition.residuals
    keep = np.flatnonzero(_selected(r, _check_cap(residual_cap)))
    return dataclasses.replace(
        decomposition,
        lambdas=decomposition.lambdas[keep],
        vectors=decomposition.vectors[:, keep],
        residuals=r[keep],
        refined=tuple(decomposition.refined[i] for i in keep),
        ordering=decomposition.ordering[keep],
    )
