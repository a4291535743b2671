"""End-to-end modal decomposition pipelines.

Each variant composes the same stages: optional column scaling, truncated
POD of X, the basis image B_k = Y V_k Sigma_k^{-1}, a Rayleigh quotient,
an eigensolve, the ordering of the pairs by residual on their k x k
coefficients W, and one lift of the ordered W into the reported vectors.
They differ in how the quotient is formed, whether vectors are refined,
and where the vectors live (POD subspace vs range of Y).
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import _one_blas_thread
from .errors import BackendError, ConditioningError, DataError, ShapeError
from .pod import RankPolicy, _apply_reflectors, _check_policy, _householder_qr, _pod_in_place, default_epsilon
from .ritz import (
    _eig,
    _image_into,
    _lift,
    _product_blocks,
    _products_into,
    _residuals_from_stack,
    _stack_in_place,
    RefinedPair,
    RitzDecomposition,
    order_pairs,
    rayleigh_from_qr,
    refine_ritz,
    refined_rayleigh_value,
)
from .snapshots import _EPS, SnapshotPair, _as_trajectory, _check_norms, _column_norms, _scale_factors
from .snapshots import companion_decomposition

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


@dataclass(frozen=True)
class VariantConfig:
    """Shared knobs of all pipelines.

    ``policy`` is a :class:`RankPolicy`, or None for the spectral
    threshold max(n, m+1) * eps of the matrix actually decomposed; any
    other value is a :class:`DataError` here, before any data is
    touched.  ``refine`` is ``'none'``, ``'all'``, or a residual cap: the
    refined pipelines then refine exactly the pairs whose Ritz residual
    :func:`select_pairs` keeps at that cap.  A NaN, negative, boolean or
    non-numeric cap is rejected.

    One thread rule holds: every LAPACK kernel, every dense weight, every
    tall product (the image B_k and every lift, each by row blocks), the
    refined pipelines from start to finish, and the compressed pair route
    of :func:`fb_dmd_mrf`, :func:`ddmd_rrr_compressed` and
    :func:`dmdkit.weighted.two_sided_weighted_dmd` from the QR of [X Y] to
    the end of the lift run on one thread of every OpenBLAS in the process
    (the one BLAS scope, :data:`dmdkit._blas._one_blas_thread`), whatever
    its thread setting.  Only the quotient U* Y of :func:`dmd` and
    :func:`exact_dmd`, which must round like the same product written
    inline, and the trajectory route's QR and lift keep the process's
    threads, so their bits depend on the thread count.  The counts are
    process-wide: a pipeline running concurrently in another Python thread
    computes with one BLAS thread too while the scope is held, so reports
    are byte-identical across runs only where the process runs one
    pipeline at a time.
    """

    policy: RankPolicy | None = None
    scale: bool = True
    refine: str | float = "all"

    def __post_init__(self):
        _check_policy(self.policy)
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

    Entry i belongs to pair i of the decomposition returned with it:
    ``omegas[i]`` is the eigenvalue of the product quotient whose signed
    square root is ``lambdas[i]`` of that decomposition, and
    ``sign_evidence[i]`` the Rayleigh value w* S_k w that arbitrated the
    sign.
    """

    omegas: np.ndarray
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


def _check_config(config, entry, hint=""):
    """A :class:`VariantConfig`; anything else is a :class:`DataError`, raised before any data is touched."""
    if not isinstance(config, VariantConfig):
        raise DataError("%s: config must be a VariantConfig, got %s%s" % (entry, type(config).__name__, hint))


def _project(X, Y, config, policy=None, weight=None, quotient=False):
    """Weight, scale, truncated POD of X, and the image B_k = Y V_k Sigma_k^{-1}.

    The one front end of every engine; it holds one n x m working array at
    a time beside one buffer of 2 min(n, m) columns.  X, weighted
    (``weight`` maps both snapshot matrices into the Euclidean coordinates
    of its geometry), is copied once into the column-major working array
    and scaled there (see :func:`_check_norms`); the POD factors it in
    place and writes U into the buffer.  The working array then takes the
    weighted and scaled Y where a diagonal factor and the scaling can
    write it (a dense factor's image is a new array); an unscaled Y that
    is not column-major is copied there, so B_k and the quotient read the
    same bits whatever the caller's layout.  B_k is written into columns
    k to 2k of the buffer.  With ``quotient``, :func:`_quotient` is taken
    while the scaled Y is held.  ``policy`` defaults to the config's,
    resolved on the shape of X where missing.
    Returns (basis, buffer, quotient or None); ``basis.U`` is a view of
    the buffer's first k columns.
    """
    factors = () if weight is None else (weight.factor,)
    G = X if weight is None else weight._transform_into(X, None)
    G = np.array(G, order="F") if G is X else np.asfortranarray(G)
    inv = _scale_factors(G)[0]
    if config.scale:
        np.multiply(G, inv, out=G)
    basis, buf = _pod_in_place(G, policy or config.policy, columns=2 * min(G.shape),
                               dtype=np.result_type(G, Y, *factors))
    k = basis.rank
    # The working array takes Y's image wherever a diagonal factor or the
    # scaling can write it there.
    if G.dtype != np.result_type(Y, *factors) or any(f.ndim == 2 for f in factors):
        G = None
    Ys = Y if weight is None else weight._transform_into(Y, G)
    if config.scale or not Ys.flags.f_contiguous:
        # Y is read column-major, as X, whatever the caller's layout: the
        # scaled Y, or an unscaled Y of another layout copied as it is.
        out = Ys if Ys is not Y and Ys.flags.f_contiguous else G
        if out is None:
            out = np.empty(Ys.shape, dtype=Ys.dtype, order="F")
        if config.scale:
            with np.errstate(over="ignore"):
                Ys = np.multiply(Ys, inv, out=out)
        else:
            out[...] = Ys
            Ys = out
    del G
    _image_into(buf[:, k:2 * k], Ys, basis.V, basis.sigma)
    q = _quotient(basis, Ys) if quotient else None
    return basis, buf, q


def _split(basis, buf):
    """(U_k, stack): U_k copied out of the column-major ``buf``, then the QR of (U_k  B_k) in ``buf`` in place."""
    k = basis.rank
    U = basis.U.copy(order="F")
    return U, _stack_in_place(buf[:, :2 * k])


def _quotient(basis, Ys):
    """The historical quotient S = ((U* Y) V) Sigma^{-1} and its eigenpairs.

    Returns (S, lambdas, W) with unit-norm coefficient columns W.  Unlike
    the refined pipelines, :func:`dmd` and :func:`exact_dmd` do not hold
    the one BLAS scope: the long-K product U* Y rounds differently by
    thread count, and it must round like the same product written inline,
    so that a recomposition from the public stages stays bit-identical.  Their POD's kernels hold the
    scope, as inside :func:`truncated_svd`, which a recomposition calls.
    Both pipelines share this quotient and its eigensolve, so exact_dmd's
    Ritz values stay bitwise dmd's.  A complex U, private to every caller,
    is conjugated in place for U* Y and back, so no n x k copy of it is
    held beside the working array and the buffer.
    """
    U = basis.U
    conjugate = np.iscomplexobj(U)
    if conjugate:
        np.conjugate(U, out=U)
    try:
        UY = U.T @ Ys
    finally:
        if conjugate:
            np.conjugate(U, out=U)
    S = (UY @ basis.V) / basis.sigma[None, :]
    return (S, *_eig(S))


def _order(lambdas, residuals, W):
    """(perm, lambdas, residuals, W) in report order, by :func:`order_pairs`.

    W's columns are taken C-contiguous, as the lift reads them, so the
    vectors are lifted straight into report order and no n-row array is
    reordered after the lift.
    """
    lambdas = np.asarray(lambdas, dtype=complex)
    residuals = np.asarray(residuals, dtype=np.float64)
    perm = order_pairs(residuals, lambdas)
    return perm, lambdas[perm], residuals[perm], np.take(W, perm, axis=1)


def _package(lambdas, Z, residuals, ordering, refined, variant, weight=None):
    """The rank-k decomposition of pairs in report order (see :func:`_order`); a real lift Z is cast to complex."""
    return RitzDecomposition(
        lambdas=lambdas,
        vectors=np.asarray(Z, dtype=complex, order="F"),
        residuals=residuals,
        refined=tuple(refined) if refined is not None else (None,) * len(lambdas),
        ordering=ordering,
        variant=variant,
        rank=len(lambdas),
        weight=weight,
    )


def dmd(X, Y, config=VariantConfig()):
    """Classic projected DMD with data-driven residuals appended.

    The Rayleigh quotient is assembled in the historical order
    ((U_k* Y) V_k) Sigma_k^{-1}; vectors are the plain Ritz vectors.
    Refinement is the business of :func:`ddmd_rrr` and is not applied
    here regardless of the config.
    """
    _check_config(config, "dmd")
    pair = SnapshotPair(X, Y)
    basis, buf, (_, lambdas, W) = _project(pair.X, pair.Y, config, quotient=True)
    U, stack = _split(basis, buf)
    del basis, buf
    residuals = _residuals_from_stack(stack, lambdas, W)
    del stack
    perm, lambdas, residuals, W = _order(lambdas, residuals, W)
    # U goes before _package casts a real lift to complex.
    Z = _lift(U, W)
    del U
    return _package(lambdas, Z, residuals, perm, None, "dmd")


@_one_blas_thread
def _rrr_pipeline(X, Y, config, variant, weight=None):
    """Shared refined Rayleigh-Ritz engine.

    ``weight`` is the state weight that :func:`_project` applies; it also
    tags the output and lifts the vectors back to ambient coordinates.
    The pairs are ordered on the k x k coefficients W, refined where the
    config asks, and then lifted once, straight into report order.
    """
    basis, buf, _ = _project(X, Y, config, weight=weight)
    U, stack = _split(basis, buf)
    del basis, buf
    k = U.shape[1]
    S = rayleigh_from_qr(stack)

    if config.refine == "all":
        # Every vector is replaced, so only the eigenvalues are needed.
        try:
            lambdas = np.linalg.eigvals(S)
        except np.linalg.LinAlgError as exc:
            raise BackendError("eigensolver failed on the Rayleigh quotient: %s" % exc) from exc
        W, residuals = np.empty((k, k), dtype=complex), np.empty(k)
        chosen = range(k)
    else:
        lambdas, W = _eig(S)
        residuals = _residuals_from_stack(stack, lambdas, W)
        # A cap refines exactly the pairs select_pairs keeps at it.
        chosen = () if config.refine == "none" else np.flatnonzero(_selected(residuals, float(config.refine)))
        if len(chosen):
            # _eig's W is real where every eigenvalue is; refined vectors are complex.
            W = W.astype(complex)
    refined = [None] * k
    for i in chosen:
        # Each refined vector is written into its column of W.
        w, sigma_min = refine_ritz(stack, lambdas[i])
        W[:, i], residuals[i] = w, sigma_min
        refined[i] = RefinedPair(w=W[:, i], sigma_min=sigma_min, rho=refined_rayleigh_value(S, w))

    # The stack, its memo and S go first, and blocks of n/32 rows follow,
    # so the lift holds U, Z and 1/32 of Z.
    del stack, S
    perm, lambdas, residuals, W = _order(lambdas, residuals, W)
    # Each record views its column of the ordered W, so a refined vector is held once.
    refined = [None if refined[i] is None else dataclasses.replace(refined[i], w=W[:, j]) for j, i in enumerate(perm)]
    Z = _lift(U, W)
    del U
    if weight is not None:
        Z = weight._lift(Z, in_place=True)
    return _package(lambdas, Z, residuals, perm, refined, variant, weight=weight)


def ddmd_rrr(X, Y, config=VariantConfig()):
    """Refined Rayleigh-Ritz decomposition with certified residuals.

    Column scaling (on by default), POD of the scaled data, Rayleigh
    quotient read off the QR stack, then a per-eigenvalue refinement loop
    that replaces each Ritz vector by the residual-optimal unit vector of
    the subspace.  Reported residuals are the refinement certificates.
    """
    _check_config(config, "ddmd_rrr")
    pair = SnapshotPair(X, Y)
    return _rrr_pipeline(pair.X, pair.Y, config, "rrr")


@_one_blas_thread
def _compressed_pair(pair, config, engine, weight=None):
    """The compressed route of a pair: one Householder QR, and a lift inside its buffer.

    [X Y], mapped by the state weight ``weight`` where given, is factored
    in one column-major buffer (:func:`_householder_qr`), and ``engine``, a
    direct pipeline (X, Y, config) -> (decomposition, *more), runs on the
    blocks R_x and R_y of its triangular factor at the threshold of the
    ambient (n, m).  Rows r = min(n, m) on of R_x, and so of the engine's
    vectors W, are exact zeros, so the vectors are Q_r W[:r].  Once R is
    copied out, Q_r = Q [I_r; 0] is formed in the buffer's dead columns r
    to 2r by one ?gemqrt over the p reflectors up to the end of the ?geqrt
    block holding reflector r: the later ones would only add exact zeros,
    and a block cut at r would round Q_r differently in its last bits.
    Where p > r, those columns also hold that block's last p - r
    reflectors, which ?gemqrt applies first, to rows of [I_r; 0] that are
    all zero.  Their entries meet only exact zeros, so Q_r may overwrite
    them and keeps the bits of a lift through all reflectors into a fresh
    array, with no column beyond the buffer.  Q_r then moves into the
    real slots (whole entries for complex data) of an n x r complex view
    of the buffer's leading floats, to which the buffer is shrunk before
    the engine runs.  The lift writes the vectors into that view by row
    blocks, each block of Q_r's rows copied out before its product
    overwrites them, and the buffer is shrunk to the n x k vectors, which
    ``weight`` then lifts in place.  So the route holds only the buffer,
    besides small arrays, from the QR to the returned vectors, and the
    one BLAS scope is held throughout.
    """
    n, m = pair.n, pair.m
    r = min(n, m)
    config = dataclasses.replace(config, policy=_resolve_policy(config, (n, m)))
    a, T, R = _householder_qr(pair.X, pair.Y, weight=weight, name="[X Y]")
    p = min(T.shape[1], -(-r // len(T)) * len(T))  # len(T) is the ?geqrt block
    a[:, r:2 * r] = 0.0
    Q = _apply_reflectors(a[:, :p], T[:, :p], np.eye(r, dtype=a.dtype), out=a[:, r:2 * r])
    real = a.dtype != complex
    Z = _complex_view(a, n, r)
    # In increasing order, each column of Q_r lands on buffer columns that
    # no later one occupies.
    for j in range(r):
        (Z.real if real else Z)[:, j] = Q[:, j]
    del Q, Z
    Z = _complex_view(a, n, r, shrink=True)
    inner, *rest = engine(R[:, :m], R[:, m:], config)
    del R
    W = inner.vectors[:r]
    _products_into(Z[:, :W.shape[1]], Z.real if real else Z, W)
    del Z
    Z = _complex_view(a, n, W.shape[1], shrink=True)
    if weight is not None:
        Z = weight._lift(Z, in_place=True)
    return (dataclasses.replace(inner, vectors=Z, weight=weight), *rest)


def _complex_view(a, n, k, shrink=False):
    """The column-major n x k complex view of the leading floats of the contiguous buffer ``a``.

    With ``shrink``, ``a`` is first shrunk in place to those floats; no
    other view of ``a`` may then be held, since its memory is reallocated.
    """
    size = n * k * (16 // a.itemsize)
    if shrink:
        a.resize(size, refcheck=False)
    return a.reshape(-1, order="F")[:size].view(complex).reshape((n, k), order="F")


def _compressed_trajectory(F, config):
    """The compressed route of a checked trajectory F, overwritten in place.

    Returns (Q, inner): the thin QR factor Q, in F's buffer where F is a
    column-major double array, and the engine's decomposition on R, whose
    vectors are coefficients in Q.  The route keeps scipy's QR and the
    explicit Q outside the one BLAS scope, because bench/tracing.py
    recomposes it bit for bit (ROADMAP item 2).  Its lift through Q runs
    by the row blocks of :func:`_product_blocks` at the process's thread
    setting, in ``ddmd_rrr_compressed`` and in the modes file that
    ``decompose --seq`` streams alike, so its bits depend on the thread
    count.
    """
    config = dataclasses.replace(config, policy=_resolve_policy(config, (F.shape[0], F.shape[1] - 1)))
    _check_norms(F, "F")
    Q, R = scipy.linalg.qr(F, mode="economic", overwrite_a=True, check_finite=False)
    return Q, _rrr_pipeline(R[:, :-1], R[:, 1:], config, "rrr-compressed")


def ddmd_rrr_compressed(data, config=VariantConfig()):
    """Refined decomposition after QR compression of the raw data.

    Works on the triangular factor of one thin QR, of the stacked pair or
    of a column-major copy of the trajectory, which holds Q, and lifts the
    vectors through the leading columns of Q by the row blocks of the one
    tall-product rule (:func:`dmdkit.ritz._product_blocks`).  On a pair
    (see :func:`_compressed_pair`) those columns are formed, and the
    lift runs, inside the QR buffer, which becomes the returned vectors,
    so the call peaks near the size of [X Y].  Residuals and Ritz values
    are unchanged by the unitary change of basis, and the default
    threshold is read off the ambient shape, so compressed and direct
    runs truncate identically.  Also exported as ``ddmd_rrr_auto``.
    """
    _check_config(config, "ddmd_rrr_compressed", "; a pair (X, Y) is passed as one SnapshotPair(X, Y)")
    if isinstance(data, SnapshotPair):
        return _compressed_pair(data, config, lambda X, Y, c: (_rrr_pipeline(X, Y, c, "rrr-compressed"),))[0]
    Q, inner = _compressed_trajectory(np.array(_as_trajectory(data).F, order="F"), config)
    Z = np.empty((Q.shape[0], inner.k), dtype=complex, order="F")
    for start, block in _product_blocks(Q, inner.vectors):
        Z[start:start + len(block)] = block
        del block  # not held while the next block is formed
    return dataclasses.replace(inner, vectors=Z)


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
    _check_config(config, "exact_dmd")
    pair = SnapshotPair(X, Y)
    basis, buf, (S, lambdas, W) = _project(pair.X, pair.Y, config, quotient=True)
    k = basis.rank
    B = buf[:, k:2 * k].copy(order="F")  # so the buffer is freed
    del basis, buf
    guard = 1e3 * _EPS * float(np.linalg.norm(S, 2))
    perm, lambdas, residuals, W = _order(lambdas, np.full(k, np.nan), W)
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
    return _package(lambdas, Z, residuals, perm, None, "exact")


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

    It runs on the route of ``ddmd_rrr_compressed``: one Householder QR
    of [X Y], all of the above on the blocks R_x and R_y of its triangular
    factor (a unitary change of coordinates) at the threshold of the
    ambient (n, m), and one lift of the vectors through the reflectors.
    """
    _check_config(config, "fb_dmd_mrf")
    return _compressed_pair(SnapshotPair(X, Y), config, _fb_engine)


@_one_blas_thread
def _fb_engine(X, Y, config):
    """The forward-backward pipeline of :func:`fb_dmd_mrf` on checked (X, Y); returns (decomposition, FbSpectrum)."""
    policy = _resolve_policy(config, X.shape)

    Uf, stack_f = _split(*_project(X, Y, config, policy)[:2])
    k = Uf.shape[1]
    S_fwd = rayleigh_from_qr(stack_f)

    try:
        back, buf, _ = _project(Y, X, config, RankPolicy.fixed(k))
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
    S_back = (Uf.conj().T @ buf[:, k:2 * k]) @ (back.U.conj().T @ Uf)

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

    perm, lambdas, residuals, W = _order(lambdas, _residuals_from_stack(stack_f, lambdas, W), W)
    return (_package(lambdas, _lift(Uf, W), residuals, perm, None, "fb"),
            FbSpectrum(omegas=omegas[perm], sign_evidence=np.asarray(evidence, dtype=complex)[perm]))


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
