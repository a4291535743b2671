"""Rayleigh-Ritz extraction with data-driven residuals and refinement.

Everything here works on a rank-k POD basis U_k and the matrix
B_k = Y V_k Sigma_k^{-1}, which equals the image A U_k of the basis under
the (unknown) data-generating operator in exact arithmetic.  That identity
is what makes residuals computable without access to the operator:

    || A u - lambda u ||  =  || B_k w - lambda U_k w ||   for u = U_k w.

A thin QR factorization of the stacked matrix (U_k  B_k) compresses the
residual computation into 2k-dimensional triangular blocks; the smallest
singular value of the shifted block matrix is at once the optimal residual
achievable in the POD subspace and the certificate for the refined vector.
The stack is written once, into one column-major buffer, and a level-3
Householder QR (LAPACK ?geqrt) overwrites it; Q is never formed.  Every
residual, a refined vector's certificate included, is read off the blocks
by one formula (:func:`_residuals_from_stack`), and every tall product,
the image B_k and every lift, runs by the row blocks of one generator
(:func:`_product_blocks`), on one BLAS thread (:func:`_products_into`)
everywhere but the trajectory route.

Refinement costs one k x k Hermitian eigensolve per distinct shift: the
eigenvector of the smallest eigenvalue of the cross-product matrix
R_lambda* R_lambda, formed from products of the blocks that are computed
once per stack.  A shift whose eigenvector the accept rule of
:func:`refine_ritz` cannot vouch for falls back to one QR of the shifted
stack plus one k x k SVD of its triangular factor.  When the blocks are
real, the stack of a conjugate shift is the conjugate stack, so each
conjugate pair of Ritz values is solved once; the solves are memoized on
the :class:`QrStack` and every caller holding the same stack shares
them.  Each solve runs inside the one BLAS scope, so it rounds the same
bits under any BLAS thread setting (see
:class:`dmdkit.variants.VariantConfig`).
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import _one_blas_thread
from .errors import BackendError, ConditioningError, DataError, ShapeError
from .inner import InnerProduct
from .pod import _geqrt, _householder_qr
from .snapshots import _EPS, _all_finite, _column_norms

__all__ = [
    "QrStack",
    "RefinedPair",
    "RitzDecomposition",
    "action_on_basis",
    "qr_stack",
    "rayleigh_from_qr",
    "ritz_pairs",
    "data_driven_residuals",
    "refine_ritz",
    "refined_rayleigh_value",
    "koopman_log_map",
    "order_pairs",
]


@dataclass(frozen=True, eq=False)
class QrStack:
    """Triangular blocks of the thin QR of (U_k  B_k); Q is never formed.

    The rows of R are scaled by unimodular factors so that the diagonal
    of ``r11`` is nonnegative real.  ``r22`` has min(n - k, k) rows and is
    empty when the basis spans the whole space.
    """

    r11: np.ndarray
    r12: np.ndarray
    r22: np.ndarray

    @property
    def k(self):
        return self.r11.shape[0]

    @functools.cached_property
    def _refined(self):
        """Memo of :func:`refine_ritz` solves, keyed by the canonical shift."""
        return {}

    @functools.cached_property
    def _cross(self):
        """Cross products of the scaled blocks, formed once for :func:`refine_ritz`.

        A = 2^a [R12; R22] and B = 2^b R11, each scaled exactly by
        :func:`_pow2_scaled`, give (a, a - b, A*A, A*[B; 0], B*B, ||A||_F,
        ||B||_F).  With the shift scaled to 2^(a-b) lambda they form
        2^(2a) R_lambda* R_lambda, whatever the scales of the two blocks.
        """
        A, a = _pow2_scaled(np.vstack([self.r12, self.r22]))
        B, b = _pow2_scaled(self.r11)
        Ah = A.conj().T
        return a, a - b, Ah @ A, Ah[:, :self.k] @ B, B.conj().T @ B, np.linalg.norm(A), np.linalg.norm(B)


@dataclass(frozen=True, eq=False)
class RefinedPair:
    """Refined Ritz vector coefficients with their residual certificate."""

    w: np.ndarray
    sigma_min: float
    rho: complex


@dataclass(frozen=True, eq=False)
class RitzDecomposition:
    """Ritz pairs ordered by ascending residual.

    ``vectors`` columns are unit norm in the ambient inner product; a
    column of NaNs marks a pair whose vector is undefined (zero eigenvalue
    in the exact-vector variant).  ``residuals`` may be NaN for variants
    whose vectors admit no data-driven residual.  ``refined[i]`` carries
    the refinement record of pair i when refinement ran for it.
    ``ordering`` is the permutation from eigensolver order to stored order.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    refined: tuple
    ordering: np.ndarray
    variant: str
    rank: int
    weight: InnerProduct | None = None

    @property
    def k(self):
        return self.lambdas.shape[0]

    @property
    def vector_present(self):
        # np.isnan is true for a NaN in either part of a complex entry.
        return ~np.isnan(self.vectors).any(axis=0)


def action_on_basis(Y, V_k, sigma_k):
    """B_k = Y V_k Sigma_k^{-1}, the image of the POD basis in the data.

    Requires strictly positive retained singular values; the division is
    applied to the small factor first.  A product that overflows is a
    conditioning error: finite data whose scales cannot be combined in
    double precision.
    """
    Y = np.asarray(Y)
    V_k = np.asarray(V_k)
    if Y.shape[1] != V_k.shape[0]:
        raise ShapeError(
            "Y has %d columns but V_k has %d rows" % (Y.shape[1], V_k.shape[0])
        )
    B = np.empty((Y.shape[0], V_k.shape[1]), dtype=np.result_type(Y, V_k, np.float64))
    return _image_into(B, Y, V_k, sigma_k)


def _image_into(out, Y, V_k, sigma_k):
    """:func:`action_on_basis` written into ``out``, an n x k buffer or view, by :func:`_products_into`."""
    sigma_k = np.asarray(sigma_k, dtype=np.float64)
    if np.any(sigma_k <= 0.0) or not np.all(np.isfinite(sigma_k)):
        raise ConditioningError(
            "action_on_basis: retained singular values must be strictly positive",
            sigma_min=float(sigma_k.min()) if sigma_k.size else 0.0,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        _products_into(out, Y, V_k / sigma_k[None, :])
    if not _all_finite(out):
        raise ConditioningError("action_on_basis: B_k = Y V_k Sigma_k^-1 overflows double precision")
    return out


def qr_stack(U_k, B_k):
    """Compress (U_k  B_k) into triangular blocks by one thin QR.

    U_k and B_k are written into one column-major n x 2k buffer, which
    the Householder QR overwrites (see :func:`_stack_in_place`).  Returns
    the blocks R11 (k x k, nonnegative real diagonal after normalization),
    R12 (k x k) and R22 (min(n-k, k) x k).
    """
    U_k = np.asarray(U_k)
    B_k = np.asarray(B_k)
    if U_k.ndim != 2 or U_k.shape != B_k.shape:
        raise ShapeError("U_k and B_k must be 2-D with equal shapes, got %r and %r" % (U_k.shape, B_k.shape))
    return _normalized_stack(_householder_qr(U_k, B_k)[2])


def _stack_in_place(buf):
    """:func:`qr_stack` of (U_k  B_k) held in the column-major n x 2k ``buf``, which the QR overwrites."""
    return _normalized_stack(_geqrt(buf)[2])


def _normalized_stack(R):
    """The :class:`QrStack` of (U_k  B_k)'s triangular factor R, its rows scaled in place to a nonnegative diagonal."""
    k = R.shape[1] // 2
    diag = np.diagonal(R)
    phases = np.ones(diag.shape[0], dtype=R.dtype if np.iscomplexobj(R) else np.float64)
    nz = np.abs(diag) > 0.0
    phases[nz] = diag[nz] / np.abs(diag[nz])
    R *= phases.conj()[:, None]
    return QrStack(r11=R[:k, :k], r12=R[:k, k:], r22=R[k:, k:])


def rayleigh_from_qr(stack):
    """Rayleigh quotient U_k* B_k read off the normalized QR blocks.

    No additional large product is formed; the phase-corrected R12 block
    already equals U_k* B_k up to roundoff because the leading triangular
    block of an orthonormal matrix is diagonal unimodular.
    """
    return stack.r12.copy()


def _eig(S):
    try:
        lambdas, W = np.linalg.eig(S)
    except np.linalg.LinAlgError as exc:
        raise BackendError("eigensolver failed to converge: %s" % exc) from exc
    W = W / np.linalg.norm(W, axis=0)[None, :]
    return lambdas.astype(complex), W


def _block_rows(n):
    """Rows per block of a tall product of n rows: n/32, at least 2 and at most 2048."""
    return min(2048, max(2, -(-n // 32)))


def _row_ranges(n, rows):
    """(start, stop) of consecutive blocks of ``rows`` rows; the last takes up to ``rows`` + 1.

    A one-row block is never left: numpy runs that as a vector product.
    """
    start = 0
    while start < n:
        stop = n if n - start < rows + 2 else start + rows
        yield start, stop
        start = stop


def _product_blocks(A, W, copy=False):
    """A @ W for a tall A and a small W as (start, block) pairs in row order: the one rule of every tall product.

    Each block is one product on :func:`_block_rows` rows of A.  A real A
    times a complex W runs as real products on W viewed as a real matrix
    with interleaved real and imaginary columns, so A is never cast to
    complex.  With ``copy``, each block of A is copied out before its
    product is formed, so a consumer may overwrite those rows of A.  Each
    block is yielded as it is formed and not held by the generator, so a
    consumer that drops it before asking for the next holds one block at
    a time.  The products run at the caller's BLAS thread setting.
    """
    real_view = A.dtype == np.float64 and W.dtype == np.complex128
    Wr = np.ascontiguousarray(W).view(np.float64) if real_view else W
    for start, stop in _row_ranges(A.shape[0], _block_rows(A.shape[0])):
        block = A[start:stop].copy(order="F") if copy else A[start:stop]
        yield start, (block @ Wr).view(complex) if real_view else block @ Wr


def _products_into(out, A, W):
    """A @ W written into ``out`` by the blocks of :func:`_product_blocks`, inside the one BLAS scope.

    Each block runs on one BLAS thread, so no temporary of the result's
    size is formed and the bits do not depend on the thread setting.  A
    may lie in ``out``'s memory where each of its rows shares memory only
    with the same row of ``out``: each block of A is then copied out
    before its product overwrites those rows.
    """
    with _one_blas_thread:
        for start, block in _product_blocks(A, W, copy=np.may_share_memory(out, A)):
            out[start:start + len(block)] = block
            del block  # not held while the next block is formed
    return out


def _lift(A, W):
    """A @ W by :func:`_products_into`, into a fresh column-major array."""
    return _products_into(np.empty((A.shape[0], W.shape[1]), dtype=np.result_type(A, W), order="F"), A, W)


def ritz_pairs(S_k, U_k):
    """Eigenpairs of the Rayleigh quotient lifted through the basis.

    Returns (lambdas, W, Z) with unit-norm coefficient columns W and
    Z = U_k W; Z columns are unit norm because the basis is orthonormal.
    """
    lambdas, W = _eig(np.asarray(S_k))
    return lambdas, W, _lift(np.asarray(U_k), W)


def data_driven_residuals(B_k, U_k, W, lambdas):
    """|| B_k w_i - lambda_i U_k w_i || for unit-norm coefficient columns, read off one QR of (U_k  B_k)."""
    return _residuals_from_stack(qr_stack(U_k, B_k), lambdas, W)


def _residuals_from_stack(stack, lambdas, W):
    """The residuals of :func:`data_driven_residuals` in 2k dimensions.

    Uses || R_lambda w || with R_lambda stacked from the QR blocks, which
    equals the ambient residual norm exactly because Q has orthonormal
    columns; :func:`_column_norms` keeps it finite and accurate.
    """
    W = np.asarray(W)
    top = stack.r12 @ W - (stack.r11 @ W) * np.asarray(lambdas)[None, :]
    return _column_norms(np.vstack([top, stack.r22 @ W]))


def _pow2_scaled(X):
    """(2^e X, e) for the power of two that brings X's largest real or
    imaginary part into [1/2, 1); e = 0 for a zero or non-finite X.  The
    scaling is exact wherever it leaves entries in the normal range.
    """
    X = np.ascontiguousarray(X, dtype=np.result_type(X, np.float64))
    F = X.view(np.float64)
    big = np.abs(F).max(initial=0.0)
    e = -int(np.frexp(big)[1]) if np.isfinite(big) else 0
    return np.ldexp(F, e).view(X.dtype), e


def _solve_by_cross_product(stack, lam):
    """(w, ||R_lambda w||) from the smallest eigenpair of the cross-product
    matrix, or None where the accept rule of :func:`refine_ritz` fails."""
    if stack.k < 2:
        return None
    a, d, AhA, AhB, BhB, norm_a, norm_b = stack._cross
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.ldexp(lam.real, d) + 1j * np.ldexp(lam.imag, d) if np.iscomplexobj(lam) else np.ldexp(lam, d)
        C = mu * AhB
        H = AhA - C - C.conj().T + abs(mu) ** 2 * BhB
        if not np.isfinite(H).all():
            return None
        eta = _EPS * (norm_a + abs(mu) * norm_b) ** 2
        h1 = np.abs(H).sum(axis=0).max()
    try:
        (mu1, mu2), W = scipy.linalg.eigh(H, subset_by_index=[0, 1], check_finite=False, overwrite_a=True)
    except np.linalg.LinAlgError:
        return None
    gap = mu2 - mu1 - 2.0 * eta
    if not gap > 0.0:
        return None
    w = W[:, 0] / np.linalg.norm(W[:, 0])
    sigma = float(_residuals_from_stack(stack, [lam], w[:, None])[0])
    with np.errstate(over="ignore"):
        delta = min((stack.k - 1) * eta**2 / gap, h1 * (eta / gap) ** 2)
        return (w, sigma) if delta <= 2e-14 * np.ldexp(sigma, a) ** 2 else None


def _solve_by_svd(stack, lam):
    """(w, ||R_lambda w||) from the SVD of the triangular factor of the shifted stack R_lambda."""
    R_lam = np.vstack([stack.r12 - lam * stack.r11, stack.r22])
    try:
        _, _, Vh = np.linalg.svd(np.linalg.qr(R_lam, mode="r"))
    except np.linalg.LinAlgError as exc:
        raise BackendError("refinement SVD failed to converge: %s" % exc) from exc
    w = Vh[-1, :].conj()
    w = w / np.linalg.norm(w)
    return w, float(_residuals_from_stack(stack, [lam], w[:, None])[0])


def refine_ritz(stack, lam):
    """Optimal unit vector of the POD subspace for the Ritz value ``lam``.

    Minimizes the data-driven residual over all unit vectors in the span:
    the minimizer is the right singular vector of the smallest singular
    value of the stacked shifted blocks R_lambda, that is, the eigenvector
    of the smallest eigenvalue of H = R_lambda* R_lambda.  H is formed from
    products of A = 2^a [R12; R22] and B = 2^b R11 made once per stack,
    with the shift 2^(a-b) lambda, so it neither overflows nor underflows,
    and one Hermitian eigensolve gives its two smallest eigenpairs
    mu_1 <= mu_2.  The eigenvector w is accepted when k >= 2, H is finite,
    the eigensolver converged, gap = mu_2 - mu_1 - 2 eta > 0 and the
    Davis-Kahan bound on the excess of w* H w over sigma_min^2,
    delta = min((k - 1) eta^2 / gap, ||H||_1 (eta / gap)^2), is at most
    2e-14 ||2^a R_lambda w||^2: the residual is then within about 1e-14
    relative of the minimum.  eta = eps (||A||_F + 2^(a-b) |lambda| ||B||_F)^2
    is the LAPACK Users' Guide error-bound recipe without its polynomial
    factor, an estimate of the backward error of H and not a bound;
    ``test_refine_ritz_matches_svd_route_over_oracle_family`` in
    ``tests/test_ritz.py`` checks it against the SVD.  Every other shift,
    such as one whose residual is at roundoff level (an invariant
    subspace), falls back to the SVD of the k x k triangular factor of
    R_lambda, which has the same right singular vectors.  Either way the
    reported residual is || R_lambda w || by :func:`_residuals_from_stack`,
    trusted instead of the solver's estimate.

    For real blocks R_conj(lambda) = conj(R_lambda), so a shift with
    negative imaginary part returns the conjugate of the solve for its
    partner.  Solves are memoized on ``stack``: a repeated or conjugate
    shift returns the same bits as a fresh solve, at no cost.  A solve runs
    inside the one BLAS scope, so its bits do not depend on the BLAS
    thread setting.
    """
    lam = np.asarray(lam)[()]
    flip = lam.imag < 0 and not any(np.iscomplexobj(b) for b in (stack.r11, stack.r12, stack.r22))
    if flip:
        lam = lam.conjugate()
    # Keyed by the exact bits and dtype of the shift, so a hit is only ever
    # the result a fresh solve would give.  Concurrent callers may both
    # solve one shift; their results are identical, so either store wins.
    key = (lam.dtype.str, lam.tobytes())
    hit = stack._refined.get(key)
    if hit is None:
        with _one_blas_thread:
            hit = _solve_by_cross_product(stack, lam) or _solve_by_svd(stack, lam)
        stack._refined[key] = hit
    w, sigma = hit
    return (w.conj() if flip else w.copy()), sigma


def refined_rayleigh_value(S_k, w):
    """Rayleigh quotient w* S_k w of a unit coefficient vector.

    For a refined vector this value is at least as good an eigenvalue
    estimate as the Ritz value it started from: the residual with it never
    exceeds the residual with the original value.
    """
    w = np.asarray(w)
    return complex(w.conj() @ (np.asarray(S_k) @ w))


def koopman_log_map(lambdas, dt):
    """Continuous-time exponents (log|l| + i arg l) / (2 pi dt).

    ``dt`` is a positive finite real number; a boolean, a string, an
    array, a complex number, NaN, an infinity, zero or a negative value is
    a :class:`DataError`.  Principal branch of the argument; a zero Ritz
    value has no finite logarithm and is a domain error.
    """
    # bool is an Integral, numpy's bool_ neither Real nor Integral
    if isinstance(dt, bool) or not isinstance(dt, numbers.Real) or not 0.0 < dt < np.inf:
        raise DataError("koopman_log_map: dt must be a positive finite real number, got %r" % (dt,))
    dt = float(dt)
    lambdas = np.asarray(lambdas, dtype=complex)
    if np.any(lambdas == 0):
        raise DataError("koopman_log_map: zero Ritz value has no logarithm")
    return (np.log(np.abs(lambdas)) + 1j * np.angle(lambdas)) / (2.0 * np.pi * dt)


def order_pairs(residuals, lambdas):
    """Permutation sorting pairs by ascending residual.

    Ties (and all-NaN residual variants) fall back to ascending modulus,
    then ascending argument, so the ordering is deterministic.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    lambdas = np.asarray(lambdas, dtype=complex)
    return np.lexsort((np.angle(lambdas), np.abs(lambdas), residuals))
