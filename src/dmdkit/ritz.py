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
Householder QR (LAPACK ?geqrt) overwrites it; Q is never formed.

Refinement costs one QR of the shifted stack plus one k x k SVD of its
triangular factor per distinct shift.  When the blocks are real, the
stack of a conjugate shift is the conjugate stack, so each conjugate
pair of Ritz values is solved once; the solves are memoized on the
:class:`QrStack` and every caller holding the same stack shares them.
Each solve runs its small QR and SVD on one thread of numpy's OpenBLAS,
whatever thread count the process was started with, so the solves round
the same bits under any BLAS thread setting.  The refined pipelines and
fb of :mod:`dmdkit.variants` hold that one thread from start to finish
through the same scope (:data:`_one_blas_thread`, a context manager and
decorator); dmd and exact_dmd do not, because their long product U* Y
rounds differently by thread count.  While a scope is held, numpy's
OpenBLAS uses one thread for the whole process: a computation running
concurrently in another Python thread of the same process may then
round differently from run to run.  scipy's separate OpenBLAS, which
runs the tall factorizations, keeps its threads.
"""

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass

import numpy as np

from .errors import BackendError, ConditioningError, DataError, ShapeError
from .inner import InnerProduct
from .pod import _householder_qr
from .snapshots import _column_norms, _inexact_norms

__all__ = [
    "QrStack",
    "RefinedPair",
    "RitzDecomposition",
    "action_on_basis",
    "qr_stack",
    "rayleigh_from_qr",
    "ritz_pairs",
    "data_driven_residuals",
    "residuals_from_stack",
    "refine_ritz",
    "refined_rayleigh_value",
    "koopman_log_map",
    "order_pairs",
]


@dataclass(frozen=True, eq=False)
class QrStack:
    """Triangular blocks of the thin QR of (U_k  B_k); Q is never formed.

    The first block row is scaled so the diagonal of ``r11`` is nonnegative
    real; ``phi`` records the unimodular diagonal factors that were taken
    out.  ``r22`` has min(n - k, k) rows and is empty when the basis spans
    the whole space.
    """

    r11: np.ndarray
    r12: np.ndarray
    r22: np.ndarray
    phi: np.ndarray

    @property
    def k(self):
        return self.r11.shape[0]

    @functools.cached_property
    def _refined(self):
        """Memo of :func:`refine_ritz` solves, keyed by the canonical shift."""
        return {}


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
    sigma_k = np.asarray(sigma_k, dtype=np.float64)
    if np.any(sigma_k <= 0.0) or not np.all(np.isfinite(sigma_k)):
        raise ConditioningError(
            "action_on_basis: retained singular values must be strictly positive",
            sigma_min=float(sigma_k.min()) if sigma_k.size else 0.0,
        )
    Y = np.asarray(Y)
    V_k = np.asarray(V_k)
    if Y.shape[1] != V_k.shape[0]:
        raise ShapeError(
            "Y has %d columns but V_k has %d rows" % (Y.shape[1], V_k.shape[0])
        )
    with np.errstate(over="ignore", invalid="ignore"):
        B = Y @ (V_k / sigma_k[None, :])
    if not np.isfinite(B).all():
        raise ConditioningError("action_on_basis: B_k = Y V_k Sigma_k^-1 overflows double precision")
    return B


def qr_stack(U_k, B_k):
    """Compress (U_k  B_k) into triangular blocks by one thin QR.

    U_k and B_k are written into one column-major n x 2k buffer, which
    the Householder QR overwrites; R is the upper triangle of its top
    min(n, 2k) rows.  Returns the blocks R11 (k x k, nonnegative real
    diagonal after normalization), R12 (k x k) and R22 (min(n-k, k) x k)
    together with the extracted unimodular diagonal ``phi``.
    """
    U_k = np.asarray(U_k)
    B_k = np.asarray(B_k)
    if U_k.ndim != 2 or U_k.shape != B_k.shape:
        raise ShapeError("U_k and B_k must be 2-D with equal shapes, got %r and %r" % (U_k.shape, B_k.shape))
    k = U_k.shape[1]
    R = _householder_qr(U_k, B_k)[2]
    diag = np.diagonal(R)
    phases = np.ones(diag.shape[0], dtype=R.dtype if np.iscomplexobj(R) else np.float64)
    nz = np.abs(diag) > 0.0
    phases[nz] = diag[nz] / np.abs(diag[nz])
    R = R * phases.conj()[:, None]
    return QrStack(
        r11=R[:k, :k],
        r12=R[:k, k:],
        r22=R[k:, k:],
        phi=phases[:k],
    )


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


# Rows of the real operand per block product in :func:`_lift`.
_LIFT_BLOCK = 2048


def _lift(A, W):
    """A @ W for a tall real A and a small complex W, in real arithmetic.

    W is viewed as a real matrix with interleaved real and imaginary
    columns, so A is never cast to complex, whatever its memory layout;
    one real product per block of rows of A fills a column-major complex
    result.  On the kernels measured (OpenBLAS 0.3.31, Haswell) this
    rounds like numpy's mixed product A @ W bit for bit for a column-major
    A with at most 96 columns, and can differ by roundoff beyond; for a
    row-major A it differs already at 16 columns.  Any other dtype, or a
    single row or column, takes the plain product.
    """
    n, p = A.shape[0], W.shape[1]
    if A.dtype != np.float64 or W.dtype != np.complex128 or min(n, p) < 2:
        return A @ W
    Wr = np.ascontiguousarray(W).view(np.float64)
    Z = np.empty((n, p), dtype=complex, order="F")
    start = 0
    while start < n:
        # Never leave a one-row block: numpy runs that as a vector product.
        stop = n if n - start < _LIFT_BLOCK + 2 else start + _LIFT_BLOCK
        Z[start:stop] = (A[start:stop] @ Wr).view(complex)
        start = stop
    return Z


def ritz_pairs(S_k, U_k):
    """Eigenpairs of the Rayleigh quotient lifted through the basis.

    Returns (lambdas, W, Z) with unit-norm coefficient columns W and
    Z = U_k W; Z columns are unit norm because the basis is orthonormal.
    """
    lambdas, W = _eig(np.asarray(S_k))
    return lambdas, W, _lift(np.asarray(U_k), W)


def data_driven_residuals(B_k, U_k, W, lambdas):
    """|| B_k w_i - lambda_i U_k w_i || for unit-norm coefficient columns."""
    W = np.asarray(W)
    R = _lift(np.asarray(B_k), W) - _lift(np.asarray(U_k), W * np.asarray(lambdas)[None, :])
    return _column_norms(R)


def residuals_from_stack(stack, lambdas, W):
    """Same residuals as :func:`data_driven_residuals`, in 2k dimensions.

    Uses || R_lambda w || with R_lambda stacked from the QR blocks, which
    equals the ambient residual norm exactly because Q has orthonormal
    columns.  A norm that overflows or underflows is measured again with
    scaling.
    """
    W = np.asarray(W)
    lambdas = np.asarray(lambdas)
    top = stack.r12 @ W - (stack.r11 @ W) * lambdas[None, :]
    bottom = stack.r22 @ W
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.sqrt(np.linalg.norm(top, axis=0) ** 2 + np.linalg.norm(bottom, axis=0) ** 2)
    redo = _inexact_norms(res)
    if redo.any():
        res[redo] = _column_norms(np.vstack([top[:, redo], bottom[:, redo]]))
    return res


@functools.cache
def _numpy_blas_threads():
    """(set, get) thread-count functions of numpy's OpenBLAS, or None.

    Looked up through the linear-algebra extension module, so the symbols
    found are those of the library numpy itself links (scipy's OpenBLAS,
    a separate build, is not reached).  The names cover the scipy-openblas
    wheels (64- and 32-bit integers) and a plain OpenBLAS.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                set_threads = getattr(lib, prefix + "_set_num_threads" + suffix)
                get_threads = getattr(lib, prefix + "_get_num_threads" + suffix)
            except AttributeError:
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


class _OneBlasThread(contextlib.ContextDecorator):
    """Context manager and decorator holding numpy's OpenBLAS at one thread.

    The count is process-wide, so scopes share one depth counter: the
    first scope in (from any thread) saves the count and sets one thread,
    nested and concurrent scopes change nothing, and the last one out
    restores the saved count, also when leaving by an exception.  A no-op
    where numpy's BLAS exposes no thread setter.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def __enter__(self):
        threads = _numpy_blas_threads()
        with self._lock:
            if self._depth == 0 and threads is not None:
                set_threads, get_threads = threads
                self._saved = get_threads()
                set_threads(1)
            self._depth += 1

    def __exit__(self, *exc):
        threads = _numpy_blas_threads()
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and threads is not None:
                set_threads, _ = threads
                set_threads(self._saved)


_one_blas_thread = _OneBlasThread()


def refine_ritz(stack, lam):
    """Optimal unit vector of the POD subspace for the Ritz value ``lam``.

    Minimizes the data-driven residual over all unit vectors in the span:
    the minimizer is the right singular vector belonging to the smallest
    singular value of the stacked shifted blocks R_lambda.  It is read off
    the SVD of the k x k triangular factor of R_lambda, which has the same
    right singular vectors.  The reported residual is re-evaluated as
    || R_lambda w ||, which never exceeds the backend's smallest singular
    value estimate in quality and is trusted instead of it.

    For real blocks R_conj(lambda) = conj(R_lambda), so a shift with
    negative imaginary part returns the conjugate of the solve for its
    partner.  Solves are memoized on ``stack``: a repeated or conjugate
    shift returns the same bits as a fresh solve, at no cost.  A solve runs
    on one thread of numpy's OpenBLAS, so its bits do not depend on the
    BLAS thread setting.
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
            R_lam = np.vstack([stack.r12 - lam * stack.r11, stack.r22])
            try:
                _, _, Vh = np.linalg.svd(np.linalg.qr(R_lam, mode="r"))
            except np.linalg.LinAlgError as exc:
                raise BackendError("refinement SVD failed to converge: %s" % exc) from exc
            w = Vh[-1, :].conj()
            w = w / np.linalg.norm(w)
            r = R_lam @ w
            with np.errstate(over="ignore"):
                sigma = np.linalg.norm(r)
            if _inexact_norms(sigma):
                sigma = _column_norms(r[:, None])[0]
        hit = (w, float(sigma))
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

    Principal branch of the argument; a zero Ritz value has no finite
    logarithm and is a domain error.
    """
    if not (dt > 0.0) or not np.isfinite(dt):
        raise DataError("koopman_log_map: dt must be positive and finite")
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
