"""Truncated singular value decompositions with explicit rank policies.

The numerical rank is a policy decision, not a property of the data
alone, so every decomposition states which rule produced its rank:

* ``spectral``: keep sigma_i strictly above epsilon * sigma_1,
* ``fixed``: a caller-chosen dimension.

One code path computes singular values and vectors together; there is
deliberately no values-only shortcut, because mixing two SVD routines in
one decomposition is exactly the failure mode the residual diagnostics
of this package are designed to expose.  For tall input that path
starts with a level-3 Householder QR (LAPACK ?geqrt) of a column-major
copy, takes the SVD of the small triangular factor, and applies the
reflectors to its left singular vectors; values and vectors still come
from the same factorization.  The same QR kernel factors the residual
stack of :mod:`dmdkit.ritz`.

Each LAPACK kernel here runs on one thread of every OpenBLAS in the
process (the one BLAS scope, :data:`dmdkit._blas._one_blas_thread`), so
its bits do not depend on the BLAS thread setting.
"""

import dataclasses
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import _one_blas_thread
from .errors import BackendError, ConditioningError, DataError, ShapeError
from .inner import InnerProduct
from .snapshots import _as_double, _check_matrix, _column_norms

__all__ = [
    "RankPolicy",
    "PodBasis",
    "default_epsilon",
    "numerical_rank",
    "truncated_svd",
    "weighted_pod",
]

_EPS = float(np.finfo(np.float64).eps)

# Column-norm spread above which a pivoted QR preprocessing step is applied
# before the SVD, so heavily graded columns do not poison the backend.
_QR_PREPROCESS_SPREAD = 1e8


def default_epsilon(n, m):
    """Spectral truncation threshold max(n, m+1) * unit roundoff."""
    return max(n, m + 1) * _EPS


class RankPolicy:
    """Rule mapping a singular value profile to a truncation rank."""

    def __init__(self, kind, epsilon=None, k=None):
        if kind not in ("spectral", "fixed"):
            raise DataError("unknown rank policy kind %r" % (kind,))
        # bool is an Integral, numpy's bool_ neither Real nor Integral
        if kind == "spectral":
            if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real) or not 0.0 < epsilon < 1.0:
                raise DataError("spectral policy needs a real 0 < epsilon < 1, got %r" % (epsilon,))
            epsilon = float(epsilon)
        if kind == "fixed":
            if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
                raise DataError("fixed rank policy needs an integer k >= 1, got %r" % (k,))
            k = int(k)
        self.kind = kind
        self.epsilon = epsilon
        self.k = k

    @classmethod
    def spectral(cls, epsilon):
        return cls("spectral", epsilon=epsilon)

    @classmethod
    def fixed(cls, k):
        return cls("fixed", k=k)

    def __repr__(self):
        if self.kind == "fixed":
            return "RankPolicy.fixed(%d)" % self.k
        return "RankPolicy.spectral(%g)" % self.epsilon


def numerical_rank(sigma, policy):
    """Apply a rank policy to a descending singular value profile."""
    if not isinstance(policy, RankPolicy):
        raise DataError("rank policy must be a RankPolicy, got %r" % (policy,))
    sigma = _as_double(sigma, "singular value profile")
    if sigma.dtype.kind == "c":
        raise DataError("singular value profile must be real, got dtype %s" % sigma.dtype)
    if sigma.ndim != 1:
        raise ShapeError("singular value profile must be a 1-D array, got ndim=%d" % sigma.ndim)
    if not np.all(np.isfinite(sigma)):
        raise DataError("singular value profile contains non-finite entries")
    if sigma.size == 0 or sigma[0] <= 0.0:
        raise ConditioningError("numerical_rank: zero matrix has no positive rank", sigma_min=0.0)
    if policy.kind == "spectral":
        return int(np.count_nonzero(sigma > policy.epsilon * sigma[0]))
    if policy.k > sigma.size or sigma[policy.k - 1] <= 0.0:
        raise ConditioningError(
            "numerical_rank: data cannot support fixed rank %d (only %d positive singular values)"
            % (policy.k, int(np.count_nonzero(sigma > 0.0))),
            sigma_min=float(sigma[min(policy.k, sigma.size) - 1]),
            sigma_max=float(sigma[0]),
        )
    return policy.k


@dataclass(frozen=True, eq=False)
class PodBasis:
    """Rank-k POD basis with its singular data, compared by identity.

    ``U`` is orthonormal in the geometry the POD was taken in; ``sigma``
    and ``V`` are the retained singular values and right vectors, and
    ``sigma_all`` the full singular value profile the rank was read from.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rank: int
    sigma_all: np.ndarray


def _householder_qr(*blocks):
    """Householder QR of the blocks side by side (LAPACK ?geqrt).

    The blocks, of equal height, are written into one column-major buffer
    ``a`` of their common dtype (at least float64), which the
    factorization overwrites.  Returns (a, T, R): the reflectors below the
    diagonal of ``a``, the block reflector factors T for ?gemqrt, and R,
    the upper triangle of the top min(rows, columns) rows of ``a``.  The
    panels are factored recursively, so the work runs in matrix-matrix
    products.
    """
    n, cols = blocks[0].shape[0], sum(b.shape[1] for b in blocks)
    a = np.empty((n, cols), dtype=np.result_type(*blocks, np.float64), order="F")
    np.concatenate(blocks, axis=1, out=a)
    (geqrt,) = scipy.linalg.get_lapack_funcs(("geqrt",), (a,))
    with _one_blas_thread:
        a, t, info = geqrt(min(32, *a.shape), a, overwrite_a=True)
    if info != 0:
        raise BackendError("QR backend failed: ?geqrt returned info = %d" % info)
    return a, t, np.triu(a[: min(a.shape)])


def _apply_reflectors(a, t, top):
    """Q [top; 0] for the factors (a, T) of :func:`_householder_qr` (LAPACK ?gemqrt).

    ``top`` has one row per reflector and the dtype of ``a``; it is
    zero-padded to the height of ``a`` in a column-major buffer, which the
    reflectors overwrite in place and which is returned.
    """
    C = np.zeros((a.shape[0], top.shape[1]), dtype=a.dtype, order="F")
    C[: top.shape[0]] = top
    (gemqrt,) = scipy.linalg.get_lapack_funcs(("gemqrt",), (a,))
    with _one_blas_thread:
        C, info = gemqrt(a[:, : t.shape[1]], t, C, overwrite_c=True)
    if info != 0:
        raise BackendError("QR backend failed: ?gemqrt returned info = %d" % info)
    return C


def _gesvd(G):
    try:
        with _one_blas_thread:
            return scipy.linalg.svd(G, full_matrices=False, lapack_driver="gesvd")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise BackendError("SVD backend failed to converge: %s" % exc) from exc


def _thin_svd(G):
    """Single SVD path: values and vectors from one factorization.

    Tall G (n > m) is factored G = Q R by :func:`_householder_qr` on an
    exact column-major copy; ``gesvd`` runs on the m x m R, and
    U = Q [U_r; 0] is formed in place by applying the reflectors
    (?gemqrt).  Other shapes go to ``gesvd`` directly.  Either way the
    result depends on the values of G only, not on its memory layout.
    """
    n, m = G.shape
    if n <= m:
        return _gesvd(G)
    a, t, R = _householder_qr(G)
    Ur, s, Vh = _gesvd(R)
    return _apply_reflectors(a, t, Ur), s, Vh


def _svd_for_pod(G):
    """Thin SVD, with a pivoted QR first when column norms are badly graded."""
    norms = _column_norms(G)
    positive = norms[norms > 0.0]
    if positive.size and positive.max() > _QR_PREPROCESS_SPREAD * positive.min():
        with _one_blas_thread:
            Q, R, piv = scipy.linalg.qr(G, mode="economic", pivoting=True)
        Ur, s, Vh_p = _thin_svd(R)
        U = Q @ Ur
        V = np.empty((G.shape[1], Vh_p.shape[0]), dtype=Vh_p.dtype)
        V[piv, :] = Vh_p.conj().T
        return U, s, V
    U, s, Vh = _thin_svd(G)
    return U, s, Vh.conj().T


def truncated_svd(X, policy=None):
    """POD basis of X under the given rank policy (default: spectral).

    Returns a :class:`PodBasis` whose retained singular values are all
    strictly positive and whose basis satisfies U*U = I to roundoff.
    """
    X = _check_matrix(X, "POD input")
    if policy is None:
        policy = RankPolicy.spectral(default_epsilon(*X.shape))
    U, s, V = _svd_for_pod(X)
    if s[0] <= 0.0:
        raise ConditioningError("truncated_svd: input matrix is numerically zero", sigma_min=0.0)
    k = numerical_rank(s, policy)
    return PodBasis(U=U[:, :k], sigma=s[:k].copy(), V=V[:, :k], rank=k, sigma_all=s)


def weighted_pod(X, weight, policy=None):
    """POD of X in the geometry of ``weight``.

    The SVD runs on the transformed matrix (L* X, or L^{-1} X for the
    inverse orientation); the returned basis is lifted back to ambient
    coordinates, where it is orthonormal in the weighted inner product.
    """
    if not isinstance(weight, InnerProduct):
        raise DataError("weighted_pod needs an InnerProduct weight")
    basis = truncated_svd(weight.transform(X), policy)
    return dataclasses.replace(basis, U=weight.lift(basis.U))
