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
copy, or, in the pipelines, of their own working array in place, takes
the SVD of the small triangular factor, and applies the reflectors to
its left singular vectors; values and vectors still come from the same
factorization.  The same QR kernel factors the residual
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
from .errors import BackendError, ConditioningError, DataError
from .inner import _require_weight
from .snapshots import _EPS, _all_finite, _check_matrix, _check_norms, _column_norms

__all__ = [
    "RankPolicy",
    "PodBasis",
    "default_epsilon",
    "truncated_svd",
    "weighted_pod",
]

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


def _check_policy(policy):
    """``policy`` if it is a :class:`RankPolicy` or None, the default; anything else is a :class:`DataError`."""
    if policy is not None and not isinstance(policy, RankPolicy):
        raise DataError("rank policy must be a RankPolicy, got %r" % (policy,))
    return policy


def _numerical_rank(sigma, policy):
    """Apply a rank policy to the descending singular value profile of a nonzero matrix.

    The profile of finite data can still overflow; a non-finite entry is a
    :class:`DataError`, so no rank is read off it.
    """
    if not np.isfinite(sigma).all():
        raise DataError("singular value profile contains non-finite entries")
    if policy.kind == "spectral":
        return int(np.count_nonzero(sigma > policy.epsilon * sigma[0]))
    if policy.k > sigma.size or sigma[policy.k - 1] <= 0.0:
        raise ConditioningError(
            "truncated_svd: data cannot support fixed rank %d (only %d positive singular values)"
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


def _householder_qr(*blocks, weight=None, name=None):
    """Householder QR of the blocks side by side: :func:`_geqrt` of one column-major buffer.

    The blocks, of equal height, or their images under the state weight
    ``weight``, are written into one buffer of their common dtype (at
    least float64), which the factorization overwrites.  Where ``name``
    is given, an overflowing column norm of the buffer is first checked
    (see :func:`_check_norms`).
    """
    dtype = np.result_type(*blocks, *(() if weight is None else (weight.factor,)), np.float64)
    a = np.empty((len(blocks[0]), sum(b.shape[1] for b in blocks)), dtype=dtype, order="F")
    for b, out in zip(blocks, np.split(a, np.cumsum([b.shape[1] for b in blocks[:-1]]), axis=1)):
        # A diagonal factor writes its image into the buffer (a no-op copy follows); a dense one's is copied in.
        out[...] = b if weight is None else weight._transform_into(b, out)
    if name is not None:
        _check_norms(a, name)
    return _geqrt(a)


def _geqrt(a):
    """Householder QR of the column-major double buffer ``a`` in place (LAPACK ?geqrt).

    Returns (a, T, R): the reflectors below the diagonal of ``a``, the
    block reflector factors T for ?gemqrt, and R, the upper triangle of
    the top min(rows, columns) rows of ``a``.  The panels are factored
    recursively, so the work runs in matrix-matrix products.
    """
    (geqrt,) = scipy.linalg.get_lapack_funcs(("geqrt",), (a,))
    with _one_blas_thread:
        a, t, info = geqrt(min(32, *a.shape), a, overwrite_a=True)
    if info != 0:
        raise BackendError("QR backend failed: ?geqrt returned info = %d" % info)
    return a, t, np.triu(a[: min(a.shape)])


def _apply_reflectors(a, t, top, out=None, count=None):
    """Q [top; 0] for the factors (a, T) of :func:`_geqrt` (LAPACK ?gemqrt).

    ``top`` has the dtype of ``a``; it is zero-padded to the height of
    ``a`` in ``out``, a column-major buffer that is zero below the rows of
    ``top``, or in a fresh one.  The reflectors overwrite that buffer in
    place, and it is returned.  Only the first ``count`` reflectors are
    applied, all by default.
    """
    count = t.shape[1] if count is None else count
    C = np.zeros((a.shape[0], top.shape[1]), dtype=a.dtype, order="F") if out is None else out
    C[: top.shape[0]] = top
    (gemqrt,) = scipy.linalg.get_lapack_funcs(("gemqrt",), (a,))
    with _one_blas_thread:
        C, info = gemqrt(a[:, :count], t[:, :count], C, overwrite_c=True)
    if info != 0:
        raise BackendError("QR backend failed: ?gemqrt returned info = %d" % info)
    return C


def _gesvd(G):
    """SVD of G, which it may overwrite: checked input, or its triangular factor, non-finite only where sigma overflows."""
    if not _all_finite(G):
        raise DataError("singular value profile contains non-finite entries")
    try:
        with _one_blas_thread:
            return scipy.linalg.svd(G, full_matrices=False, lapack_driver="gesvd", overwrite_a=True,
                                    check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise BackendError("SVD backend failed to converge: %s" % exc) from exc


def _svd_for_pod(G, columns, dtype):
    """Thin SVD of the column-major double buffer G, which it overwrites.

    Values and vectors come from one factorization.  When the column norms
    of G are badly graded, a pivoted QR comes first and ``gesvd`` runs on
    its triangular factor.  Otherwise tall G (n > m) is factored
    G = Q R by :func:`_geqrt` in place, ``gesvd`` runs on the m x m R,
    and U = Q [U_r; 0] is formed by applying the reflectors (?gemqrt);
    other shapes go to ``gesvd`` directly.  The result depends on the
    values of G only.  Returns (U, s, V), the r = min(n, m) left singular
    vectors in the leading columns of U, a fresh zeroed column-major
    buffer of max(r, ``columns``) columns and dtype ``dtype`` (G's where
    None).
    """
    n, m = G.shape
    r = min(n, m)
    norms = _column_norms(G)
    positive = norms[norms > 0.0]
    pivoted = positive.size and positive.max() / _QR_PREPROCESS_SPREAD > positive.min()
    U = np.zeros((n, max(r, columns)), dtype=G.dtype if dtype is None else dtype, order="F")
    if pivoted:
        with _one_blas_thread:
            Q, R, piv = scipy.linalg.qr(G, mode="economic", pivoting=True, overwrite_a=True)
        Ur, s, Vh_p = _gesvd(R)
        U[:, :r] = Q @ Ur
        V = np.empty((m, Vh_p.shape[0]), dtype=Vh_p.dtype)
        V[piv, :] = Vh_p.conj().T
        return U, s, V
    if n > m:
        a, t, R = _geqrt(G)
        Ur, s, Vh = _gesvd(R)
        if U.dtype == a.dtype:
            _apply_reflectors(a, t, Ur, out=U[:, :m])
        else:
            U[:, :m] = _apply_reflectors(a, t, Ur)
    else:
        Ur, s, Vh = _gesvd(G)
        U[:, :r] = Ur
    return U, s, Vh.conj().T


def _pod_in_place(G, policy=None, columns=0, dtype=None):
    """The POD of :func:`truncated_svd` on the column-major double buffer G, which it overwrites.

    Returns (basis, U): ``basis.U`` is a view of the first k columns of
    the buffer U of :func:`_svd_for_pod`, which has at least ``columns``
    columns and dtype ``dtype``.
    """
    if policy is None:
        policy = RankPolicy.spectral(default_epsilon(*G.shape))
    U, s, V = _svd_for_pod(G, columns, dtype)
    if s[0] <= 0.0:
        raise ConditioningError("truncated_svd: input matrix is numerically zero", sigma_min=0.0)
    k = _numerical_rank(s, policy)
    return PodBasis(U=U[:, :k], sigma=s[:k].copy(), V=V[:, :k], rank=k, sigma_all=s), U


def truncated_svd(X, policy=None):
    """POD basis of X under the given rank policy (default: spectral).

    Returns a :class:`PodBasis` whose retained singular values are all
    strictly positive and whose basis satisfies U*U = I to roundoff.
    The SVD factors a column-major copy of X.
    """
    X = _check_matrix(X, "POD input")
    _check_policy(policy)
    return _pod_in_place(np.array(X, order="F"), policy)[0]


def weighted_pod(X, weight, policy=None):
    """POD of X in the geometry of ``weight``.

    The SVD runs on the transformed matrix (L* X, or L^{-1} X for the
    inverse orientation); the returned basis is lifted back to ambient
    coordinates, where it is orthonormal in the weighted inner product.
    """
    weight = _require_weight(weight, "weight")
    _check_policy(policy)
    basis = truncated_svd(weight.transform(X), policy)
    return dataclasses.replace(basis, U=weight.lift(basis.U))
