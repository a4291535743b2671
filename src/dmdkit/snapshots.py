"""Snapshot containers, column scaling and the Krylov companion form.

A sequential trajectory holds m+1 states of one orbit f_{i+1} = A f_i in
its columns.  A snapshot pair (X, Y) holds m matched input/output columns
Y(:, i) = A X(:, i); pairs arise from a trajectory by dropping the last or
first column, from interleaved samples, or directly from experiments.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConditioningError, DataError, ShapeError

__all__ = [
    "SequentialTrajectory",
    "SnapshotPair",
    "KrylovCompanion",
    "scale_columns",
    "companion_decomposition",
]

_EPS = float(np.finfo(np.float64).eps)


def _as_double(a, name):
    """``a`` as a float64 or complex128 array.

    Booleans, integers and real floats become float64 and complex floats
    complex128, long double included; float64 and complex128 arrays pass
    uncopied.  Any other dtype kind, and a finite long-double value
    beyond the double range, is a :class:`DataError`.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "biufc":
        raise DataError("%s must be boolean, integer, real or complex, got dtype %s" % (name, a.dtype))
    double = np.complex128 if a.dtype.kind == "c" else np.float64
    if a.dtype.itemsize <= np.dtype(double).itemsize:
        return a.astype(double, copy=False)
    with np.errstate(over="ignore"):
        d = a.astype(double)
    if np.any(np.isinf(d) & np.isfinite(a)):
        raise DataError("%s has finite entries beyond the double precision range" % (name,))
    return d


def _check_matrix(a, name, ndims=(2,)):
    """A finite, non-empty array in double precision (see :func:`_as_double`), its ndim one of ``ndims``."""
    a = _as_double(a, name)
    if a.ndim not in ndims:
        accepted = " or ".join("%d-D" % d for d in ndims)
        raise ShapeError("%s must be a %s array, got ndim=%d" % (name, accepted, a.ndim))
    if a.size == 0:
        raise ShapeError("%s must be non-empty, got shape %r" % (name, a.shape))
    if not _all_finite(a):
        raise DataError("%s contains non-finite entries" % (name,))
    return a


def _all_finite(a):
    """Whether every entry of a double array, possibly empty, is finite: NaN-propagating max and min, no temporary."""
    if a.dtype.kind == "c":
        return _all_finite(a.real) and _all_finite(a.imag)
    return bool(np.isfinite(a.max(initial=0.0)) and np.isfinite(a.min(initial=0.0)))


@dataclass(frozen=True, eq=False)
class SequentialTrajectory:
    """States of a single orbit, one per column, at least two columns."""

    F: np.ndarray

    def __post_init__(self):
        F = _check_matrix(self.F, "trajectory")
        if F.shape[1] < 2:
            raise ShapeError("trajectory needs at least 2 columns, got %d" % F.shape[1])
        object.__setattr__(self, "F", F)

    @property
    def n(self):
        return self.F.shape[0]

    @property
    def m(self):
        """Number of snapshot pairs the trajectory induces."""
        return self.F.shape[1] - 1


@dataclass(frozen=True, eq=False)
class SnapshotPair:
    """Matched input/output snapshot columns driven by one operator."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = _check_matrix(self.X, "X")
        Y = _check_matrix(self.Y, "Y")
        if X.shape != Y.shape:
            raise ShapeError("X and Y must have equal shapes, got %r and %r" % (X.shape, Y.shape))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def m(self):
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class KrylovCompanion:
    """Least-squares companion form of a trajectory.

    ``C`` is m-by-m with unit subdiagonal, and its last column ``C[:, -1]``
    holds the coefficients of the final state in the earlier ones; ``r``
    is the least-squares residual of that fit, orthogonal to the span of
    the earlier states.
    """

    C: np.ndarray
    r: np.ndarray
    r_norm: float


def _as_trajectory(F):
    return F if isinstance(F, SequentialTrajectory) else SequentialTrajectory(F)


def _inexact_norms(d):
    """Mask of plain 2-norms whose sum of squares overflowed or underflowed.

    A norm below sqrt(tiny) summed its squares under the normal range, so
    some of them lost bits or vanished.
    """
    return ~(d >= np.sqrt(np.finfo(np.float64).tiny)) | np.isinf(d)


def _column_norms(X):
    """Column 2-norms that stay finite and accurate for finite columns.

    A column whose plain norm overflows or underflows (see
    :func:`_inexact_norms`) is measured again as max|x| * ||x / max|x|||;
    every other column keeps the bits of ``np.linalg.norm(X, axis=0)``.
    A zero column stays zero and a column holding an infinity stays
    infinite.  A column-major X is measured 1/32 of its columns at a
    time, which rounds the same bits, so no full-size temporary is formed.
    """
    step = max(1, -(-X.shape[1] // 32)) if X.flags.f_contiguous else max(1, X.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.empty(X.shape[1])
        for j in range(0, X.shape[1], step):
            d[j:j + step] = np.linalg.norm(X[:, j:j + step], axis=0)
        redo = _inexact_norms(d)
        if redo.any():
            Xr = X[:, redo]
            top = np.abs(Xr).max(axis=0)
            d[redo] = np.where(np.isinf(top) | (top == 0.0), top, top * np.linalg.norm(Xr / top, axis=0))
    return d


def _scale_factors(Xf):
    """(1 / norms, norms) of the columns of a column-major X, as :func:`_scale_arrays` applies them.

    Zero columns, and columns whose norm is below the normal range, get
    factor 1 and norm 0.
    """
    d = _column_norms(Xf)
    nz = d >= np.finfo(np.float64).tiny
    return 1.0 / np.where(nz, d, 1.0), np.where(nz, d, 0.0)


def _scale_arrays(X, Y):
    """Divide matched columns of X and Y by the column norms of X.

    Zero columns, and columns whose norm is below the normal range, are
    left untouched.  Returns the scaled copies and the norms, 0 for each
    column left untouched, which are finite for finite data (see
    :func:`_column_norms`).  A scaled Y may overflow; the pipelines
    report that as a :class:`ConditioningError` where B_k is formed.  The
    norms and both copies are column-major, so the bits do not depend on
    the memory layout of X and Y.
    """
    Xf = np.asfortranarray(X)
    inv, norms = _scale_factors(Xf)
    with np.errstate(over="ignore"):
        return _scaled(X, Xf, inv), _scaled(Y, np.asfortranarray(Y), inv), norms


def _scaled(A, Af, inv):
    """A * inv from Af, the column-major A, which is scaled in place where it is a copy."""
    return Af * inv if np.may_share_memory(Af, A) else np.multiply(Af, inv, out=Af)


def scale_columns(pair):
    """Rescale a pair to unit X-columns; near optimal spectral conditioning.

    Returns the scaled :class:`SnapshotPair` and the column 2-norms of X
    it divided by, a float64 vector; a zero entry marks a column left in
    place, one that is zero or whose norm is below the normal range
    (pseudoinverse semantics: no finite factor restores it).  The scaled
    X has condition number within sqrt(m) of the best achievable by any
    positive diagonal column scaling.  A Y that leaves the double range
    once scaled is a :class:`ConditioningError`.
    """
    Xs, Ys, norms = _scale_arrays(pair.X, pair.Y)
    if not _all_finite(Ys):
        raise ConditioningError("scale_columns: the scaled Y overflows double precision")
    return SnapshotPair(Xs, Ys), norms


def companion_decomposition(F):
    """Fit the last state of a trajectory in the span of the earlier ones.

    Solves min ||f_{m+1} - X v||_2 by a column-pivoted orthogonal
    factorization (never the normal equations) and assembles the companion
    matrix C with unit subdiagonal and the coefficients as last column.
    X must have numerically full column rank; otherwise a
    :class:`ConditioningError` reports the singular-value ratio.
    """
    traj = _as_trajectory(F)
    n, m = traj.n, traj.m
    X = traj.F[:, :m]
    f_next = traj.F[:, m]
    sigma = scipy.linalg.svdvals(X)
    tol = max(n, m) * _EPS * sigma[0] if sigma[0] > 0 else 0.0
    if sigma[0] == 0.0 or sigma[-1] <= tol:
        raise ConditioningError(
            "companion_decomposition: X is numerically rank deficient "
            "(sigma_min/sigma_1 = %.3e, tolerance %.3e)"
            % (sigma[-1] / sigma[0] if sigma[0] > 0 else 0.0, max(n, m) * _EPS),
            sigma_min=float(sigma[-1]),
            sigma_max=float(sigma[0]),
        )
    Q, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    z = scipy.linalg.solve_triangular(R, Q.conj().T @ f_next)
    c = np.empty_like(z)
    c[piv] = z
    r = f_next - X @ c
    C = np.zeros((m, m), dtype=c.dtype)
    if m > 1:
        C[np.arange(1, m), np.arange(m - 1)] = 1.0
    C[:, -1] = c
    return KrylovCompanion(C=C, r=r, r_norm=float(_column_norms(r[:, None])[0]))
