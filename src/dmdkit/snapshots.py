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
_HUGE = float(np.finfo(np.float64).max)


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


def _ldexp(A, e, out):
    """A with column j times 2^e_j, into ``out`` (A itself included), real and imaginary parts apart.

    Exact wherever no scaled entry leaves the normal range; one that
    overflows is left infinite for the caller to report.
    """
    with np.errstate(over="ignore"):
        if A.dtype.kind == "c":
            np.ldexp(A.real, e, out=out.real)
            np.ldexp(A.imag, e, out=out.imag)
        else:
            np.ldexp(A, e, out=out)
    return out


def _column_norms(X):
    """Column 2-norms that stay finite and accurate for finite columns.

    A column whose plain norm overflows or underflows (see
    :func:`_inexact_norms`) is measured again as 2^p ||2^-p x||, p the
    binary exponent of max|x| (see :func:`_ldexp`); every other column keeps
    the bits of ``np.linalg.norm(X, axis=0)``.
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
            p = np.frexp(np.abs(Xr).max(axis=0))[1]
            d[redo] = np.ldexp(np.linalg.norm(_ldexp(Xr, -p, Xr), axis=0), p)
    return d


def _check_norms(A, name, d=None):
    """A :class:`ConditioningError` naming the first column of the finite A whose 2-norm overflows.

    ``d`` holds the norms where measured already; otherwise they are
    measured only where A's largest part, read with no temporary, times
    sqrt(2 rows) leaves the double range.
    """
    parts = (A.real, A.imag) if A.dtype.kind == "c" else (A,)
    if d is None and max(max(p.max(initial=0.0), -p.min(initial=0.0)) for p in parts) < _HUGE / (2 * len(A)) ** 0.5:
        return
    over = np.flatnonzero(np.isinf(_column_norms(A) if d is None else d))
    if over.size:
        raise ConditioningError("the 2-norm of column %d of %s overflows double precision" % (over[0], name))


def _exponents(A):
    """(e, norms): e_j, minus the binary exponent of ||a_j||, takes column j to a 2-norm in [1/2, 1).

    A zero column gets e_j = 0, and a norm at or above 2^1023, whose 2^-e_j
    is no double, e_j = -1023 (a norm in [1, 2)).  A norm beyond the double
    range is a :class:`ConditioningError` (see :func:`_check_norms`).
    """
    d = _column_norms(A)
    _check_norms(A, "X", d)
    return -np.minimum(np.frexp(d)[1], 1023), d


def scale_columns(pair):
    """Rescale a pair by powers of two to X-columns of 2-norm in [1/2, 1); near optimal conditioning.

    Column j of X and Y is multiplied by 2^e_j (see :func:`_exponents`),
    which is exact at every scale, subnormal included.  Returns the scaled
    :class:`SnapshotPair`, column-major copies, and the float64 divisors
    2^-e_j, 0 for a zero column, which stays in place: X == X_s * divisors
    bit for bit wherever no scaled entry falls below the normal range.  By
    van der Sluis (Numer. Math. 14, 1969) the scaled X, its column norms
    within a factor 2 of each other (4 where one reaches 2^1023), has
    condition number within 2 sqrt(m) (4 sqrt(m)) of the best any positive
    diagonal column scaling achieves.  A Y that leaves the double range
    once scaled is a :class:`ConditioningError`, and so is an X column
    whose 2-norm does.
    """
    X, Y = np.array(pair.X, order="F"), np.array(pair.Y, order="F")
    e, d = _exponents(X)
    _ldexp(X, e, X)
    if not _all_finite(_ldexp(Y, e, Y)):
        raise ConditioningError("scale_columns: the scaled Y overflows double precision")
    return SnapshotPair(X, Y), np.ldexp(np.sign(d), -e)


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
