"""Weighted inner products represented by a factor of the Gram matrix.

An :class:`InnerProduct` holds a factor L with M = L L* and an orientation
flag saying whether the geometry in force is induced by M itself or by its
inverse.  All pipelines work in transformed Euclidean coordinates:

* orientation ``"M"``: vectors x map to L* x, bases lift back via L^{-*},
* orientation ``"M-inverse"``: vectors map to L^{-1} x, bases lift via L.

The factor is used as given, in double precision, and its shape sets
its structure: a 1-D factor holds the diagonal of L, a 2-D factor is L
itself, square and not necessarily triangular; one with no nonzero entry
above its diagonal is solved by substitution.
The Gram matrix is only materialized on explicit request.
The same container doubles as a column-space weight, applied from the
right with the adjoint conventions swapped accordingly.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConditioningError, DataError, ShapeError
from .snapshots import _as_double, _column_norms

__all__ = ["InnerProduct"]


@dataclass(frozen=True, eq=False)
class InnerProduct:
    factor: np.ndarray
    orientation: str = "M"
    lower_triangular: bool = field(init=False, repr=False)

    def __post_init__(self):
        factor = _as_double(self.factor, "weight factor")
        if self.orientation not in ("M", "M-inverse"):
            raise DataError("orientation must be 'M' or 'M-inverse'")
        if factor.ndim == 1:
            if not np.all(np.isfinite(factor)) or np.any(factor.real <= 0) or np.any(factor.imag != 0):
                raise DataError("diagonal weight factor must be strictly positive and finite")
            factor = factor.real.astype(np.float64)
        elif factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
            raise ShapeError("weight factor must be 1-D (diagonal) or square 2-D, got shape %r" % (factor.shape,))
        elif not np.all(np.isfinite(factor)):
            raise DataError("weight factor contains non-finite entries")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "lower_triangular", factor.ndim == 2 and not np.triu(factor, 1).any())

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, M, orientation="M"):
        """Factor a Hermitian positive definite Gram matrix by Cholesky."""
        M = _as_double(M, "weight matrix")
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ShapeError("weight matrix must be square, got shape %r" % (M.shape,))
        if not np.all(np.isfinite(M)):
            raise DataError("weight matrix contains non-finite entries")
        if np.linalg.norm(M - M.conj().T) > 1e-12 * max(1.0, np.linalg.norm(M)):
            raise DataError("weight matrix must be Hermitian")
        try:
            L = scipy.linalg.cholesky(M, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise DataError("weight matrix is not positive definite: %s" % exc) from exc
        return cls(L, orientation=orientation)

    @classmethod
    def diagonal(cls, weights, orientation="M"):
        """Diagonal Gram matrix given by its strictly positive diagonal: a vector, one row or one column."""
        w = _as_double(weights, "diagonal weights")
        if w.ndim not in (1, 2) or (w.ndim == 2 and 1 not in w.shape):
            raise ShapeError("diagonal weights must be a vector, one row or one column, got shape %r" % (w.shape,))
        w = w.reshape(-1)
        if not np.all(np.isfinite(w)) or np.any(w.real <= 0) or np.any(w.imag != 0):
            raise DataError("diagonal weights must be strictly positive and finite")
        return cls(np.sqrt(w.real), orientation=orientation)

    @classmethod
    def identity(cls, n):
        return cls.diagonal(np.ones(n))

    # -- basic shape -------------------------------------------------------

    @property
    def n(self):
        return self.factor.shape[0]

    def _check_rows(self, B, side_name):
        B = np.asarray(B)
        rows = B.shape[0]
        if rows != self.n:
            raise ShapeError(
                "weight factor of size %d does not conform to %s with %d rows" % (self.n, side_name, rows)
            )
        return B

    # -- factor application and solves --------------------------------------

    def _apply(self, B, adjoint):
        if self.factor.ndim == 1:
            return B * self.factor[:, None]
        L = self.factor.conj().T if adjoint else self.factor
        return L @ B

    def _solve(self, B, adjoint):
        if self.factor.ndim == 1:
            return B / self.factor[:, None]
        L = self.factor
        try:
            if self.lower_triangular:
                return scipy.linalg.solve_triangular(L, B, lower=True, trans="C" if adjoint else "N")
            A = L.conj().T if adjoint else L
            return scipy.linalg.solve(A, B)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise ConditioningError("weight factor is singular: %s" % exc) from exc

    # -- state-space (row) weighting ----------------------------------------

    def transform(self, X):
        """Map ambient columns into the Euclidean coordinates of the geometry."""
        X = self._check_rows(X, "state matrix")
        if self.orientation == "M":
            return self._apply(X, adjoint=True)
        return self._solve(X, adjoint=False)

    def lift(self, U_tilde):
        """Pull transformed basis columns back to ambient coordinates."""
        U_tilde = self._check_rows(U_tilde, "transformed basis")
        if self.orientation == "M":
            return self._solve(U_tilde, adjoint=True)
        return self._apply(U_tilde, adjoint=False)

    # -- snapshot-space (column) weighting -----------------------------------

    def transform_right(self, X):
        """Apply the geometry to the columns index, i.e. from the right."""
        X = np.asarray(X)
        if X.shape[1] != self.n:
            raise ShapeError(
                "weight factor of size %d does not conform to snapshot count %d" % (self.n, X.shape[1])
            )
        if self.orientation == "M":
            # X K^{-*}: solve K Z* = X* for Z*.
            return self._solve(X.conj().T, adjoint=False).conj().T
        return X @ (np.diag(self.factor) if self.factor.ndim == 1 else self.factor)

    # -- norms and materialization -------------------------------------------

    def norm(self, x):
        """Weighted norm of one vector or of each column of a matrix.

        Finite and accurate where the sum of squares would overflow or
        underflow (see :func:`_column_norms`).
        """
        x = np.asarray(x)
        g = self.transform(x.reshape(-1, 1) if x.ndim == 1 else x)
        nrm = _column_norms(g)
        return float(nrm[0]) if x.ndim == 1 else nrm

    def gram_matrix(self):
        """Materialize the Gram matrix of the geometry in force."""
        if self.factor.ndim == 1:
            d = self.factor**2
            return np.diag(d if self.orientation == "M" else 1.0 / d)
        if self.orientation == "M":
            return self.factor @ self.factor.conj().T
        eye = np.eye(self.n, dtype=self.factor.dtype)
        return self._solve(self._solve(eye, adjoint=False), adjoint=True)
