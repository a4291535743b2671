"""Weighted inner products represented by a factor of the Gram matrix.

An :class:`InnerProduct` holds a factor L with M = L L* and an orientation
flag saying whether the geometry in force is induced by M itself or by its
inverse.  All pipelines work in transformed Euclidean coordinates:

* orientation ``"M"``: vectors x map to L* x, bases lift back via L^{-*},
* orientation ``"M-inverse"``: vectors map to L^{-1} x, bases lift via L.

The factor is used as given, in double precision, and its shape sets
its structure: a 1-D factor holds the strictly positive diagonal of L, a
2-D factor is L itself, square and lower triangular, and solves with it
are substitutions.  :meth:`InnerProduct.from_matrix` produces one from a
Gram matrix; its Cholesky and every product and solve with a 2-D factor
run on one thread of every OpenBLAS in the process
(:data:`dmdkit._blas._one_blas_thread`).  The Gram matrix is only
materialized on explicit request.
The same container doubles as a column-space weight, applied from the
right with the adjoint conventions swapped accordingly.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import _one_blas_thread
from .errors import ConditioningError, DataError, ShapeError
from .snapshots import _all_finite, _as_double, _check_matrix, _column_norms

__all__ = ["InnerProduct"]


@dataclass(frozen=True, eq=False)
class InnerProduct:
    factor: np.ndarray
    orientation: str = "M"

    def __post_init__(self):
        if self.orientation not in ("M", "M-inverse"):
            raise DataError("orientation must be 'M' or 'M-inverse'")
        factor = _check_matrix(self.factor, "weight factor", ndims=(1, 2))
        if factor.ndim == 1:
            if np.any(factor.real <= 0) or np.any(factor.imag != 0):
                raise DataError("diagonal weight factor must be real and strictly positive")
            factor = factor.real.copy()
        elif factor.shape[0] != factor.shape[1]:
            raise ShapeError("a 2-D weight factor must be square, got shape %r" % (factor.shape,))
        elif np.triu(factor, 1).any():
            raise ShapeError("a 2-D weight factor must be lower triangular; "
                             "InnerProduct.from_matrix factors a Gram matrix")
        object.__setattr__(self, "factor", factor)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, M, orientation="M"):
        """Factor a Hermitian positive definite Gram matrix by Cholesky."""
        M = _check_matrix(M, "weight matrix")
        if M.shape[0] != M.shape[1]:
            raise ShapeError("weight matrix must be square, got shape %r" % (M.shape,))
        # Frobenius norms from scaled column norms, finite at any scale of M.
        if _frobenius(M - M.conj().T) > 1e-12 * _frobenius(M):
            raise DataError("weight matrix must be Hermitian")
        with _one_blas_thread:
            try:
                L = scipy.linalg.cholesky(M, lower=True)
            except scipy.linalg.LinAlgError as exc:
                raise DataError("weight matrix is not positive definite: %s" % exc) from exc
        return cls(L, orientation=orientation)

    @classmethod
    def diagonal(cls, weights, orientation="M"):
        """Diagonal Gram matrix given by its strictly positive diagonal: a vector, one row or one column."""
        w = _check_matrix(weights, "diagonal weights", ndims=(1, 2))
        if w.ndim == 2 and 1 not in w.shape:
            raise ShapeError("diagonal weights must be a vector, one row or one column, got shape %r" % (w.shape,))
        w = w.reshape(-1)
        if np.any(w.real <= 0) or np.any(w.imag != 0):
            raise DataError("diagonal weights must be real and strictly positive")
        return cls(np.sqrt(w.real), orientation=orientation)

    @classmethod
    def identity(cls, n):
        return cls.diagonal(np.ones(n))

    # -- basic shape -------------------------------------------------------

    @property
    def n(self):
        return self.factor.shape[0]

    def _check_rows(self, B, side_name):
        B = _as_double(B, side_name)
        if B.ndim not in (1, 2):
            raise ShapeError("%s must be a vector or a 2-D array, got ndim=%d" % (side_name, B.ndim))
        rows = B.shape[0]
        if rows != self.n:
            raise ShapeError(
                "weight factor of size %d does not conform to %s with %d rows" % (self.n, side_name, rows)
            )
        return B

    # -- factor application and solves --------------------------------------

    def _diagonal_for(self, B):
        """The diagonal factor shaped to scale the rows of a vector or a matrix B."""
        return self.factor if B.ndim == 1 else self.factor[:, None]

    def _apply(self, B, adjoint, out=None):
        """L B, or L* B with ``adjoint``; a diagonal factor writes into ``out`` where given."""
        if self.factor.ndim == 1:
            return np.multiply(B, self._diagonal_for(B), out=out)
        L = self.factor.conj().T if adjoint else self.factor
        with _one_blas_thread:
            return L @ B

    def _solve(self, B, adjoint, out=None):
        """L^{-1} B, or L^{-*} B with ``adjoint``; a diagonal factor writes into ``out`` where given."""
        if self.factor.ndim == 1:
            return np.divide(B, self._diagonal_for(B), out=out)
        try:
            with _one_blas_thread:
                return scipy.linalg.solve_triangular(self.factor, B, lower=True, trans="C" if adjoint else "N")
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise ConditioningError("weight factor is singular: %s" % exc) from exc

    # -- state-space (row) weighting ----------------------------------------

    def transform(self, X):
        """Map ambient columns, or one vector, into the Euclidean coordinates of the geometry."""
        return self._transform_into(X, None)

    def _transform_into(self, X, out):
        """:meth:`transform` of X; a diagonal factor writes the image into ``out`` where given."""
        X = self._check_rows(X, "state matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            image = (self._apply(X, adjoint=True, out=out) if self.orientation == "M"
                     else self._solve(X, adjoint=False, out=out))
        return _finite_image(image, X)

    def lift(self, U_tilde):
        """Pull transformed basis columns, or one vector, back to ambient coordinates."""
        return self._lift(self._check_rows(U_tilde, "transformed basis"), in_place=False)

    def _lift(self, U, in_place):
        """:meth:`lift` of a checked U; a diagonal factor overwrites U where ``in_place``."""
        out = U if in_place else None
        if self.orientation == "M":
            return self._solve(U, adjoint=True, out=out)
        return self._apply(U, adjoint=False, out=out)

    # -- snapshot-space (column) weighting -----------------------------------

    def transform_right(self, X):
        """Apply the geometry to the columns index, i.e. from the right."""
        X = _as_double(X, "snapshot matrix")
        if X.ndim != 2:
            raise ShapeError("snapshot matrix must be a 2-D array, got ndim=%d" % X.ndim)
        return self._transform_right_into(X, None)

    def _transform_right_into(self, X, out):
        """:meth:`transform_right` of a 2-D double X; a diagonal factor writes the image into ``out`` where given.

        ``out`` may be X itself, whose entries must then be finite.
        """
        if X.shape[1] != self.n:
            raise ShapeError(
                "weight factor of size %d does not conform to snapshot count %d" % (self.n, X.shape[1])
            )
        source = None if out is X else X
        with np.errstate(over="ignore", invalid="ignore"):
            if self.factor.ndim == 2:
                # (X K^{-*})* = K^{-1} X* and (X K)* = K* X*.
                image = (self._solve(X.conj().T, adjoint=False) if self.orientation == "M"
                         else self._apply(X.conj().T, adjoint=True)).conj().T
            else:
                # The same steps entry by entry: conjugate, scale, conjugate back.
                if np.iscomplexobj(X):
                    X = out = np.conjugate(X, out=out)
                scale = self._solve if self.orientation == "M" else self._apply
                image = scale(X.T, adjoint=self.orientation != "M", out=None if out is None else out.T).T
                if np.iscomplexobj(image):
                    np.conjugate(image, out=image)
        return _finite_image(image, source)

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
            return self._apply(self.factor.conj().T, adjoint=False)
        eye = np.eye(self.n, dtype=self.factor.dtype)
        return self._solve(self._solve(eye, adjoint=False), adjoint=True)


def _finite_image(image, X=None):
    """``image``, the transform of ``X``, or of finite data where X is None.

    Finite data mapped beyond the double range is a ConditioningError.
    """
    if not _all_finite(image) and (X is None or _all_finite(X)):
        raise ConditioningError("the weighted snapshots overflow double precision")
    return image


def _frobenius(A):
    """Frobenius norm of A, finite and accurate for finite A: the norm of its :func:`_column_norms`."""
    return float(_column_norms(_column_norms(A)[:, None])[0])


def _require_weight(weight, name):
    """``weight`` if it is an :class:`InnerProduct` whose factor is not singular.

    A zero on the diagonal of a 2-D factor is caught here, before any snapshot is transformed,
    also for a caller that only multiplies by the factor: its Gram matrix is singular.
    """
    if not isinstance(weight, InnerProduct):
        raise DataError("%s must be an InnerProduct" % name)
    if weight.factor.ndim == 2:
        zeros = np.flatnonzero(np.diagonal(weight.factor) == 0)
        if zeros.size:
            raise ConditioningError("weight factor is singular: zero on its diagonal at index %d" % zeros[0])
    return weight
