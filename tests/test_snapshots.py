"""Snapshot containers, column scaling and the companion factorization."""

import numpy as np
import pytest

from dmdkit.errors import ConditioningError, DataError, ShapeError
from dmdkit.snapshots import (
    _column_norms,
    SequentialTrajectory,
    SnapshotPair,
    companion_decomposition,
    odd_even_split,
    scale_columns,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def test_trajectory_needs_two_columns():
    with pytest.raises(ShapeError):
        SequentialTrajectory(np.ones((3, 1)))


def test_pair_rejects_shape_mismatch_and_non_finite():
    with pytest.raises(ShapeError):
        SnapshotPair(np.ones((3, 2)), np.ones((3, 3)))
    with pytest.raises(DataError):
        SnapshotPair(np.array([[np.inf]]), np.array([[1.0]]))


def test_matrices_are_promoted_to_double_precision():
    X = np.arange(6.0).reshape(3, 2)
    for dtype, want in ((np.float16, np.float64), (np.float32, np.float64), (np.int32, np.float64),
                        (bool, np.float64), (np.complex64, np.complex128)):
        pair = SnapshotPair(X.astype(dtype), X.astype(dtype))
        assert pair.X.dtype == want and pair.Y.dtype == want
        assert np.array_equal(pair.X, X.astype(dtype))
    # double precision passes through uncopied, views included
    F = _rng(3).standard_normal((5, 4))
    for A in (F, F.astype(np.complex128)):
        pair = SnapshotPair(A[:, :-1], A[:, 1:])
        assert np.shares_memory(pair.X, A) and np.shares_memory(pair.Y, A)
        assert SequentialTrajectory(A).F is A


def test_odd_even_split_interleaves():
    F = np.arange(8.0).reshape(1, 8)
    pair = odd_even_split(F)
    assert np.array_equal(pair.X[0], [0.0, 2.0, 4.0, 6.0])
    assert np.array_equal(pair.Y[0], [1.0, 3.0, 5.0, 7.0])
    with pytest.raises(ShapeError):
        odd_even_split(np.ones((2, 5)))


def test_scale_columns_normalizes_and_records():
    X = np.array([[3.0, 0.0], [4.0, 0.0]])
    Y = np.array([[1.0, 1.0], [0.0, 1.0]])
    scaled, scaling = scale_columns(SnapshotPair(X, Y))
    assert np.allclose(np.linalg.norm(scaled.X[:, :1], axis=0), 1.0)
    # zero column stays put, factor 0 marks it for rank truncation
    assert scaling.d[1] == 0.0
    assert np.array_equal(scaled.X[:, 1], X[:, 1])
    assert np.array_equal(scaled.Y[:, 1], Y[:, 1])
    assert scaling.d[0] == 5.0
    assert np.allclose(scaled.Y[:, 0], Y[:, 0] / 5.0)


def test_column_norms_rescale_only_overflowing_columns():
    rng = _rng(14)
    X = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
    plain = np.linalg.norm(X, axis=0)
    assert np.array_equal(_column_norms(X), plain)
    X[:, 1] *= 1e300
    X[0, 3] = np.inf
    d = _column_norms(X)
    assert np.array_equal(d[[0, 2]], plain[[0, 2]])
    assert abs(d[1] - 1e300 * plain[1]) <= 1e-14 * d[1]
    assert d[3] == np.inf


def test_column_norms_rescale_underflowing_columns():
    rng = _rng(15)
    X = rng.standard_normal((30, 5)) + 1j * rng.standard_normal((30, 5))
    plain = np.linalg.norm(X, axis=0)
    # squares of 1e-165 entries vanish, those of 1e-160 entries lose bits
    X[:, 1] *= 1e-165
    X[:, 2] *= 1e-160
    X[:, 3] = 0.0
    d = _column_norms(X)
    assert np.array_equal(d[[0, 4]], plain[[0, 4]])
    assert abs(d[1] - 1e-165 * plain[1]) <= 1e-14 * d[1]
    assert abs(d[2] - 1e-160 * plain[2]) <= 1e-14 * d[2]
    assert d[3] == 0.0


def test_scale_columns_of_tiny_data():
    rng = _rng(16)
    X = rng.standard_normal((40, 8))
    Y = rng.standard_normal((40, 8))
    ref, ref_scaling = scale_columns(SnapshotPair(X, Y))
    scaled, scaling = scale_columns(SnapshotPair(1e-165 * X, Y))
    np.testing.assert_allclose(scaling.d, 1e-165 * ref_scaling.d, rtol=1e-14, atol=0)
    np.testing.assert_allclose(scaled.X, ref.X, rtol=1e-14, atol=0)
    np.testing.assert_allclose(scaled.Y, 1e165 * ref.Y, rtol=1e-14, atol=0)
    # a column whose norm is subnormal has no finite reciprocal and stays put
    X[:, 2] *= 1e-320
    scaled, scaling = scale_columns(SnapshotPair(X, Y))
    assert scaling.d[2] == 0.0
    assert np.array_equal(scaled.X[:, 2], X[:, 2]) and np.array_equal(scaled.Y[:, 2], Y[:, 2])
    # tiny X columns with a huge Y: the scaled Y leaves the double range
    with pytest.raises(ConditioningError, match="overflows"):
        scale_columns(SnapshotPair(1e-200 * X, 1e150 * Y))


def test_scaling_rejects_negative_factors():
    from dmdkit.snapshots import ColumnScaling

    with pytest.raises(DataError):
        ColumnScaling(np.array([1.0, -1.0]))


def test_companion_matches_polynomial_roots():
    # oracle: eigenvalues of the unit-subdiagonal companion with last
    # column c are the roots of z^m - c_m z^(m-1) - ... - c_1
    rng = _rng(21)
    n, m = 18, 5
    A = np.diag(rng.uniform(0.5, 0.95, n))
    F = np.empty((n, m + 1))
    F[:, 0] = rng.standard_normal(n)
    for i in range(m):
        F[:, i + 1] = A @ F[:, i]
    comp = companion_decomposition(F)
    oracle = np.roots(np.concatenate([[1.0], -comp.c[::-1]]))
    got = np.sort_complex(np.linalg.eigvals(comp.C))
    assert np.allclose(got, np.sort_complex(oracle), atol=1e-8)


def test_companion_reproduces_operator_action():
    rng = _rng(33)
    n, m = 30, 6
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    F = np.empty((n, m + 1))
    F[:, 0] = rng.standard_normal(n)
    for i in range(m):
        F[:, i + 1] = A @ F[:, i]
    comp = companion_decomposition(F)
    X = F[:, :m]
    resid = A @ X - X @ comp.C
    resid[:, -1] -= comp.r
    bound = 1e-11 * np.linalg.norm(A, 2) * np.linalg.norm(X, 2)
    assert np.linalg.norm(resid, 2) <= bound


def test_companion_residual_is_orthogonal_to_span():
    rng = _rng(40)
    F = rng.standard_normal((12, 5))
    comp = companion_decomposition(F)
    X = F[:, :4]
    assert np.linalg.norm(X.T @ comp.r) <= 1e-10 * np.linalg.norm(F)
    assert comp.r_norm == pytest.approx(np.linalg.norm(comp.r))
    assert comp.C[1, 0] == 1.0 and comp.C[0, 1] == 0.0


def test_companion_rejects_rank_deficient_basis():
    F = np.ones((6, 4))  # every column identical
    with pytest.raises(ConditioningError) as err:
        companion_decomposition(F)
    assert err.value.sigma_min is not None
