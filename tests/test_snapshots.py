"""Snapshot containers, column scaling and the companion factorization."""

import re

import numpy as np
import pytest

from dmdkit.errors import ConditioningError, DataError, ShapeError
from dmdkit.matrixio import load_matrix, store_matrix
from dmdkit.pod import truncated_svd
from dmdkit.snapshots import (
    _column_norms,
    SequentialTrajectory,
    SnapshotPair,
    companion_decomposition,
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


def _layouts(a):
    """``a`` row-major, column-major, and as a view with strides on both axes."""
    wide = np.zeros((a.shape[0], 2 * a.shape[1]), dtype=a.dtype, order="F")
    wide[:, ::2] = a
    return [np.ascontiguousarray(a), np.asfortranarray(a), wide[::-1, ::2][::-1]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(np.nan, 0.0),
                                 complex(0.0, -np.inf)], ids=["nan", "inf", "-inf", "complex-nan-imag",
                                                              "complex-nan-real", "complex-inf-imag"])
def test_non_finite_entries_are_a_data_error_at_every_gate(tmp_path, bad):
    # The gate scans with max and min, so one bad entry anywhere, in either
    # part of a complex entry and in any layout, must still be caught.
    a = _rng(5).standard_normal((7, 4)).astype(type(bad) if isinstance(bad, complex) else float)
    a[3, 2] = bad
    path = tmp_path / "a.dmm"
    store_matrix(a, path)
    with pytest.raises(DataError, match="^%s contains non-finite entries$" % re.escape(str(path))):
        load_matrix(path)
    for view in _layouts(a):
        assert view[3, 2].tobytes() == a[3, 2].tobytes()
        with pytest.raises(DataError, match="^X contains non-finite entries$"):
            SnapshotPair(view, np.ones(a.shape))
        with pytest.raises(DataError, match="^Y contains non-finite entries$"):
            SnapshotPair(np.ones(a.shape), view)
        with pytest.raises(DataError, match="^POD input contains non-finite entries$"):
            truncated_svd(view)
    for view in _layouts(np.where(np.isfinite(a), a, 0.0)):
        SnapshotPair(view, view)


def test_matrices_are_promoted_to_double_precision():
    X = np.arange(6.0).reshape(3, 2)
    for dtype, want in ((np.float16, np.float64), (np.float32, np.float64), (np.int32, np.float64),
                        (bool, np.float64), (np.complex64, np.complex128),
                        (np.longdouble, np.float64), (np.clongdouble, np.complex128)):
        pair = SnapshotPair(X.astype(dtype), X.astype(dtype))
        assert pair.X.dtype == want and pair.Y.dtype == want
        assert np.array_equal(pair.X, X.astype(dtype))
    # double precision passes through uncopied, views included
    F = _rng(3).standard_normal((5, 4))
    for A in (F, F.astype(np.complex128)):
        pair = SnapshotPair(A[:, :-1], A[:, 1:])
        assert np.shares_memory(pair.X, A) and np.shares_memory(pair.Y, A)
        assert SequentialTrajectory(A).F is A


def _assert_power_of_two_scaling(pair, scaled, divisors):
    """Divisors 2^-e_j (0 for a zero column), scaled norms in [1/2, 1), and X == X_s * divisors bit for bit."""
    assert divisors.dtype == np.float64 and divisors.shape == (pair.m,)
    nz = divisors != 0
    assert np.all(np.frexp(divisors[nz])[0] == 0.5)
    norms = _column_norms(scaled.X)
    assert np.all((norms[nz] >= 0.5) & (norms[nz] < 1.0))
    assert np.array_equal(scaled.X * divisors, pair.X)
    assert scaled.X.flags.f_contiguous and scaled.Y.flags.f_contiguous


def test_scale_columns_normalizes_and_records():
    X = np.array([[3.0, 0.0, 1.0], [4.0, 0.0, 1.0]])
    Y = np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 3.0]])
    pair = SnapshotPair(X, Y)
    scaled, divisors = scale_columns(pair)
    _assert_power_of_two_scaling(pair, scaled, divisors)
    # ||(3, 4)|| = 5 = 0.625 * 2^3; ||(1, 1)|| = sqrt(2) = 0.707... * 2^1
    assert np.array_equal(divisors, [8.0, 0.0, 2.0])
    assert np.array_equal(scaled.X[:, 0], [0.375, 0.5])
    assert np.array_equal(scaled.Y, Y / [8.0, 1.0, 2.0])
    # a zero column stays in place, divisor 0
    assert np.array_equal(scaled.X[:, 1], X[:, 1]) and np.array_equal(scaled.Y[:, 1], Y[:, 1])
    # a norm at or above 2^1023, whose divisor 2^1024 is not a double, is scaled into [1, 2)
    big = SnapshotPair(np.full((2, 1), 2.0 ** 1023), np.ones((2, 1)))
    scaled, divisors = scale_columns(big)
    assert divisors[0] == 2.0 ** 1023 and np.array_equal(scaled.X * divisors, big.X)
    for A in (X, 1j * X + 2.0 * Y):
        pair = SnapshotPair(A, Y)
        _assert_power_of_two_scaling(pair, *scale_columns(pair))


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
    ref, ref_divisors = scale_columns(SnapshotPair(X, Y))
    # a power of two moves only the divisors and Y, exactly
    scaled, divisors = scale_columns(SnapshotPair(2.0 ** -600 * X, Y))
    assert np.array_equal(divisors, 2.0 ** -600 * ref_divisors)
    assert np.array_equal(scaled.X, ref.X) and np.array_equal(scaled.Y, 2.0 ** 600 * ref.Y)
    for s in (1e-165, 1e-310):
        pair = SnapshotPair(s * X, s * Y)
        _assert_power_of_two_scaling(pair, *scale_columns(pair))
    # a column whose norm is subnormal is scaled exactly, with its Y column
    X[:, 2] *= 1e-320
    Y[:, 2] *= 1e-315
    pair = SnapshotPair(X, Y)
    scaled, divisors = scale_columns(pair)
    _assert_power_of_two_scaling(pair, scaled, divisors)
    assert divisors[2] < np.finfo(np.float64).tiny
    assert np.array_equal(scaled.Y * divisors, Y)
    # tiny X columns with a huge Y: the scaled Y leaves the double range
    with pytest.raises(ConditioningError, match="overflows"):
        scale_columns(SnapshotPair(1e-200 * X, 1e150 * Y))


@pytest.mark.parametrize("dtype", [float, complex])
def test_scale_columns_does_not_depend_on_memory_layout(dtype):
    # row-major, column-major and negatively strided copies of one pair,
    # graded from subnormal to huge columns, give byte-identical output
    rng = _rng(17)
    G = rng.standard_normal((30, 9)) + (1j * rng.standard_normal((30, 9)) if dtype is complex else 0.0)
    G = G * np.logspace(-310, 300, 9)
    outs = []
    for A in (np.ascontiguousarray(G), np.asfortranarray(G), np.ascontiguousarray(G[::-1, ::-1])[::-1, ::-1]):
        scaled, divisors = scale_columns(SnapshotPair(A[:, :-1], A[:, 1:]))
        outs.append([scaled.X.tobytes("A"), scaled.Y.tobytes("A"), divisors.tobytes()])
    assert outs[0] == outs[1] == outs[2]


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
    oracle = np.roots(np.concatenate([[1.0], -comp.C[::-1, -1]]))
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


@pytest.mark.parametrize("scale", [1e-165, 1e165])
def test_companion_residual_norm_survives_extreme_scales(scale):
    # the sum of squares of r under- or overflows; the norm does not
    F = _rng(40).standard_normal((12, 5))
    unit = companion_decomposition(F).r_norm
    assert companion_decomposition(scale * F).r_norm == pytest.approx(scale * unit, rel=1e-14)


def test_companion_rejects_rank_deficient_basis():
    F = np.ones((6, 4))  # every column identical
    with pytest.raises(ConditioningError) as err:
        companion_decomposition(F)
    assert err.value.sigma_min is not None
