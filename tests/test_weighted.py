"""Elliptic-geometry pipelines and the weighted eigenvalue bound."""

import warnings

import numpy as np
import pytest

from conftest import traced_peak
from dmdkit.errors import ConditioningError, DataError, ShapeError
from dmdkit.inner import InnerProduct
from dmdkit.pod import weighted_pod
from dmdkit.variants import ddmd_rrr, select_pairs
from dmdkit.verify import (
    explicit_residuals,
    invariant_subspace_pair,
    make_m_unitary_oracle,
    make_oracle,
    match_eigenvalues,
    trajectory,
)
from dmdkit.weighted import two_sided_weighted_dmd, weighted_bauer_fike, weighted_dmd


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _spd_weight(n, seed):
    G = _rng(seed).standard_normal((n, n))
    M_mat = G @ G.T / n + np.eye(n)
    return M_mat, InnerProduct.from_matrix(M_mat)


def _orbit(seed, n, m, **kw):
    oracle = make_oracle(n, seed=seed, **kw)
    f1 = _rng(seed + 1).standard_normal(n)
    return oracle, trajectory(oracle, f1 / np.linalg.norm(f1), m)


def test_identity_weight_reduces_to_plain_pipeline():
    _, F = _orbit(101, 30, 10, spectrum="unit-disc", conditioning=10.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    plain = ddmd_rrr(X, Y)
    weighted = weighted_dmd(X, Y, InnerProduct.identity(30))
    assert match_eigenvalues(plain.lambdas, weighted.lambdas) <= 1e-12
    assert np.allclose(np.sort(plain.residuals), np.sort(weighted.residuals), atol=1e-12)


def test_diagonal_weight_matches_explicit_transform():
    # oracle: decompose (L*X, L*Y) in plain coordinates and lift by L^{-*}
    _, F = _orbit(103, 20, 7, spectrum="unit-disc", conditioning=5.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    d = np.geomspace(4.0, 0.25, 20)
    M = InnerProduct.diagonal(d)
    L = np.sqrt(d)
    weighted = weighted_dmd(X, Y, M)
    plain = ddmd_rrr(L[:, None] * X, L[:, None] * Y)
    assert match_eigenvalues(weighted.lambdas, plain.lambdas) <= 1e-10
    assert np.allclose(np.sort(weighted.residuals), np.sort(plain.residuals), atol=1e-10)
    # vectors have unit weighted norm and lift back through the factor
    norms = M.norm(weighted.vectors)
    assert np.allclose(norms, 1.0, atol=1e-10)


def test_m_unitary_oracle_spectrum_sits_on_the_unit_circle():
    n, m = 24, 10
    M_mat, M = _spd_weight(n, 105)
    oracle = make_m_unitary_oracle(n, M, seed=106)
    # construction audit: A* M A = M
    lhs = oracle.A.conj().T @ M_mat @ oracle.A
    assert np.linalg.norm(lhs - M_mat, 2) <= 1e-10 * np.linalg.norm(M_mat, 2)
    pair = invariant_subspace_pair(oracle, m, seed=107)
    dec = weighted_dmd(pair.X, pair.Y, M)
    sel = select_pairs(dec, 1e-6)
    assert sel.k == m
    assert np.abs(np.abs(sel.lambdas) - 1.0).max() <= 10.0 * np.maximum(sel.residuals, 1e-14).max()


def test_two_sided_with_identity_right_weight_reduces_exactly():
    _, F = _orbit(109, 25, 8, spectrum="unit-disc", conditioning=8.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    _, M = _spd_weight(25, 110)
    one_sided = weighted_dmd(X, Y, M)
    two_sided = two_sided_weighted_dmd(X, Y, M, InnerProduct.identity(X.shape[1]))
    assert match_eigenvalues(one_sided.lambdas, two_sided.lambdas) <= 1e-10
    assert np.allclose(np.sort(one_sided.residuals), np.sort(two_sided.residuals), atol=1e-10)


def test_diagonal_right_weight_is_column_rescaling():
    # forgetting factors: N = diag(w) acts as X -> X diag(1/sqrt(w))
    _, F = _orbit(111, 20, 6, spectrum="unit-disc", conditioning=4.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    _, M = _spd_weight(20, 112)
    w = np.geomspace(1.0, 4.0, X.shape[1])
    N = InnerProduct.diagonal(w)
    two_sided = two_sided_weighted_dmd(X, Y, M, N)
    rescaled = weighted_dmd(X / np.sqrt(w)[None, :], Y / np.sqrt(w)[None, :], M)
    assert match_eigenvalues(two_sided.lambdas, rescaled.lambdas) <= 1e-10
    assert np.allclose(np.sort(two_sided.residuals), np.sort(rescaled.residuals), atol=1e-10)


def test_right_weight_shape_is_the_column_count():
    _, F = _orbit(113, 18, 6)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    _, M = _spd_weight(18, 114)
    with pytest.raises(ShapeError):
        two_sided_weighted_dmd(X, Y, M, InnerProduct.identity(18))


@pytest.mark.parametrize("orientation", ["M", "M-inverse"])
def test_a_dense_weight_lifts_complex_vectors_in_real_arithmetic(orientation):
    # The real factor acts on [Re Z | Im Z]; it is never cast to complex.
    n = 1500
    _, M = _spd_weight(n, 143)
    M = InnerProduct(M.factor, orientation=orientation)
    rng = _rng(145)
    Z = rng.standard_normal((n, 40)) + 1j * rng.standard_normal((n, 40))
    lifted, peak = traced_peak(lambda: M.lift(Z))
    assert peak < M.factor.nbytes + 3 * Z.nbytes
    L = M.factor.astype(complex)
    want = np.linalg.solve(L.conj().T, Z) if orientation == "M" else L @ Z
    np.testing.assert_allclose(lifted, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("call", ["transform", "lift", "norm", "transform_right"])
@pytest.mark.parametrize("kind", ["diagonal", "dense"])
@pytest.mark.parametrize("orientation", ["M", "M-inverse"])
def test_a_non_finite_operand_is_a_data_error(orientation, kind, call):
    # One gate for every public operand, whichever factor and orientation
    # would multiply or solve with it: no NaN image, and no singular factor.
    W = InnerProduct(np.full(6, 2.0) if kind == "diagonal" else np.tril(np.ones((6, 6))), orientation=orientation)
    for bad in (np.nan, np.inf, 1j * np.nan):
        X = np.ones((6, 6), dtype=complex if isinstance(bad, complex) else float)
        X[2, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="contains non-finite entries"):
                getattr(W, call)(X)


def test_a_dense_inverse_transform_holds_no_copy_of_the_factor():
    # The substitution reads the factor as it is: no boolean copy of the
    # n x n factor, only the image of X.
    n = 3000
    rng = _rng(151)
    M = InnerProduct(np.eye(n) + np.tril(rng.standard_normal((n, n)), -1) / n, orientation="M-inverse")
    X, Y = rng.standard_normal((n, 60)), rng.standard_normal((n, 60))
    image, peak = traced_peak(lambda: M.transform(X))
    assert peak <= 0.6 * (X.nbytes + Y.nbytes)
    np.testing.assert_allclose(M.factor @ image, X, atol=1e-12)


def test_weighted_eta_identity():
    oracle, F = _orbit(119, 40, 12, spectrum="unit-disc", conditioning=20.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    _, M = _spd_weight(40, 120)
    dec = weighted_dmd(X, Y, M)
    _, eta = explicit_residuals(oracle, dec)
    mask = np.isfinite(eta) & (dec.residuals > 1e-8)
    assert np.any(mask)
    assert np.abs(eta[mask] - 1.0).max() <= 1e-6


def test_bauer_fike_identity_weight():
    rep = weighted_bauer_fike(0.25, InnerProduct.identity(6))
    assert rep.mu2_estimate == 1.0
    assert rep.bound == 0.25
    assert rep.kappa_assumed and rep.kappa_M_S == 1.0


def test_bauer_fike_diagonal_grading_is_equilibrated_away():
    M = InnerProduct.diagonal(np.geomspace(1.0, 1e6, 8))
    rep = weighted_bauer_fike(0.1, M)
    assert rep.mu2_estimate == 1.0
    assert rep.bound == pytest.approx(0.1)


def test_bauer_fike_dense_weight_and_kappa():
    _, M = _spd_weight(10, 121)
    rep = weighted_bauer_fike(0.5, M, kappa_assumption=2.0)
    assert rep.mu2_estimate >= 1.0
    assert not rep.kappa_assumed
    assert rep.bound == pytest.approx(np.sqrt(rep.mu2_estimate) * 2.0 * 0.5)


def test_bauer_fike_relative_form():
    rep = weighted_bauer_fike(0.3, InnerProduct.identity(4), relative_residual_M=0.06)
    assert rep.relative_bound == pytest.approx(0.06)


def test_bauer_fike_input_validation():
    eye = InnerProduct.identity(3)
    with pytest.raises(DataError):
        weighted_bauer_fike(-1.0, eye)
    with pytest.raises(DataError):
        weighted_bauer_fike(np.nan, eye)
    with pytest.raises(DataError):
        weighted_bauer_fike(0.1, eye, kappa_assumption=0.5)
    with pytest.raises(DataError):
        weighted_bauer_fike(0.1, np.eye(3))


def test_inverse_orientation_round_trip():
    # geometry induced by M^{-1}: transform then lift is the identity
    rng = _rng(123)
    n = 12
    _, M = _spd_weight(n, 124)
    Minv = InnerProduct(M.factor, orientation="M-inverse")
    X = rng.standard_normal((n, 4))
    assert np.allclose(Minv.lift(Minv.transform(X)), X, atol=1e-10)
    assert np.allclose(M.lift(M.transform(X)), X, atol=1e-10)


def test_direct_lower_triangular_factor_solves_like_from_matrix():
    # Passing the Cholesky factor directly takes the same substitution
    # solves; a 2-D factor with a nonzero entry above its diagonal, upper
    # triangular or general, is rejected in favour of from_matrix.
    _, M = _spd_weight(12, 125)
    direct = InnerProduct(M.factor.copy())
    for bad in (M.factor.T.copy(), M.factor + 0.5 * np.eye(12, k=3)):
        with pytest.raises(ShapeError, match="from_matrix"):
            InnerProduct(bad)
    X = _rng(126).standard_normal((12, 4))
    assert np.array_equal(direct.lift(X), M.lift(X))
    inv = InnerProduct.from_matrix(M.gram_matrix(), orientation="M-inverse")
    assert np.array_equal(InnerProduct(inv.factor.copy(), orientation="M-inverse").transform(X), inv.transform(X))
    _, F = _orbit(127, 12, 6, spectrum="unit-disc", conditioning=5.0)
    a = weighted_dmd(F.F[:, :-1], F.F[:, 1:], M)
    b = weighted_dmd(F.F[:, :-1], F.F[:, 1:], direct)
    for x, y in ((a.lambdas, b.lambdas), (a.vectors, b.vectors), (a.residuals, b.residuals)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("orientation", ["M", "M-inverse"])
def test_a_one_dimensional_factor_is_the_diagonal_weight(orientation):
    w = np.geomspace(4.0, 0.25, 6)
    direct = InnerProduct(np.sqrt(w), orientation=orientation)
    diag = InnerProduct.diagonal(w, orientation=orientation)
    X = _rng(128).standard_normal((6, 6))
    for f in ("transform", "lift", "transform_right"):
        assert np.array_equal(getattr(direct, f)(X), getattr(diag, f)(X))
    assert np.array_equal(direct.gram_matrix(), diag.gram_matrix())
    for bad in (np.float64(2.0), np.ones((2, 2, 2)), np.ones((3, 2))):
        with pytest.raises(ShapeError):
            InnerProduct(bad, orientation=orientation)
    with pytest.raises(TypeError):
        InnerProduct(np.sqrt(w), orientation=orientation, structure="diagonal")


@pytest.mark.parametrize("orientation", ["M", "M-inverse"])
def test_one_vector_maps_to_one_vector_for_both_factor_kinds(orientation):
    # a diagonal factor broadcast a vector into an n x n outer product
    diag = InnerProduct.diagonal([1.0, 4.0, 9.0], orientation=orientation)
    dense = InnerProduct.from_matrix(np.diag([1.0, 4.0, 9.0]), orientation=orientation)
    x = np.array([1.0, -2.0, 0.5])
    for f in ("transform", "lift"):
        for M in (diag, dense):
            y = getattr(M, f)(x)
            assert y.shape == (3,), (f, M.factor.ndim)
            assert np.allclose(y, getattr(M, f)(x[:, None])[:, 0], rtol=1e-15, atol=0)
        assert np.allclose(getattr(diag, f)(x), getattr(dense, f)(x), rtol=1e-15, atol=0)
    for M in (diag, dense):
        with pytest.raises(ShapeError, match="2-D"):
            M.transform_right(x)
        for bad in (np.float64(1.0), np.ones((3, 2, 1))):
            for f in ("transform", "lift"):
                with pytest.raises(ShapeError):
                    getattr(M, f)(bad)


def test_inverse_orientation_gram_matrix():
    d = np.array([4.0, 1.0, 0.25])
    M = InnerProduct.diagonal(d, orientation="M-inverse")
    assert np.allclose(M.gram_matrix(), np.diag(1.0 / d))
    nrm = M.norm(np.array([1.0, 0.0, 0.0]))
    assert nrm == pytest.approx(0.5)


def test_dense_inverse_orientation_gram_matrix_is_the_inverse():
    M_mat, M = _spd_weight(9, 131)
    Minv = InnerProduct(M.factor, orientation="M-inverse")
    assert np.allclose(Minv.gram_matrix(), np.linalg.inv(M_mat), rtol=0, atol=1e-12)
    assert np.allclose(M.gram_matrix(), M_mat, rtol=0, atol=1e-12)


@pytest.mark.parametrize("make, error, match", [
    pytest.param(lambda: InnerProduct(np.ones(3), orientation="Minv"), DataError, "orientation",
                 id="orientation"),
    pytest.param(lambda: InnerProduct(np.array([1.0, 0.0, 2.0])), DataError, "strictly positive",
                 id="zero-diagonal-factor"),
    pytest.param(lambda: InnerProduct(np.array([1.0, -1.0])), DataError, "strictly positive",
                 id="negative-diagonal-factor"),
    pytest.param(lambda: InnerProduct(np.array([1.0 + 1j, 2.0])), DataError, "real",
                 id="complex-diagonal-factor"),
    pytest.param(lambda: InnerProduct.from_matrix(np.ones((3, 2))), ShapeError, "square",
                 id="non-square-gram"),
    pytest.param(lambda: InnerProduct.from_matrix(np.array([[2.0, 1.0], [0.0, 2.0]])), DataError, "Hermitian",
                 id="non-hermitian-gram"),
    pytest.param(lambda: InnerProduct.from_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])), DataError,
                 "positive definite", id="indefinite-gram"),
    pytest.param(lambda: InnerProduct.identity(3).transform(np.ones((4, 2))), ShapeError, "does not conform",
                 id="rows-do-not-conform"),
    pytest.param(lambda: InnerProduct.from_matrix(np.eye(3)).lift(np.ones((2, 2))), ShapeError,
                 "does not conform", id="dense-rows-do-not-conform"),
])
def test_invalid_weights_and_operands_are_rejected(make, error, match):
    with pytest.raises(error, match=match):
        make()


@pytest.mark.parametrize("orientation, f", [("M", "lift"), ("M-inverse", "transform")])
def test_a_singular_factor_is_a_conditioning_error_where_it_is_solved(orientation, f):
    # A 2-D factor is taken as given; a zero on its diagonal shows up in
    # the first substitution with it.
    L = np.tril(np.ones((3, 3)))
    L[1, 1] = 0.0
    M = InnerProduct(L, orientation=orientation)
    with pytest.raises(ConditioningError, match="weight factor is singular"):
        getattr(M, f)(np.ones((3, 2)))


def _singular(n, orientation):
    """A lower-triangular factor of size n, Gaussian below a shifted diagonal, with a zero at (4, 4)."""
    L = np.tril(_rng(n).standard_normal((n, n))) + 5.0 * np.eye(n)
    L[4, 4] = 0.0
    return InnerProduct(L, orientation=orientation)


@pytest.mark.parametrize("orientation", ["M", "M-inverse"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda X, Y, o: weighted_dmd(X, Y, _singular(30, o)), id="weighted_dmd"),
    pytest.param(lambda X, Y, o: two_sided_weighted_dmd(X, Y, _singular(30, o), InnerProduct.identity(8)),
                 id="two_sided_weighted_dmd-M"),
    pytest.param(lambda X, Y, o: two_sided_weighted_dmd(X, Y, InnerProduct.identity(30), _singular(8, o)),
                 id="two_sided_weighted_dmd-N"),
    pytest.param(lambda X, Y, o: weighted_pod(X, _singular(30, o)), id="weighted_pod"),
    pytest.param(lambda X, Y, o: make_m_unitary_oracle(30, _singular(30, o)), id="make_m_unitary_oracle"),
    pytest.param(lambda X, Y, o: weighted_bauer_fike(0.1, _singular(30, o)), id="weighted_bauer_fike"),
])
def test_a_singular_factor_is_rejected_before_any_snapshot_is_transformed(monkeypatch, call, orientation):
    # Every caller checks the weight first, also where it would only
    # multiply by the factor (an 'M-inverse' N, an 'M' weight of the
    # Bauer-Fike bound); the factor alone is still accepted, and a
    # substitution with it still fails where it is solved.
    rng = _rng(61)
    X, Y = rng.standard_normal((30, 8)), rng.standard_normal((30, 8))
    calls = []
    for name in ("transform", "transform_right"):
        def spy(self, *args, _f=getattr(InnerProduct, name), _name=name):
            calls.append(_name)
            return _f(self, *args)

        monkeypatch.setattr(InnerProduct, name, spy)
    with pytest.raises(ConditioningError, match="weight factor is singular"):
        call(X, Y, orientation)
    assert calls == []


def _carrying(n, orientation, kind, right=False):
    """A weight of size n, diagonal or dense, under which columns of size 1e200 leave the double range."""
    multiplies = (orientation == "M") != right
    factor = np.full(n, 1e150 if multiplies else 1e-150)
    return InnerProduct(factor if kind == "diagonal" else np.diag(factor), orientation=orientation)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
@pytest.mark.parametrize("orientation", ["M", "M-inverse"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda X, Y, o, k: weighted_dmd(X, Y, _carrying(30, o, k)), id="weighted_dmd"),
    pytest.param(lambda X, Y, o, k: two_sided_weighted_dmd(X, Y, _carrying(30, o, k), InnerProduct.identity(8)),
                 id="two_sided_weighted_dmd-M"),
    pytest.param(lambda X, Y, o, k: two_sided_weighted_dmd(X, Y, InnerProduct.identity(30), _carrying(8, o, k, True)),
                 id="two_sided_weighted_dmd-N"),
    pytest.param(lambda X, Y, o, k: weighted_pod(X, _carrying(30, o, k)), id="weighted_pod"),
])
def test_weighted_snapshots_beyond_the_double_range_are_a_conditioning_error(call, orientation, kind):
    # The snapshots are finite; their image under the weight is not.  That
    # is the weight's conditioning, reported where the weight is applied,
    # and no RuntimeWarning escapes on the way.
    rng = _rng(67)
    X, Y = 1e200 * rng.standard_normal((30, 8)), rng.standard_normal((30, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConditioningError, match="the weighted snapshots overflow double precision"):
            call(X, Y, orientation, kind)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
@pytest.mark.parametrize("orientation", ["M", "M-inverse"])
def test_a_matrix_of_no_columns_maps_to_no_columns(orientation, kind):
    # the overflow check passes an empty image: it holds no entry beyond the range
    W = _carrying(30, orientation, kind)
    assert W.transform(np.zeros((30, 0))).shape == (30, 0)
    assert W.transform_right(np.zeros((0, 30))).shape == (0, 30)


@pytest.mark.parametrize("call", [
    pytest.param(lambda w: weighted_dmd(np.eye(3), np.eye(3), w), id="weighted_dmd"),
    pytest.param(lambda w: weighted_pod(np.eye(3), w), id="weighted_pod"),
    pytest.param(lambda w: make_m_unitary_oracle(3, w), id="make_m_unitary_oracle"),
])
def test_a_weight_that_is_not_an_inner_product_is_a_data_error(call):
    with pytest.raises(DataError, match="must be an InnerProduct"):
        call(np.eye(3))


@pytest.mark.parametrize("value", [1e-170, 1e170])
def test_norm_survives_extreme_scales(value):
    # the plain sum of squares underflows to 0 or overflows to inf
    M = InnerProduct.identity(3)
    assert M.norm(np.array([value, 0.0, 0.0])) == value
    assert np.array_equal(M.norm(np.array([[value], [0.0], [0.0]])), [value])


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.int32, np.longdouble])
def test_weights_are_cast_to_double_before_use(dtype):
    # as for snapshots: a weight gives bit for bit the weight of its float64 cast
    w = np.linspace(1.0, 7.0, 7).astype(dtype)
    L = np.diag(w) + np.tril(np.ones((7, 7)), -1)
    for make, arg in ((InnerProduct.diagonal, w), (InnerProduct, w), (InnerProduct, L),
                      (InnerProduct.from_matrix, L @ L.T)):
        got, want = make(arg).factor, make(arg.astype(np.float64)).factor
        assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_from_matrix_rejects_a_non_hermitian_gram_matrix_at_any_scale():
    # The Hermitian test compares Frobenius norms taken from scaled column
    # norms, so neither overflows nor underflows, and it warns of nothing.
    A = np.eye(30)
    A[0, 5] = 0.5
    G, _ = _spd_weight(30, 141)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-300, 1.0, 1e300):
            with pytest.raises(DataError, match="Hermitian"):
                InnerProduct.from_matrix(scale * A)
            InnerProduct.from_matrix(scale * G)
