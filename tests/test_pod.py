"""Rank policies, the single SVD path, and the weighted POD geometry."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdkit import pod
from dmdkit.errors import ConditioningError, DataError
from dmdkit.inner import InnerProduct
from dmdkit.pod import RankPolicy, _numerical_rank, default_epsilon, truncated_svd, weighted_pod
from dmdkit.variants import VariantConfig


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def test_spectral_policy_forces_truncation():
    basis = truncated_svd(np.diag([1.0, 1e-20]), RankPolicy.spectral(1e-8))
    assert basis.rank == 1
    assert np.allclose(basis.sigma, [1.0])
    assert basis.sigma_all.shape == (2,)


def test_orthonormal_columns_keep_full_rank():
    Q, _ = np.linalg.qr(_rng(2).standard_normal((9, 4)))
    basis = truncated_svd(Q)
    assert basis.rank == 4
    assert np.allclose(basis.sigma, 1.0, atol=1e-12)


def test_spectral_threshold_is_strict():
    # sigma_2 exactly at epsilon*sigma_1 must be dropped, not kept
    assert _numerical_rank(np.array([1.0, 0.5, 0.25]), RankPolicy.spectral(0.5)) == 1
    assert _numerical_rank(np.array([1.0, 0.5, 0.25]), RankPolicy.spectral(0.49)) == 2


def test_fixed_policy_validates_support():
    sigma = np.array([1.0, 0.5, 0.0])
    assert _numerical_rank(sigma, RankPolicy.fixed(2)) == 2
    with pytest.raises(ConditioningError):
        _numerical_rank(sigma, RankPolicy.fixed(3))
    with pytest.raises(ConditioningError):
        _numerical_rank(sigma, RankPolicy.fixed(4))


@pytest.mark.parametrize("profile", [[np.nan, 1.0], [np.inf, 1.0], [1.0, np.nan], [1.0, -np.inf]],
                         ids=["nan-first", "inf-first", "nan-later", "minus-inf-later"])
@pytest.mark.parametrize("policy", [RankPolicy.spectral(0.1), RankPolicy.fixed(1)], ids=repr)
def test_profile_with_a_non_finite_entry_is_a_data_error(profile, policy):
    # a NaN or infinite first entry gave rank 0
    with pytest.raises(DataError):
        _numerical_rank(np.array(profile), policy)


def test_overflowing_profile_of_finite_data_is_a_data_error():
    # a wide matrix goes to gesvd directly, whose sigma_1 overflows (the
    # spectral rule would read rank 0 off it); a tall one overflows in the
    # triangular factor of its QR, and so does a graded one in its pivoted QR
    graded = np.full((5, 3), 1e308)
    graded[:, 2] = 1e-10
    for X in (np.full((3, 40), 1e308), np.full((4, 3), 1e308), graded):
        with pytest.raises(DataError, match="singular value profile contains non-finite entries"):
            truncated_svd(X)


_BAD_POLICIES = [5, 0.1, "spectral", True, RankPolicy]


@pytest.mark.parametrize("policy", _BAD_POLICIES, ids=["int", "float", "str", "bool", "class"])
def test_a_bad_rank_policy_is_rejected_before_any_work(policy, monkeypatch):
    with pytest.raises(DataError, match="rank policy must be a RankPolicy"):
        VariantConfig(policy=policy)
    calls = []
    monkeypatch.setattr(pod, "_svd_for_pod", lambda G: calls.append("svd"))
    monkeypatch.setattr(InnerProduct, "transform", lambda self, X: calls.append("transform"))
    X = _rng(7).standard_normal((50, 10))
    with pytest.raises(DataError, match="rank policy must be a RankPolicy"):
        truncated_svd(X, policy)
    with pytest.raises(DataError, match="rank policy must be a RankPolicy"):
        weighted_pod(X, InnerProduct.identity(50), policy)
    assert calls == []


def test_policy_constructor_rejects_bad_arguments():
    with pytest.raises(DataError):
        RankPolicy("magic")
    with pytest.raises(DataError):
        RankPolicy.spectral(0.0)
    with pytest.raises(DataError):
        RankPolicy.spectral(1.0)
    with pytest.raises(DataError):
        RankPolicy.fixed(0)
    for k in (2.5, True, np.True_, float("nan"), "a"):
        with pytest.raises(DataError):
            RankPolicy.fixed(k)
    with pytest.raises(DataError):
        RankPolicy("fixed", k=float("inf"))
    for epsilon in ("x", "0.5"):
        with pytest.raises(DataError):
            RankPolicy.spectral(epsilon)
    assert RankPolicy.fixed(np.int64(3)).k == 3 and RankPolicy.spectral(np.float32(0.25)).epsilon == 0.25


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-12, max_value=1.0), min_size=1, max_size=12), st.data())
def test_shrinking_epsilon_never_decreases_rank(values, data):
    sigma = np.sort(np.array(values))[::-1]
    eps_hi = data.draw(st.floats(min_value=1e-10, max_value=0.99))
    eps_lo = data.draw(st.floats(min_value=1e-12, max_value=eps_hi))
    k_hi = _numerical_rank(sigma, RankPolicy.spectral(eps_hi))
    k_lo = _numerical_rank(sigma, RankPolicy.spectral(eps_lo))
    assert k_lo >= k_hi


def test_rank_matches_independent_gram_eigenvalue_scan():
    # decaying trajectory; oracle is an eigendecomposition of X*X, a code
    # path disjoint from the production gesvd call.  The threshold sits
    # above the Gram noise floor (sqrt(eps)*sigma_1), where both routes
    # resolve the profile reliably.
    rng = _rng(7)
    n, m = 300, 60
    A = np.diag(np.geomspace(1.0, 1e-9, n))
    F = np.empty((n, m))
    F[:, 0] = rng.standard_normal(n)
    for i in range(m - 1):
        F[:, i + 1] = A @ F[:, i]
    eps = 1e-6
    w = np.linalg.eigvalsh(F.T @ F)
    sv_oracle = np.sqrt(np.maximum(w[::-1], 0.0))
    k_oracle = int(np.count_nonzero(sv_oracle > eps * sv_oracle[0]))
    basis = truncated_svd(F, RankPolicy.spectral(eps))
    assert basis.rank == k_oracle


def test_eckart_young_at_desk_scale():
    X = _rng(11).standard_normal((8, 5))
    s_all = np.linalg.svd(X, compute_uv=False)
    for k in range(1, 5):
        basis = truncated_svd(X, RankPolicy.fixed(k))
        approx = (basis.U * basis.sigma[None, :]) @ basis.V.conj().T
        assert np.linalg.norm(X - approx, 2) == pytest.approx(s_all[k], abs=1e-12)


def test_zero_matrix_has_no_rank():
    with pytest.raises(ConditioningError):
        truncated_svd(np.zeros((4, 3)))


def test_graded_columns_take_the_pivoted_qr_path():
    # column norms spanning 12 orders of magnitude trigger the QR
    # preprocessing; the result must still be an accurate SVD of X
    rng = _rng(13)
    X = rng.standard_normal((40, 10)) * np.geomspace(1.0, 1e-12, 10)[None, :]
    basis = truncated_svd(X, RankPolicy.fixed(10))
    assert np.allclose(basis.U.conj().T @ basis.U, np.eye(10), atol=1e-12)
    assert np.allclose(basis.V.conj().T @ basis.V, np.eye(10), atol=1e-12)
    approx = (basis.U * basis.sigma[None, :]) @ basis.V.conj().T
    assert np.linalg.norm(X - approx, 2) <= 1e-13 * basis.sigma[0]
    w = np.linalg.eigvalsh(X.T @ X)[::-1]
    assert np.allclose(basis.sigma[:3], np.sqrt(w[:3]), rtol=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_graded_columns_keep_every_singular_value_to_working_accuracy(seed):
    # Column norms from 1 to 1e-12 in random order.  The pivoted QR taken
    # above the spread rule gives each singular value to full relative
    # accuracy, like the one-sided Jacobi SVD (dgejsv); the unpivoted SVD
    # misses the smallest ones by 1e-9 to 2e-5 relative on these matrices.
    rng = _rng(seed)
    G = rng.standard_normal((200, 20)) * rng.permutation(np.geomspace(1.0, 1e-12, 20))[None, :]
    sva, _, _, work, _, info = scipy.linalg.lapack.dgejsv(G, jobu=3, jobv=3)
    assert info == 0
    reference = sva * (work[0] / work[1])
    sigma = truncated_svd(G, RankPolicy.fixed(20)).sigma
    assert np.max(np.abs(sigma - reference) / reference) <= 1e-13


def test_weighted_pod_with_identity_is_bitwise_plain():
    X = _rng(17).standard_normal((20, 6))
    plain = truncated_svd(X)
    weighted = weighted_pod(X, InnerProduct.identity(20))
    assert np.array_equal(plain.sigma, weighted.sigma)
    assert np.array_equal(plain.U, weighted.U)
    assert np.array_equal(plain.V, weighted.V)


def test_weighted_pod_diagonal_factor_oracle():
    # explicit oracle: POD under diag(d^2) equals Euclidean POD of diag(d) X
    # lifted back through the inverse factor
    rng = _rng(19)
    n, m = 15, 5
    X = rng.standard_normal((n, m))
    d = np.geomspace(2.0, 0.5, n)
    weighted = weighted_pod(X, InnerProduct.diagonal(d**2))
    plain = truncated_svd(X * d[:, None])
    assert np.array_equal(weighted.sigma, plain.sigma)
    assert np.allclose(weighted.U, plain.U / d[:, None], atol=1e-14)


def test_weighted_basis_is_m_orthonormal():
    rng = _rng(23)
    n, m = 30, 8
    G = rng.standard_normal((n, n))
    M_mat = G @ G.T / n + np.eye(n)
    M = InnerProduct.from_matrix(M_mat)
    basis = weighted_pod(rng.standard_normal((n, m)), M)
    gram = basis.U.conj().T @ (M_mat @ basis.U)
    assert np.linalg.norm(gram - np.eye(basis.rank)) <= 1e-10 * np.sqrt(basis.rank)


def test_weighted_truncation_error_equals_next_singular_value():
    rng = _rng(29)
    n, m, k = 20, 7, 3
    G = rng.standard_normal((n, n))
    M_mat = G @ G.T / n + np.eye(n)
    M = InnerProduct.from_matrix(M_mat)
    X = rng.standard_normal((n, m))
    basis = weighted_pod(X, M, RankPolicy.fixed(k))
    approx = (basis.U * basis.sigma[None, :]) @ basis.V.conj().T
    err = np.linalg.norm(M.transform(X - approx), 2)
    assert err == pytest.approx(basis.sigma_all[k], abs=1e-10)


def test_weighted_pod_requires_inner_product():
    with pytest.raises(DataError):
        weighted_pod(np.eye(3), np.eye(3))


def test_default_epsilon_covers_wide_inputs():
    eps = np.finfo(np.float64).eps
    assert default_epsilon(100, 10) == 100 * eps
    assert default_epsilon(10, 100) == 101 * eps


def _gaussian(rng, shape, complex_valued):
    G = rng.standard_normal(shape)
    if complex_valued:
        G = G + 1j * rng.standard_normal(shape)
    return G


# Inputs for the kernel tests: tall ones take the QR-first route, the
# others go to gesvd directly.
_SVD_INPUTS = {
    "tall": lambda rng, c: _gaussian(rng, (60, 8), c),
    "square": lambda rng, c: _gaussian(rng, (12, 12), c),
    "wide": lambda rng, c: _gaussian(rng, (7, 15), c),
    "rank-deficient": lambda rng, c: _gaussian(rng, (40, 4), c) @ _gaussian(rng, (4, 10), c),
    "n-by-1": lambda rng, c: _gaussian(rng, (30, 1), c),
}


@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name", sorted(_SVD_INPUTS))
def test_truncated_svd_matches_gesvd_reference(name, complex_valued):
    X = _SVD_INPUTS[name](_rng(31), complex_valued)
    _, s_ref, _ = scipy.linalg.svd(X, full_matrices=False, lapack_driver="gesvd")
    basis = truncated_svd(X)
    tol = 1e-13 * s_ref[0]
    assert np.abs(basis.sigma_all - s_ref).max() <= tol
    k = basis.rank
    assert k == (4 if name == "rank-deficient" else min(X.shape))
    assert np.abs(basis.U.conj().T @ basis.U - np.eye(k)).max() <= 1e-13
    assert np.abs(basis.V.conj().T @ basis.V - np.eye(k)).max() <= 1e-13
    assert np.linalg.norm(X - (basis.U * basis.sigma) @ basis.V.conj().T, 2) <= tol


@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name", sorted(_SVD_INPUTS))
def test_truncated_svd_does_not_depend_on_memory_layout(name, complex_valued):
    X = _SVD_INPUTS[name](_rng(37), complex_valued)
    c = truncated_svd(np.ascontiguousarray(X))
    f = truncated_svd(np.asfortranarray(X))
    assert np.array_equal(c.U, f.U)
    assert np.array_equal(c.sigma_all, f.sigma_all)
    assert np.array_equal(c.V, f.V)
