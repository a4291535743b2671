"""The Rayleigh-Ritz engine: quotients, residuals, refinement, ordering."""

import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmdkit
from dmdkit import ritz, variants
from dmdkit.errors import ConditioningError, DataError, ShapeError
from dmdkit._blas import _MODULES, _blas_threads, _one_blas_thread
from dmdkit.pod import RankPolicy, truncated_svd
from dmdkit.ritz import (
    _lift,
    _residuals_from_stack,
    QrStack,
    RitzDecomposition,
    action_on_basis,
    data_driven_residuals,
    koopman_log_map,
    order_pairs,
    qr_stack,
    rayleigh_from_qr,
    refine_ritz,
    refined_rayleigh_value,
    ritz_pairs,
)
from dmdkit.variants import VariantConfig, ddmd_rrr
from dmdkit.verify import invariant_subspace_pair, make_oracle, trajectory


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _random_instance(seed, n=20, m=8):
    """Small decomposition context: orthonormal U, its image B, the stack."""
    rng = _rng(seed)
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    X = rng.standard_normal((n, m))
    basis = truncated_svd(X, RankPolicy.fixed(m))
    B = action_on_basis(A @ X, basis.V, basis.sigma)
    stack = qr_stack(basis.U, B)
    return A, basis.U, B, stack


def test_action_on_basis_identity_columns():
    n, m = 6, 3
    A = np.diag(np.arange(1.0, n + 1))
    Y = A[:, :m]  # image of the leading identity columns
    B = action_on_basis(Y, np.eye(m), np.ones(m))
    assert np.array_equal(B, A[:, :m])


def test_action_on_basis_equals_operator_image():
    A, U, B, _ = _random_instance(3)
    assert np.linalg.norm(B - A @ U, 2) <= 1e-11 * np.linalg.norm(A, 2)


def test_action_on_basis_truncated_rank_still_exact():
    # truncation discards X-directions, not the identity B = A U on the
    # retained ones
    rng = _rng(5)
    n, m, k = 25, 10, 4
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    X = rng.standard_normal((n, m))
    basis = truncated_svd(X, RankPolicy.fixed(k))
    B = action_on_basis(A @ X, basis.V, basis.sigma)
    assert np.linalg.norm(B - A @ basis.U, 2) <= 1e-11 * np.linalg.norm(A, 2)


def test_action_on_basis_guards_zero_sigma():
    with pytest.raises(ConditioningError):
        action_on_basis(np.eye(3), np.eye(3), np.array([1.0, 0.0, 1.0]))


def test_action_on_basis_rejects_a_v_that_does_not_match_y():
    with pytest.raises(ShapeError, match="Y has 3 columns but V_k has 4 rows"):
        action_on_basis(np.eye(3), np.eye(4), np.ones(4))


def test_qr_stack_duplicated_isometry():
    Q, _ = np.linalg.qr(_rng(7).standard_normal((10, 4)))
    stack = qr_stack(Q, Q)
    assert np.allclose(stack.r11, np.eye(4), atol=1e-13)
    assert np.allclose(stack.r12, np.eye(4), atol=1e-13)
    assert np.allclose(stack.r22, 0.0, atol=1e-13)


def test_qr_stack_gram_identity_and_phase_convention():
    # R is a genuine triangular factor: (U B)*(U B) = R*R, with the
    # diagonal of the first block row rotated to the nonnegative reals
    _, U, B, stack = _random_instance(11)
    k = stack.k
    top = np.hstack([stack.r11, stack.r12])
    bottom = np.hstack([np.zeros((stack.r22.shape[0], k)), stack.r22])
    R = np.vstack([top, bottom])
    stacked = np.hstack([U, B])
    assert np.allclose(stacked.conj().T @ stacked, R.conj().T @ R, atol=1e-12)
    d = np.diagonal(stack.r11)
    assert np.all(d.real >= 0) and np.allclose(d.imag if np.iscomplexobj(d) else 0.0, 0.0)


def test_qr_stack_square_basis_has_empty_tail():
    # n = k leaves no room below the span; refinement must still work
    rng = _rng(13)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    B = rng.standard_normal((4, 4))
    stack = qr_stack(Q, B)
    assert stack.r22.shape[0] == 0
    w, sigma = refine_ritz(stack, 0.3 + 0.1j)
    assert w.shape == (4,) and sigma >= 0.0


@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n, k", [(50, 6), (9, 6), (1, 1)], ids=["n>=2k", "n<2k", "n=1"])
def test_qr_stack_matches_numpy_qr(n, k, complex_valued):
    rng = _rng(19)
    U, B = rng.standard_normal((n, k)), rng.standard_normal((n, k))
    if complex_valued:
        U, B = U + 1j * rng.standard_normal((n, k)), B - 1j * rng.standard_normal((n, k))
    stack = qr_stack(U, B)
    R = np.linalg.qr(np.hstack([U, B]), mode="r")
    phases = np.diagonal(R) / np.abs(np.diagonal(R))
    R = R * phases.conj()[:, None]
    tol = 1e-13 * np.abs(R).max()
    assert stack.r22.shape == (min(n, 2 * k) - k, k)
    for block, ref in ((stack.r11, R[:k, :k]), (stack.r12, R[:k, k:]), (stack.r22, R[k:, k:])):
        assert np.abs(block - ref).max(initial=0.0) <= tol


def test_qr_stack_rejects_mismatched_or_one_dimensional_blocks():
    with pytest.raises(ShapeError):
        qr_stack(np.ones((4, 2)), np.ones((4, 3)))
    with pytest.raises(ShapeError):
        qr_stack(np.ones(4), np.ones(4))


def test_qr_stack_holds_the_stack_once():
    rng = _rng(23)
    n, k = 20000, 30
    U, B = rng.standard_normal((n, k)), rng.standard_normal((n, k))
    tracemalloc.start()
    try:
        qr_stack(U, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= U.nbytes + B.nbytes + 2**20


def test_vector_present_sees_nan_in_either_part():
    vectors = np.ones((3, 4), dtype=complex)
    vectors[1, 0] = complex(np.nan, 1.0)
    vectors[2, 1] = complex(1.0, np.nan)
    vectors[:, 3] = np.nan
    dec = RitzDecomposition(
        lambdas=np.ones(4, dtype=complex), vectors=vectors, residuals=np.zeros(4),
        refined=(None,) * 4, ordering=np.arange(4), variant="dmd", rank=4,
    )
    assert dec.vector_present.tolist() == [False, False, True, False]


def test_rayleigh_from_qr_matches_direct_product():
    _, U, B, stack = _random_instance(17)
    S = rayleigh_from_qr(stack)
    direct = U.conj().T @ B
    assert np.abs(S - direct).max() <= 1e-12 * np.linalg.norm(B, 2)


def test_ritz_pairs_diagonal_quotient():
    S = np.diag([2.0, 3.0])
    lambdas, W, Z = ritz_pairs(S, np.eye(2))
    assert sorted(lambdas.real) == [2.0, 3.0]
    assert np.allclose(S @ W, W * lambdas[None, :], atol=1e-14)
    assert np.allclose(np.linalg.norm(Z, axis=0), 1.0)


def test_ritz_pairs_companion_against_root_oracle():
    # oracle first: brute-force roots of z^3 - 2z^2 - 5z + 6 = (z-1)(z+2)(z-3)
    oracle = np.sort_complex(np.roots([1.0, -2.0, -5.0, 6.0]))
    C = np.array([[0.0, 0.0, -6.0], [1.0, 0.0, 5.0], [0.0, 1.0, 2.0]])
    lambdas, _, _ = ritz_pairs(C, np.eye(3))
    assert np.allclose(np.sort_complex(lambdas), oracle, atol=1e-8)


def test_ritz_pairs_defective_quotient_does_not_fail():
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    lambdas, W, _ = ritz_pairs(J, np.eye(2))
    assert np.allclose(lambdas, 1.0)
    assert np.allclose(np.linalg.norm(W, axis=0), 1.0)


def test_scalar_pipeline_recovers_multiplier():
    x = _rng(19).standard_normal((7, 1))
    basis = truncated_svd(x, RankPolicy.fixed(1))
    B = action_on_basis(2.0 * x, basis.V, basis.sigma)
    S = basis.U.conj().T @ B
    lambdas, W, _ = ritz_pairs(S, basis.U)
    r = data_driven_residuals(B, basis.U, W, lambdas)
    assert lambdas[0] == pytest.approx(2.0, abs=1e-13)
    assert r[0] <= 1e-13


def test_residuals_from_stack_match_ambient_norms():
    _, U, B, stack = _random_instance(23)
    S = rayleigh_from_qr(stack)
    lambdas, W, _ = ritz_pairs(S, np.eye(stack.k))
    ambient = np.linalg.norm(B @ W - (U @ W) * lambdas, axis=0)
    packed = _residuals_from_stack(stack, lambdas, W)
    assert np.allclose(packed, ambient, atol=1e-12)


def test_invariant_subspace_residual_vanishes():
    rng = _rng(29)
    n, m = 12, 4
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    T = rng.standard_normal((m, m))
    A = Q @ T @ Q.T  # range(Q) is invariant
    basis = truncated_svd(Q, RankPolicy.fixed(m))
    B = action_on_basis(A @ Q, basis.V, basis.sigma)
    S = basis.U.conj().T @ B
    lambdas, W, _ = ritz_pairs(S, basis.U)
    r = data_driven_residuals(B, basis.U, W, lambdas)
    assert r.max() <= 1e-12 * np.linalg.norm(A, 2)


def test_refine_scalar_closed_form():
    # k=1 oracle: the only unit vector is w = 1, so
    # sigma = sqrt(|r12 - lam*r11|^2 + |r22|^2)
    stack = QrStack(
        r11=np.array([[0.8]]),
        r12=np.array([[0.3 + 0.2j]]),
        r22=np.array([[0.45]]),
    )
    lam = 0.6 - 0.1j
    _, sigma = refine_ritz(stack, lam)
    want = np.sqrt(abs(0.3 + 0.2j - lam * 0.8) ** 2 + 0.45**2)
    assert sigma == pytest.approx(want, abs=1e-14)


def test_refinement_never_worse_than_plain_residual():
    _, _, B, stack = _random_instance(31)
    S = rayleigh_from_qr(stack)
    lambdas, W, _ = ritz_pairs(S, np.eye(stack.k))
    plain = _residuals_from_stack(stack, lambdas, W)
    slack = 1e-12 * np.linalg.norm(B, 2)
    for i, lam in enumerate(lambdas):
        _, sigma = refine_ritz(stack, lam)
        assert sigma <= plain[i] + slack


def test_refine_exact_eigenvalue_in_span():
    rng = _rng(37)
    n, m = 10, 3
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    T = rng.standard_normal((m, m))
    A = Q @ T @ Q.T
    basis = truncated_svd(Q, RankPolicy.fixed(m))
    B = action_on_basis(A @ Q, basis.V, basis.sigma)
    stack = qr_stack(basis.U, B)
    lam = np.linalg.eigvals(T)[0]
    _, sigma = refine_ritz(stack, lam)
    assert sigma <= 1e-12 * np.linalg.norm(B, 2)


def test_refined_rayleigh_value_of_exact_eigenvector():
    S = np.diag([2.0, 5.0]).astype(complex)
    assert refined_rayleigh_value(S, np.array([0.0, 1.0])) == pytest.approx(5.0)


def test_rayleigh_value_is_real_for_hermitian_quotient():
    rng = _rng(41)
    H = rng.standard_normal((5, 5))
    H = H + H.T
    w = rng.standard_normal(5)
    w = w / np.linalg.norm(w)
    assert abs(refined_rayleigh_value(H, w).imag) <= 1e-14 * np.abs(H).max()


def test_swapping_lambda_for_rho_never_hurts():
    _, _, _, stack = _random_instance(43)
    S = rayleigh_from_qr(stack)
    lambdas = np.linalg.eigvals(S)
    for lam in lambdas:
        w, sigma = refine_ritz(stack, lam)
        rho = refined_rayleigh_value(S, w)
        with_rho = _residuals_from_stack(stack, np.array([rho]), w.reshape(-1, 1))[0]
        assert with_rho <= sigma + 1e-12


def test_koopman_log_map_values():
    assert koopman_log_map(np.array([1.0]), 0.5)[0] == 0.0
    got = koopman_log_map(np.array([np.exp(1j * np.pi / 4)]), 0.1)[0]
    assert got == pytest.approx(1.25j, abs=1e-12)
    got = koopman_log_map(np.array([-1.0]), 0.25)[0]
    assert got == pytest.approx(1j / (2 * 0.25), abs=1e-12)


def test_koopman_log_map_domain_errors():
    with pytest.raises(DataError):
        koopman_log_map(np.array([0.0]), 0.1)
    with pytest.raises(DataError):
        koopman_log_map(np.array([1.0]), 0.0)
    with pytest.raises(DataError):
        koopman_log_map(np.array([1.0]), np.nan)


@pytest.mark.parametrize("dt", [True, np.True_, "0.1", np.array([0.1, 0.2]), 0.1 + 0j, np.nan, np.inf, -np.inf,
                                0, -0.1],
                         ids=["bool", "numpy-bool", "str", "array", "complex", "nan", "inf", "-inf", "zero",
                              "negative"])
def test_koopman_log_map_rejects_a_bad_dt(dt):
    # True was taken as 1, an array raised numpy's ValueError, a str a TypeError
    with pytest.raises(DataError, match="dt must be a positive finite real number"):
        koopman_log_map(np.array([1.0 + 1.0j]), dt)


@pytest.mark.parametrize("dt", [0.1, np.float64(0.1), 1], ids=["float", "float64", "int"])
def test_koopman_log_map_takes_a_real_dt(dt):
    got = koopman_log_map(np.array([1.0 + 1.0j]), dt)
    want = (np.log(np.sqrt(2.0)) + 1j * np.pi / 4) / (2.0 * np.pi * float(dt))
    assert np.array_equal(got, [want])


def test_order_pairs_sorts_and_breaks_ties_deterministically():
    residuals = np.array([0.5, 0.1, 0.5, 0.5])
    lambdas = np.array([2.0 + 0j, 9.0, 1.0 + 1.0j, 1.0 + 0.5j])
    perm = order_pairs(residuals, lambdas)
    assert perm[0] == 1  # smallest residual first
    tied = lambdas[perm[1:]]
    assert np.all(np.diff(np.abs(tied)) >= -1e-15)  # then ascending modulus
    assert np.abs(tied[0]) == np.abs(lambdas[3])


# ---------------------------------------------------------------------------
# the refinement kernel against the full SVD of the 2k x k stack


def _full_svd_reference(stack, lam):
    """The original kernel: full SVD of the stacked shifted blocks."""
    R_lam = np.vstack([stack.r12 - lam * stack.r11, stack.r22])
    _, _, Vh = np.linalg.svd(R_lam)
    w = Vh[-1, :].conj()
    w = w / np.linalg.norm(w)
    return w, float(np.linalg.norm(R_lam @ w))


def _fresh(stack):
    return QrStack(r11=stack.r11, r12=stack.r12, r22=stack.r22)


# rows of data beyond k: r22 then has min(extra, k) rows
_EXTRA_ROWS = {"empty": lambda k: 0, "short": lambda k: k // 2, "full": lambda k: 2 * k}


@st.composite
def _stacks(draw):
    """A QR stack of random data whose r22 has 0, fewer than k, or k rows."""
    k = draw(st.integers(2, 7))
    tail = draw(st.sampled_from(sorted(_EXTRA_ROWS)))
    complex_data = draw(st.booleans())
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    n = k + _EXTRA_ROWS[tail](k)

    def sample(*shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_data else a

    U, _ = np.linalg.qr(sample(n, k))
    stack = qr_stack(U, sample(n, k) / np.sqrt(n))
    assert stack.r22.shape[0] == min(n - k, k)
    return stack


_kernel_settings = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def _shifts(stack, rng):
    """The Ritz values of the stack and as many random shifts in the same disc."""
    S = rayleigh_from_qr(stack)
    lambdas, W = np.linalg.eig(S)
    radius = np.abs(lambdas).max()
    extra = radius * rng.uniform(0, 1, stack.k) * np.exp(2j * np.pi * rng.uniform(0, 1, stack.k))
    return lambdas, W / np.linalg.norm(W, axis=0), extra


@_kernel_settings
@given(_stacks(), st.integers(0, 2**32 - 1))
def test_refine_ritz_matches_full_svd_reference(stack, seed):
    lambdas, _, extra = _shifts(stack, _rng(seed))
    normB = np.linalg.norm(np.vstack([stack.r12, stack.r22]), 2)
    for lam in np.concatenate([lambdas, extra]):
        w, sigma = refine_ritz(_fresh(stack), lam)
        _, want = _full_svd_reference(stack, lam)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)
        assert abs(sigma - want) <= 1e-12 * want + 1e-14 * normB


@_kernel_settings
@given(_stacks(), st.integers(0, 2**32 - 1))
def test_refine_ritz_never_worse_than_plain(stack, seed):
    lambdas, W, _ = _shifts(stack, _rng(seed))
    plain = _residuals_from_stack(stack, lambdas, W)
    normB = np.linalg.norm(np.vstack([stack.r12, stack.r22]), 2)
    for lam, r in zip(lambdas, plain):
        _, sigma = refine_ritz(stack, lam)
        assert sigma <= r + 1e-12 * normB


@_kernel_settings
@given(_stacks(), st.integers(0, 2**32 - 1))
def test_refine_ritz_conjugate_shift_is_bitwise_conjugate(stack, seed):
    if np.iscomplexobj(stack.r12):
        return
    lambdas, _, extra = _shifts(stack, _rng(seed))
    for lam in np.concatenate([lambdas, extra]).astype(complex):
        # each call on its own fresh stack: no shared memo between the two
        w, sigma = refine_ritz(_fresh(stack), lam)
        w_bar, sigma_bar = refine_ritz(_fresh(stack), np.conj(lam))
        assert np.array_equal(w_bar, w.conj()) and sigma_bar == sigma


@_kernel_settings
@given(_stacks(), st.integers(0, 2**32 - 1))
def test_refine_ritz_memo_hit_equals_fresh_solve(stack, seed):
    lambdas, _, extra = _shifts(stack, _rng(seed))
    shifts = np.concatenate([lambdas, extra])
    for lam in shifts:
        refine_ritz(stack, lam)
    for lam in np.concatenate([shifts, np.conj(shifts)]):
        w, sigma = refine_ritz(stack, lam)
        w_fresh, sigma_fresh = refine_ritz(_fresh(stack), lam)
        assert w.dtype == w_fresh.dtype
        assert np.array_equal(w, w_fresh) and sigma == sigma_fresh


def test_refine_ritz_memo_hands_out_copies():
    _, _, _, stack = _random_instance(47)
    lam = np.linalg.eigvals(rayleigh_from_qr(stack))[0]
    w, sigma = refine_ritz(stack, lam)
    w[:] = 0.0
    again, sigma_again = refine_ritz(stack, lam)
    assert np.linalg.norm(again) == pytest.approx(1.0) and sigma_again == sigma


# ---------------------------------------------------------------------------
# the two routes of a solve: the cross-product eigensolve and its QR + SVD
# fallback


def _qr_svd_reference(stack, lam):
    """The QR + SVD kernel: the SVD of the triangular factor of the shifted stack."""
    with _one_blas_thread:
        R_lam = np.vstack([stack.r12 - lam * stack.r11, stack.r22])
        _, _, Vh = np.linalg.svd(np.linalg.qr(R_lam, mode="r"))
        w = Vh[-1, :].conj()
        w = w / np.linalg.norm(w)
        return w, float(_residuals_from_stack(stack, [lam], w[:, None])[0])


class _Routes:
    """Counts the solves of each route and records every refinement a pipeline makes."""

    def __init__(self):
        self.cross = self.svd = 0
        self.calls = []  # (stack, lam, w, sigma) per refine_ritz call

    def __enter__(self):
        self._saved = ritz._solve_by_cross_product, ritz._solve_by_svd, variants.refine_ritz
        cross, svd, refine = self._saved

        def count_cross(*args):
            self.cross += 1
            return cross(*args)

        def count_svd(*args):
            self.svd += 1
            return svd(*args)

        def record(stack, lam):
            w, sigma = refine(stack, lam)
            self.calls.append((stack, lam, w, sigma))
            return w, sigma

        ritz._solve_by_cross_product, ritz._solve_by_svd, variants.refine_ritz = count_cross, count_svd, record
        return self

    def __exit__(self, *exc):
        ritz._solve_by_cross_product, ritz._solve_by_svd, variants.refine_ritz = self._saved


@st.composite
def _oracle_data(draw):
    """A snapshot pair of a make_oracle operator: an exact invariant subspace or a Krylov trajectory."""
    n = draw(st.integers(12, 40))
    oracle = make_oracle(n, spectrum=draw(st.sampled_from(["decaying", "unit-disc"])),
                         conditioning=draw(st.sampled_from([1.0, 1e2, 1e4])),
                         seed=draw(st.integers(0, 2**16)), complex_valued=draw(st.booleans()))
    m = draw(st.integers(2, n // 2))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        pair = invariant_subspace_pair(oracle, m, seed)
        return pair.X, pair.Y
    F = trajectory(oracle, _rng(seed).standard_normal(n), m).F
    return F[:, :-1], F[:, 1:]


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(_oracle_data(), st.sampled_from([1e-10, 1e-4, 1e-1]))
def test_refine_ritz_matches_svd_route_over_oracle_family(data, cap):
    X, Y = data
    for refine in ("all", cap):
        with _Routes() as routes:
            ddmd_rrr(X, Y, VariantConfig(refine=refine))
        for stack, lam, w, sigma in routes.calls:
            normB = np.linalg.norm(np.vstack([stack.r12, stack.r22]), 2)
            # refined <= plain: no Ritz vector of the quotient does better at this shift
            _, W = np.linalg.eig(rayleigh_from_qr(stack))
            plain = _residuals_from_stack(stack, np.full(stack.k, lam), W / np.linalg.norm(W, axis=0))
            assert sigma <= plain.min() + 1e-12 * normB
            _, want = _qr_svd_reference(stack, lam)
            assert abs(sigma - want) <= 1e-12 * want + 1e-14 * normB
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("complex_valued", [False, True])
@pytest.mark.parametrize("conditioning", [1.0, 1e2, 1e4])
def test_invariant_pairs_take_the_fallback_with_its_bits(conditioning, complex_valued):
    # residuals at roundoff: the eigenvector of the cross-product matrix
    # cannot be vouched for, so every solve is the QR + SVD one
    oracle = make_oracle(80, conditioning=conditioning, seed=17, complex_valued=complex_valued)
    pair = invariant_subspace_pair(oracle, 16, seed=18)
    with _Routes() as routes:
        ddmd_rrr(pair.X, pair.Y)
    stack = routes.calls[0][0]
    assert routes.svd == routes.cross == len(stack._refined) > 0
    for _, lam, w, sigma in routes.calls:
        w_ref, sigma_ref = _qr_svd_reference(stack, lam)
        assert np.array_equal(w, w_ref) and sigma == sigma_ref


def test_one_dimensional_stacks_take_the_fallback_with_its_bits():
    rng = _rng(53)
    for complex_data in (False, True):
        for _ in range(5):
            r12 = rng.standard_normal((1, 1)) + (1j * rng.standard_normal((1, 1)) if complex_data else 0)
            stack = QrStack(r11=np.abs(rng.standard_normal((1, 1))), r12=r12,
                            r22=rng.standard_normal((1, 1)))
            for lam in (r12[0, 0], rng.standard_normal() + 1j * rng.standard_normal()):
                with _Routes() as routes:
                    w, sigma = refine_ritz(_fresh(stack), lam)
                assert routes.svd == 1
                w_ref, sigma_ref = _qr_svd_reference(stack, lam)
                assert np.array_equal(w, w_ref) and sigma == sigma_ref


def _one_formula(stack, lam, w, sigma):
    """Whether ``sigma`` is the residual of w at the shift, read off the stack as every other residual is."""
    return sigma == float(_residuals_from_stack(stack, [lam], w[:, None])[0])


@pytest.mark.parametrize("complex_valued", [False, True])
def test_a_refined_certificate_is_the_residual_formula_of_the_stack(complex_valued):
    # One formula for every reported residual, bit for bit: on the
    # cross-product route (a Gaussian pair), on the QR + SVD fallback (an
    # invariant subspace) and for one-dimensional stacks.
    rng = _rng(61)
    def draw(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if complex_valued else g

    oracle = make_oracle(80, conditioning=1e2, seed=17, complex_valued=complex_valued)
    invariant = invariant_subspace_pair(oracle, 16, seed=18)
    for (X, Y), route in (((draw(200, 24), draw(200, 24)), "cross"), ((invariant.X, invariant.Y), "svd")):
        with _Routes() as routes:
            ddmd_rrr(X, Y)
        assert getattr(routes, route) == len(routes.calls[0][0]._refined) > 0
        assert routes.svd == 0 if route == "cross" else routes.cross == routes.svd
        assert all(_one_formula(*call) for call in routes.calls)
    for _ in range(5):
        stack = QrStack(r11=np.abs(rng.standard_normal((1, 1))), r12=draw(1, 1), r22=rng.standard_normal((1, 1)))
        for lam in (stack.r12[0, 0], rng.standard_normal() + 1j * rng.standard_normal()):
            assert _one_formula(stack, lam, *refine_ritz(stack, lam))


def test_every_shift_of_a_large_full_rank_pair_takes_the_cross_product_route():
    # the shape of a 10000 x 120 full-rank pair: every solve must stay off
    # the QR + SVD fallback, or the refinement loses its speed
    rng = _rng(59)
    Q, _ = np.linalg.qr(rng.standard_normal((10000, 128)))
    A = make_oracle(128, conditioning=40.0, seed=60).A
    G = rng.standard_normal((128, 120))
    with _Routes() as routes:
        dec = ddmd_rrr(Q @ G, Q @ (A @ G))
    assert dec.rank == 120
    assert routes.cross == len(routes.calls[0][0]._refined) > 60
    assert routes.svd == 0


@pytest.mark.parametrize("blocks", ["all", "operator"])
@pytest.mark.parametrize("e", [-600, 600])
def test_refinement_of_scaled_stacks_keeps_the_cross_product_route(blocks, e):
    # 2^e times every block, or times R12 and R22 only (an operator scaled
    # by 2^e, with its Ritz values): no warning, no fallback, and the
    # residuals scale with the data
    _, _, _, stack = _random_instance(61)
    scaled = QrStack(r11=stack.r11 if blocks == "operator" else np.ldexp(stack.r11, e),
                     r12=np.ldexp(stack.r12, e), r22=np.ldexp(stack.r22, e))
    lambdas = np.linalg.eigvals(rayleigh_from_qr(stack))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with _Routes() as routes:
            for lam in lambdas:
                w, sigma = refine_ritz(stack, lam)
                w_s, sigma_s = refine_ritz(scaled, np.ldexp(lam.real, e) + 1j * np.ldexp(lam.imag, e)
                                           if blocks == "operator" else lam)
                assert sigma_s == pytest.approx(np.ldexp(sigma, e), rel=1e-13)
                assert abs(np.vdot(w, w_s)) == pytest.approx(1.0, abs=1e-12)
    assert routes.svd == 0 and routes.cross > 0


# Refines every shift of a k = 120 stack of random triangular blocks,
# built by numpy alone, and saves (w, sigma) to the paths given as arguments.
_REFINE_ALL_SHIFTS = """
import sys
import numpy as np
from dmdkit.ritz import QrStack, refine_ritz

k = 120
rng = np.random.Generator(np.random.Philox(11))
r11 = np.triu(rng.standard_normal((k, k)))
r11[np.diag_indices(k)] = np.abs(np.diagonal(r11)) + 1.0
stack = QrStack(r11=r11, r12=rng.standard_normal((k, k)),
                r22=np.triu(rng.standard_normal((k, k))))
shifts = rng.standard_normal(k) + 1j * rng.standard_normal(k)
shifts[::4] = shifts[::4].real
solves = [refine_ritz(stack, lam) for lam in shifts]
np.save(sys.argv[1], np.column_stack([w for w, _ in solves]))
np.save(sys.argv[2], np.array([sigma for _, sigma in solves]))
"""


def test_refinement_bits_do_not_depend_on_blas_threads(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmdkit.__file__)))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        paths = [str(tmp_path / ("%s-%s.npy" % (name, threads))) for name in ("w", "sigma")]
        runs.append((subprocess.Popen([sys.executable, "-c", _REFINE_ALL_SHIFTS, *paths],
                                      env=env, stderr=subprocess.PIPE), paths))
    for proc, _ in runs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    (w1, s1), (w2, s2) = ([np.load(p) for p in paths] for _, paths in runs)
    assert w1.shape == (120, 120)
    assert np.array_equal(w1, w2) and np.array_equal(s1, s2)


def test_refinement_scope_sets_and_restores_the_count():
    libraries = _blas_threads()
    if not libraries:
        pytest.skip("no OpenBLAS of the process exposes a thread setter")

    def counts():
        return {get_threads() for _, get_threads in libraries}

    before = [get_threads() for _, get_threads in libraries]
    interval = sys.getswitchinterval()
    for set_threads, _ in libraries:
        set_threads(2)
    try:
        with _one_blas_thread:
            assert counts() == {1}
        assert counts() == {2}

        with pytest.raises(RuntimeError):
            with _one_blas_thread:
                raise RuntimeError("leave by an exception")
        assert counts() == {2}

        with _one_blas_thread:
            with _one_blas_thread:
                assert counts() == {1}
            assert counts() == {1}
        assert counts() == {2}

        sys.setswitchinterval(1e-6)
        inside = threading.Barrier(8, timeout=30)
        seen = []

        def enter_and_leave():
            with _one_blas_thread:
                inside.wait()
                seen.append(counts())
                inside.wait()

        workers = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in workers)
        assert seen == [{1}] * 8
        assert counts() == {2}
    finally:
        sys.setswitchinterval(interval)
        for (set_threads, _), count in zip(libraries, before):
            set_threads(count)


def test_numpy_openblas_thread_setter_is_found():
    import scipy

    checked = 0
    for package, module in zip((np, scipy), _MODULES):
        try:
            blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except TypeError:
            continue  # numpy < 1.26 and scipy < 1.11 report no build configuration
        if blas["name"] == "scipy-openblas":
            assert _blas_threads((module,)), package.__name__
            checked += 1
    if not checked:
        pytest.skip("neither numpy nor scipy links scipy-openblas")


def _lift_operands(seed, n, k, p, order):
    rng = _rng(seed)
    A = np.asarray(rng.standard_normal((n, k)), order=order)
    W = rng.standard_normal((k, p)) + 1j * rng.standard_normal((k, p))
    return A, W


# Shapes around the row blocks of the lift: one block, a one-row tail that
# joins the previous block, several blocks, and single rows or columns.
_LIFT_SHAPES = [(300, 7, 7), (2049, 12, 9), (4097, 33, 30), (2, 3, 2), (1, 4, 3), (50, 5, 1)]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n, k, p", _LIFT_SHAPES)
def test_lift_matches_the_mixed_product(order, n, k, p):
    A, W = _lift_operands(n + k + p, n, k, p, order)
    # Small integers multiply and add exactly in any order, so any
    # difference here is a layout or indexing fault.
    Ai = np.asarray(np.round(8 * A), order=order)
    Wi = np.round(8 * W.real) + 1j * np.round(8 * W.imag)
    Zi, ref = _lift(Ai, Wi), Ai @ Wi
    np.testing.assert_array_max_ulp(Zi.real, ref.real, 2)
    np.testing.assert_array_max_ulp(Zi.imag, ref.imag, 2)
    # General data: the componentwise error bound of a matrix product.
    Z = _lift(A, W)
    bound = 2 * k * np.finfo(float).eps * (np.abs(A) @ np.abs(W))
    assert np.all(np.abs(Z - A @ W) <= bound)
    if min(n, p) > 1:
        assert Z.flags.f_contiguous


def test_lift_takes_the_plain_product_for_other_operands():
    A, W = _lift_operands(5, 40, 6, 4, "F")
    for a, w in ((A + 0j, W), (A, W.real), (A.astype(np.float32), W)):
        assert np.array_equal(_lift(a, w), a @ w)


def test_lift_never_casts_the_tall_operand_to_complex():
    for order in ("C", "F"):
        A, W = _lift_operands(6, 20000, 40, 30, order)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            Z = _lift(A, W)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # The result and one block of rows; a complex copy of A is 12.8 MB.
        assert peak < Z.nbytes + (2 << 20), order
        assert Z.flags.f_contiguous, order
