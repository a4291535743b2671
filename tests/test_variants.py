"""End-to-end pipelines: classic, refined, compressed, exact, fb, selection."""

import dataclasses
import functools
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from conftest import traced_peak
from dmdkit import variants, weighted
from dmdkit.errors import ConditioningError, DataError, ShapeError
from dmdkit.inner import InnerProduct
from dmdkit.pod import RankPolicy, default_epsilon, truncated_svd, weighted_pod
from dmdkit.ritz import QrStack, RefinedPair, action_on_basis, qr_stack, rayleigh_from_qr, refine_ritz, ritz_pairs
from dmdkit.snapshots import KrylovCompanion, SequentialTrajectory, SnapshotPair, scale_columns
from dmdkit.variants import (
    FbSpectrum,
    VariantConfig,
    ddmd_rrr,
    ddmd_rrr_auto,
    ddmd_rrr_compressed,
    dmd,
    exact_dmd,
    exact_dmd_sequential_diagnostic,
    fb_dmd_mrf,
    select_pairs,
)
from dmdkit.verify import make_oracle, match_eigenvalues, trajectory
from dmdkit.weighted import two_sided_weighted_dmd, weighted_dmd


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _orbit(seed, n, m, **kw):
    oracle = make_oracle(n, seed=seed, **kw)
    f1 = _rng(seed + 1).standard_normal(n)
    return oracle, trajectory(oracle, f1 / np.linalg.norm(f1), m)


def _lifted_system(seed, n, m, dtype=complex):
    """(Q, A, G): orthonormal Q (n x r), a stable A (r x r) and coordinates G (r x m), r = m + 4.

    X = Q G and Y = Q A G satisfy Y = (Q A Q*) X exactly, so the true
    residual of any vector in range(Q) can be computed.
    """
    rng = _rng(seed)

    def draw(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if dtype is complex else g

    r = m + 4
    Q, _ = np.linalg.qr(draw(n, r))
    A = draw(r, r)
    return Q, A * (0.9 / np.abs(np.linalg.eigvals(A)).max()), draw(r, m)


def test_dmd_recovers_diagonal_operator():
    n, m = 8, 5
    alphas = np.array([0.9, 0.7, 0.5, 0.3, 0.2])
    A = np.diag(np.concatenate([alphas, np.zeros(n - m)]))
    X = np.eye(n)[:, :m]
    dec = dmd(X, A @ X)
    assert dec.rank == m
    assert np.allclose(np.sort(dec.lambdas.real)[::-1], alphas, atol=1e-13)
    assert np.allclose(dec.lambdas.imag, 0.0, atol=1e-14)
    assert dec.residuals.max() <= 1e-13


def test_dmd_residuals_sorted_and_conjugate_closed():
    _, F = _orbit(51, 40, 12, spectrum="unit-disc", conditioning=15.0)
    dec = dmd(F.F[:, :-1], F.F[:, 1:])
    assert np.all(np.diff(dec.residuals) >= 0)
    # real data: spectrum closed under conjugation
    gap = match_eigenvalues(dec.lambdas, dec.lambdas.conj())
    assert gap <= 1e-10


def test_dmd_ritz_values_near_true_spectrum_for_normal_operator():
    oracle, F = _orbit(53, 60, 14, spectrum="unit-disc", conditioning=1.0)
    dec = dmd(F.F[:, :-1], F.F[:, 1:])
    dist = np.abs(dec.lambdas[:, None] - oracle.eigenvalues[None, :]).min(axis=1)
    assert np.all(dist <= 10.0 * np.maximum(dec.residuals, 1e-14))


def test_dmd_never_refines():
    _, F = _orbit(55, 20, 6)
    dec = dmd(F.F[:, :-1], F.F[:, 1:], VariantConfig(refine="all"))
    assert all(r is None for r in dec.refined)


def test_rrr_refined_residuals_beat_plain_dmd():
    _, F = _orbit(57, 50, 15, spectrum="unit-disc", conditioning=25.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    plain = dmd(X, Y)
    refined = ddmd_rrr(X, Y)
    assert refined.rank == plain.rank
    assert all(rec is not None for rec in refined.refined)
    # compare sorted curves: refinement minimizes per eigenvalue
    assert np.all(np.sort(refined.residuals) <= np.sort(plain.residuals) + 1e-12)


def test_rrr_refine_cap_only_touches_small_residuals():
    _, F = _orbit(59, 40, 12, spectrum="unit-disc", conditioning=20.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    probe = ddmd_rrr(X, Y, VariantConfig(refine="none"))
    cap = float(np.median(probe.residuals))
    dec = ddmd_rrr(X, Y, VariantConfig(refine=cap))
    for rec, r in zip(dec.refined, dec.residuals):
        if rec is not None:
            assert r <= cap + 1e-12
    assert any(rec is None for rec in dec.refined)
    assert any(rec is not None for rec in dec.refined)
    # the cap refines exactly the pairs select_pairs keeps at it; refined
    # records travel with their pair through the final ordering
    refined = dec.ordering[[rec is not None for rec in dec.refined]]
    assert sorted(refined) == sorted(select_pairs(probe, cap).ordering)


def test_variant_consistency_at_forced_rank():
    # full-rank data, no scaling, same fixed rank: the three pipelines
    # agree on the Ritz multiset
    _, F = _orbit(63, 24, 8, spectrum="unit-disc", conditioning=5.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    config = VariantConfig(policy=RankPolicy.fixed(8), scale=False)
    a = dmd(X, Y, config)
    b = ddmd_rrr(X, Y, config)
    c = ddmd_rrr_compressed(F, config)
    assert match_eigenvalues(a.lambdas, b.lambdas) <= 1e-8
    assert match_eigenvalues(b.lambdas, c.lambdas) <= 1e-8


def test_column_scaling_leaves_full_rank_spectrum_invariant():
    _, F = _orbit(65, 20, 7, spectrum="unit-disc", conditioning=3.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    d = np.geomspace(1.0, 1e-3, 7)
    config = VariantConfig(policy=RankPolicy.fixed(7), scale=False)
    plain = dmd(X, Y, config)
    scaled = dmd(X * d[None, :], Y * d[None, :], config)
    assert match_eigenvalues(plain.lambdas, scaled.lambdas) <= 1e-8


def test_compressed_matches_direct_rrr():
    _, F = _orbit(67, 80, 16, spectrum="unit-disc", conditioning=10.0)
    direct = ddmd_rrr(F.F[:, :-1], F.F[:, 1:])
    packed = ddmd_rrr_compressed(F)
    assert direct.rank == packed.rank
    assert match_eigenvalues(direct.lambdas, packed.lambdas) <= 1e-10
    assert np.allclose(np.sort(direct.residuals), np.sort(packed.residuals), atol=1e-10)
    # lift through the orthonormal factor keeps columns unit norm
    assert np.allclose(np.linalg.norm(packed.vectors, axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_compressed_trajectory_leaves_the_callers_array_unmodified(order, dtype):
    # the route factors its own column-major copy in place
    rng = _rng(68)
    F = rng.standard_normal((300, 9)) + (1j * rng.standard_normal((300, 9)) if dtype is complex else 0)
    F = np.asarray(F, order=order)
    before = F.copy()
    traj = SequentialTrajectory(F)
    assert traj.F is F
    for data in (F, traj):
        dec = ddmd_rrr_compressed(data)
        assert np.array_equal(F, before)
        assert dec.vectors.flags.f_contiguous


def test_compressed_accepts_general_pairs():
    rng = _rng(69)
    X = rng.standard_normal((40, 10))
    Y = rng.standard_normal((40, 10))
    pair = SnapshotPair(X, Y)
    direct = ddmd_rrr(X, Y)
    packed = ddmd_rrr_compressed(pair)
    assert match_eigenvalues(direct.lambdas, packed.lambdas) <= 1e-10


def test_compressed_square_trajectory_is_a_no_op():
    _, F = _orbit(71, 9, 8, spectrum="unit-disc")
    direct = ddmd_rrr(F.F[:, :-1], F.F[:, 1:])
    packed = ddmd_rrr_compressed(F)
    assert match_eigenvalues(direct.lambdas, packed.lambdas) <= 1e-10


def test_auto_is_the_compressed_route_on_every_shape():
    assert ddmd_rrr_auto is ddmd_rrr_compressed
    # inputs that a shape rule n > 4 x columns would send to the direct route
    Q, A, G = _lifted_system(115, 40, 30, float)
    for data in (_orbit(75, 20, 10)[1], _orbit(113, 12, 20)[1], SnapshotPair(Q @ G, Q @ (A @ G))):
        X, Y = (data.X, data.Y) if isinstance(data, SnapshotPair) else (data.F[:, :-1], data.F[:, 1:])
        direct = ddmd_rrr(X, Y)
        packed = ddmd_rrr_auto(data)
        assert packed.variant == "rrr-compressed"
        assert packed.rank == direct.rank
        assert match_eigenvalues(direct.lambdas, packed.lambdas) <= 1e-10


def test_exact_dmd_shares_spectrum_and_satisfies_pinv_operator():
    _, F = _orbit(77, 30, 10, spectrum="unit-disc", conditioning=8.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    classic = dmd(X, Y)
    ranged = exact_dmd(X, Y)
    assert match_eigenvalues(classic.lambdas, ranged.lambdas) <= 1e-10
    assert np.all(np.isnan(ranged.residuals))
    Ahat = Y @ np.linalg.pinv(X)
    present = ranged.vector_present
    Z = ranged.vectors[:, present]
    lam = ranged.lambdas[present]
    resid = np.linalg.norm(Ahat @ Z - Z * lam[None, :], axis=0)
    assert resid.max() <= 1e-10 * np.linalg.norm(Ahat, 2)
    assert np.allclose(np.linalg.norm(Z, axis=0), 1.0, atol=1e-12)


def test_exact_dmd_flags_zero_eigenvalue_vectors_absent():
    n, m = 6, 4
    alphas = np.array([0.8, 0.5, 0.0, 0.3])
    A = np.diag(np.concatenate([alphas, np.zeros(n - m)]))
    X = np.eye(n)[:, :m]
    dec = exact_dmd(X, A @ X, VariantConfig(scale=False))
    present = dec.vector_present
    assert present.sum() == 3
    absent = ~present
    assert np.abs(dec.lambdas[absent]).max() <= 1e-12


def test_exact_dmd_all_zero_spectrum_errors():
    # Y = 0 makes every Ritz value zero; no vectors exist in range(Y)
    X = np.eye(4)[:, :3]
    with pytest.raises(ConditioningError):
        exact_dmd(X, np.zeros((4, 3)), VariantConfig(policy=RankPolicy.fixed(3), scale=False))


def test_sequential_diagnostic_reproduces_true_residual():
    oracle, F = _orbit(79, 25, 8, spectrum="unit-disc", conditioning=5.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    dec = exact_dmd(X, Y)
    diags = exact_dmd_sequential_diagnostic(F, dec)
    comp_r = None
    present = dec.vector_present
    for i, rec in enumerate(diags):
        if not present[i]:
            assert rec.eta_m is None
            continue
        z = dec.vectors[:, i]
        true = np.linalg.norm(oracle.A @ z - dec.lambdas[i] * z)
        if comp_r is None:
            from dmdkit.snapshots import companion_decomposition

            comp_r = companion_decomposition(F).r
        factor = abs(rec.eta_m) * np.linalg.norm(oracle.A @ comp_r)
        assert abs(true - factor) <= 1e-10 * max(1.0, true)


def test_sequential_diagnostic_solves_once_for_all_vectors(monkeypatch):
    _, F = _orbit(79, 25, 8, spectrum="unit-disc", conditioning=5.0)
    dec = exact_dmd(F.F[:, :-1], F.F[:, 1:])
    assert np.count_nonzero(dec.vector_present) > 1
    calls = []
    lstsq = scipy.linalg.lstsq

    def spy(a, b, *args, **kwargs):
        calls.append(np.shape(b))
        return lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lstsq", spy)
    diags = exact_dmd_sequential_diagnostic(F, dec)
    assert calls == [(F.n, int(np.count_nonzero(dec.vector_present)))]
    assert [d.eta_m is None for d in diags] == (~dec.vector_present).tolist()


def test_sequential_diagnostic_rejects_general_pairs():
    rng = _rng(81)
    pair = SnapshotPair(rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
    _, F = _orbit(83, 5, 3)
    dec = exact_dmd(F.F[:, :-1], F.F[:, 1:])
    with pytest.raises(DataError):
        exact_dmd_sequential_diagnostic(pair, dec)


def test_fb_square_roots_are_exact_by_construction():
    _, F = _orbit(85, 30, 10, spectrum="unit-disc", conditioning=5.0)
    dec, spectrum = fb_dmd_mrf(F.F[:, :-1], F.F[:, 1:])
    assert np.abs(dec.lambdas**2 - spectrum.omegas).max() <= 1e-12 * np.abs(spectrum.omegas).max()
    assert spectrum.sign_evidence.shape == spectrum.omegas.shape == dec.lambdas.shape


def test_fb_negative_omega_branch_keeps_conjugate_closure():
    # Each imaginary pair of a real normal operator leaves the product
    # spectrum with a doubled negative real omega, where the sign evidence
    # is blind: real eigenvector, imaginary roots equidistant.
    spec = np.array([0.95j, -0.95j, 0.6 + 0.2j, 0.6 - 0.2j, -0.5, 0.4, 0.3j, -0.3j])
    oracle = make_oracle(8, spectrum=spec, conditioning=1.0, seed=40)
    f1 = _rng(41).standard_normal(8)
    F = trajectory(oracle, f1 / np.linalg.norm(f1), 8)
    dec, fb = fb_dmd_mrf(F.F[:, :-1], F.F[:, 1:], VariantConfig(scale=False))
    # The snapshots span the whole space, so fb recovers the spectrum.
    assert match_eigenvalues(dec.lambdas, oracle.eigenvalues) <= 1e-12
    neg = np.flatnonzero((fb.omegas.real < 0) & (fb.omegas.imag == 0.0))
    assert neg.size == 4
    # negative real omega lifts to +-i sqrt(|omega|)
    assert np.all(dec.lambdas[neg].real == 0.0)
    assert np.allclose(np.abs(dec.lambdas[neg]), np.sqrt(np.abs(fb.omegas[neg])), atol=1e-14)
    # each blind pair is closed by the tie-break: one root from each half axis
    for pair in neg[np.argsort(fb.omegas[neg].real)].reshape(2, 2):
        assert np.prod(np.sign(dec.lambdas[pair].imag)) == -1.0
    # complex omegas close exactly through the evidence rule
    rest = np.setdiff1d(np.arange(fb.omegas.size), neg)
    assert match_eigenvalues(dec.lambdas[rest], dec.lambdas[rest].conj()) <= 1e-12


def test_fb_does_not_depend_on_the_sign_of_a_backward_pod_vector(monkeypatch):
    # Negating the first backward POD vector together with its image gives
    # another valid SVD of the backward data; the spectrum must not notice.
    _, F = _orbit(3, 200, 30, spectrum="unit-disc", conditioning=10.0)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    ref_dec, ref = fb_dmd_mrf(X, Y)
    pod = variants._pod_in_place
    calls = []

    def flip_backward(G, policy, **kwargs):
        basis, buf = pod(G, policy, **kwargs)
        calls.append(policy)
        if len(calls) == 2:
            # U is a view of the buffer, where B_k is formed beside it
            basis.U[:, 0] *= -1.0
            V = basis.V.copy()
            V[:, 0] *= -1.0
            basis = dataclasses.replace(basis, V=V)
        return basis, buf

    monkeypatch.setattr(variants, "_pod_in_place", flip_backward)
    flipped_dec, flipped = fb_dmd_mrf(X, Y)
    assert len(calls) == 2 and flipped.omegas.size == 30
    assert match_eigenvalues(flipped.omegas, ref.omegas) <= 1e-14
    assert match_eigenvalues(flipped_dec.lambdas, ref_dec.lambdas) <= 1e-14


def test_fb_blind_evidence_tie_break_is_antisymmetric():
    # Exactly doubled omega with exactly zero evidence: both square roots
    # are equally good, and the tie-break must hand out opposite signs.
    X = np.diag([1.0, 0.8])
    Y = np.array([[0.0, -0.8], [1.0, 0.0]])
    dec, fb = fb_dmd_mrf(X, Y, VariantConfig(scale=False))
    assert np.all(fb.sign_evidence == 0.0)
    assert fb.omegas[0] == fb.omegas[1]
    assert dec.lambdas[0] == -dec.lambdas[1]
    assert np.allclose(dec.lambdas**2, fb.omegas, atol=1e-14)
    assert match_eigenvalues(dec.lambdas, dec.lambdas.conj()) == 0.0


def test_fb_singular_backward_guard():
    X = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    Y = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConditioningError) as err:
        fb_dmd_mrf(X, Y, VariantConfig(policy=RankPolicy.fixed(2), scale=False))
    assert "S_back" in str(err.value)
    assert err.value.sigma_min is not None


def test_fb_backward_rank_guard():
    # Y = A X with rank(A) = 6: the forward POD keeps all 12 columns of a
    # Gaussian X, and the backward POD of Y has only 6 to give.
    rng = _rng(31)
    X = rng.standard_normal((60, 12))
    A = rng.standard_normal((60, 6)) @ rng.standard_normal((6, 60)) / 60
    with pytest.raises(ConditioningError, match="backward POD cannot support the forward rank 12") as err:
        fb_dmd_mrf(X, A @ X)
    assert err.value.sigma_min < 1e-14 * err.value.sigma_max


_GRADINGS = {
    "one-x-column-1e20": (np.where(np.arange(10) == 3, 1e20, 1.0), 1.0),
    "one-x-column-1e300": (np.where(np.arange(10) == 3, 1e300, 1.0), 1.0),
    "five-x-columns-1e-300": (np.where(np.arange(10) < 5, 1e-300, 1.0), 1.0),
    "one-y-column-1e20": (1.0, np.where(np.arange(10) == 3, 1e20, 1.0)),
}


@pytest.mark.parametrize("grading", list(_GRADINGS))
def test_fb_needs_the_inverse_of_the_data_operator(grading):
    # fb's backward problem inverts the data operator Y X^+.  Grading the
    # columns of an independent Gaussian pair apart makes that operator
    # numerically singular: fb refuses, where dmd and ddmd_rrr certify k = 10.
    # The same grading of a pair Y = A X, whose operator A is well conditioned
    # whatever X's columns are, leaves fb certifying k = 10.
    sx, sy = _GRADINGS[grading]
    for seed in range(4):
        rng = _rng(seed)
        X, Y = rng.standard_normal((50, 10)) * sx, rng.standard_normal((50, 10)) * sy
        with pytest.raises(ConditioningError, match="S_back is singular"):
            fb_dmd_mrf(X, Y)
        assert dmd(X, Y).rank == ddmd_rrr(X, Y).rank == 10
        A = make_oracle(50, conditioning=10, seed=seed).A
        X = rng.standard_normal((50, 10)) * sx * sy
        dec, _ = fb_dmd_mrf(X, A @ X)
        assert dec.rank == 10 and np.all(np.isfinite(dec.residuals))


def test_select_pairs_cap_semantics():
    _, F = _orbit(87, 30, 10, spectrum="unit-disc", conditioning=10.0)
    dec = ddmd_rrr(F.F[:, :-1], F.F[:, 1:])
    assert select_pairs(dec, np.inf).k == dec.k
    assert select_pairs(dec, 0.0).k == int(np.count_nonzero(dec.residuals <= 0.0))
    cap = float(np.median(dec.residuals))
    sel = select_pairs(dec, cap)
    assert sel.k == int(np.count_nonzero(dec.residuals <= cap))
    assert np.all(np.diff(sel.residuals) >= 0)
    with pytest.raises(DataError):
        select_pairs(dec, -1.0)
    for bad in (float("nan"), True):
        with pytest.raises(DataError):
            select_pairs(dec, bad)


def test_select_pairs_nan_residuals_survive_only_infinite_cap():
    _, F = _orbit(89, 20, 6)
    dec = exact_dmd(F.F[:, :-1], F.F[:, 1:])
    assert select_pairs(dec, np.inf).k == dec.k
    assert select_pairs(dec, 1e6).k == 0


def test_config_validation():
    with pytest.raises(DataError):
        VariantConfig(refine="sometimes")
    for bad in ({"refine": float("nan")}, {"refine": -1.0}, {"refine": [0.1]},
                {"refine": True}, {"refine": False}, {"refine": np.True_},
                {"refine": lambda lam, r: True}, {"scale": "False"}, {"scale": 1}, {"scale": None}):
        with pytest.raises(DataError):
            VariantConfig(**bad)
    for bad in (np.ones((3, 3)), np.ones((2, 2, 1)), np.float64(2.0)):
        with pytest.raises(ShapeError):
            InnerProduct.diagonal(bad)
    _, F = _orbit(85, 20, 6)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    dec = ddmd_rrr(X, Y)
    for cap in ("1e-3", b"1e-3"):
        with pytest.raises(DataError):
            select_pairs(dec, cap)
    # a policy that is not a RankPolicy is rejected where the rank is taken
    for pipeline in (dmd, ddmd_rrr, exact_dmd, fb_dmd_mrf):
        with pytest.raises(DataError):
            pipeline(X, Y, VariantConfig(policy="spectral"))
    with pytest.raises(DataError):
        ddmd_rrr_compressed(F.F, VariantConfig(policy="spectral"))
    with pytest.raises(DataError):
        truncated_svd(X, 5)


def test_config_accepts_good_refinement_arguments():
    assert VariantConfig(refine=0.0).refine == 0.0
    assert VariantConfig(refine=np.inf).refine == np.inf


def test_refined_vectors_of_conjugate_ritz_values_are_conjugates():
    _, F = _orbit(95, 30, 12, spectrum="unit-disc", conditioning=10.0)
    dec = ddmd_rrr(F.F[:, :-1], F.F[:, 1:])
    upper = np.flatnonzero(dec.lambdas.imag > 0)
    assert upper.size >= 2
    for i in upper:
        (j,) = np.flatnonzero(dec.lambdas == np.conj(dec.lambdas[i]))
        assert np.array_equal(dec.refined[j].w, dec.refined[i].w.conj())
        assert np.array_equal(dec.vectors[:, j], dec.vectors[:, i].conj())
        assert dec.residuals[j] == dec.residuals[i]


def test_refinement_threads_sharing_the_memo_match_serial():
    # more threads than cores and frequent thread switches, so concurrent
    # solves of one conjugate pair race on the shared stack's memo
    _, F = _orbit(99, 60, 30, spectrum="unit-disc", conditioning=10.0)
    basis = truncated_svd(F.F[:, :-1], RankPolicy.fixed(30))
    B = action_on_basis(F.F[:, 1:], basis.V, basis.sigma)
    shared = qr_stack(basis.U, B)
    lambdas = np.linalg.eigvals(rayleigh_from_qr(shared))
    shifts = np.concatenate([lambdas, lambdas[::-1]])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda lam: refine_ritz(shared, lam), shifts, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    fresh = qr_stack(basis.U, B)
    for lam, (w, sigma) in zip(shifts, threaded):
        w_ref, sigma_ref = refine_ritz(fresh, lam)
        assert np.array_equal(w, w_ref)
        assert sigma == sigma_ref


def test_huge_finite_data_scales_like_unit_data():
    # column norms of 1e300-sized data overflow a plain 2-norm
    rng = _rng(97)
    X = rng.standard_normal((40, 8))
    Y = rng.standard_normal((40, 8))
    ref = ddmd_rrr(X, Y, VariantConfig(scale=True))
    big = ddmd_rrr(1e300 * X, 1e300 * Y, VariantConfig(scale=True))
    assert np.abs(big.lambdas - ref.lambdas).max() <= 1e-12 * np.abs(ref.lambdas).max()
    assert np.all(np.abs(big.residuals - ref.residuals) <= 1e-12 * ref.residuals)


# Every public pipeline, called on the pair (X, Y) or the trajectory F, with
# the state weight M, the snapshot-index weight N and a VariantConfig.
_PIPELINES = {
    "dmd": lambda X, Y, F, M, N, c=VariantConfig(): dmd(X, Y, c),
    "exact_dmd": lambda X, Y, F, M, N, c=VariantConfig(): exact_dmd(X, Y, c),
    "fb_dmd_mrf": lambda X, Y, F, M, N, c=VariantConfig(): fb_dmd_mrf(X, Y, c)[0],
    "ddmd_rrr": lambda X, Y, F, M, N, c=VariantConfig(): ddmd_rrr(X, Y, c),
    "ddmd_rrr_compressed": lambda X, Y, F, M, N, c=VariantConfig(): ddmd_rrr_compressed(SnapshotPair(X, Y), c),
    "ddmd_rrr_compressed_trajectory": lambda X, Y, F, M, N, c=VariantConfig(): ddmd_rrr_compressed(F, c),
    "ddmd_rrr_auto": lambda X, Y, F, M, N, c=VariantConfig(): ddmd_rrr_auto(SnapshotPair(X, Y), c),
    "ddmd_rrr_auto_trajectory": lambda X, Y, F, M, N, c=VariantConfig(): ddmd_rrr_auto(F, c),
    "weighted_dmd": lambda X, Y, F, M, N, c=VariantConfig(): weighted_dmd(X, Y, M, c),
    "two_sided_weighted_dmd": lambda X, Y, F, M, N, c=VariantConfig(): two_sided_weighted_dmd(X, Y, M, N, c),
}


def _scaled(name, refine="all"):
    """The pipeline ``name`` on an unweighted pair, scaled or not."""
    return lambda X, Y, scale: _PIPELINES[name](X, Y, None, None, None, VariantConfig(scale=scale, refine=refine))


_SCALED_PIPELINES = [
    pytest.param(_scaled("ddmd_rrr", "none"), id="rrr-none"),
    pytest.param(_scaled("ddmd_rrr"), id="rrr-all"),
    pytest.param(_scaled("dmd"), id="dmd"),
    pytest.param(_scaled("fb_dmd_mrf"), id="fb"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [True, False])
@pytest.mark.parametrize("pipeline", _SCALED_PIPELINES)
def test_residuals_of_huge_data_do_not_overflow(pipeline, scale):
    # B_k entries near 1e160 square past the double range in a plain norm,
    # and so do fb's omega = lambda^2
    rng = _rng(99)
    X = rng.standard_normal((40, 8))
    Y = rng.standard_normal((40, 8))
    ref = pipeline(X, Y, scale)
    big = pipeline(X, 1e160 * Y, scale)
    assert np.all(np.isfinite(big.residuals))
    np.testing.assert_allclose(big.residuals, 1e160 * ref.residuals, rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.sort_complex(big.lambdas), 1e160 * np.sort_complex(ref.lambdas), rtol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [True, False])
@pytest.mark.parametrize("pipeline", _SCALED_PIPELINES)
def test_residuals_of_tiny_data_do_not_underflow(pipeline, scale):
    # B_k entries near 1e-165 square below the double range in a plain norm,
    # which read as exact zero certificates; fb's omega = lambda^2 underflows too
    rng = _rng(99)
    X = rng.standard_normal((40, 8))
    Y = rng.standard_normal((40, 8))
    ref = pipeline(X, Y, scale)
    small = pipeline(X, 1e-165 * Y, scale)
    assert np.all(small.residuals > 0.0)
    np.testing.assert_allclose(small.residuals, 1e-165 * ref.residuals, rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.sort_complex(small.lambdas), 1e-165 * np.sort_complex(ref.lambdas), rtol=1e-12)


@pytest.mark.parametrize("s", [2.0**-400, 2.0**400])
def test_fb_spectrum_of_scaled_data_is_scaled(s):
    # far from unit scale fb rescales its quotients; omega = lambda^2 of the
    # scaled pair, still in range here, must come back as s^2 times the unit pair's
    rng = _rng(99)
    X = rng.standard_normal((40, 8))
    Y = rng.standard_normal((40, 8))
    ref_dec, ref = fb_dmd_mrf(X, Y)
    dec, fb = fb_dmd_mrf(X, s * Y)
    for got, want in ((dec.lambdas, s * ref_dec.lambdas), (fb.sign_evidence, s * ref.sign_evidence),
                      (fb.omegas, s * s * ref.omegas)):
        np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(want), rtol=1e-12)


# Uniformly subnormal data, and a block of columns moved into the subnormal
# range in X and Y together: either leaves the operator, and so every
# certificate, as it is.  A trajectory has no such block, since a state is a
# column of both X and Y.
_SUBNORMAL_CASES = [pytest.param(name, case, dtype, id="%s-%s-%s" % (name, case, dtype.__name__))
                    for name in _PIPELINES for case in ("1e-310", "block") for dtype in (float, complex)
                    if case == "1e-310" or not name.endswith("_trajectory")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, case, dtype", _SUBNORMAL_CASES)
def test_subnormal_data_is_certified_like_unit_data(name, case, dtype):
    rng = _rng(5)
    F = rng.standard_normal((50, 11))
    if dtype is complex:
        F = F + 1j * rng.standard_normal((50, 11))
    M, N = _weights("diagonal", 50, 10)
    ref = _PIPELINES[name](F[:, :-1], F[:, 1:], F, M, N)
    if case == "1e-310":
        dec = _PIPELINES[name](1e-310 * F[:, :-1], 1e-310 * F[:, 1:], 1e-310 * F, M, N)
    else:
        s = np.where(np.arange(10) < 5, 2.0 ** -1030, 1.0)
        dec = _PIPELINES[name](s * F[:, :-1], s * F[:, 1:], None, M, N)
    assert dec.rank == ref.rank == 10
    assert match_eigenvalues(dec.lambdas, ref.lambdas) <= 1e-12 * np.abs(ref.lambdas).max()
    np.testing.assert_allclose(np.sort(dec.residuals), np.sort(ref.residuals), rtol=0,
                               atol=1e-12 * np.max(ref.residuals))


def _complex_trajectory(seed, n, m):
    Q, A, G = _lifted_system(seed, n, m)
    cols = [G[:, 0]]
    for _ in range(m):
        cols.append(A @ cols[-1])
    return Q @ np.column_stack(cols)


def _snapshots(dtype, order):
    """A 200 x 31 trajectory, real or complex, in the given memory order."""
    G = _orbit(103, 200, 30)[1].F if dtype is float else _complex_trajectory(107, 200, 30)
    return np.asarray(G, order=order)


def _weights(kind, n, m):
    if kind == "identity":
        return InnerProduct.identity(n), InnerProduct.identity(m)
    if kind == "diagonal":
        return InnerProduct.diagonal(np.linspace(0.5, 2.0, n)), InnerProduct.diagonal(np.linspace(1.0, 0.5, m))
    G = np.diag(np.linspace(1.0, 3.0, n)) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
    return InnerProduct.from_matrix(G), InnerProduct.diagonal(np.linspace(1.0, 0.5, m))


@pytest.mark.parametrize("pipeline", list(_PIPELINES.values()), ids=list(_PIPELINES))
@pytest.mark.parametrize("order", ["C", "F"])
def test_vectors_are_column_major(pipeline, order):
    G = _snapshots(float, order)
    M, N = _weights("diagonal", *np.shape(G[:, 1:]))
    assert pipeline(G[:, :-1], G[:, 1:], G, M, N).vectors.flags.f_contiguous


@pytest.mark.parametrize("pipeline", list(_PIPELINES.values()), ids=list(_PIPELINES))
@pytest.mark.parametrize("order", ["C", "F"])
def test_vectors_of_complex_data_are_column_major(pipeline, order):
    G = _snapshots(complex, order)
    M, N = _weights("diagonal", *np.shape(G[:, 1:]))
    dec = pipeline(G[:, :-1], G[:, 1:], G, M, N)
    assert dec.vectors.dtype == complex and dec.vectors.flags.f_contiguous


def _layouts(G):
    """Copies of G in row-major and column-major order, and one with negative strides on both axes."""
    return [np.ascontiguousarray(G), np.asfortranarray(G), np.ascontiguousarray(G[::-1, ::-1])[::-1, ::-1]]


@pytest.mark.parametrize("name, weights", [(name, "diagonal") for name in _PIPELINES] + [
    (name, "gram") for name in ("weighted_dmd", "two_sided_weighted_dmd")])
@pytest.mark.parametrize("dtype", [float, complex])
def test_pipelines_do_not_depend_on_memory_layout(name, weights, dtype):
    # The column scaling works on column-major copies, so the certificates
    # depend on the values of the snapshots only.
    G = _snapshots(dtype, "F")
    M, N = _weights(weights, *np.shape(G[:, 1:]))
    decs = [_PIPELINES[name](F[:, :-1], F[:, 1:], F, M, N) for F in _layouts(G)]
    for dec in decs[1:]:
        for field in ("lambdas", "vectors", "residuals"):
            assert getattr(dec, field).tobytes() == getattr(decs[0], field).tobytes(), field


@pytest.mark.parametrize("name, weights", [(name, "identity") for name in _PIPELINES] + [
    (name, kind) for name in ("weighted_dmd", "two_sided_weighted_dmd") for kind in ("diagonal", "gram")])
@pytest.mark.parametrize("dtype", [float, complex])
def test_pipelines_do_not_write_to_their_inputs(name, weights, dtype):
    # The pipelines write into working arrays, buffers and vectors they
    # allocated themselves, never into their inputs.
    G = _snapshots(dtype, "F")
    X, Y = np.array(G[:, :-1], order="F"), np.array(G[:, 1:], order="F")
    M, N = _weights(weights, *X.shape)
    inputs = (X, Y, G, M.factor, N.factor)
    before = [a.copy() for a in inputs]
    _PIPELINES[name](X, Y, G, M, N)
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()


def test_compressed_pair_applies_its_reflectors_instead_of_forming_q(monkeypatch):
    _, F = _orbit(109, 120, 12, spectrum="unit-disc", conditioning=10.0)
    shapes = []
    qr = scipy.linalg.qr

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", spy)
    ddmd_rrr_compressed(SnapshotPair(F.F[:, :-1], F.F[:, 1:]))
    assert shapes == []
    # the trajectory branch still forms Q
    ddmd_rrr_compressed(F)
    assert shapes == [F.F.shape]


@pytest.mark.parametrize("dtype", [float, complex])
def test_compressed_pair_matches_direct_rrr_and_certifies_its_vectors(dtype):
    Q, A, G = _lifted_system(111, 300, 20, dtype)
    X, Y = Q @ G, Q @ (A @ G)
    direct = ddmd_rrr(X, Y)
    packed = ddmd_rrr_compressed(SnapshotPair(X, Y))
    assert packed.rank == direct.rank == 20
    assert match_eigenvalues(direct.lambdas, packed.lambdas) <= 1e-10
    np.testing.assert_allclose(np.sort(packed.residuals), np.sort(direct.residuals), rtol=0, atol=1e-10)
    # Each lifted vector's true residual is its certificate.
    Z = packed.vectors
    true = np.linalg.norm(Q @ (A @ (Q.conj().T @ Z)) - Z * packed.lambdas[None, :], axis=0)
    np.testing.assert_allclose(true, packed.residuals, rtol=0, atol=1e-10)
    np.testing.assert_allclose(np.linalg.norm(Z, axis=0), 1.0, rtol=0, atol=1e-12)


def test_compressed_pair_vectors_below_full_rank_own_only_their_bytes():
    # At a fixed rank k < m the buffer shrinks in place to the n x k
    # vectors, so what the call leaves allocated is the vectors.
    rng = _rng(118)
    pair = SnapshotPair(rng.standard_normal((20000, 60)), rng.standard_normal((20000, 60)))
    (dec, held), peak = traced_peak(lambda: (ddmd_rrr_compressed(pair, VariantConfig(policy=RankPolicy.fixed(20))),
                                             tracemalloc.get_traced_memory()[0]))
    assert dec.vectors.shape == (20000, 20) and dec.vectors.flags.f_contiguous
    assert peak <= 1.1 * (pair.X.nbytes + pair.Y.nbytes)
    assert held <= 1.02 * dec.vectors.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_exact_dmd_ritz_values_are_dmds_bit_for_bit(order):
    _, F = _orbit(119, 200, 30, spectrum="unit-disc", conditioning=10.0)
    G = np.asarray(F.F, order=order)
    X, Y = G[:, :-1], G[:, 1:]
    assert np.array_equal(np.sort_complex(exact_dmd(X, Y).lambdas), np.sort_complex(dmd(X, Y).lambdas))


@pytest.mark.parametrize("order", ["C", "F"])
def test_exact_dmd_vectors_are_the_normalized_images(order):
    _, F = _orbit(121, 200, 30, spectrum="unit-disc", conditioning=10.0)
    G = np.asarray(F.F, order=order)
    X, Y = G[:, :-1], G[:, 1:]
    dec = exact_dmd(X, Y)
    scaled, _ = scale_columns(SnapshotPair(X, Y))
    basis = truncated_svd(scaled.X, RankPolicy.spectral(default_epsilon(*X.shape)))
    B = action_on_basis(scaled.Y, basis.V, basis.sigma)
    S = ((basis.U.conj().T @ scaled.Y) @ basis.V) / basis.sigma[None, :]
    lambdas, W, _ = ritz_pairs(S, basis.U)
    assert np.array_equal(dec.lambdas, lambdas[dec.ordering])
    assert dec.vector_present.all()
    for j, i in enumerate(dec.ordering):
        z = B @ W[:, i] / lambdas[i]
        np.testing.assert_allclose(dec.vectors[:, j], z / np.linalg.norm(z), rtol=0, atol=1e-13)


# Each pipeline's bound on its tracemalloc peak above the start of a call,
# as a multiple of X+Y.  The direct pipelines hold one n x m working array
# beside one n x 2k buffer, which their QR overwrites, and no copy of U
# (a complex U is conjugated in place for U* Y); the lift then holds U, the
# vectors and one row block, written straight into report order.  A real
# spectrum gives a real W and a real lift, which _package casts to complex
# after U is dropped.  The compressed pair route (fb, the
# pair route and two-sided) holds only the QR buffer of [X Y] besides
# k-sized arrays and one row block, whatever m is modulo the ?geqrt block
# of 32.  "-none" is the pipeline without refinement.
_PEAK_BOUNDS = {
    "dmd": 1.65, "exact_dmd": 1.65, "ddmd_rrr": 1.65, "ddmd_rrr-none": 1.65,
    "weighted_dmd": 1.65, "weighted_dmd-none": 1.65,
    "fb_dmd_mrf": 1.1, "ddmd_rrr_compressed": 1.1, "two_sided_weighted_dmd": 1.1,
    "ddmd_rrr_compressed-none": 1.1, "two_sided_weighted_dmd-none": 1.1,
}
_COMPRESSED_PAIR = ("fb_dmd_mrf", "ddmd_rrr_compressed", "two_sided_weighted_dmd")
_SEVEN = _COMPRESSED_PAIR + ("dmd", "exact_dmd", "ddmd_rrr", "weighted_dmd")
# The input classes, (n, m, dtype, spectrum, order, k), and the pipelines
# each holds to its bound; k is a fixed rank, or None for the default
# threshold.  Where n < m the triangular factor is as large as the QR buffer
# and the engine runs the direct route on it, so the compressed pair route
# reads 3-5x until the engine works on k-sized arrays (ROADMAP item 17):
# those rows are strict expected failures.  They run unrefined, since
# refining k = 100 pairs costs seconds and the peak is R's copy.
_PEAK_ROWS = [
    *(((20000, m, dtype, "gaussian", order, None), _COMPRESSED_PAIR)
      for m in (32, 33, 64, 65) for dtype in (float, complex) for order in "CF"),
    *(((20000, 60, dtype, "gaussian", order, None), _SEVEN) for dtype in (float, complex) for order in "CF"),
    ((20000, 60, float, "gaussian", "C", 20), _SEVEN),
    ((20000, 60, float, "real", "C", None), ("dmd", "exact_dmd", "ddmd_rrr-none", "ddmd_rrr", "weighted_dmd-none")),
    *(((100, 400, dtype, "gaussian", order, None),
       ("fb_dmd_mrf", "ddmd_rrr_compressed-none", "two_sided_weighted_dmd-none"))
      for dtype in (float, complex) for order in "CF"),
]


@functools.lru_cache(maxsize=1)
def _peak_pair(n, m, dtype, spectrum, order):
    """The pair of one input class, drawn once and held while its cases run."""
    if spectrum == "real":
        # Y = Q A G with A symmetric, so every Ritz value is real
        rng = _rng(171)
        B = rng.standard_normal((m, m))
        A, G = (B + B.T) / (2 * np.sqrt(m)), rng.standard_normal((m, m))
        Q = np.linalg.qr(rng.standard_normal((n, m)))[0]
        assert np.isrealobj(np.linalg.eigvals(A))
        return Q @ G, Q @ (A @ G)
    rng = _rng(173 + m)

    def draw():
        g = rng.standard_normal((n, m))
        return np.asarray(g + 1j * rng.standard_normal((n, m)) if dtype is complex else g, order=order)

    return draw(), draw()


def _peak_cases():
    for row, names in _PEAK_ROWS:
        n, m, dtype, spectrum, order, k = row
        marks = pytest.mark.xfail(strict=True, reason="R and the direct engine where n < m") if n < m else ()
        for name in names:
            yield pytest.param(name, row, marks=marks, id="%s-%dx%d-%s-%s-%s%s" % (
                name, n, m, dtype.__name__, spectrum, order, "" if k is None else "-k%d" % k))


@pytest.mark.parametrize("name, row", _peak_cases())
def test_peak_memory_holds_each_pipelines_bound_on_every_input_class(name, row):
    n, m, _, spectrum, _, k = row
    X, Y = _peak_pair(*row[:5])
    M, N = _weights("diagonal", n, m)
    pipeline, _, refine = name.partition("-")
    config = VariantConfig(policy=None if k is None else RankPolicy.fixed(k), refine=refine or "all")
    dec, peak = traced_peak(lambda: _PIPELINES[pipeline](X, Y, None, M, N, config))
    assert k is None or dec.rank == k
    assert peak <= _PEAK_BOUNDS[name] * (X.nbytes + Y.nbytes)
    if spectrum == "real":
        # the real-W branch is the one measured
        assert not np.any(dec.lambdas.imag)


@pytest.mark.parametrize("dtype", [float, complex])
def test_fb_factors_one_n_row_matrix(monkeypatch, dtype):
    # One ?geqrt of [X Y]; both PODs and the residual stack factor
    # matrices of at most 2m rows, and no other QR runs.
    Q, A, G = _lifted_system(129, 300, 12, dtype)
    X, Y = Q @ G, Q @ (A @ G)
    shapes = []
    get_funcs = scipy.linalg.get_lapack_funcs

    def spy_funcs(names, *args, **kwargs):
        funcs = get_funcs(names, *args, **kwargs)
        if names != ("geqrt",):
            return funcs

        def geqrt(nb, a, *rest, **kw):
            shapes.append(a.shape)
            return funcs[0](nb, a, *rest, **kw)

        return [geqrt]

    def no_qr(*args, **kwargs):
        raise AssertionError("scipy.linalg.qr was called")

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", spy_funcs)
    monkeypatch.setattr(scipy.linalg, "qr", no_qr)
    fb_dmd_mrf(X, Y)
    assert shapes[0] == (300, 24)
    assert len(shapes) > 1 and all(rows <= 24 for rows, _ in shapes[1:])


@pytest.mark.parametrize("scale", [True, False])
@pytest.mark.parametrize("pipeline", [name for name in _PIPELINES if not name.endswith("_trajectory")])
def test_overflowing_basis_image_is_a_conditioning_error(pipeline, scale):
    # finite data whose B_k = Y V Sigma^-1 exceeds the double range
    rng = _rng(98)
    X = 1e-200 * rng.standard_normal((40, 8))
    Y = 1e150 * rng.standard_normal((40, 8))
    M, N = _weights("diagonal", *X.shape)
    with pytest.raises(ConditioningError, match="overflow"):
        _PIPELINES[pipeline](X, Y, None, M, N, VariantConfig(scale=scale))


# Five of X's columns at 1e-308 beside a normal Y scale B_k near the double
# range, and the QR of (U_k B_k) overflows on the compressed pair route.  The
# stack's triangular factor is checked before any arithmetic on it, so every
# entry either certifies or raises ConditioningError, and no RuntimeWarning escapes.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_PIPELINES))
def test_an_overflowing_residual_stack_is_a_conditioning_error(name):
    rng = np.random.default_rng(1)
    X, Y = rng.standard_normal((50, 10)), rng.standard_normal((50, 10))
    X[:, :5] *= 1e-308
    M, N = _weights("identity", 50, 10)
    try:
        dec = _PIPELINES[name](X, Y, np.column_stack([X, Y[:, -1]]), M, N)
    except ConditioningError as exc:
        assert "overflows double precision" in str(exc)
        return
    assert dec.rank == 10 and np.all(np.isfinite(dec.lambdas))
    assert np.all(np.isfinite(dec.residuals)) or dec.variant == "exact"


def test_float32_input_runs_in_double_precision():
    _, F = _orbit(101, 60, 20, spectrum="unit-disc", conditioning=10.0)
    F32 = F.F.astype(np.float32)
    single = ddmd_rrr(F32[:, :-1], F32[:, 1:])
    double = ddmd_rrr(F32[:, :-1].astype(np.float64), F32[:, 1:].astype(np.float64))
    for field in ("lambdas", "vectors", "residuals", "ordering"):
        a, b = getattr(single, field), getattr(double, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _rejected_everywhere(a):
    """Snapshots and weights of a's dtype are a DataError in every entry point."""
    X, Y = a[:, :-1], a[:, 1:]
    M, N = _weights("diagonal", *X.shape)
    with pytest.raises(DataError, match="dtype"):
        SnapshotPair(X, Y)
    for pipeline in _PIPELINES.values():
        with pytest.raises(DataError, match="dtype"):
            pipeline(X, Y, a, M, N)
    for weight in (InnerProduct.diagonal, InnerProduct, lambda w: InnerProduct.from_matrix(np.diag(w))):
        with pytest.raises(DataError, match="dtype"):
            weight(a[:, 0])
    # so is a matrix handed to the POD or to a weight's methods
    for call in (truncated_svd, lambda X: weighted_pod(X, M), M.transform, M.lift, M.norm, N.transform_right):
        with pytest.raises(DataError, match="dtype"):
            call(X)


_NUMBERS = np.arange(1.0, 13.0).reshape(4, 3)


def test_object_snapshots_are_a_data_error():
    _rejected_everywhere(_NUMBERS.astype(object))


def test_str_snapshots_are_a_data_error():
    _rejected_everywhere(_NUMBERS.astype(str))


def test_bytes_snapshots_are_a_data_error():
    _rejected_everywhere(_NUMBERS.astype(bytes))


def test_datetime64_snapshots_are_a_data_error():
    _rejected_everywhere(_NUMBERS.astype("datetime64[s]"))


def test_timedelta64_snapshots_are_a_data_error():
    _rejected_everywhere(_NUMBERS.astype("timedelta64[s]"))


def test_structured_snapshots_are_a_data_error():
    a = np.zeros(_NUMBERS.shape, dtype=[("re", np.float64), ("im", np.float64)])
    a["re"] = _NUMBERS
    _rejected_everywhere(a)


@pytest.mark.skipif(not hasattr(getattr(np, "dtypes", None), "StringDType"), reason="numpy has no StringDType")
def test_variable_width_string_snapshots_are_a_data_error():
    _rejected_everywhere(_NUMBERS.astype(np.dtypes.StringDType()))


@pytest.mark.parametrize("name", list(_PIPELINES))
@pytest.mark.parametrize("dtype", [float, complex])
def test_long_double_input_runs_in_double_precision(name, dtype):
    # float128 / complex256 where the platform has them: cast on entry, so
    # the result is the double-precision one bit for bit.
    G = _snapshots(dtype, "F")
    wide = G.astype(np.clongdouble if dtype is complex else np.longdouble)
    w, v = np.linspace(0.5, 2.0, G.shape[0]), np.linspace(1.0, 0.5, G.shape[1] - 1)
    M, N = InnerProduct.diagonal(w), InnerProduct.diagonal(v)
    Mw, Nw = InnerProduct.diagonal(w.astype(np.longdouble)), InnerProduct.diagonal(v.astype(np.longdouble))
    got = _PIPELINES[name](wide[:, :-1], wide[:, 1:], wide, Mw, Nw)
    want = _PIPELINES[name](G[:, :-1], G[:, 1:], G, M, N)
    for field in ("lambdas", "vectors", "residuals", "ordering"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


@pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max, reason="long double is double here")
@pytest.mark.parametrize("dtype", [np.longdouble, np.clongdouble])
def test_long_double_beyond_the_double_range_is_a_data_error(dtype):
    X = np.ones((4, 3), dtype=dtype)
    X[1, 2] = np.longdouble(10) ** 400
    with pytest.raises(DataError, match="double precision range"):
        SnapshotPair(X, X)
    with pytest.raises(DataError, match="double precision range"):
        ddmd_rrr(X, X)
    with pytest.raises(DataError, match="double precision range"):
        InnerProduct.diagonal(X.real[:, 2])


@pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
@pytest.mark.parametrize("pipeline", list(_PIPELINES))
def test_empty_snapshots_are_a_shape_error(pipeline, shape):
    # the weights fit a 4 x 3 pair, so the error is the snapshots' own
    X = np.zeros(shape)
    M, N = InnerProduct.identity(4), InnerProduct.identity(3)
    with pytest.raises(ShapeError, match="must be non-empty"):
        _PIPELINES[pipeline](X, X, X, M, N)


def test_trajectory_input_type_flexibility():
    _, F = _orbit(91, 30, 8)
    from_array = ddmd_rrr_compressed(F.F)
    from_traj = ddmd_rrr_compressed(SequentialTrajectory(F.F))
    assert np.array_equal(from_array.lambdas, from_traj.lambdas)


def test_refined_lift_of_more_than_96_vectors_holds_no_stack():
    # k = 120: the QR stack, its cross products, the refinement memo and
    # the quotient are dropped before the lift, which then holds U, the
    # vectors and 1/32 of them; each refined vector is held once, in its
    # column of W.
    rng = _rng(73)
    X, Y = rng.standard_normal((10000, 120)), rng.standard_normal((10000, 120))
    assert traced_peak(lambda: ddmd_rrr(X, Y))[1] <= 1.55 * (X.nbytes + Y.nbytes)


_ONES = np.ones((3, 3))

# Two calls of each maker build distinct records with equal contents.
_ARRAY_RECORDS = {
    "SequentialTrajectory": lambda: SequentialTrajectory(_ONES),
    "SnapshotPair": lambda: SnapshotPair(_ONES, _ONES),
    "KrylovCompanion": lambda: KrylovCompanion(C=_ONES, r=np.ones(3), r_norm=1.0),
    "InnerProduct": lambda: InnerProduct.diagonal(np.ones(3)),
    "QrStack": lambda: QrStack(r11=_ONES, r12=_ONES, r22=_ONES),
    "RefinedPair": lambda: RefinedPair(w=np.ones(3), sigma_min=0.0, rho=1.0),
    "RitzDecomposition": lambda: ddmd_rrr(np.eye(4, 3), np.eye(4, 3)),
    "FbSpectrum": lambda: FbSpectrum(omegas=np.ones(3), sign_evidence=np.ones(3)),
    "OracleOperator": lambda: make_oracle(4, seed=1),
}


@pytest.mark.parametrize("make", list(_ARRAY_RECORDS.values()), ids=list(_ARRAY_RECORDS))
def test_array_records_compare_by_identity_and_hash(make):
    a, b = make(), make()
    assert a == a and not (a == b) and a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n, m", [(3000, 60), (3000, 64), (3000, 33), (3000, 20), (90, 60), (90, 12), (50, 40)])
@pytest.mark.parametrize("pipeline", ["fb_dmd_mrf", "ddmd_rrr_compressed", "two_sided_weighted_dmd"])
def test_compressed_pair_lifts_through_the_reflectors_that_reach_the_vectors(monkeypatch, pipeline, n, m, dtype):
    # Rows min(n, m) on of R_x, and so of the engine's vectors, are exact
    # zeros; Q's leading columns are formed by the reflectors up to the end
    # of the ?geqrt block (32 columns, or all 2m where fewer) holding that
    # reflector, in the QR buffer over that block's last reflectors, and
    # the vectors keep the bits of all reflectors applied into a fresh array.
    Q, A, G = _lifted_system(133 + m, n, m, dtype)
    X, Y = Q @ G, Q @ (A @ G)
    M, N = InnerProduct.diagonal(np.linspace(0.5, 2.0, n)), InnerProduct.diagonal(np.linspace(1.0, 0.5, m))
    run = {"fb_dmd_mrf": lambda: fb_dmd_mrf(X, Y)[0],
           "ddmd_rrr_compressed": lambda: ddmd_rrr_compressed(SnapshotPair(X, Y)),
           "two_sided_weighted_dmd": lambda: two_sided_weighted_dmd(X, Y, M, N)}[pipeline]
    apply, qr, factors = variants._apply_reflectors, variants._householder_qr, []

    def householder_qr(*blocks, **kwargs):
        # All reflectors, copied before the route reuses the buffer's columns.
        a, T, R = qr(*blocks, **kwargs)
        factors[:] = a[:, :T.shape[1]].copy(order="F"), T
        return a, T, R

    with monkeypatch.context() as patch:
        patch.setattr(variants, "_householder_qr", householder_qr)
        patch.setattr(variants, "_apply_reflectors", lambda a, t, top, out=None: apply(*factors, top))
        full = run()
    shapes = []
    get_funcs = scipy.linalg.get_lapack_funcs

    def spy_funcs(names, *args, **kwargs):
        funcs = get_funcs(names, *args, **kwargs)
        if names != ("gemqrt",):
            return funcs

        def gemqrt(v, t, c, *rest, **kw):
            shapes.append(v.shape)
            return funcs[0](v, t, c, *rest, **kw)

        return [gemqrt]

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", spy_funcs)
    lifted = run()
    # Q's leading columns are formed by the first ?gemqrt, before the engine's own
    assert shapes[0] == (n, min(n, 2 * m, -(-m // 32) * 32))
    for field in ("lambdas", "vectors", "residuals", "ordering"):
        assert getattr(lifted, field).tobytes() == getattr(full, field).tobytes(), field


@variants._one_blas_thread
def _compressed_pair_lifting_apart(pair, config, engine, weight=None):
    """The compressed pair route with Q's leading columns formed in a fresh
    array, the QR buffer released, and the vectors lifted into another."""
    n, m = pair.n, pair.m
    r = min(n, m)
    config = dataclasses.replace(config, policy=variants._resolve_policy(config, (n, m)))
    a, T, R = variants._householder_qr(pair.X, pair.Y, weight=weight, name="[X Y]")
    inner, *rest = engine(R[:, :m], R[:, m:], config)
    nb = T.shape[0]
    p = min(T.shape[1], -(-r // nb) * nb)
    Q = variants._apply_reflectors(a[:, :p], T[:, :p], np.eye(r, dtype=a.dtype))
    del a, T
    Z = variants._lift(Q, inner.vectors[:r])
    del Q
    if weight is not None:
        Z = weight._lift(Z, in_place=True)
    return (dataclasses.replace(inner, vectors=Z, weight=weight), *rest)


@pytest.mark.parametrize("n, m, dtype", [(6000, 33, float), (6000, 60, complex)])
@pytest.mark.parametrize("pipeline", ["fb_dmd_mrf", "ddmd_rrr_compressed", "two_sided_weighted_dmd"])
def test_compressed_pair_lift_in_its_buffer_keeps_the_bits_of_a_lift_apart(monkeypatch, pipeline, n, m, dtype):
    # At m = 33 Q's leading columns are formed in the buffer's dead
    # columns 33 to 66, over the last 31 reflectors of the ?geqrt block
    # they need; complex data take whole entries of the buffer.  Either
    # way the vectors are those of a lift from Q's leading columns held
    # apart, at no higher peak.
    Q, A, G = _lifted_system(151 + m, n, m, dtype)
    X, Y = Q @ G, Q @ (A @ G)
    M, N = _weights("diagonal", n, m)
    inside, peak = traced_peak(lambda: _PIPELINES[pipeline](X, Y, None, M, N))
    monkeypatch.setattr(variants, "_compressed_pair", _compressed_pair_lifting_apart)
    monkeypatch.setattr(weighted, "_compressed_pair", _compressed_pair_lifting_apart)
    apart, peak_apart = traced_peak(lambda: _PIPELINES[pipeline](X, Y, None, M, N))
    for field in ("lambdas", "vectors", "residuals", "ordering"):
        assert getattr(inside, field).tobytes() == getattr(apart, field).tobytes(), field
    assert peak <= peak_apart


@pytest.mark.parametrize("n, m", [(300, 24), (200, 16), (100, 10), (500, 30), (60, 12), (1000, 20)])
@pytest.mark.parametrize("pipeline", ["dmd", "exact_dmd", "ddmd_rrr"])
def test_unscaled_pipelines_do_not_depend_on_the_layout_of_the_pair(pipeline, n, m):
    # Unscaled, Y is copied column-major before B_k and the quotient read
    # it, as the scaling writes it column-major.
    rng = _rng(157 + n)
    X, Y = rng.standard_normal((n, m)), rng.standard_normal((n, m))
    config = VariantConfig(scale=False)
    row = _PIPELINES[pipeline](np.ascontiguousarray(X), np.ascontiguousarray(Y), None, None, None, config)
    col = _PIPELINES[pipeline](np.asfortranarray(X), np.asfortranarray(Y), None, None, None, config)
    for field in ("lambdas", "vectors", "residuals", "ordering"):
        assert getattr(row, field).tobytes() == getattr(col, field).tobytes(), field


_BAD_CONFIGS = [5, None, "all", np.ones((4, 3))]


@pytest.mark.parametrize("config", _BAD_CONFIGS, ids=["int", "none", "str", "array"])
@pytest.mark.parametrize("entry", list(_PIPELINES))
def test_a_config_that_is_not_a_variant_config_is_rejected_before_any_work(monkeypatch, entry, config):
    calls = []
    monkeypatch.setattr(variants, "_householder_qr", lambda *blocks: calls.append("qr"))
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lambda *args, **kwargs: calls.append("lapack"))
    X = _rng(137).standard_normal((30, 8))
    M, N = InnerProduct.identity(30), InnerProduct.identity(8)
    with pytest.raises(DataError, match="config must be a VariantConfig"):
        _PIPELINES[entry](X, X, X, M, N, config)
    assert calls == []


@pytest.mark.parametrize("entry", list(_PIPELINES))
def test_a_column_norm_beyond_the_double_range_is_one_conditioning_error(entry):
    # Finite entries whose column norms overflow: named where the norms are
    # read, before any NaN is formed, on every route.
    rng = _rng(141)
    X, Y = 5e307 * rng.uniform(size=(200, 12)), 5e307 * rng.uniform(size=(200, 12))
    M, N = InnerProduct.identity(200), InnerProduct.identity(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError, match="the 2-norm of column 0 of .* overflows double precision"):
            _PIPELINES[entry](X, Y, X, M, N, VariantConfig())


def test_a_pair_passed_as_two_arrays_to_the_compressed_route_names_snapshot_pair():
    X = _rng(139).standard_normal((30, 8))
    with pytest.raises(DataError, match="SnapshotPair"):
        ddmd_rrr_compressed(X, X)
