"""The oracle harness itself: constructions, audits, fixtures."""

import json

import numpy as np
import pytest

from dmdkit.errors import DataError, ShapeError
from dmdkit.inner import InnerProduct
from dmdkit.matrixio import load_matrix
from dmdkit.snapshots import SnapshotPair
from dmdkit.variants import VariantConfig, ddmd_rrr, ddmd_rrr_compressed, dmd, exact_dmd, fb_dmd_mrf
from dmdkit.verify import (
    corrupted_sigma_etas,
    explicit_residuals,
    invariant_subspace_pair,
    make_oracle,
    match_eigenvalues,
    trajectory,
    write_fixture_set,
)
from dmdkit.weighted import two_sided_weighted_dmd, weighted_dmd


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def test_oracle_is_deterministic_per_seed():
    a = make_oracle(12, seed=42)
    b = make_oracle(12, seed=42)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    c = make_oracle(12, seed=43)
    assert not np.array_equal(a.A, c.A)


def test_oracle_spectrum_is_realized():
    oracle = make_oracle(16, spectrum="unit-disc", conditioning=30.0, seed=3)
    got = np.linalg.eigvals(oracle.A)
    assert match_eigenvalues(got, oracle.eigenvalues) <= 1e-10
    # diagonalization audit on the stored basis
    S = oracle.eigenvector_basis
    resid = oracle.A @ S - S * oracle.eigenvalues[None, :]
    assert np.linalg.norm(resid, 2) <= 1e-10 * np.linalg.norm(oracle.A, 2) * np.linalg.norm(S, 2)
    assert np.linalg.norm(oracle.A, 2) == pytest.approx(1.0, abs=1e-12)


def test_normal_oracle_commutes_with_its_adjoint():
    oracle = make_oracle(14, spectrum="unit-circle", conditioning=1.0, seed=5)
    comm = oracle.A @ oracle.A.conj().T - oracle.A.conj().T @ oracle.A
    assert np.linalg.norm(comm, 2) <= 1e-10
    assert np.allclose(np.abs(oracle.eigenvalues), 1.0, atol=1e-10)


def test_oracle_conditioning_target_is_hit():
    oracle = make_oracle(10, conditioning=250.0, seed=7)
    sv = np.linalg.svd(oracle.eigenvector_basis, compute_uv=False)
    assert sv[0] / sv[-1] == pytest.approx(250.0, rel=1e-10)


def test_oracle_real_output_and_validation():
    oracle = make_oracle(9, spectrum="unit-disc", seed=9)
    assert not np.iscomplexobj(oracle.A)
    with pytest.raises(DataError):
        make_oracle(1)
    with pytest.raises(DataError):
        make_oracle(4, conditioning=0.5)
    with pytest.raises(DataError):
        make_oracle(4, conditioning=1e20)
    with pytest.raises(ShapeError):
        make_oracle(4, spectrum=np.array([1.0, 0.5]))
    with pytest.raises(DataError):
        # real operator needs a conjugate-closed explicit spectrum
        make_oracle(2, spectrum=np.array([0.5 + 0.5j, 0.5 + 0.2j]))


def test_oracle_explicit_spectrum():
    vals = np.array([0.9, 0.6, 0.3, 0.1])
    oracle = make_oracle(4, spectrum=vals, conditioning=1.0, seed=11)
    # unit-norm rescaling divides the whole spectrum by max modulus 0.9
    assert np.allclose(oracle.eigenvalues, vals / 0.9, atol=1e-12)
    assert match_eigenvalues(np.linalg.eigvals(oracle.A), oracle.eigenvalues) <= 1e-10


def test_trajectory_identity_operator():
    f1 = np.array([1.0, -2.0, 0.5])
    F = trajectory(np.eye(3), f1, 4)
    assert F.F.shape == (3, 5)
    assert np.all(F.F == f1[:, None])


def test_trajectory_geometric_decay():
    F = trajectory(np.diag([0.5, 0.5]), np.array([1.0, 0.0]), 6)
    norms = np.linalg.norm(F.F, axis=0)
    assert np.allclose(norms, 0.5 ** np.arange(7))


def test_trajectory_aligns_with_dominant_eigenvector():
    # power iteration: angle to the dominant direction shrinks monotonically
    A = np.diag([0.9, 0.5, 0.3])
    f1 = np.array([0.2, 0.7, 0.7])
    F = trajectory(A, f1 / np.linalg.norm(f1), 10)
    cos = np.abs(F.F[0, :]) / np.linalg.norm(F.F, axis=0)
    assert np.all(np.diff(cos) > 0)


def test_trajectory_validation():
    with pytest.raises(DataError):
        trajectory(np.eye(2), np.ones(2), 0)
    with pytest.raises(ShapeError):
        trajectory(np.eye(2), np.ones(3), 2)


def test_invariant_subspace_pair_is_noise_free():
    oracle = make_oracle(20, spectrum="unit-disc", conditioning=1.0, seed=13)
    pair = invariant_subspace_pair(oracle, 6, seed=14)
    dec = ddmd_rrr(pair.X, pair.Y, VariantConfig(scale=False))
    assert dec.rank == 6
    assert dec.residuals.max() <= 1e-10
    # both residuals vanish: the eta quotient is guarded, not reported as 0/0
    _, eta = explicit_residuals(oracle, dec)
    assert np.all(np.isnan(eta))


# Each pipeline on (X, Y), with diagonal state and snapshot weights M and N
# where it takes them.
_ETA_PIPELINES = {
    "dmd": lambda X, Y, M, N: dmd(X, Y),
    "ddmd_rrr": lambda X, Y, M, N: ddmd_rrr(X, Y),
    "ddmd_rrr_compressed": lambda X, Y, M, N: ddmd_rrr_compressed(SnapshotPair(X, Y)),
    "fb_dmd_mrf": lambda X, Y, M, N: fb_dmd_mrf(X, Y)[0],
    "weighted_dmd": lambda X, Y, M, N: weighted_dmd(X, Y, M),
    "two_sided_weighted_dmd": lambda X, Y, M, N: two_sided_weighted_dmd(X, Y, M, N),
}


@pytest.mark.parametrize("pipeline", list(_ETA_PIPELINES))
def test_eta_identity_on_healthy_run(pipeline):
    # Per column: vector j carries residual j, so each certificate equals
    # the true residual of its own vector.
    oracle = make_oracle(40, spectrum="unit-disc", conditioning=25.0, seed=15)
    f1 = _rng(16).standard_normal(40)
    F = trajectory(oracle, f1 / np.linalg.norm(f1), 12)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    M = InnerProduct.diagonal(np.linspace(0.5, 2.0, X.shape[0]))
    N = InnerProduct.diagonal(np.linspace(1.0, 0.5, X.shape[1]))
    dec = _ETA_PIPELINES[pipeline](X, Y, M, N)
    true, eta = explicit_residuals(oracle, dec)
    mask = np.isfinite(eta) & (dec.residuals > 1e-8)
    assert np.any(mask)
    assert np.abs(eta[mask] - 1.0).max() <= 1e-6
    assert np.all(true[mask] > 0)


def test_explicit_residuals_mark_absent_vectors():
    n, m = 6, 4
    A = np.diag([0.8, 0.5, 0.0, 0.3, 0.0, 0.0])
    X = np.eye(n)[:, :m]
    dec = exact_dmd(X, A @ X, VariantConfig(scale=False))
    true, eta = explicit_residuals(A, dec)
    absent = ~dec.vector_present
    assert absent.sum() == 1
    assert np.all(np.isnan(true[absent])) and np.all(np.isnan(eta[absent]))


def test_match_eigenvalues_is_permutation_invariant():
    vals = _rng(17).standard_normal(8) + 1j * _rng(18).standard_normal(8)
    shuffled = vals[::-1].copy()
    assert match_eigenvalues(vals, shuffled) == 0.0
    with pytest.raises(ShapeError):
        match_eigenvalues(vals, vals[:4])


def test_corrupted_sigma_floor_depresses_eta():
    # flooring small singular values fakes convergence: some eta ratios
    # collapse far below 1 while a healthy run keeps them all near 1
    oracle = make_oracle(300, spectrum="decaying", conditioning=100.0, seed=19)
    f1 = _rng(20).standard_normal(300)
    F = trajectory(oracle, f1 / np.linalg.norm(f1), 40)
    etas = corrupted_sigma_etas(oracle, F)
    finite = etas[np.isfinite(etas)]
    assert finite.size > 0
    assert finite.min() < 1e-4


def test_fixture_set_round_trips(tmp_path):
    manifest_path = write_fixture_set(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest_path.endswith("manifest.json")
    assert len(manifest) == 3
    for entry in manifest:
        A = load_matrix(tmp_path / entry["operator"])
        F = load_matrix(tmp_path / entry["trajectory"])
        assert A.shape == (entry["n"], entry["n"])
        assert F.shape == (entry["n"], entry["m"] + 1)
        # trajectory really is an orbit of the stored operator
        drift = np.linalg.norm(A @ F[:, :-1] - F[:, 1:], 2)
        assert drift <= 1e-12 * np.linalg.norm(F, 2)
