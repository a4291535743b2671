"""Oracle harness: operators with known spectra and explicit-residual audits.

Every claim the decomposition pipelines make is checked here against an
operator that is actually available as a dense matrix.  This module is
the single place in the package allowed to touch an explicit A; the
pipelines themselves only ever see snapshot data.

The central diagnostic is the eta ratio: the data-driven residual of a
pair divided by its true residual computed with the explicit operator.
In exact arithmetic the two are identical, so eta is 1; a ratio far below
1 is the fingerprint of a numerically inconsistent backend (for example
singular values truncated sincerely in one place and optimistically in
another).
"""

import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import BackendError, DataError, ShapeError
from .inner import InnerProduct
from .matrixio import store_matrix
from .snapshots import SequentialTrajectory, SnapshotPair, _scale_arrays
from .pod import default_epsilon

__all__ = [
    "OracleOperator",
    "make_oracle",
    "make_m_unitary_oracle",
    "exp_inverse_oracle",
    "trajectory",
    "invariant_subspace_pair",
    "explicit_residuals",
    "eigen_reference",
    "match_eigenvalues",
    "corrupted_sigma_etas",
    "write_fixture_set",
]

_EPS = float(np.finfo(np.float64).eps)
_EIGEN_REFERENCE_LIMIT = 2000


@dataclass(frozen=True, eq=False)
class OracleOperator:
    """Dense operator with its spectrum known by construction."""

    A: np.ndarray
    eigenvalues: np.ndarray
    eigenvector_basis: np.ndarray | None
    kind: str


def _rng(seed):
    # Counter-based 64-bit stream: splittable and reproducible across platforms.
    return np.random.Generator(np.random.Philox(seed))


def _random_orthogonal(rng, n, complex_valued=False):
    G = rng.standard_normal((n, n))
    if complex_valued:
        G = G + 1j * rng.standard_normal((n, n))
    Q, R = scipy.linalg.qr(G)
    d = np.diagonal(R)
    phase = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return Q * phase.conj()[None, :]


def _draw_moduli(rng, spectrum, count):
    if spectrum == "unit-circle":
        return np.ones(count)
    if spectrum == "unit-disc":
        return rng.uniform(0.2, 0.95, count)
    if spectrum == "decaying":
        # A compact head near the top of the disc plus a long log-uniform
        # tail: trajectories lose the tail directions within a few steps,
        # which is what makes unscaled rank selection collapse.
        head = min(count, max(1, int(round(count * 0.05))))
        mods = 10.0 ** rng.uniform(-10.0, np.log10(0.7), count)
        mods[:head] = rng.uniform(0.8, 1.0, head)
        return mods
    raise DataError("unknown spectrum spec %r" % (spectrum,))


def _conjugate_closed_spectrum(rng, n, spectrum):
    p = n // 2
    mods = _draw_moduli(rng, spectrum, p)
    theta = rng.uniform(0.1, np.pi - 0.1, p)
    pairs = mods * np.exp(1j * theta)
    alphas = np.empty(n, dtype=complex)
    alphas[: 2 * p : 2] = pairs
    alphas[1 : 2 * p : 2] = pairs.conj()
    if n % 2:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        alphas[-1] = sign * _draw_moduli(rng, spectrum, 1)[0]
    return alphas


def _real_block_diagonal(alphas):
    """Real matrix similar to diag(alphas) for a conjugate-closed spectrum,
    together with the complex basis diagonalizing it."""
    n = alphas.shape[0]
    D = np.zeros((n, n))
    T = np.zeros((n, n), dtype=complex)
    i = 0
    while i < n:
        lam = alphas[i]
        if i + 1 < n and np.iscomplexobj(alphas) and alphas[i + 1] == np.conj(lam) and lam.imag != 0:
            a, b = lam.real, lam.imag
            D[i : i + 2, i : i + 2] = [[a, b], [-b, a]]
            T[i : i + 2, i] = np.array([1.0, 1j]) / np.sqrt(2.0)
            T[i : i + 2, i + 1] = np.array([1.0, -1j]) / np.sqrt(2.0)
            i += 2
        else:
            if abs(lam.imag) > 0:
                raise DataError("explicit real-operator spectrum must be conjugate closed")
            D[i, i] = lam.real
            T[i, i] = 1.0
            i += 1
    return D, T


def make_oracle(n, spectrum="unit-disc", conditioning=1.0, seed=0, complex_valued=False):
    """Operator A = S diag(alpha) S^{-1} with spectrum and conditioning chosen.

    ``spectrum`` is ``'unit-disc'``, ``'unit-circle'``, ``'decaying'`` or an
    explicit eigenvalue list (conjugate closed unless ``complex_valued``).
    ``conditioning`` sets kappa_2(S) exactly via graded singular values;
    1 gives a normal operator.  The result is normalized to unit spectral
    norm and fully deterministic per seed.
    """
    if n < 2:
        raise DataError("make_oracle needs n >= 2")
    if not (conditioning >= 1.0) or conditioning >= 0.1 / _EPS:
        raise DataError("infeasible conditioning target %r" % (conditioning,))
    rng = _rng(seed)
    if isinstance(spectrum, str):
        if complex_valued:
            mods = _draw_moduli(rng, spectrum, n)
            alphas = mods * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
        else:
            alphas = _conjugate_closed_spectrum(rng, n, spectrum)
    else:
        alphas = np.asarray(spectrum, dtype=complex)
        if alphas.shape != (n,):
            raise ShapeError("explicit spectrum must have length n")

    if complex_valued:
        D = np.diag(alphas)
        T = np.eye(n, dtype=complex)
    else:
        D, T = _real_block_diagonal(alphas)

    Q1 = _random_orthogonal(rng, n, complex_valued)
    if conditioning == 1.0:
        S = Q1
    else:
        Q2 = _random_orthogonal(rng, n, complex_valued)
        grades = np.geomspace(1.0, 1.0 / conditioning, n)
        S = (Q1 * grades[None, :]) @ Q2.conj().T
    A = np.linalg.solve(S.T, (S @ D).T).T

    nrm = float(np.linalg.norm(A, 2))
    A = A / nrm
    alphas = alphas / nrm
    basis = S @ T
    kind = "normal" if conditioning == 1.0 else "prescribed-spectrum"
    return OracleOperator(A=A, eigenvalues=alphas, eigenvector_basis=basis, kind=kind)


def make_m_unitary_oracle(n, weight, seed=0):
    """Operator unitary in the geometry of ``weight``: A* M A = M.

    Built as the weighted lift of a random unitary; its spectrum lies
    exactly on the unit circle.
    """
    if not isinstance(weight, InnerProduct):
        raise DataError("make_m_unitary_oracle needs an InnerProduct weight")
    rng = _rng(seed)
    Q = _random_orthogonal(rng, n, complex_valued=False)
    # A = lift(Q in transformed coordinates): transform(A x) = Q transform(x).
    A = weight.lift(Q @ weight.transform(np.eye(n)))
    alphas, V = np.linalg.eig(Q)
    basis = weight.lift(V)
    return OracleOperator(A=A, eigenvalues=alphas.astype(complex), eigenvector_basis=basis, kind="M-unitary")


def exp_inverse_oracle(n, seed=0):
    """Optional heavy-tailed generator: exponential of a negated inverse.

    Produces the same qualitative snapshot-norm collapse as the default
    ``'decaying'`` spectrum but through a dense matrix exponential; ground
    truth comes from the dense eigensolver, so the kind is ``'raw'``.
    """
    rng = _rng(seed)
    B = rng.uniform(0.0, 1.0, (n, n))
    A = scipy.linalg.expm(-np.linalg.inv(B))
    A = A / float(np.linalg.norm(A, 2))
    alphas = eigen_reference(A)
    return OracleOperator(A=A, eigenvalues=alphas, eigenvector_basis=None, kind="raw")


def _operator_of(A):
    return A.A if isinstance(A, OracleOperator) else np.asarray(A)


def trajectory(A, f1, m):
    """Orbit F = (f1, A f1, ..., A^m f1) as a SequentialTrajectory."""
    A = _operator_of(A)
    f1 = np.asarray(f1).reshape(-1)
    if A.shape[0] != A.shape[1] or A.shape[0] != f1.shape[0]:
        raise ShapeError("operator and start vector dimensions do not match")
    if m < 1:
        raise DataError("trajectory needs m >= 1")
    dtype = np.result_type(A.dtype, f1.dtype)
    F = np.empty((f1.shape[0], m + 1), dtype=dtype)
    F[:, 0] = f1
    for i in range(m):
        F[:, i + 1] = A @ F[:, i]
    return SequentialTrajectory(F)


def invariant_subspace_pair(oracle, m, seed=0):
    """Snapshot pair spanning an exact invariant subspace of the oracle.

    X mixes the first m eigenvector columns with distinct descending
    weights, so range(X) is invariant, the data is noise-free, and every
    Ritz pair should be exact up to roundoff.
    """
    if oracle.eigenvector_basis is None:
        raise DataError("invariant_subspace_pair needs an oracle with a known eigenbasis")
    n = oracle.A.shape[0]
    if not (1 <= m <= n):
        raise DataError("invariant_subspace_pair needs 1 <= m <= n")
    rng = _rng(seed)
    d = np.geomspace(1.0, 0.5, m)
    V0 = _random_orthogonal(rng, m, complex_valued=True)
    X = oracle.eigenvector_basis[:, :m] @ (d[:, None] * V0.conj().T)
    Y = oracle.A @ X
    return SnapshotPair(X, Y)


def explicit_residuals(A, decomposition):
    """True residuals from the explicit operator, and the eta ratios.

    eta_i = (data-driven residual) / ||A z_i - lambda_i z_i||, the latter
    measured in the decomposition's own geometry.  Pairs without vectors,
    and pairs where both residuals vanish to roundoff (exact invariant
    subspaces), get NaN markers instead of meaningless quotients.
    """
    A = _operator_of(A)
    Z = decomposition.vectors
    if A.shape[1] != Z.shape[0]:
        raise ShapeError("operator size %d does not match vectors with %d rows" % (A.shape[1], Z.shape[0]))
    present = decomposition.vector_present
    R = A @ np.where(np.isnan(Z), 0.0, Z) - np.where(np.isnan(Z), 0.0, Z) * decomposition.lambdas[None, :]
    if decomposition.weight is not None:
        R = decomposition.weight.transform(R)
    true = np.linalg.norm(R, axis=0)
    true[~present] = np.nan
    tiny = 1e-12 * max(1.0, float(np.linalg.norm(A, "fro")))
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = decomposition.residuals / true
    eta[~present] = np.nan
    eta[(decomposition.residuals <= tiny) & (true <= tiny)] = np.nan
    return true, eta


def eigen_reference(A):
    """Dense reference spectrum with a per-pair residual audit."""
    A = _operator_of(A)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError("eigen_reference needs a square matrix")
    if n > _EIGEN_REFERENCE_LIMIT:
        raise DataError("eigen_reference guard: n = %d exceeds %d" % (n, _EIGEN_REFERENCE_LIMIT))
    try:
        alphas, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise BackendError("dense eigensolver failed to converge: %s" % exc) from exc
    nrmA = float(np.linalg.norm(A, 2))
    resid = np.linalg.norm(A @ V - V * alphas[None, :], axis=0) / np.linalg.norm(V, axis=0)
    if np.any(resid > 1e-8 * max(nrmA, _EPS)):
        raise BackendError(
            "dense eigensolver residual check failed (worst %.3e)" % float(resid.max())
        )
    return alphas.astype(complex)


def match_eigenvalues(computed, reference):
    """Largest matched distance under the optimal one-to-one assignment."""
    a = np.asarray(computed, dtype=complex).reshape(-1)
    b = np.asarray(reference, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        raise ShapeError("eigenvalue sets must have equal size to be matched")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def corrupted_sigma_etas(oracle, F, floor=1e-8):
    """Replay a backend failure: small singular values optimistically floored.

    Runs the classic pipeline on the scaled trajectory data but replaces
    every singular value below ``floor * sigma_1`` by the floor, exactly
    the signature of an SVD routine that stops resolving far below the
    noise level.  The data-driven residuals of the junk directions then
    come out far smaller than the truth, so the returned eta ratios dip
    orders of magnitude below 1.
    """
    traj = F if isinstance(F, SequentialTrajectory) else SequentialTrajectory(np.asarray(F))
    X, Y = traj.F[:, :-1], traj.F[:, 1:]
    Xs, Ys, _ = _scale_arrays(X, Y)
    U, s, Vh = scipy.linalg.svd(Xs, full_matrices=False, lapack_driver="gesvd")
    eps_rank = default_epsilon(*Xs.shape)
    k = int(np.count_nonzero(s > eps_rank * s[0]))
    s_bad = np.maximum(s[:k], floor * s[0])
    Uk, Vk = U[:, :k], Vh[:k, :].conj().T
    B_bad = Ys @ (Vk / s_bad[None, :])
    S_bad = ((Uk.conj().T @ Ys) @ Vk) / s_bad[None, :]
    lambdas, W = np.linalg.eig(S_bad)
    W = W / np.linalg.norm(W, axis=0)[None, :]
    dd = np.linalg.norm(B_bad @ W - Uk @ (W * lambdas[None, :]), axis=0)
    A = _operator_of(oracle)
    Z = Uk @ W
    true = np.linalg.norm(A @ Z - Z * lambdas[None, :], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = dd / true
    return eta


DEFAULT_FIXTURES = (
    {"name": "disc-small", "n": 60, "m": 20, "seed": 11, "spectrum": "unit-disc", "conditioning": 50.0},
    {"name": "circle-normal", "n": 80, "m": 24, "seed": 23, "spectrum": "unit-circle", "conditioning": 1.0},
    {"name": "decaying-tall", "n": 300, "m": 40, "seed": 37, "spectrum": "decaying", "conditioning": 200.0},
)


def write_fixture_set(directory, entries=DEFAULT_FIXTURES):
    """Write oracle/trajectory fixtures to DMM1 files plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for spec in entries:
        oracle = make_oracle(
            spec["n"], spectrum=spec["spectrum"], conditioning=spec["conditioning"], seed=spec["seed"]
        )
        rng = _rng(spec["seed"] + 1)
        f1 = rng.standard_normal(spec["n"])
        f1 = f1 / np.linalg.norm(f1)
        traj = trajectory(oracle, f1, spec["m"])
        op_file = "%s_operator.dmm" % spec["name"]
        traj_file = "%s_trajectory.dmm" % spec["name"]
        store_matrix(oracle.A, os.path.join(directory, op_file))
        store_matrix(traj.F, os.path.join(directory, traj_file))
        manifest.append(
            {
                "name": spec["name"],
                "n": spec["n"],
                "m": spec["m"],
                "seed": spec["seed"],
                "spectrum": spec["spectrum"],
                "conditioning": spec["conditioning"],
                "operator": op_file,
                "trajectory": traj_file,
            }
        )
    path = os.path.join(directory, "manifest.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path
