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

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DataError, ShapeError
from .inner import _require_weight
from .matrixio import store_matrix
from .pod import truncated_svd
from .ritz import _lift, action_on_basis, data_driven_residuals
from .snapshots import _EPS, SequentialTrajectory, SnapshotPair, _as_trajectory, scale_columns
from .variants import _quotient

__all__ = [
    "OracleOperator",
    "make_oracle",
    "make_m_unitary_oracle",
    "trajectory",
    "invariant_subspace_pair",
    "explicit_residuals",
    "match_eigenvalues",
    "corrupted_sigma_etas",
    "write_fixture_set",
]

# Relative floor that corrupted_sigma_etas raises small singular values to.
_CORRUPTED_SIGMA_FLOOR = 1e-8


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


def _unit_start(n, seed):
    """A unit-norm Gaussian start vector of length n from the seeded stream."""
    f1 = _rng(seed).standard_normal(n)
    return f1 / np.linalg.norm(f1)


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


def _conjugate_closed(pairs, tail):
    """Spectrum [p0, conj(p0), p1, conj(p1), ...] followed by the real values in ``tail``."""
    return np.concatenate([np.column_stack([pairs, pairs.conj()]).reshape(-1), tail])


def _conjugate_closed_spectrum(rng, n, spectrum):
    p = n // 2
    mods = _draw_moduli(rng, spectrum, p)
    theta = rng.uniform(0.1, np.pi - 0.1, p)
    pairs = mods * np.exp(1j * theta)
    tail = []
    if n % 2:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        tail = [sign * _draw_moduli(rng, spectrum, 1)[0]]
    return _conjugate_closed(pairs, tail)


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
    weight = _require_weight(weight, "weight")
    rng = _rng(seed)
    Q = _random_orthogonal(rng, n, complex_valued=False)
    # A = lift(Q in transformed coordinates): transform(A x) = Q transform(x).
    A = weight.lift(Q @ weight.transform(np.eye(n)))
    alphas, V = np.linalg.eig(Q)
    basis = weight.lift(V)
    return OracleOperator(A=A, eigenvalues=alphas.astype(complex), eigenvector_basis=basis, kind="M-unitary")


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


def _matching(a, b):
    """Distances |a_i - b_j| and the one-to-one assignment minimizing their sum.

    ``scipy.optimize`` is imported here, on first use, so that importing
    the package or running a decomposition never loads it.
    """
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost, rows, cols


def match_eigenvalues(computed, reference):
    """Largest matched distance under the optimal one-to-one assignment."""
    a = np.asarray(computed, dtype=complex).reshape(-1)
    b = np.asarray(reference, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        raise ShapeError("eigenvalue sets must have equal size to be matched")
    cost, rows, cols = _matching(a, b)
    return float(cost[rows, cols].max())


def corrupted_sigma_etas(oracle, F):
    """Replay a backend failure: small singular values optimistically floored.

    Runs the stages of :func:`dmd`, its one POD SVD path included, on the
    scaled trajectory data, but raises every retained singular value below
    1e-8 * sigma_1 to that floor: exactly the signature of an SVD
    routine that stops resolving far below the noise level.  The data-driven residuals of the junk directions then
    come out far smaller than the truth, so the returned eta ratios dip
    orders of magnitude below 1.
    """
    traj = _as_trajectory(F)
    scaled = scale_columns(SnapshotPair(traj.F[:, :-1], traj.F[:, 1:]))[0]
    Xs, Ys = scaled.X, scaled.Y
    basis = truncated_svd(Xs)
    basis = dataclasses.replace(basis, sigma=np.maximum(basis.sigma, _CORRUPTED_SIGMA_FLOOR * basis.sigma[0]))
    _, lambdas, W = _quotient(basis, Ys)
    dd = data_driven_residuals(action_on_basis(Ys, basis.V, basis.sigma), basis.U, W, lambdas)
    Z = _lift(basis.U, W)
    true = np.linalg.norm(_operator_of(oracle) @ Z - Z * lambdas[None, :], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = dd / true
    return eta


DEFAULT_FIXTURES = (
    {"name": "disc-small", "n": 60, "m": 20, "seed": 11, "spectrum": "unit-disc", "conditioning": 50.0},
    {"name": "circle-normal", "n": 80, "m": 24, "seed": 23, "spectrum": "unit-circle", "conditioning": 1.0},
    {"name": "decaying-tall", "n": 300, "m": 40, "seed": 37, "spectrum": "decaying", "conditioning": 200.0},
)


def write_fixture_set(directory):
    """Write oracle/trajectory fixtures to DMM1 files plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for spec in DEFAULT_FIXTURES:
        oracle = make_oracle(
            spec["n"], spectrum=spec["spectrum"], conditioning=spec["conditioning"], seed=spec["seed"]
        )
        traj = trajectory(oracle, _unit_start(spec["n"], spec["seed"] + 1), spec["m"])
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
