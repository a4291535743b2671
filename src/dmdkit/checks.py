"""Self-contained verification procedures over seeded oracles.

Each check builds its own data from :mod:`dmdkit.verify` oracles, runs
the relevant pipeline, and reports a pass/fail verdict with a one-line
numeric summary.  The functions are deterministic for a fixed seed and
never embed timings or environment state in their output, so a whole
report can be compared byte for byte across runs with the same BLAS
thread count.

``run_all`` drives the suite at a configurable scale for the CLI; the
acceptance tests call the individual checks at their default sizes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DmdkitError
from .inner import InnerProduct
from .pod import RankPolicy, weighted_pod
from .ritz import _eig, _residuals_from_stack, qr_stack, rayleigh_from_qr, refine_ritz, refined_rayleigh_value
from .snapshots import _EPS, companion_decomposition
from .variants import VariantConfig, dmd, ddmd_rrr, ddmd_rrr_compressed, exact_dmd, fb_dmd_mrf, select_pairs
from .variants import _project
from .weighted import two_sided_weighted_dmd, weighted_bauer_fike, weighted_dmd
from .verify import (
    _conjugate_closed,
    _matching,
    _rng,
    _unit_start,
    corrupted_sigma_etas,
    explicit_residuals,
    invariant_subspace_pair,
    make_oracle,
    match_eigenvalues,
    trajectory,
)

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _band_spectrum(n, lo, hi, seed):
    """Conjugate-closed spectrum with moduli confined to [lo, hi]."""
    rng = _rng(seed)
    p = n // 2
    mods = rng.uniform(lo, hi, p)
    ang = rng.uniform(0.1, np.pi - 0.1, p)
    tail = [rng.uniform(lo, hi) * (1.0 if rng.uniform() < 0.5 else -1.0)] if n % 2 else []
    return _conjugate_closed(mods * np.exp(1j * ang), tail)


def _matched_gaps(a, b):
    """Largest |dlambda| and |dresidual| of two decompositions under the best one-to-one matching."""
    cost, rows, cols = _matching(a.lambdas, b.lambdas)
    return float(cost[rows, cols].max()), float(np.abs(a.residuals[rows] - b.residuals[cols]).max())


# ---------------------------------------------------------------------------
# 1. data-driven residuals agree with explicit-operator residuals


def check_residual_identity(scales=((200, 40), (500, 60)), seed=101):
    """Every pair with a residual above 1e-8 has eta within 1e-6 of 1."""
    worst = 0.0
    counted = 0
    for j, (n, m) in enumerate(scales):
        oracle = make_oracle(n, spectrum=_band_spectrum(n, 0.45, 0.97, seed + 10 * j),
                             conditioning=40.0, seed=seed + 10 * j)
        F = trajectory(oracle, _unit_start(n, seed + 10 * j + 1), m)
        dec = ddmd_rrr(F.F[:, :-1], F.F[:, 1:])
        _, eta = explicit_residuals(oracle, dec)
        mask = np.isfinite(eta) & (dec.residuals > 1e-8)
        if np.any(mask):
            worst = max(worst, float(np.abs(eta[mask] - 1.0).max()))
            counted += int(np.count_nonzero(mask))
    return CheckResult(
        "residual-identity",
        worst <= 1e-6,
        "max |eta - 1| = %.3e over %d pairs" % (worst, counted),
    )


# ---------------------------------------------------------------------------
# 2.-4. refinement family over a shared batch of seeded instances


def _instance_family(count=100, base_seed=300):
    """Shared batch of small decomposition instances in scaled coordinates."""
    out = []
    for i in range(count):
        n = 34 + 8 * (i % 5)
        m = 10 + 2 * (i % 7)
        conditioning = (1.0, 30.0, 200.0)[i % 3]
        spectrum = ("unit-disc", "decaying", "unit-circle")[(i // 3) % 3]
        oracle = make_oracle(n, spectrum=spectrum, conditioning=conditioning, seed=base_seed + i)
        F = trajectory(oracle, _unit_start(n, base_seed + 1000 + i), m)
        basis, buf, _ = _project(F.F[:, :-1], F.F[:, 1:], VariantConfig())
        B = np.ascontiguousarray(buf[:, basis.rank:2 * basis.rank])
        stack = qr_stack(basis.U, B)
        S = rayleigh_from_qr(stack)
        lambdas, W = _eig(S)
        plain = _residuals_from_stack(stack, lambdas, W)
        out.append({"U": basis.U, "B": B, "stack": stack, "S": S,
                    "lambdas": lambdas, "plain": plain,
                    "normB": float(np.linalg.norm(B, 2))})
    return out


def check_refinement_optimality(family):
    """Refined residual never exceeds the plain Ritz residual."""
    worst = -np.inf
    for inst in family:
        slack = 1e-12 * inst["normB"]
        for i, lam in enumerate(inst["lambdas"]):
            _, sigma = refine_ritz(inst["stack"], lam)
            worst = max(worst, float(sigma - inst["plain"][i] - slack))
    return CheckResult(
        "refinement-optimality",
        worst <= 0.0,
        "max (refined - plain - slack) = %.3e over %d instances" % (worst, len(family)),
    )


def check_rayleigh_optimality(family):
    """Swapping the eigenvalue for the refined Rayleigh value never hurts."""
    worst = -np.inf
    for inst in family:
        slack = 1e-13 * inst["normB"]
        for lam in inst["lambdas"]:
            w, sigma = refine_ritz(inst["stack"], lam)
            rho = refined_rayleigh_value(inst["S"], w)
            with_rho = _residuals_from_stack(inst["stack"], np.array([rho]), w.reshape(-1, 1))[0]
            worst = max(worst, float(with_rho - sigma - slack))
    return CheckResult(
        "rayleigh-optimality",
        worst <= 0.0,
        "max (rho residual - lambda residual - slack) = %.3e" % (worst,),
    )


def check_quotient_consistency(family):
    """Phase-corrected triangular block equals the projected action U* B."""
    worst = 0.0
    for inst in family:
        direct = inst["U"].conj().T @ inst["B"]
        diff = float(np.abs(inst["S"] - direct).max())
        worst = max(worst, diff / inst["normB"])
    return CheckResult(
        "quotient-consistency",
        worst <= 1e-12,
        "max |S - U*B| / ||B|| = %.3e" % (worst,),
    )


# ---------------------------------------------------------------------------
# 5. QR compression changes nothing


def check_compression_equivalence(ns=(100, 500), seed=211):
    worst_lam = 0.0
    worst_res = 0.0
    for j, n in enumerate(ns):
        oracle = make_oracle(n, spectrum=_band_spectrum(n, 0.7, 0.95, seed + j),
                             conditioning=10.0, seed=seed + j)
        F = trajectory(oracle, _unit_start(n, seed + 100 + j), 30)
        config = VariantConfig()
        direct = ddmd_rrr(F.F[:, :-1], F.F[:, 1:], config)
        packed = ddmd_rrr_compressed(F, config)
        if direct.k != packed.k:
            return CheckResult(
                "compression-equivalence",
                False,
                "rank mismatch: direct %d vs compressed %d at n=%d" % (direct.k, packed.k, n),
            )
        d_lam, d_res = _matched_gaps(direct, packed)
        worst_lam = max(worst_lam, d_lam)
        worst_res = max(worst_res, d_res)
    passed = worst_lam <= 1e-10 and worst_res <= 1e-10
    return CheckResult(
        "compression-equivalence",
        passed,
        "max matched |dlambda| = %.3e, |dresidual| = %.3e" % (worst_lam, worst_res),
    )


# ---------------------------------------------------------------------------
# 6. range(Y) vectors are genuine eigenvectors of the explicit quotient


def check_exact_variant(seed=401):
    worst_lam = 0.0
    worst_vec = 0.0
    for i in range(12):
        n = 20 + 6 * (i % 6)
        m = 8 + 2 * (i % 3)
        oracle = make_oracle(n, spectrum=_band_spectrum(n, 0.55, 0.95, seed + i),
                             conditioning=(1.0, 20.0)[i % 2], seed=seed + i)
        F = trajectory(oracle, _unit_start(n, seed + 100 + i), m)
        X, Y = F.F[:, :-1], F.F[:, 1:]
        config = VariantConfig()
        classic = dmd(X, Y, config)
        ranged = exact_dmd(X, Y, config)
        worst_lam = max(worst_lam, match_eigenvalues(ranged.lambdas, classic.lambdas))
        Ahat = Y @ np.linalg.pinv(X)
        nrm = float(np.linalg.norm(Ahat, 2))
        present = ranged.vector_present
        Z = ranged.vectors[:, present]
        lam = ranged.lambdas[present]
        resid = np.linalg.norm(Ahat @ Z - Z * lam[None, :], axis=0)
        if resid.size:
            worst_vec = max(worst_vec, float(resid.max() / nrm))
    passed = worst_lam <= 1e-10 and worst_vec <= 1e-10
    return CheckResult(
        "exact-variant-contract",
        passed,
        "max |dlambda| = %.3e, max ||Ahat z - lambda z|| / ||Ahat|| = %.3e" % (worst_lam, worst_vec),
    )


# ---------------------------------------------------------------------------
# 7. forward-backward without matrix roots


def check_fb_consistency(seed=2026):
    # Normal operator, unit-circle spectrum, snapshots drawn inside an
    # invariant subspace: both quotients are then diagonal in the same
    # basis and the square-root construction must be exact to roundoff.
    seed_used = seed
    for _ in range(64):
        oracle = make_oracle(48, spectrum="unit-circle", conditioning=1.0,
                             seed=seed_used, complex_valued=True)
        om = oracle.eigenvalues**2
        gap_om = np.abs(om[:, None] - om[None, :]) + 10.0 * np.eye(48)
        gap_al = np.abs(oracle.eigenvalues[:, None] - oracle.eigenvalues[None, :]) + 10.0 * np.eye(48)
        if gap_om.min() > 1e-3 and gap_al.min() > 1e-3:
            break
        seed_used += 1
    pair = invariant_subspace_pair(oracle, 16, seed_used + 7)
    config = VariantConfig(scale=False)
    forward = dmd(pair.X, pair.Y, config)
    dec, spectrum = fb_dmd_mrf(pair.X, pair.Y, config)
    d_lam = match_eigenvalues(dec.lambdas, forward.lambdas)
    d_sq = float(np.abs(dec.lambdas**2 - spectrum.omegas).max())

    guard_fired = False
    guard_named = False
    Xg = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    Yg = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    try:
        fb_dmd_mrf(Xg, Yg, VariantConfig(policy=RankPolicy.fixed(2), scale=False))
    except DmdkitError as exc:
        guard_fired = True
        guard_named = "S_back" in str(exc)
    passed = d_lam <= 1e-8 and d_sq <= 1e-12 and guard_fired and guard_named
    return CheckResult(
        "fb-consistency",
        passed,
        "max |dlambda| = %.3e, max |lambda^2 - omega| = %.3e, guard fired = %s"
        % (d_lam, d_sq, guard_fired and guard_named),
    )


# ---------------------------------------------------------------------------
# 8. weighted pipelines collapse to the plain one when the weights do


def check_weighted_chain(seed=603):
    n = 80
    oracle = make_oracle(n, spectrum=_band_spectrum(n, 0.5, 0.95, seed),
                         conditioning=30.0, seed=seed)
    F = trajectory(oracle, _unit_start(n, seed + 1), 24)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    rng = _rng(seed + 2)
    G = rng.standard_normal((n, n))
    M_mat = G @ G.T / n + np.eye(n)
    M = InnerProduct.from_matrix(M_mat)
    # The right-side weight lives in the column geometry, hence size m.
    eye_cols = InnerProduct.identity(X.shape[1])
    config = VariantConfig()

    elliptic = weighted_dmd(X, Y, M, config)
    two_sided = two_sided_weighted_dmd(X, Y, M, eye_cols, config)
    plain_weight = weighted_dmd(X, Y, InnerProduct.identity(n), config)
    plain = ddmd_rrr(X, Y, config)

    g1 = _matched_gaps(two_sided, elliptic)
    g2 = _matched_gaps(plain_weight, plain)

    basis = weighted_pod(X, M)
    U = basis.U
    gram = U.conj().T @ (M_mat @ U)
    ortho = float(np.linalg.norm(gram - np.eye(basis.rank), "fro"))
    ortho_ok = ortho <= 1e-10 * float(np.sqrt(basis.rank))

    passed = max(g1) <= 1e-10 and max(g2) <= 1e-10 and ortho_ok
    return CheckResult(
        "weighted-reduction",
        passed,
        "two-sided vs weighted gap = %.3e/%.3e, identity-weight gap = %.3e/%.3e, ||U*MU - I||_F = %.3e"
        % (g1[0], g1[1], g2[0], g2[1], ortho),
    )


# ---------------------------------------------------------------------------
# 9. residuals really do bound the spectral distance for normal operators


def check_spectral_distance_bound(seed=701):
    # A few dominant eigenvalues over a weak bulk, so the leading pairs
    # converge far below the selection cap 5e-4 within 40 steps.
    rng = _rng(seed)
    mods = rng.uniform(0.2, 0.5, 75)
    mods[:3] = rng.uniform(0.9, 0.98, 3)
    ang = rng.uniform(0.1, np.pi - 0.1, 75)
    oracle = make_oracle(150, spectrum=_conjugate_closed(mods * np.exp(1j * ang), []),
                         conditioning=1.0, seed=seed)
    F = trajectory(oracle, _unit_start(150, seed + 1), 40)
    dec = ddmd_rrr(F.F[:, :-1], F.F[:, 1:], VariantConfig())
    sel = select_pairs(dec, 5e-4)
    if sel.k == 0:
        return CheckResult("spectral-distance-bound", False, "no pairs selected at cap 5.0e-04")
    dist = np.abs(sel.lambdas[:, None] - oracle.eigenvalues[None, :]).min(axis=1)
    margin = float((dist - 10.0 * sel.residuals).max())

    rep_eye = weighted_bauer_fike(0.25, InnerProduct.identity(8))
    rep_diag = weighted_bauer_fike(0.25, InnerProduct.diagonal(np.geomspace(0.1, 10.0, 8)))
    mu_ok = rep_eye.mu2_estimate == 1.0 and rep_diag.mu2_estimate == 1.0
    bound_ok = rep_eye.bound == 0.25 and rep_eye.kappa_assumed

    passed = margin <= 1e-14 and mu_ok and bound_ok
    return CheckResult(
        "spectral-distance-bound",
        passed,
        "%d selected, max (distance - 10 residual) = %.3e, mu2(identity) = %g, mu2(diagonal) = %g"
        % (sel.k, margin, rep_eye.mu2_estimate, rep_diag.mu2_estimate),
    )


# ---------------------------------------------------------------------------
# 10. scaling rescues graded snapshots; corrupted singular values are caught


def check_scaling_rescue(n=1000, m=99, seed=11):
    oracle = make_oracle(n, spectrum="decaying", conditioning=300.0, seed=seed)
    F = trajectory(oracle, _unit_start(n, seed + 5), m)
    X, Y = F.F[:, :-1], F.F[:, 1:]
    policy = RankPolicy.spectral(n * _EPS)

    plain = dmd(X, Y, VariantConfig(policy=policy, scale=False))
    refined = ddmd_rrr(X, Y, VariantConfig(policy=policy, scale=True))
    rank_ok = refined.rank > plain.rank

    # Curve comparison at the shared rank on the same scaled data: this
    # isolates what refinement buys, and domination is then structural.
    shared = dmd(X, Y, VariantConfig(policy=RankPolicy.fixed(refined.rank), scale=True))
    r_refined = np.sort(refined.residuals)
    r_shared = np.sort(shared.residuals)
    curve_ok = bool(np.all(r_refined <= r_shared + 1e-15))

    etas = corrupted_sigma_etas(oracle, F)
    etas = etas[np.isfinite(etas)]
    eta_min = float(etas.min()) if etas.size else np.inf
    eta_ok = eta_min < 1e-4

    passed = rank_ok and curve_ok and eta_ok
    return CheckResult(
        "scaling-rescue",
        passed,
        "k(scaled rrr) = %d vs k(plain dmd) = %d, curve dominated = %s, min corrupted eta = %.1e"
        % (refined.rank, plain.rank, curve_ok, eta_min),
    )


# ---------------------------------------------------------------------------
# 11. the companion factorization reproduces the operator action


def check_companion_identity(seed=811):
    worst = 0.0
    for j, (n, m) in enumerate(((40, 8), (80, 10), (100, 12))):
        oracle = make_oracle(n, spectrum=_band_spectrum(n, 0.6, 0.95, seed + j),
                             conditioning=20.0, seed=seed + j)
        F = trajectory(oracle, _unit_start(n, seed + 100 + j), m)
        comp = companion_decomposition(F)
        X = F.F[:, :-1]
        resid = oracle.A @ X - X @ comp.C
        resid[:, -1] -= comp.r
        bound = 1e-11 * np.linalg.norm(oracle.A, 2) * np.linalg.norm(X, 2)
        worst = max(worst, float(np.linalg.norm(resid, 2) / bound))
    return CheckResult(
        "companion-identity",
        worst <= 1.0,
        "max ||A X - X C - r e_m*|| / bound = %.3e" % (worst,),
    )


# ---------------------------------------------------------------------------


def run_all(n=400, m=79, seed=7):
    """Run every check at a scale derived from (n, m, seed)."""
    family = _instance_family(100, base_seed=seed + 300)
    half = (max(20, n // 2), max(8, m // 2))
    steps = [
        ("residual-identity",
         lambda: check_residual_identity(scales=(half, (n, m)), seed=seed + 100)),
        ("refinement-optimality", lambda: check_refinement_optimality(family)),
        ("rayleigh-optimality", lambda: check_rayleigh_optimality(family)),
        ("quotient-consistency", lambda: check_quotient_consistency(family)),
        ("compression-equivalence",
         lambda: check_compression_equivalence(ns=(min(100, n), n), seed=seed + 200)),
        ("exact-variant-contract", lambda: check_exact_variant(seed=seed + 400)),
        ("fb-consistency", lambda: check_fb_consistency(seed=seed + 2000)),
        ("weighted-reduction", lambda: check_weighted_chain(seed=seed + 600)),
        ("spectral-distance-bound", lambda: check_spectral_distance_bound(seed=seed + 700)),
        ("scaling-rescue", lambda: check_scaling_rescue(n=n, m=m, seed=seed)),
        ("companion-identity", lambda: check_companion_identity(seed=seed + 800)),
    ]
    results = []
    for name, step in steps:
        try:
            results.append(step())
        except Exception as exc:  # a crashed check is a failed check, not a crashed suite
            results.append(CheckResult(name, False, "%s: %s" % (type(exc).__name__, exc)))
    return results
