"""Modal decomposition in elliptic inner products, with error bounds.

The weighted pipelines transform the data first (L* X for geometry M, or
L^{-1} X for the inverse orientation) and run the ordinary Euclidean
pipeline on the result; only the Ritz vectors are lifted back, through
factor solves, at the end.  Residuals are therefore reported in the
weighted norm by construction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .inner import _require_weight
from .snapshots import SnapshotPair
from .variants import VariantConfig, _check_config, _compressed_pair, _rrr_pipeline

__all__ = [
    "BoundReport",
    "weighted_dmd",
    "two_sided_weighted_dmd",
    "weighted_bauer_fike",
]


@dataclass(frozen=True)
class BoundReport:
    """Evaluated eigenvalue perturbation bound in a weighted geometry.

    ``bound`` caps the distance from a perturbed eigenvalue to the true
    spectrum: sqrt(mu2) * kappa * residual.  ``mu2_estimate`` is the
    condition number of the weight after unit-diagonal equilibration, an
    upper proxy for the infimum over all diagonal equilibrations; exactly
    1 for diagonal weights.  ``kappa_M_S`` is the weighted eigenbasis
    condition number; it cannot be observed from data, so when no value
    is supplied it is taken as 1 (weighted-normal operator) and the
    ``kappa_assumed`` flag says so.
    """

    residual_M: float
    mu2_estimate: float
    kappa_M_S: float
    kappa_assumed: bool
    bound: float
    relative_residual_M: float | None = None
    relative_bound: float | None = None


def weighted_dmd(X, Y, M, config=VariantConfig()):
    """Refined decomposition in the geometry induced by ``M``.

    The SVD runs on the transformed snapshots; the Rayleigh quotient is
    the transformed-basis compression and the residuals are weighted
    norms.  Returned vectors are lifted to ambient coordinates and have
    unit weighted norm.  Column scaling, when enabled, equilibrates the
    transformed matrix, which is the one entering the SVD.
    """
    _check_config(config, "weighted_dmd")
    pair = SnapshotPair(X, Y)
    M = _require_weight(M, "M")
    return _rrr_pipeline(pair.X, pair.Y, config, "weighted", weight=M)


def two_sided_weighted_dmd(X, Y, M, N, config=VariantConfig()):
    """Decomposition weighted on both the state and the snapshot index.

    ``M`` acts on state space (rows), ``N`` on the snapshot index space
    (columns, e.g. forgetting factors).  The pipeline is ordinary DMD of
    the doubly transformed pair, run on the compressed route: M's images
    of X and Y are factored by one Householder QR, N acts on the blocks
    R_x and R_y of its triangular factor (M X K = Q (R_x K)), and the
    vectors are lifted through Q and then through M.  With ``N = I`` it
    reduces to :func:`weighted_dmd` up to roundoff.
    """
    _check_config(config, "two_sided_weighted_dmd")
    pair = SnapshotPair(X, Y)
    M = _require_weight(M, "M")
    N = _require_weight(N, "N")
    return _compressed_pair(pair, config, lambda Rx, Ry, c: (
        _rrr_pipeline(N.transform_right(Rx), N.transform_right(Ry), c, "weighted2"),), weight=M)[0]


def weighted_bauer_fike(residual_M, M, kappa_assumption=None, relative_residual_M=None):
    """Evaluate the weighted eigenvalue perturbation bound.

    ``residual_M`` is the weighted residual norm of the pair being
    audited.  The weight's contribution enters through mu2, the condition
    number of the unit-diagonal equilibrated Gram matrix; the infimum over
    all positive diagonal equilibrations is not computed, so the reported
    value is an upper estimate (exact, and equal to 1, for diagonal
    weights).  Supplying ``relative_residual_M`` additionally evaluates
    the relative-form bound with the same conditioning factors.
    """
    residual_M = float(residual_M)
    if not (residual_M >= 0.0) or not np.isfinite(residual_M):
        raise DataError("residual_M must be a finite nonnegative real")
    M = _require_weight(M, "M")

    if M.factor.ndim == 1:
        mu2 = 1.0
    else:
        G = M.gram_matrix()
        d = np.real(np.diagonal(G)).copy()
        if np.any(d <= 0.0):
            raise DataError("invalid weight: non-positive diagonal after equilibration")
        scale = 1.0 / np.sqrt(d)
        C = G * scale[:, None] * scale[None, :]
        try:
            ev = np.linalg.eigvalsh(0.5 * (C + C.conj().T))
        except np.linalg.LinAlgError as exc:
            raise DataError("invalid weight: equilibrated matrix has no eigendecomposition") from exc
        if ev[0] <= 0.0:
            raise DataError("invalid weight: equilibrated matrix is not positive definite")
        mu2 = float(ev[-1] / ev[0])

    if kappa_assumption is None:
        kappa, assumed = 1.0, True
    else:
        kappa = float(kappa_assumption)
        if not (kappa >= 1.0):
            raise DataError("kappa_assumption must be >= 1")
        assumed = False

    bound = float(np.sqrt(mu2) * kappa * residual_M)
    rel = None
    rel_bound = None
    if relative_residual_M is not None:
        rel = float(relative_residual_M)
        if not (rel >= 0.0) or not np.isfinite(rel):
            raise DataError("relative_residual_M must be a finite nonnegative real")
        rel_bound = float(np.sqrt(mu2) * kappa * rel)
    return BoundReport(
        residual_M=residual_M,
        mu2_estimate=mu2,
        kappa_M_S=kappa,
        kappa_assumed=assumed,
        bound=bound,
        relative_residual_M=rel,
        relative_bound=rel_bound,
    )
