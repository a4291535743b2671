"""Which pipelines hold numpy's OpenBLAS at one thread, and what that costs in bits.

The refined pipelines and fb run under ``ritz._one_blas_thread``; ``dmd``
and ``exact_dmd`` do not.  The recompositions here compute the same
stages from public functions, inline and outside any scope, at two and
four numpy BLAS threads, and must match the library bit for bit: the
benchmark's traced mode makes the same comparison.
"""

import numpy as np
import pytest

from dmdkit import variants
from dmdkit.errors import ConditioningError
from dmdkit.inner import InnerProduct
from dmdkit.pod import RankPolicy, default_epsilon, truncated_svd
from dmdkit.ritz import (
    _numpy_blas_threads,
    action_on_basis,
    data_driven_residuals,
    order_pairs,
    qr_stack,
    rayleigh_from_qr,
    refine_ritz,
    ritz_pairs,
)
from dmdkit.snapshots import SnapshotPair, scale_columns
from dmdkit.variants import (
    VariantConfig,
    ddmd_rrr,
    ddmd_rrr_compressed,
    dmd,
    exact_dmd,
    fb_dmd_mrf,
)
from dmdkit.weighted import two_sided_weighted_dmd, weighted_dmd


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _pair(n, m, seed=21):
    """A graded pair of m snapshots from a stable operator on r = m + 8 dimensions of R^n."""
    rng = _rng(seed)
    r = m + 8
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    A = rng.standard_normal((r, r))
    A *= 0.95 / np.abs(np.linalg.eigvals(A)).max()
    G = rng.standard_normal((r, m)) * np.geomspace(1.0, 1e-3, m)[None, :]
    return Q @ G, Q @ (A @ G)


@pytest.fixture
def blas_threads():
    """Numpy's (set, get) BLAS thread functions; the count is restored afterwards."""
    threads = _numpy_blas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no thread setter")
    set_threads, get_threads = threads
    before = get_threads()
    yield set_threads, get_threads
    set_threads(before)


def _spy_threads(monkeypatch, get_threads, names):
    """Record numpy's BLAS thread count at each call of the named variants stages."""
    seen = []
    for name in names:
        def spy(*args, _stage=getattr(variants, name), **kwargs):
            seen.append(get_threads())
            return _stage(*args, **kwargs)

        monkeypatch.setattr(variants, name, spy)
    return seen


_N_WEIGHT = InnerProduct.diagonal(np.geomspace(1.0, 0.25, 30))


@pytest.mark.parametrize("pipeline, shape", [
    pytest.param(lambda X, Y: ddmd_rrr(X, Y), (200, 30), id="ddmd_rrr"),
    pytest.param(lambda X, Y: ddmd_rrr(X, Y, VariantConfig(refine="none")), (200, 30), id="ddmd_rrr-none"),
    pytest.param(lambda X, Y: ddmd_rrr_compressed(SnapshotPair(X, Y)), (200, 30), id="ddmd_rrr_compressed"),
    pytest.param(lambda X, Y: weighted_dmd(X, Y, InnerProduct.diagonal(np.linspace(1, 2, len(X)))), (200, 30),
                 id="weighted_dmd"),
    pytest.param(lambda X, Y: two_sided_weighted_dmd(X, Y, InnerProduct.diagonal(np.linspace(1, 2, len(X))),
                                                     _N_WEIGHT), (200, 30), id="two_sided_weighted_dmd"),
    pytest.param(lambda X, Y: fb_dmd_mrf(X, Y), (200, 30), id="fb_dmd_mrf"),
])
def test_refined_pipelines_and_fb_run_on_one_blas_thread(monkeypatch, blas_threads, pipeline, shape):
    set_threads, get_threads = blas_threads
    set_threads(2)
    seen = _spy_threads(monkeypatch, get_threads, ("action_on_basis", "qr_stack"))
    pipeline(*_pair(*shape))
    assert len(seen) >= 2 and set(seen) == {1}
    assert get_threads() == 2


@pytest.mark.parametrize("pipeline", [dmd, exact_dmd])
def test_dmd_quotient_keeps_the_process_blas_threads(monkeypatch, blas_threads, pipeline):
    set_threads, get_threads = blas_threads
    set_threads(2)
    seen = _spy_threads(monkeypatch, get_threads, ("action_on_basis", "_quotient"))
    pipeline(*_pair(200, 30))
    assert len(seen) == 2 and set(seen) == {2}


def _overflowing_image(rng):
    # finite data whose B_k = Y V Sigma^-1 exceeds the double range
    return 1e-200 * rng.standard_normal((40, 8)), 1e150 * rng.standard_normal((40, 8))


def _rank_one_output(rng):
    # the backward POD of a rank-one Y cannot support the forward rank 8
    X = rng.standard_normal((40, 8))
    return X, np.outer(X[:, 0], np.ones(8))


@pytest.mark.parametrize("pipeline, data", [
    pytest.param(lambda X, Y: ddmd_rrr(X, Y), _overflowing_image, id="ddmd_rrr"),
    pytest.param(lambda X, Y: weighted_dmd(X, Y, InnerProduct.identity(len(X))), _overflowing_image,
                 id="weighted_dmd"),
    pytest.param(lambda X, Y: fb_dmd_mrf(X, Y), _overflowing_image, id="fb_dmd_mrf-forward"),
    pytest.param(lambda X, Y: fb_dmd_mrf(X, Y), _rank_one_output, id="fb_dmd_mrf-backward"),
])
def test_blas_threads_are_restored_after_a_conditioning_error(monkeypatch, blas_threads, pipeline, data):
    set_threads, get_threads = blas_threads
    set_threads(2)
    seen = _spy_threads(monkeypatch, get_threads, ("action_on_basis",))
    with pytest.raises(ConditioningError):
        pipeline(*data(_rng(98)))
    # the error left from inside the scope
    assert seen and set(seen) == {1}
    assert get_threads() == 2


def _inline_refined(Gx, Gy, weight=None):
    """The refined engine from public stages, every pair refined; numpy's
    eigvals and U @ W are written inline, as the benchmark's trace does."""
    scaled, _ = scale_columns(SnapshotPair(Gx, Gy))
    basis = truncated_svd(scaled.X, RankPolicy.spectral(default_epsilon(*scaled.X.shape)))
    B = action_on_basis(scaled.Y, basis.V, basis.sigma)
    stack = qr_stack(basis.U, B)
    lambdas = np.linalg.eigvals(rayleigh_from_qr(stack)).astype(complex)
    solves = [refine_ritz(stack, lam) for lam in lambdas]
    Z = basis.U @ np.column_stack([w for w, _ in solves])
    if weight is not None:
        Z = weight.lift(Z)
    return lambdas, Z, np.array([sigma for _, sigma in solves])


def _inline_dmd(X, Y):
    scaled, _ = scale_columns(SnapshotPair(X, Y))
    Xs, Ys = scaled.X, scaled.Y
    basis = truncated_svd(Xs, RankPolicy.spectral(default_epsilon(*Xs.shape)))
    S = ((basis.U.conj().T @ Ys) @ basis.V) / basis.sigma[None, :]
    lambdas, W, Z = ritz_pairs(S, basis.U)
    residuals = data_driven_residuals(action_on_basis(Ys, basis.V, basis.sigma), basis.U, W, lambdas)
    return lambdas, Z, residuals, (basis, Ys, S)


def _assert_same_bits(dec, lambdas, Z, residuals):
    perm = order_pairs(residuals, lambdas)
    assert np.array_equal(dec.ordering, perm)
    assert np.array_equal(dec.lambdas, lambdas[perm])
    assert np.array_equal(dec.vectors, Z[:, perm])
    assert np.array_equal(dec.residuals, residuals[perm])


@pytest.mark.parametrize("threads", [2, 4])
def test_library_matches_the_inline_recomposition_bit_for_bit(blas_threads, threads):
    set_threads, get_threads = blas_threads
    set_threads(threads)
    assert get_threads() == threads
    X, Y = _pair(4000, 60)
    M = InnerProduct.diagonal(_rng(22).uniform(0.5, 2.0, len(X)))

    _assert_same_bits(ddmd_rrr(X, Y), *_inline_refined(X, Y))
    _assert_same_bits(weighted_dmd(X, Y, M), *_inline_refined(M.transform(X), M.transform(Y), weight=M))

    lambdas, Z, residuals, (basis, Ys, S) = _inline_dmd(X, Y)
    assert np.array_equal(variants._quotient(basis, Ys)[0], S)
    _assert_same_bits(dmd(X, Y), lambdas, Z, residuals)
