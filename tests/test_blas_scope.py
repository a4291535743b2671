"""Which computations hold every OpenBLAS at one thread, and what that costs in bits.

The refined pipelines, fb, every tall product, every LAPACK kernel of
:mod:`dmdkit.pod` and every dense weight run inside
``_blas._one_blas_thread``; the quotient of ``dmd`` and ``exact_dmd`` and
the QR that compresses a trajectory, with its lift, do not.
The recompositions here compute the same stages from public functions,
inline and outside the scope, at two and four numpy BLAS threads, and
must match the library bit for bit: the benchmark's traced mode makes
the same comparison.  Fresh processes at one, two and four threads check
which pipelines and reports are byte-identical.
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

import dmdkit
from dmdkit import variants
from dmdkit._blas import _MODULES, _blas_threads, _one_blas_thread
from dmdkit.errors import BackendError, ConditioningError
from dmdkit.inner import InnerProduct
from dmdkit.matrixio import store_matrix
from dmdkit.pod import RankPolicy, default_epsilon, truncated_svd
from dmdkit.ritz import (
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


_NUMPY, _SCIPY = _MODULES


@pytest.fixture
def blas_threads():
    """Numpy's (set, get) BLAS thread functions; the count is restored afterwards."""
    yield from _held_threads(_NUMPY)


@pytest.fixture
def scipy_threads():
    """scipy's (set, get) BLAS thread functions; the count is restored afterwards."""
    yield from _held_threads(_SCIPY)


def _library(module):
    """The (set, get) thread functions of the OpenBLAS ``module`` links; skips where it has none."""
    threads = _blas_threads((module,))
    if not threads:
        pytest.skip("the BLAS of %s exposes no thread setter" % module)
    return threads[0]


def _held_threads(module):
    set_threads, get_threads = _library(module)
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
    seen = _spy_threads(monkeypatch, get_threads, ("_image_into", "_stack_in_place"))
    pipeline(*_pair(*shape))
    assert len(seen) >= 2 and set(seen) == {1}
    assert get_threads() == 2


@pytest.mark.parametrize("pipeline", [dmd, exact_dmd])
def test_dmd_quotient_keeps_the_process_blas_threads(monkeypatch, blas_threads, pipeline):
    set_threads, get_threads = blas_threads
    set_threads(2)
    seen = _spy_threads(monkeypatch, get_threads, ("_image_into", "_quotient"))
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
    seen = _spy_threads(monkeypatch, get_threads, ("_image_into",))
    with pytest.raises(ConditioningError):
        pipeline(*data(_rng(98)))
    # the error left from inside the scope
    assert seen and set(seen) == {1}
    assert get_threads() == 2


def _inline_refined(Gx, Gy, weight=None, scale=True):
    """The refined engine from public stages, every pair refined; numpy's
    eigvals and U @ W are written inline, as the benchmark's trace does."""
    # Unscaled, the library reads column-major copies, whatever the caller's layout.
    pair = SnapshotPair(Gx, Gy) if scale else SnapshotPair(np.asfortranarray(Gx), np.asfortranarray(Gy))
    scaled = scale_columns(pair)[0] if scale else pair
    basis = truncated_svd(scaled.X, RankPolicy.spectral(default_epsilon(*scaled.X.shape)))
    B = action_on_basis(scaled.Y, basis.V, basis.sigma)
    stack = qr_stack(basis.U, B)
    lambdas = np.linalg.eigvals(rayleigh_from_qr(stack)).astype(complex)
    solves = [refine_ritz(stack, lam) for lam in lambdas]
    Z = basis.U @ np.column_stack([w for w, _ in solves])
    if weight is not None:
        Z = weight.lift(Z)
    return lambdas, Z, np.array([sigma for _, sigma in solves])


def _inline_dmd(X, Y, scale=True):
    pair = SnapshotPair(X, Y) if scale else SnapshotPair(np.asfortranarray(X), np.asfortranarray(Y))
    scaled = scale_columns(pair)[0] if scale else pair
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


def _small_pair(kind, dtype):
    """A small pair for the recomposition grid: Gaussian, graded columns, or n just above m."""
    rng = _rng(31)
    n, m = (41, 40) if kind == "square" else (300, 24)

    def draw(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if dtype is complex else g

    X, Y = draw(n, m), draw(n, m)
    if kind == "graded":
        d = np.geomspace(1.0, 1e-10, m)[None, :]  # unscaled, the POD takes the pivoted QR
        X, Y = X * d, 0.5 * np.roll(X * d, 1, axis=0) + 1e-3 * Y * d
    return X, Y


@pytest.mark.parametrize("scale", [True, False], ids=["scaled", "unscaled"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("kind", ["gaussian", "graded", "square"])
def test_pipelines_are_the_public_stage_recomposition_bit_for_bit(kind, dtype, scale):
    # The recompositions of bench/tracing.py, on small pairs: the library
    # runs its stages in place, and must round as the public stages do.
    X, Y = _small_pair(kind, dtype)
    config = VariantConfig(scale=scale)
    M = InnerProduct.diagonal(np.linspace(0.5, 2.0, len(X)))
    _assert_same_bits(ddmd_rrr(X, Y, config), *_inline_refined(X, Y, scale=scale))
    _assert_same_bits(weighted_dmd(X, Y, M, config),
                      *_inline_refined(M.transform(X), M.transform(Y), weight=M, scale=scale))
    _assert_same_bits(dmd(X, Y, config), *_inline_dmd(X, Y, scale=scale)[:3])


def _spy_lapack(monkeypatch, get_threads):
    """Record (kernel, scipy's BLAS thread count) at each LAPACK call of dmdkit.

    The kernels reached through ``get_lapack_funcs`` are named by LAPACK
    routine; ``svd`` and ``qr`` by function, a pivoted QR as ``qr-pivoted``.
    """
    seen = []

    def watch(name, kernel):
        def call(*args, **kwargs):
            seen.append((name, get_threads()))
            return kernel(*args, **kwargs)
        return call

    get_funcs = scipy.linalg.get_lapack_funcs
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs",
                        lambda names, *args, **kwargs: [watch(name, f) for name, f in
                                                        zip(names, get_funcs(names, *args, **kwargs))])
    for name in ("svd", "qr"):
        def call(*args, _kernel=getattr(scipy.linalg, name), _name=name, **kwargs):
            seen.append((_name + ("-pivoted" if kwargs.get("pivoting") else ""), get_threads()))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, call)
    return seen


def _graded_pod(X, Y):
    # column norms over 12 decades: the POD takes the pivoted QR first
    return truncated_svd(X[:, :10] * np.geomspace(1.0, 1e-12, 10)[None, :], RankPolicy.fixed(10))


@pytest.mark.parametrize("pipeline, kernels", [
    pytest.param(lambda X, Y: dmd(X, Y), {"geqrt", "gemqrt", "svd"}, id="dmd"),
    pytest.param(lambda X, Y: exact_dmd(X, Y), {"geqrt", "gemqrt", "svd"}, id="exact_dmd"),
    pytest.param(lambda X, Y: ddmd_rrr(X, Y), {"geqrt", "gemqrt", "svd"}, id="ddmd_rrr"),
    pytest.param(lambda X, Y: ddmd_rrr_compressed(SnapshotPair(X, Y)), {"geqrt", "gemqrt", "svd"},
                 id="ddmd_rrr_compressed-pair"),
    pytest.param(lambda X, Y: weighted_dmd(X, Y, InnerProduct.diagonal(np.linspace(1, 2, len(X)))),
                 {"geqrt", "gemqrt", "svd"}, id="weighted_dmd"),
    pytest.param(lambda X, Y: two_sided_weighted_dmd(X, Y, InnerProduct.diagonal(np.linspace(1, 2, len(X))),
                                                     _N_WEIGHT), {"geqrt", "gemqrt", "svd"},
                 id="two_sided_weighted_dmd"),
    pytest.param(lambda X, Y: fb_dmd_mrf(X, Y), {"geqrt", "gemqrt", "svd"}, id="fb_dmd_mrf"),
    pytest.param(_graded_pod, {"qr-pivoted", "svd"}, id="pivoted-pod"),
])
def test_lapack_kernels_run_on_one_scipy_thread(monkeypatch, scipy_threads, pipeline, kernels):
    set_threads, get_threads = scipy_threads
    set_threads(2)
    seen = _spy_lapack(monkeypatch, get_threads)
    pipeline(*_pair(200, 30))
    assert {name for name, _ in seen} == kernels
    assert {count for _, count in seen} == {1}
    assert get_threads() == 2


@pytest.mark.parametrize("orientation", ["M", "M-inverse"])
def test_dense_weight_kernels_run_on_one_scipy_thread(monkeypatch, scipy_threads, orientation):
    set_threads, get_threads = scipy_threads
    set_threads(2)
    seen = []
    for name in ("cholesky", "solve_triangular"):
        def call(*args, _kernel=getattr(scipy.linalg, name), _name=name, **kwargs):
            seen.append((_name, get_threads()))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, call)
    M = InnerProduct.from_matrix(_spd(50, 27), orientation)
    M.lift(M.transform(np.ones((50, 3))))
    assert seen == [("cholesky", 1), ("solve_triangular", 1)]
    assert get_threads() == 2


def test_trajectory_qr_keeps_the_process_scipy_threads(monkeypatch, scipy_threads):
    set_threads, get_threads = scipy_threads
    set_threads(2)
    seen = _spy_lapack(monkeypatch, get_threads)
    X, Y = _pair(200, 30)
    ddmd_rrr_compressed(np.column_stack([X, Y[:, -1]]))
    assert seen[0] == ("qr", 2)
    assert {name for name, _ in seen[1:]} == {"geqrt", "gemqrt", "svd"}
    assert {count for _, count in seen[1:]} == {1}
    assert get_threads() == 2


@pytest.mark.parametrize("module", _MODULES, ids=["numpy", "scipy"])
@pytest.mark.parametrize("error", [ConditioningError, BackendError])
def test_scope_restores_the_count_after_nesting_and_errors(module, error):
    set_threads, get_threads = _library(module)
    before = get_threads()
    set_threads(2)
    try:
        with _one_blas_thread:
            with _one_blas_thread:
                assert get_threads() == 1
            assert get_threads() == 1
        assert get_threads() == 2
        with pytest.raises(error):
            with _one_blas_thread:
                with _one_blas_thread:
                    raise error("left from inside two scopes")
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_a_failed_kernel_restores_scipys_count(monkeypatch, scipy_threads):
    set_threads, get_threads = scipy_threads
    set_threads(2)
    seen = []

    def failing_svd(*args, **kwargs):
        seen.append(get_threads())
        raise scipy.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(scipy.linalg, "svd", failing_svd)
    with pytest.raises(BackendError):
        truncated_svd(_pair(200, 30)[0])
    assert seen == [1]
    assert get_threads() == 2


def test_scopes_on_one_library_share_the_count(blas_threads):
    # Two modules that link one library, as where numpy and scipy link the
    # same OpenBLAS, yield one setter pair, so the scope saves its count once.
    assert len(_blas_threads((_NUMPY, _NUMPY))) == 1
    # Scopes held from two Python threads: the last one out restores the
    # count, whichever it is.
    set_threads, get_threads = blas_threads
    set_threads(2)
    first_in, first_out = threading.Event(), threading.Event()
    seen = []

    def hold_first():
        with _one_blas_thread:
            first_in.set()
            first_out.wait(30)

    worker = threading.Thread(target=hold_first)
    worker.start()
    assert first_in.wait(30)
    with _one_blas_thread:
        first_out.set()
        worker.join(30)
        seen.append(get_threads())
    assert not worker.is_alive()
    assert seen == [1]
    assert get_threads() == 2


# Run in a fresh process with the stored inputs in argv[1]; writes the
# reports to the working directory and prints the hashes as JSON.
_PIPELINE_HASHES = """
import hashlib, json, os, sys
import numpy as np
from dmdkit import (InnerProduct, SnapshotPair, action_on_basis, ddmd_rrr, ddmd_rrr_compressed, fb_dmd_mrf,
                    load_matrix, two_sided_weighted_dmd, weighted_dmd)
from dmdkit._blas import _MODULES, _blas_threads
from dmdkit.cli import main
from dmdkit.ritz import _lift

x, y, w, wn, xd, yd, g, gn = (os.path.join(sys.argv[1], name + ".dmm")
                              for name in ("X", "Y", "w", "wn", "Xd", "Yd", "G", "Gn"))
X, Y, Xd, Yd = (load_matrix(path) for path in (x, y, xd, yd))
M = InnerProduct.diagonal(load_matrix(w)[:, 0])
N = InnerProduct.diagonal(load_matrix(wn)[:, 0])
Md, Nd = InnerProduct.from_matrix(load_matrix(g)), InnerProduct.from_matrix(load_matrix(gn))
Md_inverse = InnerProduct.from_matrix(load_matrix(g), "M-inverse")
digest = lambda a: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
out = {"threads": [t and t[0][1]() for t in (_blas_threads((module,)) for module in _MODULES)],
       "from_matrix": digest(Md.factor)}
for name, dec in (("ddmd_rrr", ddmd_rrr(X, Y)), ("weighted_dmd", weighted_dmd(X, Y, M)),
                  ("two_sided_weighted_dmd", two_sided_weighted_dmd(X, Y, M, N)),
                  ("fb_dmd_mrf", fb_dmd_mrf(X, Y)[0]),
                  ("ddmd_rrr_compressed-pair", ddmd_rrr_compressed(SnapshotPair(X, Y))),
                  ("weighted_dmd-dense", weighted_dmd(Xd, Yd, Md)),
                  ("weighted_dmd-dense-inverse", weighted_dmd(Xd, Yd, Md_inverse)),
                  ("two_sided_weighted_dmd-dense", two_sided_weighted_dmd(Xd, Yd, Md, Nd))):
    out[name] = [digest(a) for a in (dec.lambdas, dec.vectors, dec.residuals)]
# the tall products on row-major, column-major and complex operands; the small factors are formed elementwise
V = np.sin(np.arange(40 * 12.0)).reshape(40, 12)
W = V + 1j * np.cos(np.arange(40 * 12.0)).reshape(40, 12)
for layout, A in (("C", np.ascontiguousarray(X)), ("F", np.asfortranarray(X)), ("complex", X + 1j * Y)):
    out["action_on_basis-" + layout] = digest(action_on_basis(A, V, np.linspace(1.0, 2.0, 12)))
    out["_lift-" + layout] = digest(_lift(A, W))
for name, pair, variant, weights in (
        ("rrr", (x, y), "rrr", []), ("rrr-compressed", (x, y), "rrr-compressed", []), ("fb", (x, y), "fb", []),
        ("weighted", (x, y), "weighted", ["--weight", w]),
        ("weighted2", (x, y), "weighted2", ["--weight", w, "--weight-n", wn]),
        ("weighted-dense", (xd, yd), "weighted", ["--weight", g]),
        ("weighted2-dense", (xd, yd), "weighted2", ["--weight", g, "--weight-n", gn])):
    report = "report-%s.json" % name
    argv = ["decompose", "--x", pair[0], "--y", pair[1], "--variant", variant, "--out", report]
    assert main(argv + weights) == 0
    with open(report, "rb") as fh:
        out["decompose-" + name] = hashlib.sha256(fh.read()).hexdigest()
json.dump(out, sys.stdout)
"""


def _spd(n, seed):
    """A dense symmetric positive definite Gram matrix of order n."""
    A = _rng(seed).standard_normal((n, n))
    return A @ A.T / n + np.eye(n)


def test_scoped_pipelines_and_reports_do_not_depend_on_blas_threads(tmp_path):
    # The inputs are stored first, so they do not depend on the thread count.
    X, Y = _pair(6000, 40, seed=23)
    store_matrix(X, tmp_path / "X.dmm")
    store_matrix(Y, tmp_path / "Y.dmm")
    store_matrix(np.geomspace(0.5, 2.0, len(X))[:, None], tmp_path / "w.dmm")
    store_matrix(np.linspace(1.0, 0.5, X.shape[1])[:, None], tmp_path / "wn.dmm")
    # dense weights: a Cholesky, products and solves large enough for OpenBLAS to split them over threads
    Xd, Yd = _pair(600, 40, seed=24)
    store_matrix(Xd, tmp_path / "Xd.dmm")
    store_matrix(Yd, tmp_path / "Yd.dmm")
    store_matrix(_spd(600, 25), tmp_path / "G.dmm")
    store_matrix(_spd(40, 26), tmp_path / "Gn.dmm")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmdkit.__file__)))
    runs = {}
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        work = tmp_path / threads
        work.mkdir()
        runs[threads] = subprocess.Popen([sys.executable, "-c", _PIPELINE_HASHES, str(tmp_path)], cwd=work,
                                         env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    hashes, counts = {}, {}
    for threads, proc in runs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        hashes[threads] = json.loads(out)
        counts[threads] = hashes[threads].pop("threads")
    # the setting took effect (OpenBLAS caps it at the number of cores)
    if all(_blas_threads((module,)) for module in _MODULES):
        assert counts["1"] == [1, 1]
        if len(os.sched_getaffinity(0)) > 1:
            assert counts["2"] == [2, 2]
    assert len(hashes["1"]) == 22
    assert hashes["1"] == hashes["2"] == hashes["4"]
