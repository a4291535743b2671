"""Invariants of every pipeline over random data of every shape.

Each property runs on every shape in ``_SHAPES``; Hypothesis draws the
sizes and a seed.  The data are Y = A X for a random operator A, so the
residuals depend only on A and the subspace spanned by X.  Each property
compares two runs that agree in exact arithmetic, matching Ritz values
one to one.  Ritz values and residuals must agree within ``_TOL`` times
the largest Ritz value modulus or residual (at least 1); over 1500
random draws of these shapes the largest difference seen for
``ddmd_rrr`` was 4e-14.

The refined pipeline has its own tests below; ``_PIPELINES`` carries the
others through the same change of coordinates and column scaling.
``exact_dmd`` certifies no residuals, so only its Ritz values are
compared, and ``fb_dmd_mrf`` is compared on both its product spectrum
omega and its signed square roots.  Over 150 draws per test the largest
difference seen was 7e-13, for ``fb_dmd_mrf`` on tall data (it solves
with the backward quotient); for every other pipeline it was 5e-14.

``fb_dmd_mrf`` runs on the triangular factor of one QR of [X Y]; its
last property compares it with the same engine run on (X, Y) itself.
Over 2000 random draws of its cases the largest difference seen was
7.5e-13, for omega on wide data at a fixed rank.
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdkit import variants
from dmdkit.inner import InnerProduct
from dmdkit.pod import RankPolicy, default_epsilon
from dmdkit.snapshots import SnapshotPair
from dmdkit.variants import (
    VariantConfig,
    ddmd_rrr,
    ddmd_rrr_auto,
    ddmd_rrr_compressed,
    dmd,
    exact_dmd,
    fb_dmd_mrf,
)
from dmdkit.weighted import weighted_dmd

_TOL = 1e-11

_SHAPES = ["tall", "wide", "n=1", "m=1", "rank-1"]

_properties = settings(derandomize=True, deadline=None, database=None, max_examples=20)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _size(draw, shape):
    """(n, m) of one of ``_SHAPES``; "wide" means n < m."""
    if shape == "tall":
        m = draw(st.integers(2, 8))
        return draw(st.integers(m + 1, 30)), m
    if shape == "wide":
        n = draw(st.integers(2, 6))
        return n, draw(st.integers(n + 1, 14))
    if shape == "n=1":
        return 1, draw(st.integers(1, 6))
    if shape == "m=1":
        return draw(st.integers(2, 20)), 1
    return draw(st.integers(3, 20)), draw(st.integers(2, 8))


@st.composite
def _pairs(draw, shape):
    """(X, Y, rng) of one of ``_SHAPES``."""
    n, m = _size(draw, shape)
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    if shape == "rank-1":
        X = np.outer(rng.standard_normal(n), rng.standard_normal(m))
    else:
        X = rng.standard_normal((n, m))
    return X, A @ X, rng


def _assert_matched(values, residuals, ref_values, ref_residuals):
    """Match ``values`` to ``ref_values`` one to one; compare both within tolerance."""
    assert values.shape == ref_values.shape
    scale = max(1.0, np.abs(ref_values).max())
    if ref_residuals is not None:
        scale = max(scale, ref_residuals.max())
    cost = np.abs(values[:, None] - ref_values[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= _TOL * scale
    if ref_residuals is not None:
        assert np.abs(residuals[rows] - ref_residuals[cols]).max() <= _TOL * scale


def _assert_same_spectrum(dec, ref):
    assert dec.k == ref.k
    _assert_matched(dec.lambdas, dec.residuals, ref.lambdas, ref.residuals)


def _certified(dec):
    return [(dec.lambdas, dec.residuals)]


def _fb(X, Y, M, config):
    dec, fb = fb_dmd_mrf(X, Y, config)
    return [(fb.omegas, None), (dec.lambdas, dec.residuals)]


# Each entry maps (X, Y, weight, config) to the (values, residuals) pairs
# the property compares; residuals are None where nothing is certified.
_PIPELINES = {
    "dmd": lambda X, Y, M, config: _certified(dmd(X, Y, config)),
    "exact_dmd": lambda X, Y, M, config: [(exact_dmd(X, Y, config).lambdas, None)],
    "fb_dmd_mrf": _fb,
    "compressed": lambda X, Y, M, config: _certified(ddmd_rrr_compressed(SnapshotPair(X, Y), config)),
    "auto": lambda X, Y, M, config: _certified(ddmd_rrr_auto(SnapshotPair(X, Y), config)),
    "weighted": lambda X, Y, M, config: _certified(weighted_dmd(X, Y, M, config)),
}


def _assert_same_outputs(outputs, reference):
    assert len(outputs) == len(reference)
    for (values, residuals), (ref_values, ref_residuals) in zip(outputs, reference):
        _assert_matched(values, residuals, ref_values, ref_residuals)


def _gram(rng, n):
    """A well-conditioned symmetric positive definite weight matrix."""
    C = rng.standard_normal((n, n))
    return C @ C.T / n + np.eye(n)


@pytest.mark.parametrize("shape", _SHAPES)
@_properties
@given(data=st.data())
def test_unitary_change_of_coordinates_keeps_the_spectrum(shape, data):
    X, Y, rng = data.draw(_pairs(shape))
    scale = data.draw(st.booleans())
    Q, _ = np.linalg.qr(rng.standard_normal((X.shape[0], X.shape[0])))
    config = VariantConfig(scale=scale)
    _assert_same_spectrum(ddmd_rrr(Q @ X, Q @ Y, config), ddmd_rrr(X, Y, config))


@pytest.mark.parametrize("shape", _SHAPES)
@_properties
@given(data=st.data())
def test_column_scaling_is_undone_by_scale(shape, data):
    X, Y, rng = data.draw(_pairs(shape))
    d = 10.0 ** rng.uniform(-6, 6, X.shape[1])
    _assert_same_spectrum(ddmd_rrr(X * d, Y * d), ddmd_rrr(X, Y))


@pytest.mark.parametrize("shape", _SHAPES)
@_properties
@given(data=st.data())
def test_compressed_route_matches_direct(shape, data):
    X, Y, _ = data.draw(_pairs(shape))
    scale = data.draw(st.booleans())
    config = VariantConfig(scale=scale)
    _assert_same_spectrum(ddmd_rrr_compressed(SnapshotPair(X, Y), config), ddmd_rrr(X, Y, config))


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("pipeline", sorted(_PIPELINES))
@_properties
@given(data=st.data())
def test_every_pipeline_keeps_its_spectrum_under_a_unitary_change(pipeline, shape, data):
    X, Y, rng = data.draw(_pairs(shape))
    scale = data.draw(st.booleans())
    n = X.shape[0]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = _gram(rng, n)
    QMQ = Q @ M @ Q.T
    run = _PIPELINES[pipeline]
    config = VariantConfig(scale=scale)
    _assert_same_outputs(
        run(Q @ X, Q @ Y, InnerProduct.from_matrix((QMQ + QMQ.T) / 2), config),
        run(X, Y, InnerProduct.from_matrix(M), config),
    )


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("pipeline", sorted(_PIPELINES))
@_properties
@given(data=st.data())
def test_every_pipeline_undoes_column_scaling(pipeline, shape, data):
    X, Y, rng = data.draw(_pairs(shape))
    d = 10.0 ** rng.uniform(-6, 6, X.shape[1])
    M = InnerProduct.from_matrix(_gram(rng, X.shape[0]))
    run = _PIPELINES[pipeline]
    _assert_same_outputs(run(X * d, Y * d, M, VariantConfig()), run(X, Y, M, VariantConfig()))


@pytest.mark.parametrize("shape", _SHAPES)
@_properties
@given(data=st.data())
def test_auto_route_matches_direct(shape, data):
    X, Y, _ = data.draw(_pairs(shape))
    scale = data.draw(st.booleans())
    config = VariantConfig(scale=scale)
    _assert_same_spectrum(ddmd_rrr_auto(SnapshotPair(X, Y), config), ddmd_rrr(X, Y, config))


@st.composite
def _fb_cases(draw, shape):
    """(X, Y, A, config) with Y = A X exactly, real or complex, X's columns graded over 0 or 3 decades.

    A = I/2 + 2/5 O for a random orthogonal or unitary O is normal with
    singular values in [0.1, 0.9], so the backward POD always supports
    the forward rank.  The config scales or not, at the default threshold
    or at a fixed rank.
    """
    n, m = _size(draw, shape)
    complex_valued = draw(st.booleans())
    decades = draw(st.sampled_from([0, 3]))
    rank = draw(st.none() | st.integers(1, min(n, m)))
    config = VariantConfig(policy=RankPolicy.fixed(rank) if rank else None, scale=draw(st.booleans()))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if complex_valued else g

    O, _ = np.linalg.qr(gaussian(n, n))
    A = 0.5 * np.eye(n) + 0.4 * O
    X = gaussian(n, m) * np.geomspace(1.0, 10.0**-decades, m)[None, :]
    return X, A @ X, A, config


@pytest.mark.parametrize("shape", ["tall", "wide", "n=1", "m=1"])
@_properties
@given(data=st.data())
def test_compressed_fb_matches_its_engine_on_the_raw_pair(shape, data):
    X, Y, A, config = data.draw(_fb_cases(shape))
    ref, ref_fb = variants._fb_engine(X, Y, VariantConfig(
        policy=config.policy or RankPolicy.spectral(default_epsilon(*X.shape)), scale=config.scale))
    dec, fb = fb_dmd_mrf(X, Y, config)
    assert dec.rank == ref.rank and dec.variant == ref.variant == "fb"
    # One matching of the Ritz values carries over to omega and the evidence.
    scale = max(1.0, np.abs(ref.lambdas).max())
    cost = np.abs(dec.lambdas[:, None] - ref.lambdas[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= _TOL * scale
    assert np.abs(fb.omegas[rows] - ref_fb.omegas[cols]).max() <= _TOL * scale**2
    assert np.abs(dec.residuals[rows] - ref.residuals[cols]).max() <= _TOL * scale
    assert np.abs(fb.sign_evidence[rows] - ref_fb.sign_evidence[cols]).max() <= _TOL * scale
    # The lifted vectors are unit vectors whose true residual is the certificate.
    Z = dec.vectors
    assert Z.shape == (X.shape[0], dec.k) and Z.flags.f_contiguous
    np.testing.assert_allclose(np.linalg.norm(Z, axis=0), 1.0, rtol=0, atol=1e-12)
    true = np.linalg.norm(A @ Z - Z * dec.lambdas[None, :], axis=0)
    np.testing.assert_allclose(true, dec.residuals, rtol=0, atol=_TOL * scale)
