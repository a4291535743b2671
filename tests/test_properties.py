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
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdkit.inner import InnerProduct
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


@st.composite
def _pairs(draw, shape):
    """(X, Y, rng) of one of ``_SHAPES``; "wide" means n < m."""
    if shape == "tall":
        m = draw(st.integers(2, 8))
        n = draw(st.integers(m + 1, 30))
    elif shape == "wide":
        n = draw(st.integers(2, 6))
        m = draw(st.integers(n + 1, 14))
    elif shape == "n=1":
        n, m = 1, draw(st.integers(1, 6))
    elif shape == "m=1":
        n, m = draw(st.integers(2, 20)), 1
    else:
        n, m = draw(st.integers(3, 20)), draw(st.integers(2, 8))
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
