"""Property tests of the two-sample metric axioms on small random point sets.

For the Sinkhorn divergence and the RBF MMD: the value is non-negative,
symmetric in its arguments, and about zero when both inputs are the same
set.  The Sinkhorn solver stops at a relative marginal violation below
``sinkhorn_tol``, so each transport value is off by at most about that
fraction of the potentials' spread, which the cost range bounds; the
symmetry check on the squared divergence allows exactly that.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from pertmap import metrics
from pertmap.metrics import MetricConfig

CFG = MetricConfig()
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def _points(d: int):
    return arrays(np.float64, st.tuples(st.integers(1, 8), st.just(d)), elements=_coords)


@st.composite
def point_set_pairs(draw) -> tuple[np.ndarray, np.ndarray]:
    d = draw(st.integers(1, 3))
    return draw(_points(d)), draw(_points(d))


@PROPERTY
@given(point_set_pairs())
def test_sinkhorn_is_nonnegative_and_symmetric(pair):
    y, y_hat = pair
    ab = metrics.sinkhorn_divergence(y, y_hat, CFG)
    ba = metrics.sinkhorn_divergence(y_hat, y, CFG)
    assert ab >= 0.0 and ba >= 0.0
    cost_range = float(cdist(y, y_hat, "sqeuclidean").max())
    assert abs(ab**2 - ba**2) <= CFG.sinkhorn_tol * (cost_range + CFG.sinkhorn_epsilon)


@PROPERTY
@given(st.integers(1, 3).flatmap(_points))
def test_sinkhorn_of_a_set_with_itself_is_zero(y):
    assert metrics.sinkhorn_divergence(y, y.copy(), CFG) <= 1e-6


@PROPERTY
@given(point_set_pairs())
def test_mmd_is_nonnegative_and_symmetric(pair):
    y, y_hat = pair
    ab = metrics.mmd_rbf(y, y_hat)
    assert ab >= 0.0
    assert abs(ab**2 - metrics.mmd_rbf(y_hat, y) ** 2) <= 1e-12


@PROPERTY
@given(st.integers(1, 3).flatmap(_points))
def test_mmd_of_a_set_with_itself_is_zero(y):
    assert metrics.mmd_rbf(y, y.copy()) <= 1e-7
