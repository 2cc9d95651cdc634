import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aibmon import ProcessModel, StreamKey, difference_estimate
from aibmon.stochastics import SubgroupStream, pairs_from_normals


def subgroup_means(model, reps, seed, rep_index=0):
    """Vectorized per-subgroup (y_bar, x_bar) over in-control draws."""
    zx, ze = SubgroupStream(model.n, StreamKey(seed, rep_index)).take(reps)
    y, x = pairs_from_normals(model, model.mu_y0, model.mu_x0, zx, ze)
    return y.mean(axis=1), x.mean(axis=1)


# ------------------------------------------------------------ point values


def test_difference_estimate_substitution():
    # beta = 0.5, mu_x0 = 0: 2 + 0.5 * (0 - 3) = 0.5
    model = ProcessModel(0.0, 0.0, 1.0, 1.0, rho=0.5)
    assert difference_estimate(2.0, 3.0, model) == 0.5


# ----------------------------------------------------------- reductions


@settings(max_examples=100, deadline=None)
@given(
    y_bar=st.floats(-1e6, 1e6),
    x_bar=st.floats(-1e6, 1e6),
)
def test_zero_correlation_reduces_to_sample_mean_exactly(y_bar, x_bar):
    model = ProcessModel(0.0, 0.0, 1.0, 1.0, rho=0.0)
    assert difference_estimate(y_bar, x_bar, model) == y_bar


def test_vectorized_means_agree_with_api():
    # The MC checks below use vectorized subgroup means; pin them to the
    # scalar API on a few rows first.
    model = ProcessModel.standard(0.5, n=3)
    ybar, xbar = subgroup_means(model, 5, seed=42)
    from aibmon import sample_subgroup

    for t in range(5):
        y, x = sample_subgroup(model, 0.0, 0.0, StreamKey(42, 0), t)
        assert float(y.mean()) == ybar[t] and float(x.mean()) == xbar[t]


# ------------------------------------------------------------- MC oracles


def test_difference_estimator_unbiased_in_control():
    # MC mean over 5e4 in-control replications within 4 SE of mu_y0.
    model = ProcessModel.standard(0.75)
    ybar, xbar = subgroup_means(model, 50_000, seed=101)
    est = ybar + model.beta() * (model.mu_x0 - xbar)
    se = math.sqrt((1 - model.rho**2) / model.n) / math.sqrt(est.size)
    assert abs(est.mean() - model.mu_y0) < 4 * se
    # the plain sample mean is unbiased too, at its larger SE
    assert abs(ybar.mean() - model.mu_y0) < 4 / math.sqrt(ybar.size)


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
def test_variance_reduction_matches_one_minus_rho_squared(rho):
    model = ProcessModel.standard(rho)
    ybar, xbar = subgroup_means(model, 50_000, seed=202)
    diff = ybar + model.beta() * (model.mu_x0 - xbar)
    ratio = diff.var(ddof=1) / ybar.var(ddof=1)
    assert ratio == pytest.approx(1 - rho**2, rel=0.05)
