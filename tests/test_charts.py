import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from aibmon import (
    ChartKind,
    ChartSpec,
    ProcessModel,
    ShiftScenario,
    SimulationConfig,
    difference_estimate,
    make_limits,
    trace,
)
from aibmon.charts import ewma_path
from aibmon.stochastics import SubgroupStream, normals_from_words, pairs_from_normals


# ----------------------------------------------------------------- statistic


def test_statistic_recovers_classical_chart_at_zero_rho():
    model = ProcessModel.standard(0.0)
    assert difference_estimate(0.37, -1.2, model) == 0.37


def test_statistic_substitution():
    model = ProcessModel.standard(0.5)
    assert difference_estimate(0.3, -0.2, model) == pytest.approx(0.4)


def test_in_control_statistic_moments():
    # mean(Z) -> mu_y0 and var(Z) -> (1 - rho^2) sigma_y^2 / n
    model = ProcessModel(mu_y0=1.0, mu_x0=2.0, sigma_y=2.0, sigma_x=0.5, rho=0.6, n=4)
    words = SubgroupStream(model.n, 17, [0]).take_words(100_000)[0]
    zx, ze = normals_from_words(model.n, words)
    y, x = pairs_from_normals(model, model.mu_y0, model.mu_x0, zx, ze)
    z = y.mean(axis=1) + model.beta() * (model.mu_x0 - x.mean(axis=1))
    var_z = (1 - model.rho**2) * model.sigma_y**2 / model.n
    assert z.mean() == pytest.approx(1.0, abs=4 * math.sqrt(var_z / z.size))
    assert z.var(ddof=1) == pytest.approx(var_z, rel=0.02)


def test_in_control_standardized_statistic_is_standard_normal():
    # Kolmogorov-Smirnov at 1e5 draws, level 0.01.
    model = ProcessModel.standard(0.5, n=2)
    words = SubgroupStream(model.n, 23, [0]).take_words(100_000)[0]
    zx, ze = normals_from_words(model.n, words)
    y, x = pairs_from_normals(model, 0.0, 0.0, zx, ze)
    z = y.mean(axis=1) + model.beta() * (0.0 - x.mean(axis=1))
    standardized = z / (math.sqrt(1 - model.rho**2) / math.sqrt(model.n))
    assert kstest(standardized, "norm").pvalue > 0.01


# -------------------------------------------------------------------- limits


def test_shewhart_limits_at_zero_rho():
    spec = make_limits(ChartKind.SHEWHART, 1.0, 2.807, ProcessModel.standard(0.0))
    assert spec.center == 0.0
    assert spec.half_width == pytest.approx(2.807)
    assert (spec.lcl, spec.ucl) == (-spec.half_width, spec.half_width)


def test_ewma_half_width_substitution():
    spec = make_limits(ChartKind.EWMA, 0.1, 2.454, ProcessModel.standard(0.5))
    expected = 2.454 * math.sqrt(0.1 / 1.9) * math.sqrt(0.75)
    assert spec.half_width == pytest.approx(expected)
    assert spec.half_width == pytest.approx(0.4876, abs=5e-5)


def test_half_width_scales_with_sigma_y_not_sigma_x():
    wide_y = ProcessModel(0, 0, sigma_y=3.0, sigma_x=1.0, rho=0.5, n=4)
    wide_x = ProcessModel(0, 0, sigma_y=1.0, sigma_x=3.0, rho=0.5, n=4)
    base = ProcessModel(0, 0, sigma_y=1.0, sigma_x=1.0, rho=0.5, n=4)
    hw = lambda m: make_limits(ChartKind.SHEWHART, 1.0, 2.807, m).half_width
    assert hw(wide_y) == pytest.approx(3.0 * hw(base))
    assert hw(wide_x) == pytest.approx(hw(base))


def test_half_width_shrinks_with_correlation():
    hws = [
        make_limits(ChartKind.EWMA, 0.2, 2.636, ProcessModel.standard(r)).half_width
        for r in (0.0, 0.25, 0.5, 0.75, 0.95)
    ]
    assert all(a > b for a, b in zip(hws, hws[1:]))
    assert hws[3] == pytest.approx(hws[0] * math.sqrt(1 - 0.75**2))


def test_invalid_lambda_rejected():
    model = ProcessModel.standard(0.0)
    with pytest.raises(ValueError, match=r"lambda must be in \(0, 1\], got 0.0"):
        make_limits(ChartKind.EWMA, 0.0, 2.5, model)
    # lam = 2 would divide by zero and lam > 2 take a negative square root
    # in the half-width, so the spec must reject them before that arithmetic.
    # None is how a caller gives no lambda; it too must be a ValueError.
    for lam in (1.2, 2.0, 3.0, math.nan, None):
        with pytest.raises(ValueError, match="lambda must be in"):
            make_limits(ChartKind.EWMA, lam, 2.5, model)
    with pytest.raises(ValueError, match="Shewhart chart requires lambda = 1"):
        ChartSpec(ChartKind.SHEWHART, lam=0.4, limit_multiplier=2.8, center=0, half_width=1)


def test_shewhart_forces_lambda_one():
    for lam in (0.3, None):
        spec = make_limits(ChartKind.SHEWHART, lam, 2.807, ProcessModel.standard(0.0))
        assert spec.lam == 1.0


def test_chart_spec_takes_a_kind_string_and_refuses_others():
    # "shewhart" is the Shewhart kind, so its lambda must be 1.
    spec = ChartSpec("ewma", lam=0.4, limit_multiplier=2.8, center=0, half_width=1)
    assert spec.kind is ChartKind.EWMA
    with pytest.raises(ValueError, match="Shewhart chart requires lambda = 1"):
        ChartSpec("shewhart", lam=0.4, limit_multiplier=2.8, center=0, half_width=1)
    with pytest.raises(ValueError, match="ChartKind"):
        ChartSpec("bogus", lam=0.4, limit_multiplier=2.8, center=0, half_width=1)


def test_make_limits_takes_a_kind_string_and_refuses_others():
    model = ProcessModel.standard(0.0)
    spec = make_limits("shewhart", 0.1, 2.807, model)
    assert spec == make_limits(ChartKind.SHEWHART, 0.1, 2.807, model)
    assert spec.kind is ChartKind.SHEWHART and spec.lam == 1.0
    with pytest.raises(ValueError, match="ChartKind"):
        make_limits("bogus", 0.1, 2.807, model)


# -------------------------------------------------------------------- kernel


def one_row(spec, zs, w0):
    """Path and signals of one chart fed the statistics ``zs``."""
    path, signal = ewma_path(spec, np.array([zs], dtype=float), w0)
    return path[0].tolist(), signal[0].tolist()


def test_lambda_one_reduces_to_shewhart():
    spec = make_limits(ChartKind.EWMA, 1.0, 2.807, ProcessModel.standard(0.0))
    path, _ = one_row(spec, [1.7, -0.3], spec.center)
    assert path == [1.7, -0.3]


def test_one_step_recursion():
    spec = make_limits(ChartKind.EWMA, 0.1, 2.454, ProcessModel.standard(0.0))
    path, signal = one_row(spec, [1.0], 0.0)
    assert path == [pytest.approx(0.1)]
    assert signal == [False]


def test_constant_input_converges_geometrically():
    lam, c = 0.2, 3.0
    spec = ChartSpec(ChartKind.EWMA, lam, 2.0, center=0.0, half_width=100.0)
    path, _ = one_row(spec, [c] * 39, spec.center)
    for t, w in enumerate(path, start=1):
        assert w == pytest.approx(c * (1 - (1 - lam) ** t), rel=1e-12)


def test_initial_state_sits_at_center():
    # A chart fed its center stays there; trace starts its chart at the center.
    spec = ChartSpec(ChartKind.EWMA, 0.1, 2.454, center=5.0, half_width=1.0)
    path, signal = one_row(spec, [5.0] * 10, spec.center)
    assert path == [5.0] * 10 and not any(signal)
    model = ProcessModel(mu_y0=5.0, mu_x0=-1.0, sigma_y=1.0, sigma_x=1.0, rho=0.3)
    spec = make_limits(ChartKind.EWMA, 0.1, 2.454, model)
    config = SimulationConfig(model, ShiftScenario(), spec, reps=1, master_seed=2)
    (p,) = trace(config, 0, 1)
    assert p.w == spec.lam * p.z + (1 - spec.lam) * 5.0


def test_signal_on_strict_inequality_only():
    spec = ChartSpec(ChartKind.SHEWHART, 1.0, 2.807, center=0.0, half_width=1.0)
    above = math.nextafter(1.0, 2.0)
    _, signal = one_row(spec, [1.0, -1.0, above, -above], spec.center)
    assert signal == [False, False, True, True]


def test_rows_are_independent_charts():
    # A block of rows gives each row the path it gets on its own.
    spec = ChartSpec(ChartKind.EWMA, 0.3, 2.0, center=0.5, half_width=0.8)
    z = np.random.default_rng(4).normal(size=(5, 17))
    w0 = np.linspace(-1.0, 1.0, 5)
    path, signal = ewma_path(spec, z, w0)
    assert path.shape == signal.shape == (5, 17)
    for r in range(5):
        row_path, row_signal = one_row(spec, z[r], w0[r])
        assert path[r].tolist() == row_path
        assert signal[r].tolist() == row_signal


@settings(max_examples=150, deadline=None)
@given(
    z=st.floats(-100, 100),
    w=st.floats(-100, 100),
    lam=st.floats(0.01, 1.0),
)
def test_signal_symmetry_under_negation(z, w, lam):
    # Negating the centered inputs flips w - center and preserves signaling.
    spec = ChartSpec(ChartKind.EWMA, lam, 2.0, center=0.0, half_width=1.3)
    pos, sig_pos = one_row(spec, [z], w)
    neg, sig_neg = one_row(spec, [-z], -w)
    assert neg[0] == pytest.approx(-pos[0], abs=1e-12)
    assert sig_pos == sig_neg


# ------------------------------------------------ the difference estimator


def subgroup_means(model, reps, seed, rep_index=0):
    """Vectorized per-subgroup (y_bar, x_bar) over in-control draws."""
    words = SubgroupStream(model.n, seed, [rep_index]).take_words(reps)[0]
    zx, ze = normals_from_words(model.n, words)
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
        y, x = sample_subgroup(model, 0.0, 0.0, 42, 0, t)
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
