import hashlib
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from aibmon import experiments
from aibmon import (
    ChartKind,
    ProcessModel,
    ShiftMode,
    ShiftScenario,
    SimulationConfig,
    equivalence_check,
    estimate_runlength,
    make_limits,
    masking_demo,
    profile_deviation,
    profile_equivalence_trials,
    reproduce_table1,
    sample_subgroup,
    shifted_means,
)
from aibmon.experiments import (
    TABLE1_CHARTS,
    TABLE1_DELTA_X_LEVELS,
    TABLE1_PAPER_ARL,
    TABLE1_RHO_LEVELS,
    Table1Cell,
    scatter_csv_lines,
    table1_csv_lines,
    table1_grid,
    trace_csv_lines,
)
from aibmon.runlength import RunLengthSummary
from aibmon.stochastics import SubgroupStream, normals_from_words, pairs_from_normals


# ----------------------------------------------------------------- the grid


def test_grid_shape_and_levels():
    rows = table1_grid()
    assert len(rows) == 60
    assert TABLE1_RHO_LEVELS == (0.05, 0.25, 0.50, 0.75)
    assert TABLE1_DELTA_X_LEVELS == (0.25, 0.50, 1.00)
    assert TABLE1_CHARTS[0] == (ChartKind.SHEWHART, 1.00, 2.807)
    assert [c[1] for c in TABLE1_CHARTS[1:]] == [0.05, 0.10, 0.20, 0.50]
    assert [c[2] for c in TABLE1_CHARTS[1:]] == [2.216, 2.454, 2.636, 2.777]
    assert len(TABLE1_PAPER_ARL) == 12
    assert all(len(v) == 5 for v in TABLE1_PAPER_ARL.values())


def test_reproduce_table1_rejects_small_samples():
    with pytest.raises(ValueError):
        reproduce_table1(reps=5000)


def test_table1_csv_schema():
    summary = RunLengthSummary(
        arl=199.1234, sdrl=198.0, se_arl=0.9, reps=50_000,
        percentiles={5: 10, 25: 57, 50: 138, 75: 276, 95: 596}, censored=0,
    )
    cell = Table1Cell(
        rho=0.05, delta_x=0.25, kind=ChartKind.SHEWHART, lam=1.0,
        limit_multiplier=2.807, summary=summary, paper_arl=200.4,
    )
    lines = table1_csv_lines([cell])
    assert lines[0] == "rho,delta_x,chart,lambda,L,arl,se,paper_arl"
    assert lines[1] == "0.05,0.25,shewhart,1,2.807,199.1234,0.9000,200.4"


def test_cell_tolerance_rule():
    def cell(arl, se, ref):
        s = RunLengthSummary(arl, 0.0, se, 1000, {5: 0, 25: 0, 50: 0, 75: 0, 95: 0}, 0)
        return Table1Cell(0.5, 0.5, ChartKind.SHEWHART, 1.0, 2.807, s, ref)

    assert cell(204.0, 0.1, 200.0).within_tolerance  # inside 5%
    assert not cell(215.0, 0.1, 200.0).within_tolerance  # outside both
    assert cell(215.0, 6.0, 200.0).within_tolerance  # inside 3 SE


# ------------------------------------------------------------- masking demo


def test_masking_demo_hides_a_large_shift():
    demo = masking_demo(
        rho=0.5, delta_y=2.0, lam=0.1, limit_multiplier=2.454,
        counterfactual_reps=5000, master_seed=0,
    )
    assert len(demo.points) == 200
    assert demo.signal_count == 0
    # Without the auxiliary shift the chart catches delta_y = 2 in ~3.3.
    assert demo.counterfactual.arl == pytest.approx(3.3, rel=0.05)
    # After the changepoint the generated Y means drift upward.
    post = [p.y_bar for p in demo.points[25:]]
    assert np.mean(post) > 1.0


def test_masking_demo_rejects_trace_ending_before_the_shift(monkeypatch):
    def no_study(*args, **kwargs):
        raise AssertionError("counterfactual study ran")

    monkeypatch.setattr(experiments, "estimate_runlength", no_study)
    for changepoint in (10, 300):
        with pytest.raises(ValueError, match="changepoint must be below n_subgroups"):
            masking_demo(
                rho=0.5, delta_y=1.0, lam=0.1, limit_multiplier=2.454,
                n_subgroups=10, changepoint=changepoint,
            )


def test_masking_demo_checks_its_arguments_before_the_trace(monkeypatch):
    def no_trace(*args, **kwargs):
        raise AssertionError("trace ran")

    monkeypatch.setattr(experiments, "trace", no_trace)
    with pytest.raises(ValueError, match="reps"):
        masking_demo(rho=0.5, delta_y=1.0, lam=0.1, limit_multiplier=2.454,
                     counterfactual_reps=0)
    with pytest.raises(ValueError, match="undefined at beta = 0"):
        masking_demo(rho=0.0, delta_y=1.0, lam=0.1, limit_multiplier=2.454)


def test_masking_demo_trace_reaches_a_shift_at_its_last_subgroup():
    demo = masking_demo(
        rho=0.5, delta_y=1.0, lam=0.1, limit_multiplier=2.454,
        n_subgroups=10, changepoint=9, counterfactual_reps=2000,
    )
    assert [p.t for p in demo.points] == list(range(1, 11))
    assert demo.points[-1].regime == "out-of-control"
    assert all(p.regime == "in-control" for p in demo.points[:-1])


def test_masking_demo_is_shift_size_independent():
    demo = masking_demo(
        rho=0.75, delta_y=3.0, lam=0.1, limit_multiplier=2.454,
        counterfactual_reps=2000, master_seed=0,
    )
    assert demo.signal_count == 0


def test_trace_and_scatter_csv_schemas():
    demo = masking_demo(
        rho=0.5, delta_y=2.0, lam=0.1, limit_multiplier=2.454,
        n_subgroups=30, changepoint=5, counterfactual_reps=2000, master_seed=1,
    )
    tlines = trace_csv_lines(demo.points)
    assert tlines[0] == "t,zbar_x,zbar_y,z,w,lcl,ucl,signal,regime"
    assert len(tlines) == 31
    assert tlines[1].startswith("1,") and tlines[1].endswith(",in-control")
    assert tlines[-1].startswith("30,") and tlines[-1].endswith(",out-of-control")
    slines = scatter_csv_lines(demo.points)
    assert slines[0] == "t,x_bar,y_bar,regime"
    assert len(slines) == 31


def test_masked_statistic_distribution_unchanged_across_changepoint():
    # Two-sample KS on 1e5 statistic values per side, level 0.01.
    model = ProcessModel.standard(0.5)
    scenario = ShiftScenario(delta_y=2.0, mode=ShiftMode.MASKING)
    mu_y1, mu_x1 = shifted_means(model, scenario)

    def statistic_sample(mu_y, mu_x, rep):
        zx, ze = normals_from_words(1, SubgroupStream(1, 77, [rep]).take_words(100_000)[0])
        y, x = pairs_from_normals(model, mu_y, mu_x, zx, ze)
        return y.mean(axis=1) + model.beta() * (model.mu_x0 - x.mean(axis=1))

    before = statistic_sample(model.mu_y0, model.mu_x0, rep=0)
    after = statistic_sample(mu_y1, mu_x1, rep=1)
    assert ks_2samp(before, after).pvalue > 0.01
    # The raw X side, in contrast, has visibly moved.
    assert abs(after.mean() - before.mean()) < 0.02


def test_equal_residual_shifts_have_equal_arl():
    # Distinct (delta_y, delta_x) pairs with the same standardized residual
    # are indistinguishable to the chart.
    model = ProcessModel.standard(0.5)
    spec = make_limits(ChartKind.EWMA, 0.1, 2.454, model)

    def arl(delta_y, delta_x, seed):
        config = SimulationConfig(
            model=model,
            scenario=ShiftScenario(delta_y=delta_y, delta_x=delta_x),
            spec=spec,
            reps=20_000,
            master_seed=seed,
        )
        return estimate_runlength(config)

    a = arl(1.0, 0.8, seed=51)  # residual (1 - 0.4) / sqrt(.75)
    b = arl(0.1, -1.0, seed=52)  # residual (0.1 + 0.5) / sqrt(.75)
    joint_se = math.hypot(a.se_arl, b.se_arl)
    assert abs(a.arl - b.arl) < 3 * joint_se


# ------------------------------------------------------ profile equivalence


def test_profile_deviation_values():
    assert profile_deviation(5.0, 2.0, 1.0, 2.0) == 0.0  # on the line
    assert profile_deviation(6.0, 2.0, 1.0, 2.0) == 1.0  # one above it


def test_profile_deviation_zero_for_exact_line_data():
    x = np.array([-1.0, 0.0, 1.0, 2.0])
    y = 0.7 - 1.3 * x
    deviation = profile_deviation(float(y.mean()), float(x.mean()), 0.7, -1.3)
    assert deviation == pytest.approx(0.0, abs=1e-12)


def test_equivalence_exactly_when_constant_vanishes():
    model = ProcessModel.standard(0.5)
    y, x = sample_subgroup(model, 0.0, 0.0, 61, 0, 0)
    result = equivalence_check(float(y.mean()), float(x.mean()), model, 0.0)
    assert result.gap == 0.0
    assert result.constant == 0.0
    assert result.ok


def test_equivalence_on_offset_model():
    model = ProcessModel(mu_y0=4.0, mu_x0=-2.0, sigma_y=1.5, sigma_x=0.5, rho=0.7, n=6)
    y, x = sample_subgroup(model, model.mu_y0, model.mu_x0, 62, 0, 0)
    result = equivalence_check(float(y.mean()), float(x.mean()), model, 2.5)
    assert result.ok
    assert result.aib == pytest.approx(result.deviation + result.constant, rel=1e-12)


# sha256 of repr((aib, deviation, constant, gap, gap_ulp)) over every trial
# of profile_equivalence_trials(2000, seed), in order, for seeds 0, 1 and 2.
PROFILE_TRIALS_SHA256 = "a4184251387321619bcbcf38600a850301ea9465a0364c3c92ed30bdd61ffe68"


def test_profile_equivalence_values_are_pinned():
    # The CLI prints the worst gap to 3 decimals, which cannot see a changed
    # rounding in any one term. This replays the study's draws and pins
    # every term of every trial.
    digest = hashlib.sha256()
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for i in range(2000):
            model = ProcessModel(
                mu_y0=float(rng.uniform(-2.0, 2.0)),
                mu_x0=float(rng.uniform(-2.0, 2.0)),
                sigma_y=float(rng.uniform(0.5, 2.0)),
                sigma_x=float(rng.uniform(0.5, 2.0)),
                rho=float(rng.uniform(-0.95, 0.95)),
                n=int(rng.integers(1, 11)),
            )
            y, x = sample_subgroup(model, model.mu_y0, model.mu_x0, seed, i, 0)
            a0 = float(rng.uniform(-3.0, 3.0))
            r = equivalence_check(float(y.mean()), float(x.mean()), model, a0)
            digest.update(repr((r.aib, r.deviation, r.constant, r.gap, r.gap_ulp)).encode())
            worst = max(worst, r.gap_ulp)
        assert worst == profile_equivalence_trials(2000, seed)
    assert digest.hexdigest() == PROFILE_TRIALS_SHA256


def test_profile_equivalence_over_randomized_trials():
    assert profile_equivalence_trials(2000, master_seed=3) <= 8.0


@pytest.mark.parametrize("trials", [0, -5, True, 2.5])
def test_profile_equivalence_needs_a_trial(trials):
    with pytest.raises(ValueError, match="trials"):
        profile_equivalence_trials(trials)
