import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr

from aibmon import oracles
from aibmon import (
    ChartKind,
    ProcessModel,
    ShiftMode,
    ShiftScenario,
    SimulationConfig,
    SingularSystem,
    analytic_arl,
    calibrate_limit,
    ewma_arl_markov,
    make_limits,
    shewhart_arl_exact,
    standardized_shift,
)
from aibmon.experiments import table1_grid

# Published design points: (lambda, limit) pairs calibrated to ARL0 = 200.
EWMA_DESIGNS = [(0.05, 2.216), (0.10, 2.454), (0.20, 2.636), (0.50, 2.777)]


# -------------------------------------------------------- standardized shift


def test_no_shift_standardizes_to_zero():
    s = standardized_shift(ProcessModel.standard(0.5), ShiftScenario())
    assert s == 0.0


def test_auxiliary_only_shift():
    s = standardized_shift(
        ProcessModel.standard(0.75), ShiftScenario(delta_x=1.0)
    )
    assert s == pytest.approx(-0.75 / math.sqrt(0.4375))
    assert s == pytest.approx(-1.1339, abs=1e-4)


def test_masking_scenario_standardizes_to_exact_zero():
    s = standardized_shift(
        ProcessModel.standard(0.5),
        ShiftScenario(delta_y=2.0, mode=ShiftMode.MASKING),
    )
    assert s == 0.0


def test_general_independent_residual():
    s = standardized_shift(
        ProcessModel.standard(0.5), ShiftScenario(delta_y=1.0, delta_x=0.8)
    )
    assert s == pytest.approx((1.0 - 0.5 * 0.8) / math.sqrt(0.75))


# ------------------------------------------------------------ Shewhart exact


def test_shewhart_arl_at_stock_multiplier():
    # 1 / (2 * Phi(-2.807)), evaluated with the double-precision normal CDF.
    assert shewhart_arl_exact(2.807, 0.0) == pytest.approx(199.979035402766, rel=1e-12)


def test_shewhart_arl_matches_published_cell():
    # rho = 0.75, delta_x = 1 cell: closed form ~21.19, published MC 21.3.
    arl = shewhart_arl_exact(2.807, -1.1338934190276817)
    assert arl == pytest.approx(21.19, abs=0.01)
    assert abs(arl - 21.3) < 0.15


def test_shewhart_arl_monotone_and_divergent_in_L():
    arls = [shewhart_arl_exact(L, 0.0) for L in (1.0, 2.0, 3.0, 5.0, 8.0)]
    assert all(a < b for a, b in zip(arls, arls[1:]))
    assert shewhart_arl_exact(50.0, 0.0) == math.inf


def test_shewhart_arl_symmetric_in_shift():
    for s in (0.3, 1.1339, 2.5):
        assert shewhart_arl_exact(2.807, s) == pytest.approx(
            shewhart_arl_exact(2.807, -s), rel=1e-12
        )


def test_shewhart_rejects_nonpositive_L():
    with pytest.raises(ValueError):
        shewhart_arl_exact(0.0, 0.0)


@pytest.mark.parametrize("L", [math.nan, math.inf])
def test_shewhart_rejects_non_finite_L(L):
    with pytest.raises(ValueError, match="finite"):
        shewhart_arl_exact(L, 0.0)


def test_shewhart_rejects_nan_shift():
    with pytest.raises(ValueError, match="NaN"):
        shewhart_arl_exact(2.807, math.nan)


# ------------------------------------------------------------- Markov chain


def test_markov_lambda_one_degenerates_to_shewhart():
    for L in (2.0, 2.807, 3.5):
        markov = ewma_arl_markov(1.0, L, 0.0, 401)
        exact = shewhart_arl_exact(L, 0.0)
        assert markov == pytest.approx(exact, rel=1e-3)


@pytest.mark.parametrize("lam,L", EWMA_DESIGNS)
def test_markov_in_control_arl_near_200(lam, L):
    assert ewma_arl_markov(lam, L, 0.0, 401) == pytest.approx(200.0, abs=2.0)


def test_markov_matches_published_shifted_cell():
    # lambda = 0.05 chart at the rho = 0.75, delta_x = 1 residual shift.
    s = -0.75 / math.sqrt(1 - 0.75**2)
    assert ewma_arl_markov(0.05, 2.216, s, 401) == pytest.approx(8.1, abs=0.3)


@pytest.mark.parametrize("lam,L", EWMA_DESIGNS)
def test_markov_discretization_converged(lam, L):
    # Refining 201 -> 401 states moves the answer by < 0.5%.
    a201 = ewma_arl_markov(lam, L, 0.0, 201)
    a401 = ewma_arl_markov(lam, L, 0.0, 401)
    assert abs(a401 - a201) / a401 < 0.005


def test_markov_symmetric_in_shift():
    for s in (0.25, 1.0, 2.0):
        assert ewma_arl_markov(0.1, 2.454, s) == pytest.approx(
            ewma_arl_markov(0.1, 2.454, -s), rel=1e-10
        )


def test_markov_monotone_in_shift_magnitude_and_L():
    arls = [ewma_arl_markov(0.1, 2.454, s) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
    assert all(a > b for a, b in zip(arls, arls[1:]))
    by_L = [ewma_arl_markov(0.1, L, 0.0) for L in (1.5, 2.0, 2.454, 3.0)]
    assert all(a < b for a, b in zip(by_L, by_L[1:]))


def test_markov_validates_inputs():
    with pytest.raises(ValueError):
        ewma_arl_markov(0.1, 2.454, 0.0, n_states=400)  # even
    with pytest.raises(ValueError):
        ewma_arl_markov(0.1, 2.454, 0.0, n_states=49)  # too few
    for lam in (0.0, None):
        with pytest.raises(ValueError, match="lambda must be in"):
            ewma_arl_markov(lam, 2.454, 0.0)
    with pytest.raises(ValueError):
        ewma_arl_markov(0.1, -1.0, 0.0)


@pytest.mark.parametrize("L", [math.nan, math.inf])
def test_markov_rejects_non_finite_L(L):
    with pytest.raises(ValueError, match="finite"):
        ewma_arl_markov(0.1, L, 0.0)


def test_markov_rejects_nan_shift():
    with pytest.raises(ValueError, match="NaN"):
        ewma_arl_markov(0.1, 2.454, math.nan)


@pytest.mark.parametrize("n_states", [401.0, "401", None])
def test_markov_rejects_non_integer_state_count(n_states):
    with pytest.raises(ValueError, match="integer"):
        ewma_arl_markov(0.1, 2.454, 0.0, n_states=n_states)


def test_markov_raises_singular_system_when_the_solve_fails(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularSystem, match="I - Q singular for lam=0.1, L=2.454"):
        ewma_arl_markov(0.1, 2.454, 0.0)


@pytest.mark.parametrize("arl", [0.5, -4.7e16, math.nan])
def test_markov_raises_singular_system_on_an_arl_below_one(monkeypatch, arl):
    # An ill-conditioned system would reach this path too, but there the
    # sign of the ARL depends on the BLAS, so the solve is replaced.
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, arl))
    with pytest.raises(SingularSystem, match="invalid ARL"):
        ewma_arl_markov(0.1, 2.454, 1.0)


def test_markov_accepts_numpy_integer_state_count():
    assert ewma_arl_markov(0.1, 2.454, 0.0, np.int64(401)) == ewma_arl_markov(
        0.1, 2.454, 0.0, 401
    )


@pytest.mark.parametrize("s", [math.inf, -math.inf])
def test_infinite_shift_signals_at_once(s):
    assert ewma_arl_markov(0.1, 2.454, s) == 1.0
    assert shewhart_arl_exact(2.807, s) == 1.0


# ------------------------------------------------- Markov chain properties

lambdas = st.floats(0.02, 1.0)
limits = st.floats(0.5, 4.0)
shifts = st.floats(-3.0, 3.0)
odd_state_counts = st.integers(25, 200).map(lambda k: 2 * k + 1)  # 51..401


def full_chain_arl(lam, L, s, n_states):
    """The whole n_states-square chain, each cell's bounds evaluated apart."""
    h = L * math.sqrt(lam / (2.0 - lam))
    width = 2.0 * h / n_states
    centers = -h + (np.arange(n_states) + 0.5) * width
    carried = (1.0 - lam) * centers[:, None]
    lo = (centers[None, :] - 0.5 * width - carried) / lam
    hi = (centers[None, :] + 0.5 * width - carried) / lam
    Q = ndtr(hi - s) - ndtr(lo - s)
    a = np.linalg.solve(np.eye(n_states) - Q, np.ones(n_states))
    return float(a[n_states // 2])


@settings(max_examples=40, deadline=None)
@given(lam=lambdas, L=limits, s=shifts, n_states=odd_state_counts)
def test_markov_matches_full_chain_reference(lam, L, s, n_states):
    assert ewma_arl_markov(lam, L, s, n_states) == pytest.approx(
        full_chain_arl(lam, L, s, n_states), rel=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(lam=lambdas, L=limits, n_states=odd_state_counts)
def test_in_control_half_chain_matches_full_chain_reference(lam, L, n_states):
    assert ewma_arl_markov(lam, L, 0.0, n_states) == pytest.approx(
        full_chain_arl(lam, L, 0.0, n_states), rel=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(lam=lambdas, L=limits, step=st.floats(0.01, 1.0), s=shifts,
       n_states=odd_state_counts)
def test_markov_monotone_in_L(lam, L, step, s, n_states):
    assert ewma_arl_markov(lam, L, s, n_states) <= ewma_arl_markov(
        lam, L + step, s, n_states
    )


@settings(max_examples=40, deadline=None)
@given(lam=lambdas, L=limits, s=st.floats(0.0, 3.0), step=st.floats(0.01, 1.0),
       sign=st.sampled_from([1.0, -1.0]), n_states=odd_state_counts)
def test_markov_monotone_in_shift_magnitude(lam, L, s, step, sign, n_states):
    assert ewma_arl_markov(lam, L, sign * (s + step), n_states) <= ewma_arl_markov(
        lam, L, sign * s, n_states
    )


@settings(max_examples=40, deadline=None)
@given(L=limits, s=shifts, n_states=odd_state_counts)
def test_markov_at_lambda_one_is_shewhart(L, s, n_states):
    assert ewma_arl_markov(1.0, L, s, n_states) == pytest.approx(
        shewhart_arl_exact(L, s), rel=1e-3
    )


# ------------------------------------------------------- oracle for a config


def study(kind, lam, limit, rho, **scenario):
    model = ProcessModel.standard(rho)
    return SimulationConfig(model, ShiftScenario(**scenario),
                            make_limits(kind, lam, limit, model))


def test_analytic_arl_is_its_parts_on_every_table1_cell():
    for rho, delta_x, kind, lam, limit, _ in table1_grid():
        config = study(kind, lam, limit, rho, delta_x=delta_x)
        s = standardized_shift(config.model, config.scenario)
        if kind is ChartKind.SHEWHART:
            parts = shewhart_arl_exact(limit, s)
        else:
            parts = ewma_arl_markov(lam, limit, s)
        assert analytic_arl(config) == parts


@pytest.mark.parametrize("rho", [-0.75, 0.25, 0.5, 0.9])
@pytest.mark.parametrize(
    "kind, lam, limit", [(ChartKind.SHEWHART, 1.0, 2.807), (ChartKind.EWMA, 0.1, 2.454)]
)
def test_analytic_arl_of_a_masked_shift_is_the_in_control_arl(kind, lam, limit, rho):
    masked = study(kind, lam, limit, rho, delta_y=1.5, mode=ShiftMode.MASKING)
    assert analytic_arl(masked) == analytic_arl(study(kind, lam, limit, rho))


def test_analytic_arl_refuses_an_ewma_changepoint():
    # The engine's EWMA enters the shift with the state its in-control
    # subgroups left, not at the center: not the zero-state chain's ARL.
    config = study(ChartKind.EWMA, 0.1, 2.454, 0.0, delta_y=1.0, changepoint=50)
    with pytest.raises(ValueError, match="changepoint"):
        analytic_arl(config)


# --------------------------------------------------------------- calibration


def test_shewhart_calibration_is_analytic():
    L, arl0 = calibrate_limit(ChartKind.SHEWHART, 1.0, 200.0)
    assert L == pytest.approx(2.8070337683438042, rel=1e-12)
    assert abs(L - 2.807) < 1e-3
    assert arl0 == shewhart_arl_exact(L, 0.0)
    assert arl0 == pytest.approx(200.0, rel=1e-12)


def test_calibration_takes_a_kind_string_and_refuses_others():
    # "shewhart" is analytic and ignores lambda; it must not calibrate EWMA.
    assert calibrate_limit("shewhart", 0.1, 200.0) == calibrate_limit(
        ChartKind.SHEWHART, 1.0, 200.0
    )
    with pytest.raises(ValueError, match="ChartKind"):
        calibrate_limit("bogus", 0.1, 200.0)


@pytest.mark.parametrize("lam,published", EWMA_DESIGNS)
def test_ewma_calibration_recovers_published_limits(lam, published):
    L, arl0 = calibrate_limit(ChartKind.EWMA, lam, 200.0)
    assert L == pytest.approx(published, abs=0.02)
    assert arl0 == ewma_arl_markov(lam, L, 0.0)
    assert arl0 == pytest.approx(200.0, abs=0.1)


def test_calibration_solves_each_limit_once(monkeypatch):
    solved = []

    def counting(lam, L, s, n_states=401):
        solved.append(L)
        return ewma_arl_markov(lam, L, s, n_states)

    monkeypatch.setattr(oracles, "ewma_arl_markov", counting)
    calibrate_limit(ChartKind.EWMA, 0.1, 200.0)
    assert len(solved) > 5
    assert len(solved) == len(set(solved))
    # The bracket walk starts at L = 2 and goes up: every limit of interest
    # lies above 2, so L = 1e-3 and 1 are never solved.
    assert solved[:2] == [2.0, 3.0]
    assert min(solved) == 2.0


@pytest.mark.parametrize(
    "target, first",
    [(1.001, [2.0, 1.0, 1e-3]), (1.5, [2.0, 1.0, 1e-3]), (5.0, [2.0, 1.0]), (50.0, [2.0, 3.0])],
)
def test_calibration_bracket_walks_down_from_two(monkeypatch, target, first):
    solved = []

    def counting(lam, L, s, n_states=401):
        solved.append(L)
        return ewma_arl_markov(lam, L, s, n_states)

    monkeypatch.setattr(oracles, "ewma_arl_markov", counting)
    L, _ = calibrate_limit(ChartKind.EWMA, 0.5, target)
    assert solved[: len(first)] == first
    assert ewma_arl_markov(0.5, L, 0.0) == pytest.approx(target, abs=0.1)


def test_calibration_refuses_a_missing_lambda():
    # None used to reach the Markov solve's range check and raise a TypeError;
    # a Shewhart calibration still ignores lambda.
    with pytest.raises(ValueError, match=r"lambda must be in \(0, 1\], got None"):
        calibrate_limit(ChartKind.EWMA, None, 200.0)
    assert calibrate_limit(ChartKind.SHEWHART, None, 200.0) == calibrate_limit(
        ChartKind.SHEWHART, 1.0, 200.0
    )


def test_calibration_reports_target_reached_below_smallest_limit():
    with pytest.raises(ValueError, match="already exceeded at L=0.001"):
        calibrate_limit(ChartKind.EWMA, 0.5, 1.0000001)


def test_calibration_round_trip_through_simulation():
    # A freshly calibrated limit (off the published grid) must steer the
    # Monte Carlo engine back to the target in-control ARL within 2%.
    from aibmon import (
        ProcessModel,
        ShiftScenario,
        SimulationConfig,
        estimate_runlength,
        make_limits,
    )

    lam = 0.3
    L, _ = calibrate_limit(ChartKind.EWMA, lam, 200.0)
    model = ProcessModel.standard(0.5)
    config = SimulationConfig(
        model=model,
        scenario=ShiftScenario(),
        spec=make_limits(ChartKind.EWMA, lam, L, model),
        reps=20_000,
        master_seed=19,
    )
    assert estimate_runlength(config).arl == pytest.approx(200.0, rel=0.02)


def test_calibration_rejects_trivial_target():
    with pytest.raises(ValueError):
        calibrate_limit(ChartKind.SHEWHART, 1.0, 1.0)
    with pytest.raises(ValueError):
        calibrate_limit(ChartKind.EWMA, 0.1, 0.5)


@pytest.mark.parametrize("kind, lam", [(ChartKind.SHEWHART, 1.0), (ChartKind.EWMA, 0.1)])
@pytest.mark.parametrize("target", [math.inf, math.nan])
def test_calibration_rejects_non_finite_target(kind, lam, target):
    with pytest.raises(ValueError, match="finite"):
        calibrate_limit(kind, lam, target)


def test_calibration_reports_unreachable_target(monkeypatch):
    # An ARL that jumps from 100 to 1e6 at L = 3.5: the bracket [3, 4] is
    # found and Brent closes in on the jump, where the residual stays large.
    monkeypatch.setattr(oracles, "ewma_arl_markov",
                        lambda lam, L, s: 100.0 if L < 3.5 else 1e6)
    with pytest.raises(ValueError, match="calibration residual too large at lam=0.5"):
        calibrate_limit(ChartKind.EWMA, 0.5, 1000.0)


@pytest.mark.parametrize("target", [1e7, 1e8, 1e9, 1e10, 1e11, 1e12])
@pytest.mark.parametrize("lam", [0.05, 0.1, 0.5])
def test_calibration_reaches_large_targets(lam, target):
    # The solved ARL's rounding grows with the ARL, so the residual bound
    # does too: at 1e12 the residual at the root is about 1e-5 of the target.
    L, arl0 = calibrate_limit(ChartKind.EWMA, lam, target)
    assert 5.0 < L < 8.0
    assert arl0 == ewma_arl_markov(lam, L, 0.0)
    assert abs(arl0 - target) < 1e-3 * target


# ---------------------------------------------- Brent solver against brentq
#
# scipy.optimize.brentq is the reference here only: oracles._brent ports it
# so that importing aibmon never loads scipy.optimize. The port must call f
# at the same points in the same order and return the same float.


def solve_both(g, a, b, **kwargs):
    """(outcome, points f was called at) for brentq and for _brent.

    The outcome is the root, or the type of the exception raised.
    """
    results = []
    for solver in (brentq, oracles._brent):
        points = []

        def f(x):
            points.append(x)
            return g(x)

        try:
            outcome = solver(f, a, b, **kwargs)
        except (ValueError, RuntimeError) as exc:
            outcome = type(exc)
        results.append((outcome, points))
    return results


@st.composite
def bracketed(draw):
    """A function with one root strictly inside [a, b], and a and b."""
    kind = draw(st.sampled_from(["cubic", "offset", "exp"]))
    width = st.floats(0.01, 5.0)
    if kind == "exp":  # exp(k L^2) - target, the shape of ARL(L) - target
        k = draw(st.floats(0.1, 2.0))
        target = draw(st.floats(1.001, 1e4))
        root = math.sqrt(math.log(target) / k)
        a = root * draw(st.floats(0.05, 0.99))
        b = root * (1.0 + draw(st.floats(0.01, 1.0)))
        return (lambda x: math.exp(k * x * x) - target), a, b
    root = draw(st.floats(-5.0, 5.0))
    a, b = root - draw(width), root + draw(width)
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "offset":
        return (lambda x: sign * (x - root)), a, b
    c3 = draw(st.just(0.0) | st.floats(0.01, 3.0))  # monotone
    c1 = draw(st.floats(0.01, 3.0))
    return (lambda x: sign * (c3 * (x - root) ** 3 + c1 * (x - root))), a, b


@settings(max_examples=300, deadline=None)
@given(case=bracketed(), xtol=st.sampled_from([1e-7, 2e-12]), swap=st.booleans())
def test_brent_calls_and_returns_as_brentq(case, xtol, swap):
    g, a, b = case
    if swap:
        a, b = b, a
    (want, want_points), (got, got_points) = solve_both(g, a, b, xtol=xtol)
    assert got_points == want_points
    assert repr(got) == repr(want)
    assert isinstance(got, float)


def test_brent_bisects_where_the_extrapolation_divides_by_zero():
    # f values near the subnormal range underflow the extrapolation's
    # denominator to 0; C divides to inf and bisects, as must the port.
    def g(x):
        return 2.640599794060481e-304 * (x - 0.515908805880605) ** 3

    (want, want_points), (got, got_points) = solve_both(
        g, 0.38486051512008007, 3.4126488161027373, xtol=1e-7
    )
    assert got_points == want_points
    assert repr(got) == repr(want) == "0.5159086157324483"


@pytest.mark.parametrize("a, b", [(1.5, 3.0), (0.0, 1.5)])
def test_brent_returns_an_exact_zero_at_an_end_at_once(a, b):
    results = solve_both(lambda x: x - 1.5, a, b, xtol=1e-7)
    assert results[0] == results[1] == (1.5, [a, b])


@pytest.mark.parametrize("g", [lambda x: x * x + 1.0, lambda x: -x * x - 1.0])
def test_brent_rejects_a_bracket_without_sign_change_as_brentq(g):
    (want, want_points), (got, got_points) = solve_both(g, -1.0, 1.0, xtol=1e-7)
    assert got is want is ValueError
    assert got_points == want_points == [-1.0, 1.0]


@pytest.mark.parametrize("maxiter", [0, 1, 3])
def test_brent_gives_up_after_maxiter_as_brentq(maxiter):
    (want, want_points), (got, got_points) = solve_both(
        lambda x: x**3 - 2.0, 0.0, 4.0, xtol=1e-12, maxiter=maxiter
    )
    assert got is want is RuntimeError
    assert got_points == want_points
    assert len(got_points) == 2 + maxiter


@pytest.mark.parametrize("lam", [0.01, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("target", [1.5, 5.0, 200.0, 1e4])
def test_calibration_matches_brentq_bit_for_bit(monkeypatch, lam, target):
    # At lam = 0.5, targets 1.5 and 5 walk the bracket down from L = 2.
    ours = oracles.calibrate_limit(ChartKind.EWMA, lam, target)
    monkeypatch.setattr(
        oracles, "_brent", lambda f, a, b, xtol: brentq(f, a, b, xtol=xtol)
    )
    assert repr(oracles.calibrate_limit(ChartKind.EWMA, lam, target)) == repr(ours)
