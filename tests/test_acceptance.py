"""Acceptance suite: one executable check per criterion, full tolerances.

Every test prints a single ``[PASS]``/``[FAIL]`` line naming its criterion
so the suite doubles as a checklist. The heavy Monte Carlo runs use 50,000
replications, matching the published study design; expect a few minutes.
"""

import csv
import math

import numpy as np
import pytest

from aibmon import (
    ChartKind,
    ProcessModel,
    ShiftMode,
    ShiftScenario,
    SimulationConfig,
    analytic_arl,
    calibrate_limit,
    estimate_runlength,
    make_limits,
    profile_equivalence_trials,
)
from aibmon.charts import difference_estimate
from aibmon.cli import main
from aibmon.stochastics import SubgroupStream, normals_from_words, pairs_from_normals

REPS = 50_000
SEED = 7

EWMA_DESIGNS = [(0.05, 2.216), (0.10, 2.454), (0.20, 2.636), (0.50, 2.777)]


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name} {detail}"


@pytest.fixture(scope="module")
def table1_run(tmp_path_factory):
    """One full-scale grid reproduction via the CLI, parsed from its CSV."""
    out = tmp_path_factory.mktemp("acceptance") / "table1.csv"
    code = main(
        ["table1", "--reps", str(REPS), "--seed", str(SEED),
         "--out", str(out), "--check"]
    )
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return code, rows


def test_criterion_1_table1_reproduction(table1_run):
    code, rows = table1_run
    assert len(rows) == 60
    worst = 0.0
    failures = []
    for r in rows:
        arl, se, ref = float(r["arl"]), float(r["se"]), float(r["paper_arl"])
        tol = max(0.05 * ref, 3.0 * se)
        gap = abs(arl - ref)
        worst = max(worst, gap / tol)
        if gap > tol:
            failures.append(r)
    report(
        "criterion 1: all 60 grid cells within max(5% rel, 3 SE) of reference",
        code == 0 and not failures,
        f"worst gap/tolerance ratio {worst:.2f}",
    )


def test_criterion_2_in_control_design_point():
    worst = 0.0
    for kind, lam, limit in [(ChartKind.SHEWHART, 1.0, 2.807)] + [
        (ChartKind.EWMA, lam, L) for lam, L in EWMA_DESIGNS
    ]:
        model = ProcessModel.standard(0.0)
        config = SimulationConfig(
            model=model,
            scenario=ShiftScenario(),
            spec=make_limits(kind, lam, limit, model),
            reps=REPS,
            master_seed=SEED + 1,
        )
        arl = estimate_runlength(config).arl
        worst = max(worst, abs(arl - 200.0))
    report(
        "criterion 2: five in-control configurations give ARL 200 +/- 2%",
        worst <= 4.0,
        f"worst |ARL - 200| = {worst:.2f}",
    )


def test_criterion_3_oracle_agreement(table1_run):
    _, rows = table1_run
    worst = {"shewhart": 0.0, "ewma": 0.0}
    for r in rows:
        model = ProcessModel.standard(float(r["rho"]))
        config = SimulationConfig(
            model=model,
            scenario=ShiftScenario(delta_x=float(r["delta_x"])),
            spec=make_limits(ChartKind(r["chart"]), float(r["lambda"]),
                             float(r["L"]), model),
        )
        gap = abs(float(r["arl"]) - analytic_arl(config)) / float(r["se"])
        worst[r["chart"]] = max(worst[r["chart"]], gap)
    report(
        "criterion 3: MC within 3 SE of the analytic ARL (closed form for "
        "Shewhart, Markov-401 for EWMA)",
        max(worst.values()) <= 3.0,
        f"worst Shewhart gap {worst['shewhart']:.2f} SE, worst EWMA gap "
        f"{worst['ewma']:.2f} SE",
    )


def test_criterion_4_calibration_recovery():
    L_s, _ = calibrate_limit(ChartKind.SHEWHART, 1.0, 200.0)
    ok = abs(L_s - 2.807) < 1e-3
    gaps = [abs(L_s - 2.807)]
    for lam, published in EWMA_DESIGNS:
        L_e, _ = calibrate_limit(ChartKind.EWMA, lam, 200.0)
        gaps.append(abs(L_e - published))
        ok = ok and abs(L_e - published) <= 0.02
    report(
        "criterion 4: calibration recovers 2.807 (1e-3) and the four EWMA "
        "limits (0.02)",
        ok,
        "gaps " + ", ".join(f"{g:.4f}" for g in gaps),
    )


def test_criterion_5_masking_invariance():
    lam, limit = 0.10, 2.454
    worst = 0.0
    for i, rho in enumerate((0.25, 0.5, 0.75)):
        model = ProcessModel.standard(rho)
        spec = make_limits(ChartKind.EWMA, lam, limit, model)
        in_control = estimate_runlength(
            SimulationConfig(model, ShiftScenario(), spec, REPS, SEED + 2 + i)
        )
        for j, delta_y in enumerate((0.5, 1.0, 2.0, 3.0)):
            masked = estimate_runlength(
                SimulationConfig(
                    model,
                    ShiftScenario(delta_y=delta_y, mode=ShiftMode.MASKING),
                    spec,
                    REPS,
                    SEED + 10 + 10 * i + j,
                )
            )
            joint = math.hypot(in_control.se_arl, masked.se_arl)
            worst = max(worst, abs(masked.arl - in_control.arl) / (3 * joint))
    # Counterfactual: the same shift with the auxiliary in control is caught
    # after ~3.3 subgroups on average.
    model = ProcessModel.standard(0.5)
    counter = estimate_runlength(
        SimulationConfig(
            model,
            ShiftScenario(delta_y=2.0, delta_x=0.0),
            make_limits(ChartKind.EWMA, lam, limit, model),
            REPS,
            SEED + 3,
        )
    )
    counter_ok = abs(counter.arl - 3.3) <= 0.05 * 3.3
    report(
        "criterion 5: masking keeps ARL at the in-control level for all "
        "rho x delta_y; counterfactual ARL = 3.3 +/- 5%",
        worst <= 1.0 and counter_ok,
        f"worst masked gap {worst:.2f}x3SE, counterfactual {counter.arl:.3f}",
    )


def test_criterion_6_estimator_properties():
    # Unbiasedness and variance reduction of the auxiliary-adjusted
    # estimator; exact reduction to the sample mean at rho = 0.
    ok = True
    details = []
    for rho in (0.25, 0.5, 0.75):
        model = ProcessModel.standard(rho)
        words = SubgroupStream(1, SEED + 4, [0]).take_words(REPS)[0]
        zx, ze = normals_from_words(1, words)
        y, x = pairs_from_normals(model, 0.0, 0.0, zx, ze)
        ybar, xbar = y.mean(axis=1), x.mean(axis=1)
        diff = ybar + model.beta() * (model.mu_x0 - xbar)
        se = math.sqrt((1 - rho**2)) / math.sqrt(REPS)
        bias_ok = abs(diff.mean()) < 4 * se
        ratio = diff.var(ddof=1) / ybar.var(ddof=1)
        var_ok = abs(ratio - (1 - rho**2)) <= 0.05 * (1 - rho**2)
        ok = ok and bias_ok and var_ok
        details.append(f"rho {rho}: bias {diff.mean():+.5f}, ratio {ratio:.4f}")
    rng = np.random.default_rng(SEED)
    zero_rho = ProcessModel.standard(0.0)
    for _ in range(1000):
        y_bar, x_bar = rng.normal(), rng.normal()
        ok = ok and difference_estimate(y_bar, x_bar, zero_rho) == y_bar
    report(
        "criterion 6: difference estimator unbiased, variance ratio = "
        "1 - rho^2 (5%), exact rho=0 reduction",
        ok,
        "; ".join(details),
    )


def test_criterion_7_profile_equivalence():
    worst = profile_equivalence_trials(10_000, master_seed=SEED)
    report(
        "criterion 7: statistic = deviation + constant within 8 ULP over "
        "10,000 randomized trials",
        worst <= 8.0,
        f"max gap {worst:.3f} ulp",
    )


def test_grid_monotonicity_invariant(table1_run):
    # Not a numbered criterion: ARL must fall as the auxiliary shift or the
    # correlation grows, with no inversion beyond Monte Carlo noise.
    _, rows = table1_run
    cells = {
        (float(r["rho"]), float(r["delta_x"]), r["chart"], float(r["lambda"])): (
            float(r["arl"]),
            float(r["se"]),
        )
        for r in rows
    }
    charts_cols = {(r["chart"], float(r["lambda"])) for r in rows}
    rho_levels = (0.05, 0.25, 0.50, 0.75)
    dx_levels = (0.25, 0.50, 1.00)
    violations = []
    for chart, lam in charts_cols:
        for rho in rho_levels:
            for lo, hi in zip(dx_levels, dx_levels[1:]):
                a, sa = cells[(rho, hi, chart, lam)]
                b, sb = cells[(rho, lo, chart, lam)]
                if a >= b + 3 * math.hypot(sa, sb):
                    violations.append((chart, lam, rho, lo, hi))
        for dx in dx_levels:
            for lo, hi in zip(rho_levels, rho_levels[1:]):
                a, sa = cells[(hi, dx, chart, lam)]
                b, sb = cells[(lo, dx, chart, lam)]
                if a >= b + 3 * math.hypot(sa, sb):
                    violations.append((chart, lam, lo, hi, dx))
    report(
        "grid invariant: ARL decreasing in delta_x and in rho beyond MC noise",
        not violations,
        f"{len(violations)} inversions",
    )


def test_criterion_8_thread_count_determinism(tmp_path):
    # Byte-identical output is reps-independent by construction; the
    # smallest contract-allowed grid size keeps this check quick.
    single = tmp_path / "threads1.csv"
    many = tmp_path / "threads8.csv"
    code1 = main(["table1", "--reps", "10000", "--seed", str(SEED),
                  "--out", str(single), "--threads", "1"])
    code8 = main(["table1", "--reps", "10000", "--seed", str(SEED),
                  "--out", str(many), "--threads", "8"])
    identical = single.read_bytes() == many.read_bytes()
    report(
        "criterion 8: table1 --threads 1 and --threads 8 produce "
        "byte-identical CSV",
        code1 == 0 and code8 == 0 and identical,
        f"{single.stat().st_size} bytes compared",
    )
