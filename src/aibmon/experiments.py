"""Scripted studies: the reference ARL grid, the masking demo, and the
profile-monitoring equivalence check.

The reference grid covers four correlation levels by three auxiliary-mean
shifts for five chart configurations (one Shewhart, four EWMA), all
calibrated to an in-control ARL of 200. Published reference ARLs are
embedded as a fixture so reproduction runs can be diffed mechanically.

CSV schemas (headers are part of the contract):

    table1.csv   rho,delta_x,chart,lambda,L,arl,se,paper_arl
    trace.csv    t,zbar_x,zbar_y,z,w,lcl,ucl,signal,regime
    scatter.csv  t,x_bar,y_bar,regime
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .charts import ChartKind, difference_estimate, make_limits
from .runlength import (
    RunLengthSummary,
    SimulationConfig,
    TracePoint,
    estimate_runlength,
    trace,
)
from .stochastics import (
    ProcessModel,
    ShiftMode,
    ShiftScenario,
    check_int,
    sample_subgroup,
)

TABLE1_RHO_LEVELS = (0.05, 0.25, 0.50, 0.75)
TABLE1_DELTA_X_LEVELS = (0.25, 0.50, 1.00)

# (kind, lambda, limit multiplier) columns of the reference grid.
TABLE1_CHARTS = (
    (ChartKind.SHEWHART, 1.00, 2.807),
    (ChartKind.EWMA, 0.05, 2.216),
    (ChartKind.EWMA, 0.10, 2.454),
    (ChartKind.EWMA, 0.20, 2.636),
    (ChartKind.EWMA, 0.50, 2.777),
)

# Published ARLs, keyed (rho, delta_x), one value per chart column.
TABLE1_PAPER_ARL = {
    (0.05, 0.25): (200.4, 199.5, 198.4, 200.1, 199.9),
    (0.05, 0.50): (198.2, 193.9, 194.6, 196.7, 198.6),
    (0.05, 1.00): (198.1, 177.8, 183.2, 188.8, 195.0),
    (0.25, 0.25): (197.5, 166.9, 173.0, 182.5, 190.9),
    (0.25, 0.50): (186.3, 111.6, 124.6, 142.7, 168.6),
    (0.25, 1.00): (153.4, 52.4, 60.3, 74.9, 110.7),
    (0.50, 0.25): (184.1, 101.8, 113.9, 131.9, 161.6),
    (0.50, 0.50): (145.3, 45.4, 51.4, 65.0, 100.4),
    (0.50, 1.00): (75.6, 18.3, 18.3, 21.0, 35.9),
    (0.75, 0.25): (145.8, 46.6, 52.9, 66.7, 101.8),
    (0.75, 0.50): (77.6, 18.6, 18.9, 21.8, 36.9),
    (0.75, 1.00): (21.3, 8.1, 7.3, 6.9, 8.9),
}


@dataclass(frozen=True)
class Table1Cell:
    """One reproduced grid cell next to its published reference value."""

    rho: float
    delta_x: float
    kind: ChartKind
    lam: float
    limit_multiplier: float
    summary: RunLengthSummary
    paper_arl: float

    @property
    def within_tolerance(self) -> bool:
        """Agreement at max(5% relative, 3 standard errors)."""
        tol = max(0.05 * self.paper_arl, 3.0 * self.summary.se_arl)
        return abs(self.summary.arl - self.paper_arl) <= tol


def table1_grid() -> list[tuple[float, float, ChartKind, float, float, float]]:
    """Flattened (rho, delta_x, kind, lam, L, paper_arl) rows of the grid."""
    rows = []
    for rho in TABLE1_RHO_LEVELS:
        for delta_x in TABLE1_DELTA_X_LEVELS:
            refs = TABLE1_PAPER_ARL[(rho, delta_x)]
            for (kind, lam, limit), ref in zip(TABLE1_CHARTS, refs):
                rows.append((rho, delta_x, kind, lam, limit, ref))
    return rows


def reproduce_table1(
    reps: int = 50_000, master_seed: int = 0, threads: int = 1
) -> list[Table1Cell]:
    """Re-simulate every cell of the reference grid.

    Cells reuse the replication substreams of the one master seed (common
    random numbers), which leaves each cell's estimate unbiased while
    making monotone comparisons across cells nearly noise-free.
    """
    if reps < 10_000:
        raise ValueError("grid reproduction needs reps >= 10,000")
    cells = []
    for rho, delta_x, kind, lam, limit, ref in table1_grid():
        model = ProcessModel.standard(rho)
        config = SimulationConfig(
            model=model,
            scenario=ShiftScenario(delta_y=0.0, delta_x=delta_x),
            spec=make_limits(kind, lam, limit, model),
            reps=reps,
            master_seed=master_seed,
        )
        cells.append(
            Table1Cell(
                rho=rho,
                delta_x=delta_x,
                kind=kind,
                lam=lam,
                limit_multiplier=limit,
                summary=estimate_runlength(config, threads=threads),
                paper_arl=ref,
            )
        )
    return cells


def table1_csv_lines(cells: Iterable[Table1Cell]) -> list[str]:
    lines = ["rho,delta_x,chart,lambda,L,arl,se,paper_arl"]
    for c in cells:
        lines.append(
            f"{c.rho:g},{c.delta_x:g},{c.kind.value},{c.lam:g},"
            f"{c.limit_multiplier:g},{c.summary.arl:.4f},"
            f"{c.summary.se_arl:.4f},{c.paper_arl:.1f}"
        )
    return lines


def trace_csv_lines(points: Iterable[TracePoint]) -> list[str]:
    lines = ["t,zbar_x,zbar_y,z,w,lcl,ucl,signal,regime"]
    for p in points:
        lines.append(
            f"{p.t},{p.x_bar:.10g},{p.y_bar:.10g},{p.z:.10g},{p.w:.10g},"
            f"{p.lcl:.10g},{p.ucl:.10g},{int(p.signal)},{p.regime}"
        )
    return lines


def scatter_csv_lines(points: Iterable[TracePoint]) -> list[str]:
    lines = ["t,x_bar,y_bar,regime"]
    for p in points:
        lines.append(f"{p.t},{p.x_bar:.10g},{p.y_bar:.10g},{p.regime}")
    return lines


@dataclass(frozen=True)
class MaskingDemo:
    """Chart path under a masking-coupled shift plus the counterfactual ARL."""

    points: list[TracePoint]
    signal_count: int
    changepoint: int
    counterfactual: RunLengthSummary


def masking_demo(
    rho: float,
    delta_y: float,
    lam: float,
    limit_multiplier: float,
    n_subgroups: int = 200,
    changepoint: int = 25,
    master_seed: int = 0,
    counterfactual_reps: int = 50_000,
    threads: int = 1,
) -> MaskingDemo:
    """Trace a masked shift and report what detection was forfeited.

    The emitted path shows the chart under a Y shift of ``delta_y`` whose
    coupled X shift cancels it (typically: no signals at all). The
    counterfactual run-length study answers how fast the same chart would
    have caught the identical Y shift had X stayed in control. The trace
    must reach the shift: ``changepoint < n_subgroups``.
    """
    model = ProcessModel.standard(rho)
    spec = make_limits(ChartKind.EWMA, lam, limit_multiplier, model)
    masked = SimulationConfig(
        model=model,
        scenario=ShiftScenario(
            delta_y=delta_y, mode=ShiftMode.MASKING, changepoint=changepoint
        ),
        spec=spec,
        master_seed=master_seed,
    )
    counterfactual = SimulationConfig(
        model=model,
        scenario=ShiftScenario(delta_y=delta_y, delta_x=0.0),
        spec=spec,
        reps=counterfactual_reps,
        master_seed=master_seed,
    )
    if changepoint >= n_subgroups:
        raise ValueError(
            f"changepoint must be below n_subgroups, got {changepoint} >= "
            f"{n_subgroups}: the trace would end before the shift"
        )
    points = trace(masked, 0, n_subgroups)
    return MaskingDemo(
        points=points,
        signal_count=sum(p.signal for p in points),
        changepoint=changepoint,
        counterfactual=estimate_runlength(counterfactual, threads=threads),
    )


def profile_deviation(y_bar: float, x_bar: float, a0: float, b0: float) -> float:
    """Deviation of a subgroup's means from the in-control line y = a0 + b0 * x."""
    return y_bar - a0 - b0 * x_bar


# Largest gap, in units in the last place, between the two evaluation orders
# of the statistic = profile deviation + constant identity.
EQUIVALENCE_TOLERANCE_ULP = 8.0


@dataclass(frozen=True)
class EquivalenceResult:
    """Auxiliary-adjusted statistic decomposed as deviation plus constant."""

    aib: float
    deviation: float
    constant: float
    gap: float
    gap_ulp: float

    @property
    def ok(self) -> bool:
        return self.gap_ulp <= EQUIVALENCE_TOLERANCE_ULP


def equivalence_check(
    y_bar: float, x_bar: float, model: ProcessModel, a0: float
) -> EquivalenceResult:
    """Verify the identity: statistic = profile deviation + (a0 + beta * mu_x0).

    ``y_bar`` and ``x_bar`` are a subgroup's two means, as the statistic
    takes them. The in-control profile line has intercept ``a0`` and the
    process's own slope, beta. Both sides use the same known X mean. The two
    evaluation orders differ only by rounding, so the gap is measured in
    units in the last place at the scale of the terms involved and must stay
    at or below ``EQUIVALENCE_TOLERANCE_ULP``.
    """
    b0 = model.beta()
    aib = difference_estimate(y_bar, x_bar, model)
    deviation = profile_deviation(y_bar, x_bar, a0, b0)
    constant = a0 + b0 * model.mu_x0
    gap = abs(aib - (deviation + constant))
    scale = max(abs(aib), abs(deviation), abs(constant), abs(a0), abs(b0 * x_bar))
    gap_ulp = gap / np.spacing(max(scale, 1e-300))
    return EquivalenceResult(
        aib=aib,
        deviation=deviation,
        constant=constant,
        gap=gap,
        gap_ulp=float(gap_ulp),
    )


def profile_equivalence_trials(trials: int, master_seed: int = 0) -> float:
    """Worst identity gap (in ULP) over randomized models, samples and lines.

    Every trial draws a fresh process model, a subgroup from the model's
    own substream and a random intercept, and measures the decomposition
    gap. Returns the maximum over all trials.
    """
    trials = check_int("trials", trials, 1)
    rng = np.random.default_rng(master_seed)
    worst = 0.0
    for i in range(trials):
        model = ProcessModel(
            mu_y0=float(rng.uniform(-2.0, 2.0)),
            mu_x0=float(rng.uniform(-2.0, 2.0)),
            sigma_y=float(rng.uniform(0.5, 2.0)),
            sigma_x=float(rng.uniform(0.5, 2.0)),
            rho=float(rng.uniform(-0.95, 0.95)),
            n=int(rng.integers(1, 11)),
        )
        y, x = sample_subgroup(model, model.mu_y0, model.mu_x0, master_seed, i, 0)
        a0 = float(rng.uniform(-3.0, 3.0))
        check = equivalence_check(float(y.mean()), float(x.mean()), model, a0)
        worst = max(worst, check.gap_ulp)
    return worst
