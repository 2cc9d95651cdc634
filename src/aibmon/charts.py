"""The plotted statistic, control limits and the chart recursion.

The plotted statistic is the difference estimator of the Y mean,
``difference_estimate``; the classical Shewhart/EWMA charts are the rho = 0
special case. Limits are symmetric about the in-control Y mean with
half-width proportional to the standard deviation of the plotted statistic,
sqrt(1 - rho^2) * sigma_y / sqrt(n), times the square root of the EWMA
stationary variance factor lambda / (2 - lambda) (fixed asymptotic limits,
no time index). A Shewhart chart is the lambda = 1 chart, whose factor is
exactly 1.
``ewma_path`` is the one implementation of the recursion and of the
signal rule; the run-length engine and ``trace`` both call it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .stochastics import ProcessModel


class ChartKind(str, Enum):
    SHEWHART = "shewhart"
    EWMA = "ewma"


@dataclass(frozen=True)
class ChartSpec:
    """Chart kind, smoothing, limit multiplier, center and limit half-width.

    ``half_width`` is precomputed. ``make_limits`` builds a model's spec,
    and a ``SimulationConfig`` takes no other; a hand-built one, a zero
    half-width included, serves ``ewma_path`` alone.
    """

    kind: ChartKind
    lam: float
    limit_multiplier: float
    center: float
    half_width: float

    def __post_init__(self):
        # "shewhart" is not ``ChartKind.SHEWHART``; any other value raises.
        object.__setattr__(self, "kind", ChartKind(self.kind))
        if self.lam is None or not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lambda must be in (0, 1], got {self.lam}")
        if self.kind is ChartKind.SHEWHART and self.lam != 1.0:
            raise ValueError("Shewhart chart requires lambda = 1")
        if not 0 < self.limit_multiplier < math.inf:
            raise ValueError("limit_multiplier must be positive and finite")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")
        if not 0 <= self.half_width < math.inf:
            raise ValueError("half_width must be nonnegative and finite")

    @property
    def lcl(self) -> float:
        return self.center - self.half_width

    @property
    def ucl(self) -> float:
        return self.center + self.half_width


def make_limits(
    kind: ChartKind, lam: float, limit_multiplier: float, model: ProcessModel
) -> ChartSpec:
    """Build the ChartSpec for a chart centered at the in-control Y mean.

    For a Shewhart chart ``lam`` is ignored and forced to 1. The half-width
    scales with sigma_y (the plotted statistic's standard deviation), which
    is what makes the stock multiplier 2.807 deliver an in-control ARL of
    200. The spec is built, and so validated, before the half-width
    arithmetic, which needs 0 < lam <= 1.
    """
    if ChartKind(kind) is ChartKind.SHEWHART:
        lam = 1.0
    spec = ChartSpec(kind, lam, limit_multiplier, center=model.mu_y0, half_width=0.0)
    base = model.sigma_y * math.sqrt(1.0 - model.rho**2) / math.sqrt(model.n)
    base *= math.sqrt(lam / (2.0 - lam))
    return dataclasses.replace(spec, half_width=limit_multiplier * base)


def difference_estimate(
    y_bar: float | np.ndarray, x_bar: float | np.ndarray, model: ProcessModel
) -> float | np.ndarray:
    """y_bar + beta * (mu_x0 - x_bar), beta = rho * sigma_y / sigma_x.

    Unbiased for the mean of Y with variance (1 - rho^2) * sigma_y^2 / n;
    reduces exactly to the sample mean at rho = 0. Works elementwise on
    arrays of subgroup means, as the run-length engine passes them.
    """
    return y_bar + model.beta() * (model.mu_x0 - x_bar)


def ewma_path(
    spec: ChartSpec, z: np.ndarray, w0: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Chart path and signals of a block of statistics, many charts at once.

    ``z`` holds one chart per row and one statistic per column, shape
    (rows, count); ``w0`` is each row's smoothed value before the block
    (the chart center for a fresh chart). Every step applies the EWMA
    recursion w' = lam * z + (1 - lam) * w, and lam = 1 makes w' = z, the
    Shewhart case. A step signals on strict limit violation,
    |w - center| > half_width. Returns (path, signal), both (rows, count).
    """
    # Time-major, so each step updates one contiguous vector of all rows;
    # the lam * z terms fill it in one pass.
    path = np.multiply(z.T, spec.lam, order="C")
    om = 1.0 - spec.lam
    prev = w0
    for row in path:
        row += om * prev
        prev = row
    dev = path - spec.center
    signal = np.abs(dev, out=dev) > spec.half_width
    return path.T, signal.T
