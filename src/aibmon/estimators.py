"""Point estimators of the process mean from one subgroup of (y, x) pairs.

The auxiliary-variable estimators assume the in-control parameters of X
(mean, and for the difference estimator the slope beta) are known. The
difference estimator is the one the charts plot; ratio, product and
regression variants are provided for efficiency studies only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DegenerateDesign,
    DivisionByZeroMean,
    SubgroupTooSmall,
    ZeroPopulationMean,
)
from .stochastics import PairedSample, ProcessModel


@dataclass(frozen=True)
class SampleMoments:
    """Sufficient statistics of one subgroup.

    Second moments use denominator n - 1 and are ``None`` for subgroups of
    size 1, where they are undefined.
    """

    y_bar: float
    x_bar: float
    s_yx: Optional[float]
    s_x2: Optional[float]
    s_y2: Optional[float]

    @property
    def has_variances(self) -> bool:
        return self.s_x2 is not None


@dataclass(frozen=True)
class EfficiencyInputs:
    """Population quantities entering the ratio/product efficiency conditions."""

    rho: float
    c_x: float
    c_y: float

    def __post_init__(self):
        if not (self.c_x > 0 and math.isfinite(self.c_x)):
            raise ValueError("c_x must be finite and positive")
        if not (self.c_y > 0 and math.isfinite(self.c_y)):
            raise ValueError("c_y must be finite and positive")


def moments(sample: PairedSample) -> SampleMoments:
    """Subgroup means plus (for n >= 2) unbiased covariance and variances."""
    n = sample.n
    y_bar = float(sample.y.mean())
    x_bar = float(sample.x.mean())
    if n < 2:
        return SampleMoments(y_bar, x_bar, None, None, None)
    dy = sample.y - y_bar
    dx = sample.x - x_bar
    s_yx = float((dy * dx).sum() / (n - 1))
    s_x2 = float((dx * dx).sum() / (n - 1))
    s_y2 = float((dy * dy).sum() / (n - 1))
    return SampleMoments(y_bar, x_bar, s_yx, s_x2, s_y2)


def mean_estimate(m: SampleMoments) -> float:
    """Plain sample mean of Y; ignores the auxiliary variable."""
    return m.y_bar


def ratio_estimate(m: SampleMoments, mu_x: float) -> float:
    """(y_bar / x_bar) * mu_x; needs x_bar != 0."""
    if m.x_bar == 0.0:
        raise DivisionByZeroMean("ratio estimator undefined at x_bar = 0")
    return m.y_bar / m.x_bar * mu_x


def product_estimate(m: SampleMoments, mu_x: float) -> float:
    """y_bar * x_bar / mu_x; needs mu_x != 0."""
    if mu_x == 0.0:
        raise ZeroPopulationMean("product estimator undefined at mu_x = 0")
    return m.y_bar * m.x_bar / mu_x


def difference_estimate(m: SampleMoments, model: ProcessModel) -> float:
    """y_bar + beta * (mu_x0 - x_bar), beta = rho * sigma_y / sigma_x.

    Unbiased for the mean of Y with variance (1 - rho^2) * sigma_y^2 / n;
    reduces exactly to the sample mean at rho = 0. Works elementwise on
    arrays of subgroup means, as the run-length engine passes them.
    """
    return m.y_bar + model.beta() * (model.mu_x0 - m.x_bar)


def regression_estimate(m: SampleMoments, mu_x: float) -> float:
    """y_bar + (s_yx / s_x2) * (mu_x - x_bar), with the slope estimated."""
    if not m.has_variances:
        raise SubgroupTooSmall("regression estimator needs a subgroup of size >= 2")
    if m.s_x2 == 0.0:
        raise DegenerateDesign("regression estimator undefined for constant x")
    return m.y_bar + m.s_yx / m.s_x2 * (mu_x - m.x_bar)


def ratio_preferred(e: EfficiencyInputs) -> bool:
    """True when the ratio estimator beats the sample mean: rho > c_x / (2 c_y)."""
    return e.rho > 0.5 * e.c_x / e.c_y


def product_preferred(e: EfficiencyInputs) -> bool:
    """True when the product estimator beats the sample mean: rho < -c_x / (2 c_y)."""
    return e.rho < -0.5 * e.c_x / e.c_y
