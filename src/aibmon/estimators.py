"""Point estimators of the process mean from one subgroup of (y, x) pairs.

The difference estimator, which the charts plot, assumes the in-control
mean of X and the slope beta are known. The regression estimator keeps the
known mean of X but estimates the slope within the subgroup; it converges to
the difference estimator as the subgroup grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DegenerateDesign, SubgroupTooSmall
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
