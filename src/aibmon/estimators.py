"""Point estimators of the process mean from one subgroup of (y, x) pairs.

The difference estimator, which the charts plot, assumes the in-control
mean of X and the slope beta are known, so it needs only the two subgroup
means. The regression estimator keeps the known mean of X but estimates the
slope within the subgroup; it converges to the difference estimator as the
subgroup grows.
"""

from __future__ import annotations

import numpy as np

from .stochastics import PairedSample, ProcessModel


def difference_estimate(
    y_bar: float | np.ndarray, x_bar: float | np.ndarray, model: ProcessModel
) -> float | np.ndarray:
    """y_bar + beta * (mu_x0 - x_bar), beta = rho * sigma_y / sigma_x.

    Unbiased for the mean of Y with variance (1 - rho^2) * sigma_y^2 / n;
    reduces exactly to the sample mean at rho = 0. Works elementwise on
    arrays of subgroup means, as the run-length engine passes them.
    """
    return y_bar + model.beta() * (model.mu_x0 - x_bar)


def regression_estimate(sample: PairedSample, mu_x: float) -> float:
    """y_bar + (s_yx / s_x2) * (mu_x - x_bar), with the slope estimated.

    The covariance and the variance of X use denominator n - 1, so the
    subgroup needs at least two pairs and a nonconstant x.
    """
    n = sample.n
    if n < 2:
        raise ValueError("regression estimator needs a subgroup of size >= 2")
    y_bar = float(sample.y.mean())
    x_bar = float(sample.x.mean())
    dy = sample.y - y_bar
    dx = sample.x - x_bar
    s_yx = float((dy * dx).sum() / (n - 1))
    s_x2 = float((dx * dx).sum() / (n - 1))
    if s_x2 == 0.0:
        raise ValueError("regression estimator undefined for constant x")
    return y_bar + s_yx / s_x2 * (mu_x - x_bar)
