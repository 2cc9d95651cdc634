"""Analytic run-length computations, independent of the Monte Carlo engine.

These routines never simulate. The Shewhart ARL is closed-form (geometric
run length), the EWMA ARL comes from a Markov-chain discretization of the
smoothed statistic, and limit calibration inverts them. They exist to
cross-check the simulation engine, so their accuracy must exceed Monte
Carlo noise by orders of magnitude: the normal CDF/quantile used here is
accurate to double precision, and the Markov approximation error is
O(n_states^-2).

Limit calibration finds its root with ``_brent``, a statement-by-statement
port of scipy's C ``brentq`` (``scipy/optimize/Zeros/brentq.c``, BSD-3;
R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973). It
evaluates the function at the same points in the same order, so the
calibrated limits are bit-identical to ``scipy.optimize.brentq``'s. The
port exists for start-up time and memory: importing ``scipy.optimize``
loads ``scipy.linalg`` and scipy's own OpenBLAS, about a third of a fresh
``import aibmon.cli`` and 23 MB of resident memory, for a single call that
``simulate --L``, ``table1`` and ``mask-demo`` never make. scipy is used
for its ``ndtr`` and ``ndtri`` ufuncs only, which ``stochastics`` loads
from two of ``scipy.special``'s compiled extensions without the package's
init: ``ndtr`` at import from the small ``_special_ufuncs``, ``ndtri``
from the cephes ``_ufuncs`` only when a Shewhart calibration calls
``stochastics.load_engine_code``. So an EWMA calibration never loads the
latter.

Everything works on the standardized scale: the plotted statistic minus
the chart center, divided by its in-control standard deviation
sqrt(1 - rho^2) * sigma_y / sqrt(n), is a unit normal with mean ``s``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

import numpy as np

from .charts import ChartKind
from . import stochastics
from .stochastics import ProcessModel, ShiftMode, ShiftScenario, check_int, ndtr


def standardized_shift(model: ProcessModel, scenario: ShiftScenario) -> float:
    """Residual shift seen by the chart, in statistic standard deviations.

    The statistic's mean moves by delta_y - rho * delta_x in units of
    sigma_y / sqrt(n); dividing by the statistic's standard deviation gives

        s = (delta_y - rho * delta_x) / sqrt(1 - rho^2).

    A masking-coupled scenario cancels exactly, s = 0, whatever delta_y.
    """
    if scenario.mode is ShiftMode.MASKING:
        return 0.0
    return (scenario.delta_y - model.rho * scenario.delta_x) / math.sqrt(
        1.0 - model.rho**2
    )


def _check_limit_and_shift(L: float, s: float) -> None:
    """Reject what would otherwise come out as a NaN ARL or a wasted solve."""
    if not 0.0 < L < math.inf:
        raise ValueError(f"limit multiplier L must be positive and finite, got {L}")
    if math.isnan(s):
        raise ValueError("standardized shift s must not be NaN")


def shewhart_arl_exact(L: float, s: float) -> float:
    """Closed-form Shewhart ARL: 1 / p with p the two-sided exceedance.

    p = Phi(-(L - s)) + Phi(-(L + s)); the run length is geometric because
    subgroups are independent. s = +-inf gives p = 1, ARL 1.
    """
    _check_limit_and_shift(L, s)
    p = float(ndtr(-(L - s)) + ndtr(-(L + s)))
    if p == 0.0:
        return math.inf
    return 1.0 / p


class SingularSystem(Exception):
    """The Markov-chain linear system is numerically singular."""


def ewma_arl_markov(lam: float, L: float, s: float, n_states: int = 401) -> float:
    """EWMA ARL by Markov-chain discretization of the in-limits interval.

    The standardized EWMA w' = (1 - lam) * w + lam * u, u ~ N(s, 1), lives
    in (-h, h) with h = L * sqrt(lam / (2 - lam)). The interval is cut into
    ``n_states`` equal cells; transition mass from cell center c_j into
    cell k is Phi(hi) - Phi(lo) with the cell edges mapped back through the
    recursion. Neighbouring cells share an edge, so each row evaluates Phi
    once on its n_states + 1 mapped edges and Q is the difference along
    the row. With absorption outside the limits, the expected absorption
    time solves (I - Q) a = 1 and the chart starts at the center cell.

    In control (s = 0) the chain is symmetric about the center: cell j
    maps to cell n - 1 - j with every edge negated, and Phi(-x) = 1 -
    Phi(x), so Q[n-1-j, n-1-k] = Q[j, k] and the unique solution a is
    symmetric, a[j] = a[n-1-j]. Substituting that into rows 0..n//2 folds
    column k onto column n - 1 - k and leaves a half-size system with the
    same solution, so only the upper half of the rows is built and solved.

    The approximation converges at second order in the cell width;
    n_states = 401 is accurate to well under 0.1% at in-control ARL 200.
    lam = 1 reproduces the Shewhart closed form, and s = +-inf gives ARL 1.
    """
    if lam is None or not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must be in (0, 1], got {lam}")
    _check_limit_and_shift(L, s)
    n_states = check_int("n_states", n_states, 51)
    if n_states % 2 == 0:
        raise ValueError(f"n_states must be an odd integer >= 51, got {n_states!r}")
    center = n_states // 2
    in_control = s == 0.0
    rows = center + 1 if in_control else n_states
    h = L * math.sqrt(lam / (2.0 - lam))
    width = 2.0 * h / n_states
    centers = -h + (np.arange(rows) + 0.5) * width
    edges = -h + np.arange(n_states + 1) * width
    z = (edges[None, :] - (1.0 - lam) * centers[:, None]) / lam
    z -= s
    A = np.diff(ndtr(z, out=z), axis=1)  # Q, one row per start cell
    if in_control:
        A[:, :center] += A[:, :center:-1]  # column n-1-k onto column k
        A = A[:, :rows]
    np.negative(A, out=A)
    diagonal = np.arange(rows)
    A[diagonal, diagonal] += 1.0
    try:
        a = np.linalg.solve(A, np.ones(rows))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"I - Q singular for lam={lam}, L={L}") from exc
    arl = float(a[center])
    if not math.isfinite(arl) or arl < 1.0:
        raise SingularSystem(
            f"Markov solve produced invalid ARL {arl} for lam={lam}, L={L}"
        )
    return arl


def analytic_arl(config) -> float:
    """ARL of the study a ``runlength.SimulationConfig`` describes.

    The Shewhart run length has no memory, so its ARL holds at any
    changepoint. The engine carries the EWMA state through the subgroups
    before the changepoint, so the zero-state Markov ARL holds only at
    changepoint 0; any other raises ``ValueError``.
    """
    spec, s = config.spec, standardized_shift(config.model, config.scenario)
    if spec.kind is ChartKind.SHEWHART:
        return shewhart_arl_exact(spec.limit_multiplier, s)
    if config.scenario.changepoint:
        raise ValueError("the EWMA oracle is zero-state and needs changepoint 0")
    return ewma_arl_markov(spec.lam, spec.limit_multiplier, s)


def calibrate_limit(kind: ChartKind, lam: float, target_arl0: float) -> tuple[float, float]:
    """Limit multiplier L whose in-control ARL is ``target_arl0``, and that ARL.

    Shewhart is analytic, L = Phi^-1(1 - 1 / (2 * target)), and does not
    read ``lam``. EWMA brackets the 401-state Markov-chain ARL in L and
    solves by Brent's method to |ARL - target| < max(0.1, 1e-3 * target);
    the ARL returned is the one solved at L. Both may differ in their last
    digits between BLAS thread counts, whose Markov solves need not round
    alike (printed to 6 and 3 decimals they agree); ``simulate
    --target-arl0`` charts this L.

    The residual bound grows with the target because the solve's own
    rounding does: the chain's matrix has a condition number of about the
    ARL. At the root of a 1e12 target the residual was up to 1.3e-5 of the
    target (lambda 0.05, 0.1 and 0.5), at 1e7 3e-8. A larger residual means
    the ARL jumps across the target, so no L reaches it.
    """
    if not 1.0 < target_arl0 < math.inf:
        raise ValueError("target in-control ARL must be finite and exceed 1")
    if ChartKind(kind) is ChartKind.SHEWHART:
        L = float(-stochastics.load_engine_code()(0.5 / target_arl0))
        return L, shewhart_arl_exact(L, 0.0)

    # _brent re-evaluates the bracket ends and the residual check re-evaluates
    # its root, so each distinct L is solved once and remembered for this call.
    solved: dict[float, float] = {}

    def gap(L: float) -> float:
        if L not in solved:
            solved[L] = ewma_arl_markov(lam, L, 0.0)
        return solved[L] - target_arl0

    # ARL grows monotonically (and eventually astronomically) in L, and the
    # limits of interest lie near 2. Start the bracket there: walk down to 1
    # and then 1e-3 while the gap is >= 0, else walk the upper end up to 10
    # until the gap turns >= 0, stopping where the Markov solve degenerates.
    def reached(L: float) -> bool | None:
        """gap(L) >= 0, or None where the Markov solve degenerates."""
        try:
            return gap(L) >= 0
        except SingularSystem:
            return None

    lo, hi = 2.0, None
    start = reached(lo)
    if start:
        lo, hi = 1.0, 2.0
        if gap(lo) >= 0:
            lo, hi = 1e-3, 1.0
            if gap(lo) > 0:
                raise ValueError(
                    f"target in-control ARL {target_arl0} already exceeded at L={lo}"
                )
    elif start is False:
        for cand in (3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
            found = reached(cand)
            if found is None:
                break
            if found:
                hi = cand
                break
            lo = cand
    if hi is None:
        raise ValueError(
            f"no L in (0, 10] reaches in-control ARL {target_arl0} at lam={lam}"
        )
    L = _brent(gap, lo, hi, xtol=1e-7)
    if abs(gap(L)) >= max(0.1, 1e-3 * target_arl0):
        raise ValueError(f"calibration residual too large at lam={lam}")
    return L, solved[L]


def _brent(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    maxiter: int = 100,
) -> float:
    """Root of ``f`` in [a, b], as ``scipy.optimize.brentq(f, a, b, xtol)``.

    Brent's method: inverse quadratic interpolation (secant when only two
    points are known), falling back to bisection whenever the step would
    not shrink fast enough. Converged once half the bracket is below
    delta = (xtol + rtol * |x|) / 2, with brentq's rtol = 4 eps. Raises
    ``ValueError`` when f(a) and f(b) have the same sign and
    ``RuntimeError`` after ``maxiter`` iterations. ``f`` must not return
    NaN.
    """
    rtol = 4 * sys.float_info.epsilon
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (
                        dblk * dpre * (fblk - fpre)
                    )
            except ZeroDivisionError:  # inf or NaN in C: the test below bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(
        f"Failed to converge after {maxiter} iterations, value is {xcur:f}"
    )
