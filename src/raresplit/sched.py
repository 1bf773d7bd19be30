"""Level-selection heuristics targeting per-level survival p_bar.

Two constructions are provided.  ``inverse_ccdf_schedule`` is universally
applicable: it runs a pilot splitting pass on equally spaced times,
log-linearly interpolates the estimated survival curve, and inverts it at
p_bar, p_bar^2, ....  ``lower_bound_schedule`` applies to sum-type
importance functions only: it computes the survival curve
c(t) = P[S(X(t)) <= gamma] without sampling (``curve.py``) and places L
levels of equal conditional survival c(1)^(1/L) on it, the fewest with
survival at least p_bar.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .curve import survival_bracket
from .dist import poisson_cdf_at
from .model import ProblemSpec
from .process import RngStream
from .split import LevelSchedule, run_splitting

__all__ = ["SchedulingError", "lower_bound_schedule", "inverse_ccdf_schedule"]

_MAX_LEVELS = 10_000
_GRID = 32  # intervals of the t-grid the curve is inverted on


class SchedulingError(RuntimeError):
    """Raised when a schedule cannot be constructed from the given inputs."""


def _log_bound_continuous(problem: ProblemSpec):
    """log of prod_j P[X_j(t) <= gamma / n_bar], the component-wise bound on
    the survival of a top-n_bar sum.  Each factor equals the Gamma(t, 1) CDF
    at -ln(1 - F_j(gamma / n_bar)).
    """
    _, top = problem.importance.summands(problem.n)
    c = problem.gamma / top
    xs = []
    for m in problem.marginals:
        F = m.cdf(c)
        if F >= 1.0:
            continue
        x = -math.log1p(-F)
        if x <= 0.0:
            raise SchedulingError(
                f"threshold {c!r} is below the representable support of {m!r}; "
                "the component-wise bound is identically 0")
        xs.append(x)
    if not xs:
        return lambda t: 0.0  # gamma so large that the bound is identically 1
    xs = np.asarray(xs)

    def log_bound(t):
        return float(np.sum(np.log(special.gammainc(t, xs))))

    return log_bound


def _log_bound_poisson(problem: ProblemSpec):
    """log of prod_j P[N_j(t) <= floor(gamma / (w_j n))] over the counts with
    w_j > 0, for gamma >= 0."""
    weights = problem.importance.weight_array()
    on = weights > 0
    lams = problem.rates()[on]
    ks = np.floor(problem.gamma / (weights[on] * problem.n))
    return lambda t: float(np.sum(np.log(poisson_cdf_at(lams * t, ks))))


def _log_survival_curve(problem: ProblemSpec, ts) -> np.ndarray:
    """log c(t) at each time in ``ts``: the geometric middle of the curve
    engine's bracket, or the component-wise bound where the engine does
    not apply."""
    bracket = survival_bracket(problem, ts)
    if bracket is None:
        if problem.kind == "poisson":
            log_bound = _log_bound_poisson(problem)
        else:
            log_bound = _log_bound_continuous(problem)
        return np.asarray([log_bound(t) for t in ts])
    lo, hi = bracket
    with np.errstate(divide="ignore"):
        return 0.5 * (np.log(lo) + np.log(hi))


def lower_bound_schedule(problem: ProblemSpec, p_bar: float = 0.1,
                         t_max: float = 1.0) -> LevelSchedule:
    """Levels of equal survival on the sample-free survival curve.

    With c(t) = P[S(X(t)) <= gamma], P = c(1) and L = max(1, ceil(log P /
    log p_bar)), level l solves c(t_l) = P^(l/L), so every level, the last
    one included, survives P^(1/L) >= p_bar.  log c is evaluated on a grid
    of _GRID + 1 equally spaced times and inverted piecewise linearly.  The
    curve comes from ``curve.survival_bracket``; where that does not apply
    (top-n_bar sums over marginals that are not identical, Poisson DPs past
    the lattice cap) the component-wise lower bound prod_j B_j(t) stands in
    for it.  Interior levels at or past ``t_max`` are dropped; the final
    level is exactly 1.  Ratio problems have no curve of this form, use
    ``inverse_ccdf_schedule`` for those.
    """
    if problem.importance.summands(problem.n) is None:
        raise SchedulingError(
            f"lower_bound_schedule does not apply to {problem.importance.kind} problems; "
            "use inverse_ccdf_schedule instead")
    if not (0.0 < p_bar < 1.0):
        raise ValueError("p_bar must lie in (0, 1)")
    if not (0.0 < t_max <= 1.0):
        raise ValueError("t_max must lie in (0, 1]")

    ts = np.linspace(0.0, 1.0, _GRID + 1)
    log_c = np.minimum.accumulate(
        np.concatenate(([0.0], _log_survival_curve(problem, ts[1:]))))
    log_end = log_c[-1]
    if not np.isfinite(log_end):
        raise SchedulingError(
            f"the survival curve at t = 1 is 0 to double precision "
            f"(gamma = {problem.gamma!r}); no schedule can reach it")
    levels = max(1, math.ceil(log_end / math.log(p_bar)))
    if levels > _MAX_LEVELS:
        raise SchedulingError(f"more than {_MAX_LEVELS} levels requested; check p_bar")
    times, targets = [], []
    for l in range(1, levels):
        t = _invert_decreasing(ts, log_c, log_end * l / levels)
        if t < t_max and (not times or t > times[-1]):
            times.append(t)
            targets.append(math.exp(log_end * l / levels))
    return LevelSchedule((*times, 1.0), (*targets, math.exp(log_end)))


def _invert_decreasing(ts, ys, y):
    """t where the piecewise-linear curve through (ts, ys) equals y.

    ``ys`` is nonincreasing with ys[0] >= y > ys[-1]; flat segments resolve
    to their left endpoint.
    """
    for j in range(len(ts) - 1):
        if ys[j + 1] <= y <= ys[j]:
            if ys[j] == ys[j + 1]:
                return ts[j]
            return ts[j] + (y - ys[j]) * (ts[j + 1] - ts[j]) / (ys[j + 1] - ys[j])
    raise SchedulingError(f"target {y!r} outside the interpolated survival curve")


def inverse_ccdf_schedule(problem: ProblemSpec, rng: RngStream, *,
                          l_pilot: int = 12, s_pilot: int = 3000,
                          p_bar: float = 0.1) -> LevelSchedule:
    """Levels by inverting a pilot estimate of the survival curve.

    A pilot splitting pass at equally spaced times l/l_pilot estimates the
    survival products; the points (t, log survival) are linearly
    interpolated and inverted at p_bar^1, p_bar^2, ... until the curve's
    terminal value is reached, and the final level is pinned to exactly 1.
    """
    if l_pilot < 2:
        raise ValueError("l_pilot must be >= 2")
    if s_pilot < 100:
        raise ValueError("s_pilot must be >= 100")
    if not (0.0 < p_bar < 1.0):
        raise ValueError("p_bar must lie in (0, 1)")

    pilot_times = tuple((l + 1) / l_pilot for l in range(l_pilot))
    pilot = run_splitting(problem, LevelSchedule(pilot_times), s_pilot, rng)
    if pilot.extinct_at is not None and pilot.extinct_at < l_pilot - 1:
        raise SchedulingError(
            f"pilot run went extinct at level {pilot.extinct_at + 1}/{l_pilot}; "
            "increase s_pilot or decrease l_pilot")

    counts = pilot.survivor_counts
    ts = [0.0]
    log_surv = [0.0]
    acc = 0.0
    for t, k in zip(pilot_times, counts):
        if k == 0:
            break  # only the extinct final level can land here
        acc += math.log(k / s_pilot)
        ts.append(t)
        log_surv.append(acc)
    if len(ts) < 2:
        raise SchedulingError("pilot produced no usable levels; increase s_pilot")

    log_p = math.log(p_bar)
    end = log_surv[-1]
    times, targets = [], []
    level = 1
    # the 1e-9 slack keeps a target that matches the curve's end (up to
    # accumulation roundoff) from spawning a zero-width final step
    while level * log_p > end + 1e-9:
        t = _invert_decreasing(ts, log_surv, level * log_p)
        if t < 1.0 - 1e-12 and (not times or t > times[-1]):
            times.append(t)
            targets.append(p_bar ** level)
        level += 1
        if level > _MAX_LEVELS:
            raise SchedulingError(f"more than {_MAX_LEVELS} levels requested; check p_bar")
    return LevelSchedule((*times, 1.0), (*targets, math.exp(end)))
