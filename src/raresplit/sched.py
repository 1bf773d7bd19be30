"""Level-selection heuristics targeting per-level survival p_bar.

Both builders place levels on a curve of (t, log survival) points, inverted
piecewise linearly by one routine.  ``lower_bound_schedule`` takes the
curve c(t) = P[S(X(t)) <= gamma] from the sample-free engine of
``curve.py`` and places L levels of equal conditional survival c(1)^(1/L),
the fewest with survival at least p_bar; problems the engine does not
cover are rejected.  ``inverse_ccdf_schedule`` applies to every problem: it
runs a pilot splitting pass on equally spaced times and inverts the
estimated curve at p_bar, p_bar^2, ....
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .curve import survival_bracket
from .model import ProblemSpec
from .process import RngStream
from .split import LevelSchedule, run_splitting

__all__ = ["SchedulingError", "lower_bound_schedule", "inverse_ccdf_schedule"]

_MAX_LEVELS = 10_000
_GRID = 32  # intervals of the t-grid the curve is inverted on


class SchedulingError(RuntimeError):
    """Raised when a schedule cannot be constructed from the given inputs."""


def lower_bound_schedule(problem: ProblemSpec, p_bar: float = 0.1) -> LevelSchedule:
    """Levels of equal survival on the sample-free survival curve.

    With c(t) = P[S(X(t)) <= gamma], P = c(1) and L = max(1, ceil(log P /
    log p_bar)), level l solves c(t_l) = P^(l/L), so every level, the last
    one included, survives P^(1/L) >= p_bar.  log c is the geometric middle
    of ``curve.survival_bracket`` on a grid of _GRID + 1 equally spaced
    times.  Problems the engine does not cover (ratios, top-n_bar sums over
    marginals that are not identical, Poisson DPs past the lattice cap)
    raise SchedulingError; use ``inverse_ccdf_schedule`` for those.
    """
    if not (0.0 < p_bar < 1.0):
        raise ValueError("p_bar must lie in (0, 1)")
    ts = np.linspace(0.0, 1.0, _GRID + 1)
    bracket = survival_bracket(problem, ts[1:])
    if bracket is None:
        raise SchedulingError(
            f"lower_bound_schedule has no exact survival curve for this "
            f"{problem.importance.kind} problem; use --levels-method iccdf "
            "(inverse_ccdf_schedule) instead")
    with np.errstate(divide="ignore"):
        log_mid = 0.5 * (np.log(bracket[0]) + np.log(bracket[1]))
    log_c = np.minimum.accumulate(np.concatenate(([0.0], log_mid)))
    log_end = log_c[-1]
    if not np.isfinite(log_end):
        raise SchedulingError(
            f"the survival curve at t = 1 is 0 to double precision "
            f"(gamma = {problem.gamma!r}); no schedule can reach it")
    levels = max(1, math.ceil(log_end / math.log(p_bar)))
    goals = (log_end * l / levels for l in range(1, levels))
    return _place_levels(ts, log_c, ((g, math.exp(g)) for g in goals))


def _place_levels(ts, log_c, goals) -> LevelSchedule:
    """Levels where the curve through (ts, log_c) meets each goal.

    ``goals`` yields (log target, target) pairs with decreasing log targets
    inside the curve's range.  Times that are not strictly increasing or
    not below 1 are dropped; the last level is 1 and aims at the curve's end.
    """
    goals = list(itertools.islice(goals, _MAX_LEVELS))
    if len(goals) == _MAX_LEVELS:
        raise SchedulingError(f"more than {_MAX_LEVELS} levels requested; check p_bar")
    times, targets = [], []
    for log_goal, goal in goals:
        t = _invert_decreasing(ts, log_c, log_goal)
        if t < 1.0 - 1e-12 and (not times or t > times[-1]):
            times.append(t)
            targets.append(goal)
    return LevelSchedule((*times, 1.0), (*targets, math.exp(log_c[-1])))


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
    if l_pilot > _MAX_LEVELS:
        raise ValueError(f"l_pilot must be <= {_MAX_LEVELS}")
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

    ts = [0.0]
    log_surv = [0.0]
    acc = 0.0
    for t, k in zip(pilot_times, pilot.survivor_counts):
        if k == 0:
            break  # only the extinct final level can land here
        acc += math.log(k / s_pilot)
        ts.append(t)
        log_surv.append(acc)

    log_p = math.log(p_bar)
    end = log_surv[-1]
    # the 1e-9 slack keeps a target that matches the curve's end (up to
    # accumulation roundoff) from spawning a zero-width final step
    levels = itertools.takewhile(lambda l: l * log_p > end + 1e-9, itertools.count(1))
    return _place_levels(ts, log_surv, ((l * log_p, p_bar ** l) for l in levels))
