"""Level-selection heuristics targeting per-level survival p_bar.

Both builders hand a curve of (t, log survival) points to one placement
rule: with P the curve's end value, L levels of equal conditional survival
P^(1/L), the fewest with survival at least p_bar, where the piecewise-linear
curve meets P^(l/L).  ``lower_bound_schedule`` takes the curve
c(t) = P[S(X(t)) <= gamma] from the sample-free engine of ``curve.py`` and
rejects problems the engine refuses.  ``inverse_ccdf_schedule``
applies to every problem: its curve is estimated by a pilot splitting pass
on equally spaced times.
"""

from __future__ import annotations

import math

import numpy as np

from .curve import CurveRefusal, survival_bracket
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
    times.  Problems the engine refuses (see ``curve.survival_bracket``)
    raise SchedulingError with the engine's reason; use
    ``inverse_ccdf_schedule`` for those.  So does c(1) = 0, as at gamma <= 0.
    """
    if not (0.0 < p_bar < 1.0):
        raise ValueError("p_bar must lie in (0, 1)")
    ts = np.linspace(0.0, 1.0, _GRID + 1)
    try:
        bracket = survival_bracket(problem, ts[1:])
    except CurveRefusal as exc:
        raise SchedulingError(f"lower_bound_schedule: {exc}; use --levels-method iccdf "
                              "(inverse_ccdf_schedule) instead") from exc
    with np.errstate(divide="ignore"):
        log_mid = 0.5 * (np.log(bracket[0]) + np.log(bracket[1]))
    log_c = np.minimum.accumulate(np.concatenate(([0.0], log_mid)))
    if not np.isfinite(log_c[-1]):
        raise SchedulingError(
            f"the survival curve at t = 1 is 0 to double precision "
            f"(gamma = {problem.gamma!r}); no schedule can reach it")
    return _place_levels(ts, log_c, p_bar)


def _place_levels(ts, log_c, p_bar) -> LevelSchedule:
    """Levels of equal survival on the curve through (ts, log_c).

    ``log_c`` is nonincreasing from 0 to a finite end log P.  L = max(1,
    ceil(log P / log p_bar)), the fewest levels that each survive at least
    p_bar; the 1e-9 slack keeps an end that equals p_bar^L up to roundoff
    from adding a level.  Level l < L sits where the piecewise-linear curve
    meets (l/L) log P and aims at P^(l/L); level L is t = 1 and aims at P.
    """
    log_end = log_c[-1]
    levels = max(1, math.ceil(log_end / math.log(p_bar) - 1e-9))
    if levels > _MAX_LEVELS:
        raise SchedulingError(f"more than {_MAX_LEVELS} levels requested; check p_bar")
    goals = [log_end * l / levels for l in range(1, levels)]
    times = [_invert_decreasing(ts, log_c, g) for g in goals]
    return LevelSchedule((*times, 1.0), (*map(math.exp, goals), math.exp(log_end)))


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
    survival products.  Levels are placed at equal survival on the points
    (t, log survival), up to the last level the pilot survived, by the same
    rule as ``lower_bound_schedule``: with P the pilot's end value, level l
    of L aims at P^(l/L), and level L is t = 1.
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

    ts, log_surv = [0.0], [0.0]
    for t, k in zip(pilot_times, pilot.survivor_counts):
        if k == 0:
            break  # only the extinct final level can land here
        ts.append(t)
        log_surv.append(log_surv[-1] + math.log(k / s_pilot))
    return _place_levels(ts, log_surv, p_bar)
