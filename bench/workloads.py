"""The benchmark's three workloads, their user-facing calls and their checks.

Every workload is a built-in preset row run at the published protocol
(s = 3000, m = 200, p_bar = 0.1) through the library's public entry points.
The workloads are closed-loop: one call at a time, each call a fresh
estimation with its own seed.  Only names that ROADMAP item 3 keeps are
imported here and in ``replay.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from raresplit import SchedulingError, oracle_exact
from raresplit.cli import load_preset, preset_problem, run_estimation

P_BAR = 0.1
PILOT_LEVELS = 12
IS_M = 10 ** 6


@dataclass(frozen=True)
class Workload:
    """One preset row and how it is run.

    ``call_s`` is the measured cost of one call on a 2-vCPU VM; a run makes
    ``round(seconds / call_s)`` calls, so the call count (and with it every
    figure that pools the calls) depends only on the arguments.
    """

    name: str
    table: str
    gamma: float
    levels_method: str
    workers: int
    verify: bool
    call_s: float

    def calls(self, seconds: float) -> int:
        return max(1, round(seconds / self.call_s))


WORKLOADS = {w.name: w for w in (
    # Table V: 15 upper-tail LogNormal(0, 2) columns, embedding-bound.  Two
    # workers, so that the four calls a steady wnrv needs fit in one run.
    Workload("lognormal-sum", "V", 1.39, "lb", 2, False, 9.2),
    # Table I: weighted Poisson counts, no embedding; oracle and IS run too.
    Workload("poisson-verify", "I", 50.0, "lb", 1, True, 6.9),
    # Table VI: ratio with 10 lower-tail columns and a pilot-built schedule.
    Workload("ratio-pilot-parallel", "VI", 0.001, "iccdf", 2, False, 5.6),
)}


def call_seed(seed: int, call: int) -> int:
    """Seed of call ``call`` in a run started with ``seed``."""
    return (seed << 16) | call


def make_problem(wl: Workload):
    """The workload's problem and its published split reference row."""
    preset = load_preset(wl.table)
    row = next(r for r in preset["rows"] if float(r["gamma"]) == wl.gamma)
    return preset_problem(preset, wl.gamma), row["paper_reference"]["split"]


def published_band_ok(report, ref) -> bool:
    """The acceptance suite's band: 3 * hypot(re, re_pub) * mean_pub."""
    band = 3.0 * math.hypot(report.re, ref["re_percent"] / 100.0) * ref["mean"]
    return abs(report.mean - ref["mean"]) <= band


def within_3se(report, exact: float) -> bool:
    """``verify``'s rule: the estimate lies within 3 standard errors."""
    return abs(report.mean - exact) <= 3.0 * math.sqrt(report.variance / report.m)


@dataclass
class CallResult:
    """One estimation call: its wall time, the split report, and why it
    failed (None when it ran and passed its check)."""

    wall_s: float
    report: object = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_call(wl: Workload, problem, ref, seed: int, s: int, m: int) -> CallResult:
    """The workload's whole user-facing call, timed, then checked.

    A ``SchedulingError`` or ``ValueError`` is one failed call, not a crash.
    """
    t0 = time.perf_counter()
    try:
        exact = oracle_exact(problem) if wl.verify else None
        report = run_estimation(problem, "split", s=s, m=m, p_bar=P_BAR,
                                levels_method=wl.levels_method,
                                pilot_levels=PILOT_LEVELS, seed=seed,
                                workers=wl.workers)
        is_report = (run_estimation(problem, "is", m=IS_M, seed=seed)
                     if wl.verify else None)
    except (SchedulingError, ValueError) as exc:
        return CallResult(time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    return CallResult(wall, report, check(wl, report, ref, exact, is_report))


def check(wl: Workload, report, ref, exact=None, is_report=None) -> str | None:
    """Oracle check on ``verify`` workloads, the published band elsewhere;
    returns why the call failed, or None."""
    if report.re is None:
        return "the split estimate is 0"
    if wl.verify:
        if exact is None:
            return "no exact oracle covers the problem"
        for name, r in (("split", report), ("IS", is_report)):
            if not within_3se(r, exact):
                return f"{name} estimate {r.mean:.4g} is not within 3 SE of the oracle {exact:.4g}"
        return None
    if not published_band_ok(report, ref):
        return (f"split estimate {report.mean:.4g} is outside the band around "
                f"the published {ref['mean']:.4g}")
    return None
