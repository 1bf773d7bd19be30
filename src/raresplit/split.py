"""Fixed-effort multilevel splitting over a schedule of intermediate times.

Each level resamples exactly ``s`` states uniformly with replacement from
the previous level's survivors, advances them by the scheduled increment,
and keeps those still satisfying S(X(t)) <= gamma.  The estimate is the
product of the per-level survivor fractions; a level with zero survivors
short-circuits the run with estimate 0.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec
from .process import RngStream, advance_gamma_batch, advance_poisson_batch
from .stats import EstimateReport, make_report

__all__ = ["LevelSchedule", "SplitRunResult", "run_splitting", "replicate"]


@dataclass(frozen=True)
class LevelSchedule:
    """Strictly increasing times 0 < t_1 < ... < t_L = 1 and, from the
    schedule builders, the survival P[S(X(t_l)) <= gamma] each level aims at."""

    times: tuple
    targets: tuple | None = None

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if len(times) == 0:
            raise ValueError("schedule needs at least one level")
        if times[0] <= 0.0:
            raise ValueError("first level must be > 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("levels must be strictly increasing")
        if times[-1] != 1.0:
            raise ValueError(f"last level must be exactly 1, got {times[-1]!r}")
        if self.targets is not None and len(self.targets) != len(times):
            raise ValueError("targets must have one entry per level")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class SplitRunResult:
    """One splitting run: the product estimate and per-level survivor counts.

    ``extinct_at`` is the 0-based level index at which survivors hit zero
    (the estimate is then exactly 0); None when the run reached t = 1.
    """

    estimate: float
    survivor_counts: tuple
    extinct_at: int | None = None

    def __post_init__(self):
        if (self.extinct_at is not None) != (self.estimate == 0.0):
            raise ValueError("estimate must be 0 iff the run went extinct")


def run_splitting(problem: ProblemSpec, schedule: LevelSchedule, s: int,
                  rng: RngStream, check_invariants: bool = False) -> SplitRunResult:
    """One fixed-effort splitting run with ``s`` states per level.

    Per level the generator is consumed in a fixed order (parent indices,
    then increments), so a given stream reproduces the run bit-for-bit.
    Survival is ``problem.survives``, which equals score <= gamma exactly:
    continuous rows are decided from a tabulated bracket of the embedding,
    and only the rows it cannot decide are embedded and scored.
    ``check_invariants`` re-scores every resampled parent before advancing
    (monotonicity guarantees parents still satisfy S <= gamma); it is meant
    for tests, not production runs.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    n = problem.n
    poisson = problem.kind == "poisson"
    rates = problem.rates() if poisson else None
    gen = rng.gen

    current = np.zeros((s, n), dtype=np.int64 if poisson else float)
    counts = []
    t_prev = 0.0
    for level, t in enumerate(schedule.times):
        dt = t - t_prev
        idx = gen.integers(0, current.shape[0], size=s)
        parents = current[idx]
        if check_invariants:
            assert np.all(problem.score(parents) <= problem.gamma), \
                "resampled parent violates S <= gamma"
        if poisson:
            advanced = advance_poisson_batch(parents, dt, rates, rng)
        else:
            advanced = advance_gamma_batch(parents, dt, rng)
        survive = problem.survives(advanced)
        k = int(np.count_nonzero(survive))
        counts.append(k)
        if k == 0:
            return SplitRunResult(0.0, tuple(counts), extinct_at=level)
        current = advanced[survive]
        t_prev = t
    estimate = float(np.prod([k / s for k in counts]))
    return SplitRunResult(estimate, tuple(counts), None)


def _replicate_chunk(problem, schedule, s, rng, lo, hi):
    results = []
    for i in range(lo, hi):
        results.append(run_splitting(problem, schedule, s, rng.substream(i)))
    return results


def replicate(problem: ProblemSpec, schedule: LevelSchedule, s: int, m: int,
              rng: RngStream, workers: int = 1,
              schedule_seconds: float | None = None) -> EstimateReport:
    """Run ``m`` independent splitting replications and summarize them.

    Replication i always uses rng.substream(i), and results are aggregated
    in replication order, so the report is identical for any ``workers``.
    At most min(workers, m, CPU count) processes are started.
    Extinct runs contribute a zero estimate to the sample, not an error.
    ``wall_seconds`` covers the replications plus ``schedule_seconds``, the
    time the caller spent building the schedule, when given.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    t0 = time.perf_counter()
    workers = min(workers, m, os.cpu_count() or 1)
    if workers <= 1:
        results = _replicate_chunk(problem, schedule, s, rng, 0, m)
    else:
        bounds = np.linspace(0, m, workers + 1).astype(int)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_replicate_chunk, problem, schedule, s, rng, lo, hi)
                       for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
            results = [r for f in futures for r in f.result()]
    wall = time.perf_counter() - t0
    if schedule_seconds is not None:
        wall += schedule_seconds

    estimates = np.asarray([r.estimate for r in results])
    L = len(schedule)
    fractions = np.zeros((m, L))
    for row, r in enumerate(results):
        got = np.asarray(r.survivor_counts, dtype=float) / s
        fractions[row, :got.size] = got  # extinct runs count as zero beyond
    per_level = fractions.mean(axis=0)

    return make_report(
        "split", float(estimates.mean()), float(estimates.var(ddof=1)), m, wall,
        s=s, levels=schedule.times, per_level=per_level,
        seed=rng.seed, schedule_seconds=schedule_seconds,
    )
