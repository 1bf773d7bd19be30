"""Fixed-effort multilevel splitting over a schedule of intermediate times.

Each level resamples exactly ``s`` states uniformly with replacement from
the previous level's survivors, advances them by the scheduled increment
(on request, after refresh updates of each clone), and keeps those still
satisfying S(X(t)) <= gamma.  The estimate is the product of the
per-level survivor fractions; a level with zero survivors short-circuits
the run with estimate 0.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec
from .process import RngStream
from .stats import EstimateReport

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
        if not all(map(math.isfinite, times)):
            raise ValueError(f"levels must be finite, got {times!r}")
        if times[0] <= 0.0:
            raise ValueError("first level must be > 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("levels must be strictly increasing")
        if times[-1] != 1.0:
            raise ValueError(f"last level must be exactly 1, got {times[-1]!r}")
        if self.targets is not None:
            if len(self.targets) != len(times):
                raise ValueError("targets must have one entry per level")
            if not all(0.0 < p <= 1.0 for p in self.targets):
                raise ValueError(f"targets must lie in (0, 1], got {tuple(self.targets)!r}")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class SplitRunResult:
    """One splitting run: the product estimate and the per-level survivor
    counts, which stop at the first 0; an underflowed product also reads 0."""

    estimate: float
    survivor_counts: tuple

    @property
    def extinct_at(self) -> int | None:
        """The 0-based level at which survivors hit zero; None when the run reached t = 1."""
        return self.survivor_counts.index(0) if 0 in self.survivor_counts else None


def run_splitting(problem: ProblemSpec, schedule: LevelSchedule, s: int,
                  rng: RngStream, *, refresh: bool = False) -> SplitRunResult:
    """One fixed-effort splitting run with ``s`` states per level.

    Per level the generator draws the parent indices, then ``problem.step``
    its increments, so a given stream reproduces the run bit-for-bit.
    States are float64; Poisson counts are exact integers in them.
    The default is the paper's plain loop.  With ``refresh``, each level is
    refreshed from its start time: from level 2 on the clones get exact
    Metropolis steps or moves within a room, which decorrelate the clones
    of one survivor and keep every level's law, so the product stays
    unbiased.  ``ProblemSpec.step`` says which loop draws how.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    current = np.zeros((s, problem.n))
    counts = []
    for t0, t1 in zip((0.0, *schedule.times), schedule.times):
        idx = rng.gen.integers(0, current.shape[0], size=s)
        current = problem.step(current, idx, t1 - t0, rng,
                               refresh_at=t0 if refresh else None)
        counts.append(len(current))
        if not counts[-1]:
            break
    return SplitRunResult(float(np.prod([k / s for k in counts])), tuple(counts))


def _replication(problem, schedule, s, rng, i, refresh):
    """Replication i: one splitting run on rng.substream(i)."""
    return run_splitting(problem, schedule, s, rng.substream(i), refresh=refresh)


def replicate(problem: ProblemSpec, schedule: LevelSchedule, s: int, m: int,
              rng: RngStream, workers: int = 1, *, refresh: bool = False) -> EstimateReport:
    """Run ``m`` independent splitting replications and summarize them.

    Replication i always uses rng.substream(i), and results are aggregated
    in replication order, so the report is identical for any ``workers``.
    One function maps over the replications: the builtin ``map`` in this
    process, or a pool of at most min(workers, m, CPUs this process may use)
    processes that gets at most one chunk of replications per worker, each
    pickling the problem once.
    ``refresh`` is ``run_splitting``'s, for every replication.
    Extinct runs contribute a zero estimate to the sample, not an error.
    ``wall_seconds`` covers the replications only.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t0 = time.perf_counter()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, m, cpus or 1)
    run = functools.partial(_replication, problem, schedule, s, rng, refresh=refresh)
    if workers <= 1:
        results = list(map(run, range(m)))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(m), chunksize=math.ceil(m / workers)))
    wall = time.perf_counter() - t0

    estimates = np.asarray([r.estimate for r in results])
    fractions = np.zeros((m, len(schedule)))
    for row, r in enumerate(results):
        got = np.asarray(r.survivor_counts, dtype=float) / s
        fractions[row, :got.size] = got  # extinct runs count as zero beyond

    return EstimateReport(
        method="split", mean=float(estimates.mean()), variance=float(estimates.var(ddof=1)),
        wall_seconds=wall, m=m, s=s, levels=list(schedule.times),
        per_level_survival=fractions.mean(axis=0).tolist(), seed=rng.seed,
    )
