"""Baseline estimators: naive Monte Carlo, and rate-scaled Poisson importance
sampling, which is naive MC on the tilted problem with each hit weighted by
its likelihood ratio.  Both draw and decide through the problem's process in
one block loop; neither draws, embeds nor scores on its own.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings

import numpy as np

from .dist import Poisson
from .model import ProblemSpec, WeightedSum
from .process import RngStream
from .stats import EstimateReport

__all__ = ["naive_mc", "poisson_is", "poisson_is_tilt"]

# Rows per generator call, which bounds a call's memory.  Every draw takes
# its variates from one stream in C order, so the draws, and naive MC's
# estimate, are the same for any block size; IS sums its moments per block,
# so the constant also pins the bits of the IS moments, and it is kept apart
# from process.BLOCK_ENTRIES for that reason.
_BLOCK = 1 << 12


def _decided(problem: ProblemSpec, m: int, rng: RngStream):
    """(x, hits) for consecutive blocks x of at most _BLOCK draws of X, m in
    all: the process's states at t = 1 (``sampler()``), whose hits
    S(x) <= gamma ``process.survives`` decides, as it does for splitting."""
    if m < 2:
        raise ValueError("m must be >= 2")
    draw = problem.process.sampler()
    for start in range(0, m, _BLOCK):
        x = draw(rng.gen, min(_BLOCK, m - start))
        yield x, problem.process.survives(x, problem.gamma)


def poisson_is_tilt(lambdas, weights, gamma: float) -> float:
    """Rate-scaling factor theta = gamma / sum_j w_j lambda_j (before clamping)."""
    lambdas = np.asarray(lambdas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    denom = float(weights @ lambdas)
    if denom == 0.0:
        raise ValueError("sum of w_i * lambda_i is zero; no tilt is defined")
    return gamma / denom


def naive_mc(problem: ProblemSpec, m: int, rng: RngStream) -> EstimateReport:
    """Plain Monte Carlo: m direct draws of X, fraction with S(X) <= gamma.

    The draws are the process's states at t = 1 (``sampler()``), Exp(1) levels
    or Poisson counts, and ``process.survives`` decides, as it does for splitting.
    """
    t0 = time.perf_counter()
    hits = sum(int(np.count_nonzero(hit)) for _, hit in _decided(problem, m, rng))
    wall = time.perf_counter() - t0
    mean = hits / m
    variance = mean * (1.0 - mean) * m / (m - 1)
    return EstimateReport(method="naive", mean=mean, variance=variance, wall_seconds=wall,
                          m=m, seed=rng.seed)


def poisson_is(lambdas, weights, gamma: float, m: int, rng: RngStream) -> EstimateReport:
    """Importance sampling for P[sum_j w_j X_j <= gamma], X_j ~ Poisson(lambda_j).

    The problem of the arguments, ``ProblemSpec``'s checks and all, has every
    rate scaled by theta = gamma / sum_j w_j lambda_j, so the tilted mean of
    the weighted sum equals gamma; each hit of the tilted problem is weighted
    by the likelihood ratio prod_j exp(-lambda_j (1 - theta)) theta^{-X_j},
    formed in log space.  theta >= 1 (gamma not rare) is clamped to 1, which
    reduces the estimator to naive MC.  The first and second moments of the
    weighted indicators are summed block by block, in row order.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1:
        raise ValueError("lambdas must be 1-d")
    problem = ProblemSpec(tuple(map(Poisson, lambdas)), ("I",) * lambdas.size,
                          WeightedSum(weights), gamma, "poisson")
    if not gamma > 0:
        raise ValueError("gamma must be > 0")
    theta = poisson_is_tilt(lambdas, weights, gamma)
    if theta >= 1.0:
        warnings.warn(
            f"theta = gamma / sum(w*lambda) = {theta:.4g} >= 1; clamping to 1 "
            "(the event is not rare and the estimator reduces to naive MC)",
            stacklevel=2)
        theta = 1.0
    tilted = dataclasses.replace(problem, marginals=tuple(map(Poisson, lambdas * theta)))

    log_theta = math.log(theta) if theta < 1.0 else 0.0
    const = -float(lambdas.sum()) * (1.0 - theta)

    t0 = time.perf_counter()
    total = total_sq = 0.0
    for x, hits in _decided(tilted, m, rng):
        log_w = const - log_theta * np.einsum("ij->i", x)
        vals = np.where(hits, np.exp(log_w), 0.0)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    wall = time.perf_counter() - t0

    mean = total / m
    variance = max((total_sq - m * mean * mean) / (m - 1), 0.0)
    return EstimateReport(method="is", mean=mean, variance=variance, wall_seconds=wall,
                          m=m, seed=rng.seed)
