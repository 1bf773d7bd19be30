"""Baseline estimators: naive Monte Carlo and rate-scaled Poisson
importance sampling for weighted Poisson sums.  Both draw Poisson counts
with ``process.poisson_sampler``; neither embeds nor scores on its own.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from .model import ProblemSpec, WeightedSum
from .process import RngStream, poisson_sampler
from .stats import EstimateReport

__all__ = ["naive_mc", "poisson_is", "poisson_is_tilt"]

# Rows per generator call, which bounds a call's memory.  Every draw takes
# its variates from one stream in C order, so the draws, and naive MC's
# estimate, are the same for any block size; IS sums its moments per block,
# so the constant also pins the bits of the IS moments, and it is kept apart
# from process.BLOCK_ENTRIES for that reason.
_BLOCK = 1 << 12


def _blocks(m: int, draw, gen):
    """draw(gen, c) for consecutive blocks of c <= _BLOCK rows, m rows in all."""
    for start in range(0, m, _BLOCK):
        yield draw(gen, min(_BLOCK, m - start))


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
    if m < 2:
        raise ValueError("m must be >= 2")
    t0 = time.perf_counter()
    hits = sum(int(np.count_nonzero(problem.process.survives(x, problem.gamma)))
               for x in _blocks(m, problem.process.sampler(), rng.gen))
    wall = time.perf_counter() - t0
    mean = hits / m
    variance = mean * (1.0 - mean) * m / (m - 1)
    return EstimateReport(method="naive", mean=mean, variance=variance, wall_seconds=wall,
                          m=m, seed=rng.seed)


def poisson_is(lambdas, weights, gamma: float, m: int, rng: RngStream) -> EstimateReport:
    """Importance sampling for P[sum_j w_j X_j <= gamma], X_j ~ Poisson(lambda_j).

    Every rate is scaled by theta = gamma / sum_j w_j lambda_j so the tilted
    mean of the weighted sum equals gamma; each sample is reweighted by the
    likelihood ratio prod_j exp(-lambda_j (1 - theta)) theta^{-X_j},
    accumulated in log space.  theta >= 1 (gamma not rare) is clamped to 1,
    which reduces the estimator to naive MC.  The first and second moments
    of the weighted indicators are summed block by block, in row order.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if lambdas.ndim != 1 or lambdas.shape != weights.shape:
        raise ValueError("lambdas and weights must be 1-d and the same length")
    if not np.all(np.isfinite(lambdas) & (lambdas > 0)):
        raise ValueError("rates must be finite and > 0")
    score = WeightedSum(weights).score_rows  # it checks the weights: finite, >= 0, not all 0
    if m < 2:
        raise ValueError("m must be >= 2")
    if not gamma > 0:
        raise ValueError("gamma must be > 0")
    theta = poisson_is_tilt(lambdas, weights, gamma)
    if theta >= 1.0:
        warnings.warn(
            f"theta = gamma / sum(w*lambda) = {theta:.4g} >= 1; clamping to 1 "
            "(the event is not rare and the estimator reduces to naive MC)",
            stacklevel=2)
        theta = 1.0

    log_theta = math.log(theta) if theta < 1.0 else 0.0
    const = -float(lambdas.sum()) * (1.0 - theta)

    t0 = time.perf_counter()
    draw = poisson_sampler(lambdas * theta)
    total = total_sq = 0.0
    for x in _blocks(m, draw, rng.gen):
        log_w = const - log_theta * np.einsum("ij->i", x)
        vals = np.where(score(x) <= gamma, np.exp(log_w), 0.0)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    wall = time.perf_counter() - t0

    mean = total / m
    variance = max((total_sq - m * mean * mean) / (m - 1), 0.0)
    return EstimateReport(method="is", mean=mean, variance=variance, wall_seconds=wall,
                          m=m, seed=rng.seed)
