"""Baseline estimators: naive Monte Carlo and rate-scaled Poisson
importance sampling for weighted Poisson sums.  Both draw Poisson counts
with ``process.poisson_sampler``.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from .model import ProblemSpec, importance
from .process import RngStream, poisson_sampler
from .stats import EstimateReport, make_report

__all__ = ["naive_mc", "poisson_is", "poisson_is_tilt"]

# Rows per generator call, which bounds a call's memory.  Every draw takes
# its uniforms from one stream in C order, so the draws, and naive MC's
# estimate, are the same for any block size; IS sums its moments per block,
# so the constant also pins the bits of the IS moments.  At 2^12 rows a
# column's quantile temporaries (32 KiB) stay under glibc's mmap threshold:
# naive MC on Table V ran fastest of 2^12..2^17 on a 2-core VM.
_BLOCK = 1 << 12


def _blocks(m: int, draw):
    """draw(c) for consecutive blocks of c <= _BLOCK rows, m rows in all."""
    for start in range(0, m, _BLOCK):
        yield draw(min(_BLOCK, m - start))


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

    Every coordinate is drawn by inversion from one uniform: continuous ones
    through their quantile, Poisson ones through ``poisson_sampler``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = problem.n
    gen = rng.gen
    t0 = time.perf_counter()
    poisson = poisson_sampler(problem.rates()) if problem.kind == "poisson" else None

    def draw(c):
        if poisson:
            return poisson(gen, c)
        u = gen.random((c, n))
        x = np.empty((c, n))
        for i, marginal in enumerate(problem.marginals):
            x[:, i] = marginal.quantile(u[:, i])
        return x

    hits = sum(int(np.count_nonzero(importance(problem.importance, x) <= problem.gamma))
               for x in _blocks(m, draw))
    wall = time.perf_counter() - t0
    mean = hits / m
    variance = mean * (1.0 - mean) * m / (m - 1) if m > 1 else 0.0
    return make_report("naive", mean, variance, m, wall, seed=rng.seed)


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
    if not (np.all(np.isfinite(lambdas) & (lambdas > 0))
            and np.all(np.isfinite(weights) & (weights >= 0))):
        raise ValueError("rates must be finite and > 0, weights finite and >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not gamma > 0:
        raise ValueError("gamma must be > 0")
    theta = poisson_is_tilt(lambdas, weights, gamma)
    if theta >= 1.0:
        warnings.warn(
            f"theta = gamma / sum(w*lambda) = {theta:.4g} >= 1; clamping to 1 "
            "(the event is not rare and the estimator reduces to naive MC)",
            stacklevel=2)
        theta = 1.0

    gen = rng.gen
    log_theta = math.log(theta) if theta < 1.0 else 0.0
    const = -float(lambdas.sum()) * (1.0 - theta)

    t0 = time.perf_counter()
    draw = poisson_sampler(lambdas * theta)
    total = total_sq = 0.0
    for x in _blocks(m, lambda c: draw(gen, c)):
        log_w = const - log_theta * np.einsum("ij->i", x)
        score = np.einsum("ij,j->i", x, weights)  # row sums independent of the block
        vals = np.where(score <= gamma, np.exp(log_w), 0.0)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    wall = time.perf_counter() - t0

    mean = total / m
    variance = (total_sq - m * mean * mean) / (m - 1) if m > 1 else 0.0
    variance = max(variance, 0.0)
    return make_report("is", mean, variance, m, wall, seed=rng.seed)
