"""Baseline estimators: naive Monte Carlo and rate-scaled Poisson
importance sampling for weighted Poisson sums.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from .model import ProblemSpec, importance
from .process import RngStream
from .stats import EstimateReport, make_report

__all__ = ["naive_mc", "poisson_is", "poisson_is_tilt"]

# Rows per generator call, which bounds a call's memory.  numpy fills a
# (c, n) draw in C order from one stream, so the draws and every estimate
# are the same for any block size.  At 2^12 rows a column's quantile
# temporaries (32 KiB) stay under glibc's mmap threshold: naive MC on
# Table V ran fastest of 2^12..2^17 on a 2-core VM, and IS, bound by its
# Poisson draws, did not depend on the size.
_BLOCK = 1 << 12
# IS sums its weights once per _CHUNK samples, in one pairwise np.sum each;
# the constant pins those sum boundaries, and with them the bits of the IS
# moments.  A multiple of _BLOCK, so no block straddles two sums.
_CHUNK = 1 << 20


def _blocks(m: int, draw):
    """(first row, draw(c)) for consecutive blocks of c <= _BLOCK rows, m rows in all."""
    for start in range(0, m, _BLOCK):
        yield start, draw(min(_BLOCK, m - start))


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

    Continuous coordinates are drawn by inverse transform from uniforms;
    Poisson coordinates natively.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = problem.n
    gen = rng.gen
    poisson = problem.kind == "poisson"
    rates = problem.rates() if poisson else None

    def draw(c):
        if poisson:
            return gen.poisson(rates, size=(c, n))
        u = gen.random((c, n))
        x = np.empty((c, n))
        for i, marginal in enumerate(problem.marginals):
            x[:, i] = marginal.quantile(u[:, i])
        return x

    t0 = time.perf_counter()
    hits = sum(int(np.count_nonzero(importance(problem.importance, x) <= problem.gamma))
               for _, x in _blocks(m, draw))
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
    which reduces the estimator to naive MC.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if lambdas.ndim != 1 or lambdas.shape != weights.shape:
        raise ValueError("lambdas and weights must be 1-d and the same length")
    if np.any(lambdas <= 0) or np.any(weights < 0):
        raise ValueError("rates must be > 0 and weights >= 0")
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
    lam_total = float(lambdas.sum())
    log_theta = math.log(theta) if theta < 1.0 else 0.0
    const = -lam_total * (1.0 - theta)

    t0 = time.perf_counter()
    total = 0.0
    total_sq = 0.0
    tilted = lambdas * theta
    vals = np.empty(min(_CHUNK, m))
    for start, x in _blocks(m, lambda c: gen.poisson(tilted, size=(c, tilted.size))):
        i = start % _CHUNK
        j = i + x.shape[0]
        x = x.astype(float)  # exact; einsum would cast int64 through a buffer twice
        log_w = const - log_theta * np.einsum("ij->i", x)
        score = np.einsum("ij,j->i", x, weights)  # row sums independent of the block
        vals[i:j] = np.where(score <= gamma, np.exp(log_w), 0.0)
        if j == _CHUNK or start + x.shape[0] == m:
            filled = vals[:j]
            total += float(filled.sum())
            total_sq += float((filled * filled).sum())
    wall = time.perf_counter() - t0

    mean = total / m
    variance = (total_sq - m * mean * mean) / (m - 1) if m > 1 else 0.0
    variance = max(variance, 0.0)
    return make_report("is", mean, variance, m, wall, seed=rng.seed)
