"""Replication statistics, the report container, and exact oracles.

RE follows the across-replication coefficient of variation
sqrt(Var) / (mean * sqrt(m)); WNRV is RE^2 times wall-clock seconds.
``oracle_exact`` returns exact (or quadrature-exact) values for the
problem families where an independent answer is computable, and is used
by the tests and the CLI ``verify`` paths as the second route against
the sampled estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy import integrate, special

from .dist import Exponential
from .model import ProblemSpec, Ratio, Sum

__all__ = ["EstimateReport", "relative_error", "wnrv", "oracle_exact"]

REPORT_FIELDS = (
    "method", "mean", "variance", "re", "wnrv", "wall_seconds",
    "m", "s", "levels", "per_level_survival", "seed", "schedule_seconds",
)


def relative_error(mean: float, variance: float, m: int):
    """sqrt(variance) / (mean * sqrt(m)); None (absent) when mean <= 0."""
    if variance < 0:
        raise ValueError("variance must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    if mean <= 0:
        return None
    return math.sqrt(variance) / (mean * math.sqrt(m))


def wnrv(re: float, wall_seconds: float) -> float:
    """Work-normalized relative variance: RE^2 * seconds."""
    if re < 0 or wall_seconds < 0:
        raise ValueError("re and wall_seconds must be >= 0")
    return re * re * wall_seconds


@dataclass
class EstimateReport:
    """Outcome of one estimation run: point estimate plus dispersion and cost.

    ``re`` and ``wnrv`` are None when the mean is zero (relative error is
    undefined there).  ``schedule_seconds`` carries the level-construction
    time separately so the cost can be accounted either way.
    """

    method: str
    mean: float
    variance: float
    re: float | None
    wnrv: float | None
    wall_seconds: float
    m: int
    s: int | None = None
    levels: list | None = None
    per_level_survival: list | None = None
    seed: int | None = None
    schedule_seconds: float | None = None

    def __post_init__(self):
        # IS likelihood ratios can push a tiny-sample mean above 1, so only
        # nonnegativity is enforced here
        if self.mean < 0:
            raise ValueError("mean must be >= 0")
        if self.variance < 0:
            raise ValueError("variance must be >= 0")
        if self.re is not None and self.wall_seconds is not None:
            expected = wnrv(self.re, self.wall_seconds)
            if self.wnrv is not None and not math.isclose(self.wnrv, expected, rel_tol=1e-9, abs_tol=1e-300):
                raise ValueError("wnrv inconsistent with re and wall_seconds")

    def to_json_dict(self) -> dict:
        d = asdict(self)
        return {k: d[k] for k in REPORT_FIELDS}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "EstimateReport":
        # schedule_seconds is this implementation's addition; accept
        # reports that carry only the 11 base keys
        missing = [k for k in REPORT_FIELDS if k not in obj and k != "schedule_seconds"]
        if missing:
            raise ValueError(f"report JSON missing fields {missing}")
        return cls(**{k: obj.get(k) for k in REPORT_FIELDS})


def make_report(method, mean, variance, m, wall_seconds, *, s=None, levels=None,
                per_level=None, seed=None, schedule_seconds=None) -> EstimateReport:
    """The report of an estimator whose m samples have this mean and variance."""
    re = relative_error(mean, variance, m)
    return EstimateReport(
        method=method,
        mean=mean,
        variance=variance,
        re=re,
        wnrv=None if re is None else wnrv(re, wall_seconds),
        wall_seconds=wall_seconds,
        m=m,
        s=s,
        levels=None if levels is None else [float(t) for t in levels],
        per_level_survival=None if per_level is None else [float(p) for p in per_level],
        seed=seed,
        schedule_seconds=schedule_seconds,
    )


def _weighted_poisson_cdf(rates, weights, gamma, max_pairs) -> float | None:
    """P[sum_j w_j N_j <= gamma] for independent N_j ~ Poisson(rates[j]).

    Convolves one coordinate at a time into the law of the partial weighted
    sum, kept on its distinct values <= gamma with equal sums merged.  A sum
    above gamma by roundoff only (1e-12 of a weight) still counts.  Each
    (partial sum, count >= 1) pair formed extends a distinct lattice point,
    so their number never exceeds the lattice size; returns None once it
    exceeds ``max_pairs``.  Pairs are merged in blocks to bound memory.
    """
    if gamma < 0:
        return 0.0  # every count is >= 0
    sums, probs, work = np.zeros(1), np.ones(1), 1.0
    for lam, w in zip(rates, weights):
        if w == 0:
            continue  # unconstrained coordinate: its pmf sums to 1
        kmax = np.maximum(np.floor((gamma - sums) / w + 1e-12), 0.0)
        work += kmax.sum()
        if work > max_pairs:
            return None
        k = np.arange(int(kmax.max()) + 1)
        pmf = np.exp(special.xlogy(k, lam) - lam - special.gammaln(k + 1))
        new_sums, new_probs = np.zeros(0), np.zeros(0)
        step = max(1, (1 << 18) // sums.size)  # pairs per merge
        for kb in np.split(k, range(step, k.size, step)):
            rows, cols = np.nonzero(kb <= kmax[:, None])
            new_sums, inv = np.unique(
                np.concatenate((new_sums, sums[rows] + kb[cols] * w)), return_inverse=True)
            new_probs = np.bincount(
                inv, weights=np.concatenate((new_probs, probs[rows] * pmf[kb[cols]])))
        sums, probs = new_sums, new_probs
    return float(probs.sum())


def oracle_exact(problem: ProblemSpec, max_lattice: int = 10 ** 8) -> float | None:
    """Exact/semi-exact value of P[S(X) <= gamma] for supported families.

    Supported: (a) plain sum of i.i.d. exponentials (Gamma CDF);
    (b) weighted sums of Poisson counts by a convolution over partial sums;
    (c) two-coordinate ratios by adaptive quadrature over the denominator's
    probability scale.  Returns None for anything else.
    """
    gamma = problem.gamma
    if problem.kind == "poisson":
        return _weighted_poisson_cdf(
            problem.rates(), problem.importance.weight_array(), gamma, max_lattice)

    if isinstance(problem.importance, Sum):
        rates = {m.rate for m in problem.marginals if isinstance(m, Exponential)}
        if len(rates) == 1 and all(isinstance(m, Exponential) for m in problem.marginals):
            if gamma <= 0:
                return 0.0
            rate = rates.pop()
            return float(special.gammainc(problem.n, rate * gamma))
        return None

    if isinstance(problem.importance, Ratio) and problem.n == 2:
        if gamma <= 0:
            return 0.0
        f1 = problem.marginals[0]
        q2 = problem.marginals[1]
        eta = problem.importance.eta

        def integrand(u):
            return f1.cdf(gamma * (q2.quantile(u) + eta))

        value, _err = integrate.quad(integrand, 0.0, 1.0, limit=200)
        return float(min(max(value, 0.0), 1.0))

    return None
