"""The survival curve c(t) = P[S(X(t)) <= gamma] of the embedded process,
computed without sampling; ``lb`` reads it on a grid of times, and
``stats.oracle_exact`` at t = 1.

At time t an embedded coordinate has the closed-form CDF
P[X_i(t) <= x] = P(t, -ln(1 - F_i(x))), P the regularized lower incomplete
gamma function, and a Poisson coordinate is a Poisson(lambda_i t) count.
Every X is >= 0, so a continuous curve is 0 at gamma <= 0, and a sum's
depends on each law only on [0, gamma].  Three curves are exact: weighted
Poisson sums by a DP over their lattice, plain sums of n i.i.d.
Exponential(rate) laws as P(n t, rate gamma), and two-coordinate ratios by
quadrature.  Other sums are bracketed on a grid of cells of
width h = gamma / K: each weighted coordinate is rounded down to its cell
index floor(w_i X_i / h), the law of S over the rounded coordinates is
built on {0..K}, and since rounding up adds exactly one cell per summand,
P[S_floor <= K - r] <= c(t) <= P[S_floor <= K] for r summands.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .dist import Exponential, Poisson, ScenarioError
from .model import ProblemSpec

__all__ = ["CurveRefusal", "survival_bracket"]

CELLS = 128  # K for up to 4 summands; more summands get 32 cells each
MAX_LATTICE = 10 ** 8  # Poisson DP pairs per call, shared evenly by its times
_RATIO_MAX_LEVEL = 800.0  # a ratio's Gamma level past which its density is 0 for t <= 1


class CurveRefusal(ScenarioError):
    """No curve, or no exact answer, for a problem; the message says why."""


def _weighted_poisson_cdf(rates, weights, gamma, max_pairs) -> float:
    """P[sum_j w_j N_j <= gamma] for independent N_j ~ Poisson(rates[j]).

    Convolves one coordinate at a time into the law of the partial weighted
    sum, kept on its distinct values <= gamma with equal sums merged.  A sum
    above gamma by roundoff only (1e-12 of a weight) still counts.  Each
    (partial sum, count >= 1) pair formed extends a distinct lattice point,
    so their number never exceeds the lattice size; raises CurveRefusal once
    it exceeds ``max_pairs``.  Pairs are merged in blocks to bound memory.
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
            raise CurveRefusal(
                f"this weighted Poisson sum's lattice passes {max_pairs:,.0f} pairs, "
                f"its share of curve.MAX_LATTICE = {MAX_LATTICE:,} pairs per curve call")
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


def _cell_pmf(marginal, weight, gamma, cells, ts):
    """P[floor(w X(t) / h) = k] for k = 0..cells, one row per time."""
    edges = np.arange(cells + 2) * (gamma / cells) / weight
    with np.errstate(divide="ignore"):  # F = 1 maps to an infinite Gamma level
        neg_log_tail = -np.log1p(-marginal.cdf(edges))
    cdf = special.gammainc(ts[:, None], neg_log_tail[None, :])
    return np.maximum(np.diff(cdf, axis=1), 0.0)


def _sum_law(pmfs):
    """Law of the sum of independent cell indices, truncated to {0..K}."""
    size = pmfs[0].shape[1]
    law = np.zeros_like(pmfs[0])
    law[:, 0] = 1.0
    for pmf in pmfs:
        law = np.array([np.convolve(a, b)[:size] for a, b in zip(law, pmf)])
    return law


def _top_sum_law(pmf, n, n_bar):
    """Law of the sum of the n_bar largest of n i.i.d. cell indices on {0..K}.

    The cells are visited from high to low.  A state is the number m < n_bar
    of coordinates already placed (all in higher cells) and their sum; j
    more coordinates land in the current cell with weight C(n - m, j) p^j.
    Once m + j reaches n_bar the top sum is complete, and the remaining
    coordinates only need to lie in lower cells.
    """
    times, size = pmf.shape
    below = np.cumsum(pmf, axis=1) - pmf  # P[index < k]
    state = np.zeros((n_bar, times, size))
    state[0, :, 0] = 1.0
    law = np.zeros((times, size))
    for k in range(size - 1, -1, -1):
        p, q = pmf[:, k], below[:, k]
        new = np.zeros_like(state)
        for m in range(n_bar):
            rest = n - m
            for j in range(n_bar - m + 1):
                shift = j * k
                if shift >= size:
                    break
                if m + j < n_bar:
                    weight = math.comb(rest, j) * p ** j
                    target = new[m + j]
                else:  # the top sum is complete: the rest lie below cell k
                    weight = sum(math.comb(rest, i) * p ** i * q ** (rest - i)
                                 for i in range(j, rest + 1))
                    target = law
                target[:, shift:] += state[m][:, :size - shift] * weight[:, None]
        state = new
    return law


def _ratio_curve(problem, ts):
    """c(t) of X_1 / (X_2 + eta): at the denominator's Gamma level G = e^v,
    X_2 = F_2^{-1}(e^{-G}) and P[X_1(t) <= x] = P(t, -ln(1 - F_1(x))), and v
    has density exp(t v - e^v - ln Gamma(t)); a relative tolerance only keeps
    the digits of a small c."""
    from scipy import integrate  # loads optimize, sparse, linalg and fft; only ratios need it

    num, den = problem.marginals
    gamma, eta = problem.gamma, problem.importance.eta

    def integrand(v, t, log_gamma_t):
        level = math.exp(v)
        x2 = den.quantile_from_neg_log_tail(level, "lower")
        with np.errstate(divide="ignore"):  # F_1 = 1 maps to an infinite Gamma level
            inner = special.gammainc(t, -np.log1p(-num.cdf(gamma * (x2 + eta))))
        return inner * math.exp(t * v - level - log_gamma_t)

    # the density's own quadrature may pass 1 by roundoff
    values = np.minimum([integrate.quad(integrand, -np.inf, math.log(_RATIO_MAX_LEVEL),
                                        args=(t, special.gammaln(t)), epsabs=0.0,
                                        epsrel=1e-12, limit=200)[0] for t in ts], 1.0)
    return values, values


def survival_bracket(problem: ProblemSpec, ts):
    """Lower and upper bounds on c(t) at each time in ``ts``.

    Both bounds agree where the curve is exact.  A ``CurveRefusal`` names
    why the engine does not cover a problem: a ratio of more than two
    coordinates, a top-n_bar sum (n_bar < n) over laws that are not
    identical, or a weighted Poisson DP past its share of MAX_LATTICE.
    """
    ts = np.asarray(ts, dtype=float)
    gamma = problem.gamma
    spec = problem.importance
    if isinstance(problem.marginals[0], Poisson):
        rates, weights = problem.rates(), spec.weight_array()
        values = np.array([_weighted_poisson_cdf(rates * t, weights, gamma, MAX_LATTICE / len(ts))
                           for t in ts])
        return values, values
    if gamma <= 0:
        return np.zeros_like(ts), np.zeros_like(ts)
    if spec.summands(problem.n) is None:  # the ratio, the one aggregate that is no sum
        if problem.n != 2:
            raise CurveRefusal(f"no curve for a ratio of {problem.n} coordinates "
                               "(the engine covers ratios of two)")
        return _ratio_curve(problem, ts)

    weights, kept = spec.summands(problem.n)
    marginal, *others = set(problem.marginals)
    plain = (weights, kept) == ((1.0,) * problem.n, problem.n)
    if plain and not others and isinstance(marginal, Exponential):
        values = special.gammainc(problem.n * ts, marginal.rate * gamma)
        return values, values
    top = kept < problem.n
    if top and others:
        raise CurveRefusal(f"no curve for the top {kept} of {problem.n} laws that are not "
                           "identical (the engine covers top sums of identical laws)")

    terms = [(m, w) for m, w in zip(problem.marginals, weights) if w > 0]
    summands = kept if top else len(terms)
    cells = max(CELLS, 32 * summands)
    cache = {}  # i.i.d. columns share one pmf
    for term in terms:
        if term not in cache:
            cache[term] = _cell_pmf(*term, gamma, cells, ts)
    if top:
        law = _top_sum_law(cache[terms[0]], problem.n, kept)
    else:
        law = _sum_law([cache[term] for term in terms])
    cdf = np.cumsum(law, axis=1)
    return cdf[:, cells - summands], cdf[:, cells]
