"""The survival curve c(t) = P[S(X(t)) <= gamma] of the embedded process,
computed without sampling.

At time t an embedded coordinate has the closed-form CDF
P[X_i(t) <= x] = P(t, -ln(1 - F_i(x))), P the regularized lower incomplete
gamma function, and a Poisson coordinate is a Poisson(lambda_i t) count.
Every X is >= 0, so for the sum family the curve depends on each law only
on [0, gamma].  Poisson curves come from the exact convolution DP of
``stats._weighted_poisson_cdf``.  Continuous curves are bracketed on a grid
of cells of width h = gamma / K: each weighted coordinate is rounded down
to its cell index floor(w_i X_i / h), the law of S over the rounded
coordinates is built on {0..K}, and since rounding up adds exactly one cell
per summand, P[S_floor <= K - r] <= c(t) <= P[S_floor <= K] for r summands.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .model import ProblemSpec
from .stats import _weighted_poisson_cdf

__all__ = ["survival_bracket"]

CELLS = 128  # K for up to 4 summands; more summands get 32 cells each
MAX_PAIRS = 10 ** 6  # lattice cap of the Poisson DP


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


def survival_bracket(problem: ProblemSpec, ts):
    """Lower and upper bounds on c(t) at each time in ``ts``, or None.

    Poisson curves are exact (both bounds agree).  None means the engine
    does not cover the problem: ratios, top-n_bar sums with n_bar < n over
    marginals that are not identical, and Poisson DPs past the lattice cap.
    """
    ts = np.asarray(ts, dtype=float)
    gamma = problem.gamma
    spec = problem.importance
    if problem.kind == "poisson":
        rates, weights = problem.rates(), spec.weight_array()
        values = []
        for t in ts:
            v = _weighted_poisson_cdf(rates * t, weights, gamma, MAX_PAIRS)
            if v is None:
                return None
            values.append(v)
        return np.asarray(values), np.asarray(values)

    sum_form = spec.summands(problem.n)
    if sum_form is None:
        return None
    weights, kept = sum_form
    top = kept < problem.n
    if top and len(set(problem.marginals)) > 1:
        return None
    if gamma <= 0:
        return np.zeros_like(ts), np.zeros_like(ts)

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
