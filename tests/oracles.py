"""Independent oracles used to freeze expected values.

Everything here is deliberately written from first principles (series,
continued fractions, direct summation, mpmath high-precision arithmetic)
so the package's scipy-backed routines are checked against a second,
unrelated route.
"""

import math

import mpmath
import numpy as np


def reg_lower_inc_gamma_series(a: float, x: float, tol: float = 1e-15) -> float:
    """Regularized lower incomplete gamma by power series / continued fraction.

    Series for x < a + 1, Lentz continued fraction otherwise (the classical
    split).  Independent of scipy.
    """
    if x < 0 or a <= 0:
        raise ValueError("bad arguments")
    if x == 0:
        return 0.0
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        # P(a, x) = e^{-x} x^a / Gamma(a) * sum_{k>=0} x^k / (a (a+1) ... (a+k))
        term = 1.0 / a
        total = term
        k = a
        for _ in range(10_000):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * tol:
                break
        return math.exp(log_prefactor) * total
    # Q(a, x) via modified Lentz's continued fraction
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            break
    q = math.exp(log_prefactor) * h
    return 1.0 - q


def normal_upper_quantile(q) -> float:
    """z with P[Z > z] = q for standard normal Z, via 50-digit mpmath erfinv."""
    with mpmath.workdps(50):
        z = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(q))
        return float(z)


def poisson_cdf_direct(lam: float, k: int) -> float:
    """P[Poisson(lam) <= k] by direct log-space term summation."""
    if k < 0:
        return 0.0
    logs = [j * math.log(lam) - lam - math.lgamma(j + 1) for j in range(k + 1)]
    peak = max(logs)
    return math.exp(peak) * sum(math.exp(v - peak) for v in logs)


def weighted_poisson_tail(rates, weights, gamma) -> float:
    """P[sum w_j X_j <= gamma] by exhaustive lattice enumeration."""
    n = len(rates)
    total = 0.0

    def visit(j, remaining, logp):
        nonlocal total
        if j == n:
            total += math.exp(logp)
            return
        kmax = int(math.floor(remaining / weights[j] + 1e-12))
        lk = 0.0
        for k in range(kmax + 1):
            if k > 0:
                lk += math.log(rates[j]) - math.log(k)
            visit(j + 1, remaining - k * weights[j], logp + lk)

    visit(0, float(gamma), -sum(rates))
    return total


def weighted_poisson_cdf_mp(rates, weights, gamma, dps: int = 40) -> float:
    """P[sum w_j N_j <= gamma] for integer weights, in dps-digit mpmath.

    Carries the exact law of the partial sum over {0..floor(gamma)} as a
    dict and folds in one coordinate at a time; each pmf is built by the
    recurrence p_k = p_{k-1} * lam / k from p_0 = e^{-lam}.
    """
    top = math.floor(gamma)
    with mpmath.workdps(dps):
        law = {0: mpmath.mpf(1)}
        for lam, w in zip(rates, weights):
            if w != int(w) or w < 1:
                raise ValueError("positive integer weights only")
            w = int(w)
            lam = mpmath.mpf(lam)
            pmf = [mpmath.exp(-lam)]
            for k in range(1, top // w + 1):
                pmf.append(pmf[-1] * lam / k)
            folded = {}
            for total, p in law.items():
                for k in range((top - total) // w + 1):
                    key = total + k * w
                    folded[key] = folded.get(key, 0) + p * pmf[k]
            law = folded
        return float(mpmath.fsum(law.values()))


def top_sum_cdf(cdf, n: int, n_bar: int, gamma: float, cells: int = 256) -> float:
    """P[sum of the n_bar largest of n i.i.d. draws <= gamma], draws from ``cdf``.

    Each draw is rounded to the nearest multiple of h = gamma / cells, and
    the probability is summed over the cell k of the n_bar-th largest draw:
    a < n_bar draws lie above k, b >= n_bar - a in k and the rest below.  The
    a draws above k are summed by convolving the law restricted to cells
    above k with itself.
    """
    h = gamma / cells
    at_most = [cdf((k + 0.5) * h) for k in range(cells + 1)]  # P[round <= k]
    pmf = np.diff([0.0] + at_most)
    total = 0.0
    for k in range(cells + 1):
        below = at_most[k - 1] if k else 0.0
        above = np.concatenate((np.zeros(k + 1), pmf[k + 1:]))
        power = np.zeros(cells + 1)
        power[0] = 1.0  # law of the sum of a = 0 draws above k
        for a in range(n_bar):
            budget = cells - (n_bar - a) * k  # the a draws above k may sum to this
            if budget < 0:
                break
            ways = sum(math.comb(n, a) * math.comb(n - a, b)
                       * pmf[k] ** b * below ** (n - a - b)
                       for b in range(n_bar - a, n - a + 1))
            total += power[:budget + 1].sum() * ways
            power = np.convolve(power, above)[:cells + 1]
    return total


def bisect_root(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Plain bisection for a decreasing-sign-change bracket; no scipy."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("no sign change in bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < tol:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def lognormal_cdf_mp(x, mu, sigma) -> float:
    with mpmath.workdps(40):
        if x <= 0:
            return 0.0
        return float(mpmath.ncdf((mpmath.log(x) - mu) / sigma))


def _log_cdf_and_sf(marginal: dict):
    """ln F(x) and ln P[X > x] in mpmath for a marginal given by its JSON form."""
    kind = marginal["kind"]
    p = {k: mpmath.mpf(v) for k, v in marginal["params"].items()}
    if kind == "lognormal":
        def z(x):
            return (mpmath.log(x) - p["mu"]) / p["sigma"]
        return (lambda x: mpmath.log(mpmath.ncdf(z(x))),
                lambda x: mpmath.log(mpmath.ncdf(-z(x))))
    if kind in ("weibull", "exponential"):
        alpha, scale = (p["alpha"], p["eta"]) if kind == "weibull" else (1, 1 / p["rate"])
        def h(x):
            return (x / scale) ** alpha
        return lambda x: mpmath.log(-mpmath.expm1(-h(x))), lambda x: -h(x)
    if kind in ("gamma", "gengamma"):
        k, power, scale = ((p["shape"], 1, 1 / p["rate"]) if kind == "gamma"
                           else (p["d"] / p["p"], p["p"], p["a"]))
        def y(x):
            return (x / scale) ** power
        return (lambda x: mpmath.log(mpmath.gammainc(k, 0, y(x), regularized=True)),
                lambda x: mpmath.log(mpmath.gammainc(k, y(x), mpmath.inf, regularized=True)))
    raise ValueError(f"no mpmath tails for {kind!r}")


def neg_log_tail_quantile_mp(marginal: dict, g: float, tail: str, dps: int = 30) -> float:
    """x with P[X > x] = e^{-g} (tail="upper") or F(x) = e^{-g} ("lower").

    Matches whichever of e^{-g} and 1 - e^{-g} is the smaller mass, in log
    space, by bisection on ln x over a bracket grown by doubling from
    [-1, 1]; returns the double nearest x (0 or inf outside their range).
    """
    if not 0 < g < math.inf:
        raise ValueError("g must be finite and > 0")
    with mpmath.workdps(dps):
        log_cdf, log_sf = _log_cdf_and_sf(marginal)
        g = mpmath.mpf(g)
        mass_is_tail = g >= mpmath.log(2)
        target = -g if mass_is_tail else mpmath.log(-mpmath.expm1(-g))

        def rising(y):  # increasing in y = ln x, zero at the quantile
            x = mpmath.exp(y)
            if (tail == "upper") == mass_is_tail:
                return target - log_sf(x)
            return log_cdf(x) - target

        lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
        while rising(lo) > 0:
            lo *= 2
        while rising(hi) < 0:
            hi *= 2
        while hi - lo > mpmath.mpf(2) ** -60:
            mid = (lo + hi) / 2
            if rising(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float(mpmath.exp((lo + hi) / 2))


def truncated_quantile_mp(marginal: dict, b: float, g: float, tail: str,
                          dps: int = 30) -> float:
    """The quantile of ``marginal`` truncated to [0, b] at level g: x with
    F(x) = F(b) e^{-g} (tail="lower") or F(b) (1 - e^{-g}) ("upper"), as the
    law's own lower-tail quantile at -ln F(x), in dps-digit mpmath."""
    with mpmath.workdps(dps):
        log_cdf = _log_cdf_and_sf(marginal)[0]
        g = mpmath.mpf(g)
        below = g if tail == "lower" else -mpmath.log(-mpmath.expm1(-g))
        return neg_log_tail_quantile_mp(marginal, below - log_cdf(mpmath.mpf(b)), "lower", dps)


def lognormal_ratio_curve_mp(num, den, eta, gamma, t, dps: int = 30) -> float:
    """c(t) = P[X_1(t) <= gamma (X_2(t) + eta)] for embedded LogNormal laws
    ``num`` = (mu_1, sigma_1) on the upper tail and ``den`` = (mu_2, sigma_2)
    on the lower tail, in dps-digit mpmath.

    Integrates over the denominator's value y = exp(mu_2 + sigma_2 z), whose
    time-t density is (-log F_2(y))^(t-1) f_2(y) / Gamma(t), against
    P[X_1(t) <= x] = P(t, -log(1 - F_1(x))).  log F_2 is written as
    log1p(-Phi(-z)) for z >= 0, so that it does not round to 0 in the upper
    tail, and as log Phi(z) below.
    """
    with mpmath.workdps(dps):
        mu1, s1, mu2, s2 = (mpmath.mpf(v) for v in (*num, *den))
        eta, gamma, t = mpmath.mpf(eta), mpmath.mpf(gamma), mpmath.mpf(t)
        gamma_t = mpmath.gamma(t)

        def integrand(z):
            y = mpmath.exp(mu2 + s2 * z)
            neg_log_f2 = -(mpmath.log(mpmath.ncdf(z)) if z < 0
                           else mpmath.log1p(-mpmath.ncdf(-z)))
            density = neg_log_f2 ** (t - 1) * mpmath.npdf(z) / gamma_t
            z1 = (mpmath.log(gamma * (y + eta)) - mu1) / s1
            level = -mpmath.log(mpmath.ncdf(-z1))
            return mpmath.gammainc(t, 0, level, regularized=True) * density

        return float(mpmath.quad(integrand, [-mpmath.inf, -4, 0, 2, 4, 6, 8, 12, mpmath.inf]))
