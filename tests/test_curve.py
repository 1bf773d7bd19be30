import itertools
import math

import numpy as np
import pytest

from raresplit.curve import CELLS, CurveRefusal, _top_sum_law, survival_bracket
from raresplit.dist import Exponential, Gamma, LogNormal, Poisson, Weibull
from raresplit.model import OrderedPartialSum, ProblemSpec, Ratio, Sum, WeightedSum

import oracles

TIMES = (0.05, 0.3, 0.7, 1.0)


def iid(law, n, spec, gamma):
    return ProblemSpec((law,) * n, ("I",) * n, spec, gamma, "continuous")


def weibull_cdf_at(t, law):
    """P[X(t) <= x] for an embedded Weibull coordinate: P(t, (x/eta)^alpha)."""
    return lambda x: oracles.reg_lower_inc_gamma_series(t, (x / law.eta) ** law.alpha)


class TestBracket:
    @pytest.mark.parametrize("n, gamma", [(1, 1.0), (4, 0.5), (4, 0.1), (15, 1.0)])
    def test_contains_exponential_sum(self, n, gamma):
        # Gamma(1, 1) is Exp(1) outside the exponential family's exact
        # formula, so its sum is bracketed.  X_i(t) = G_i(t), so c(t) =
        # P(n t, gamma).  Rounding moves the sum by less than n cells, so the
        # bracket also lies inside the exact curve at gamma -/+ n cells.  For
        # n = 1 the ends are exactly P[X < gamma] and P[X < gamma + h], hence
        # the roundoff slack.
        lo, hi = survival_bracket(iid(Gamma(1.0, 1.0), n, Sum(), gamma), TIMES)
        shift = gamma * n / max(CELLS, 32 * n)
        for t, a, b in zip(TIMES, lo, hi):
            def exact(g):
                return oracles.reg_lower_inc_gamma_series(n * t, g)

            slack = 1.0 + 1e-12
            assert exact(gamma - shift) / slack <= a <= exact(gamma) * slack
            assert exact(gamma) / slack <= b <= exact(gamma + shift) * slack

    @pytest.mark.parametrize("n, rate, gamma", [(1, 1.0, 1.0), (4, 2.0, 0.05), (15, 0.5, 2.0)])
    def test_exponential_sum_is_exact(self, n, rate, gamma):
        # X_i(t) = G_i(t) / rate, so c(t) = P(n t, rate gamma) at every time
        lo, hi = survival_bracket(iid(Exponential(rate), n, Sum(), gamma), TIMES)
        assert np.array_equal(lo, hi)
        for t, v in zip(TIMES, lo):
            exact = oracles.reg_lower_inc_gamma_series(n * t, rate * gamma)
            assert v == pytest.approx(exact, rel=1e-13, abs=0)

    def test_weighted_sum_contains_rescaled_exponential_sum(self):
        # w X with X ~ Exp(1) is Exp(1/w): weights 2 at gamma 0.6 act as
        # weights 1 at gamma 0.3, and a zero weight drops its coordinate
        problem = ProblemSpec((Exponential(1.0),) * 4, ("I",) * 4,
                              WeightedSum((2.0, 2.0, 2.0, 0.0)), 0.6, "continuous")
        lo, hi = survival_bracket(problem, TIMES)
        for t, a, b in zip(TIMES, lo, hi):
            assert a <= oracles.reg_lower_inc_gamma_series(3 * t, 0.3) <= b

    def test_top_one_is_product_of_marginals(self):
        # the largest coordinate is below gamma iff every coordinate is, so
        # c(t) = F_t(gamma)^n, which the lower end of the bracket hits exactly
        law = Weibull(0.5, 1.0)
        lo, hi = survival_bracket(iid(law, 8, OrderedPartialSum(1), 0.2), TIMES)
        for t, a, b in zip(TIMES, lo, hi):
            exact = weibull_cdf_at(t, law)(0.2) ** 8
            assert a == pytest.approx(exact, rel=1e-9)
            assert b >= a

    def test_top_all_is_the_sum(self):
        # both are the exponential family's exact curve P(4 t, 0.1); the
        # series differs from scipy's by about an ulp
        problem = iid(Exponential(1.0), 4, OrderedPartialSum(4), 0.1)
        lo, hi = survival_bracket(problem, TIMES)
        sum_lo, sum_hi = survival_bracket(iid(Exponential(1.0), 4, Sum(), 0.1), TIMES)
        assert np.array_equal(lo, sum_lo) and np.array_equal(hi, sum_hi)
        for t, a, b in zip(TIMES, lo, hi):
            exact = oracles.reg_lower_inc_gamma_series(4 * t, 0.1)
            assert a == pytest.approx(exact, rel=1e-13, abs=0)
            assert b == pytest.approx(exact, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha, gamma", [(0.5, 1.0), (0.8, 0.38)])
    def test_top_sum_contains_order_statistic_reference(self, alpha, gamma):
        law = Weibull(alpha, 1.0)
        lo, hi = survival_bracket(iid(law, 8, OrderedPartialSum(4), gamma), TIMES)
        for t, a, b in zip(TIMES, lo, hi):
            ref = oracles.top_sum_cdf(weibull_cdf_at(t, law), 8, 4, gamma)
            assert a <= ref <= b

    def test_poisson_curve_is_exact(self):
        rates = [1.0 + 0.2 * i for i in range(12)]
        weights = tuple(float(i) for i in range(1, 13))
        problem = ProblemSpec(tuple(Poisson(lam) for lam in rates), ("I",) * 12,
                              WeightedSum(weights), 40.0, "poisson")
        lo, hi = survival_bracket(problem, TIMES)
        assert np.array_equal(lo, hi)
        for t, v in zip(TIMES, lo):
            exact = oracles.weighted_poisson_cdf_mp([lam * t for lam in rates], weights, 40.0)
            assert v == pytest.approx(exact, rel=1e-13, abs=0)

    def test_poisson_lattice_cap_is_uncovered(self, monkeypatch):
        # 40 pairs shared by the 4 times: 10 per time
        monkeypatch.setattr("raresplit.curve.MAX_LATTICE", 10 * len(TIMES))
        problem = ProblemSpec((Poisson(1.0), Poisson(2.0)), ("I", "I"),
                              WeightedSum((1.0, 1.0)), 30.0, "poisson")
        with pytest.raises(CurveRefusal, match="lattice passes 10 pairs, its share of "
                                               "curve.MAX_LATTICE = 40 pairs"):
            survival_bracket(problem, TIMES)

    def test_nonpositive_gamma_is_zero(self):
        for problem in (iid(Exponential(1.0), 4, Sum(), 0.0),
                        iid(Weibull(0.5, 1.0), 3, Sum(), -1.0),
                        ProblemSpec((LogNormal(1.0, 0.8), LogNormal(0.0, 0.6)), ("I", "D"),
                                    Ratio(0.2), 0.0, "continuous"),
                        ProblemSpec((Poisson(1.0),), ("I",), WeightedSum((1.0,)),
                                    -1.0, "poisson")):
            lo, hi = survival_bracket(problem, TIMES)
            assert not lo.any() and not hi.any()

    def test_uncovered_problems(self):
        ratio = ProblemSpec((LogNormal(1.0, 0.8),) + (LogNormal(0.0, 0.6),) * 2,
                            ("I", "D", "D"), Ratio(0.2), 0.05, "continuous")
        mixed = ProblemSpec((Weibull(0.5, 1.0), Exponential(1.0), Exponential(1.0)),
                            ("I",) * 3, OrderedPartialSum(2), 0.3, "continuous")
        with pytest.raises(CurveRefusal, match="ratio of 3 coordinates"):
            survival_bracket(ratio, TIMES)
        with pytest.raises(CurveRefusal, match="top 2 of 3 laws that are not identical"):
            survival_bracket(mixed, TIMES)


RATIO = ((1.0, 0.8), (0.0, 0.6), 0.2)  # X_1 / (X_2 + 0.2), LogNormal (mu, sigma) laws


def lognormal_ratio(gamma):
    (mu1, s1), (mu2, s2), eta = RATIO
    return ProblemSpec((LogNormal(mu1, s1), LogNormal(mu2, s2)), ("I", "D"), Ratio(eta),
                       gamma, "continuous")


class TestRatioCurve:
    # c(1) runs from about 4e-5 at gamma = 0.05 down to 1.5e-15 at 0.001
    @pytest.mark.parametrize("gamma", [0.05, 0.005, 0.001])
    def test_matches_mpmath_reference(self, gamma):
        times = (0.05, 0.3, 0.7)
        lo, hi = survival_bracket(lognormal_ratio(gamma), times)
        assert np.array_equal(lo, hi)
        for t, v in zip(times, lo):
            assert v == pytest.approx(oracles.lognormal_ratio_curve_mp(*RATIO, gamma, t),
                                      rel=1e-9, abs=0)


class TestTopSumLaw:
    @pytest.mark.parametrize("n, n_bar", [(4, 2), (3, 1), (3, 3), (5, 3)])
    def test_matches_brute_force(self, n, n_bar):
        # cells 0..4 plus an overflow cell holding the missing mass
        rng = np.random.default_rng(n * 10 + n_bar)
        pmf = rng.random((2, 5))
        pmf /= 1.25 * pmf.sum(axis=1, keepdims=True)
        law = _top_sum_law(pmf, n, n_bar)
        for row in range(2):
            probs = list(pmf[row]) + [1.0 - pmf[row].sum()]
            expected = np.zeros(5)
            for cells in itertools.product(range(6), repeat=n):
                top = sum(sorted(cells)[n - n_bar:])
                if top <= 4:
                    expected[top] += math.prod(probs[c] for c in cells)
            assert np.allclose(law[row], expected, rtol=1e-12, atol=0)
