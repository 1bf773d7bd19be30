import math

import numpy as np
import pytest

from raresplit import baseline
from raresplit.baseline import naive_mc, poisson_is, poisson_is_tilt
from raresplit.cli import load_preset, preset_problem
from raresplit.dist import (Exponential, Gamma, GeneralizedGamma, LogNormal, Poisson, Weibull,
                            reg_lower_inc_gamma)
from raresplit.model import ProblemSpec, Ratio, Sum, WeightedSum, embed, importance
from raresplit.process import RngStream, poisson_sampler
from raresplit.stats import oracle_exact

import oracles


def exp_sum(n=4, gamma=1.5):
    return ProblemSpec((Exponential(1.0),) * n, ("I",) * n, Sum(), gamma, "continuous")


class TestNaiveMc:
    def test_below_support_is_zero(self):
        rep = naive_mc(exp_sum(gamma=-1.0), 10_000, RngStream(0))
        assert rep.mean == 0.0
        assert rep.re is None and rep.wnrv is None

    def test_exp_sum_against_gamma_cdf(self):
        m = 200_000
        rep = naive_mc(exp_sum(4, 1.5), m, RngStream(1))
        exact = reg_lower_inc_gamma(4, 1.5)
        se = math.sqrt(exact * (1 - exact) / m)
        assert abs(rep.mean - exact) < 3 * se

    def test_poisson_native_draws(self):
        marginals = (Poisson(1.0), Poisson(1.0))
        problem = ProblemSpec(marginals, ("I", "I"), WeightedSum((1.0, 2.0)),
                              2.0, "poisson")
        m = 200_000
        rep = naive_mc(problem, m, RngStream(2))
        exact = oracles.weighted_poisson_tail([1.0, 1.0], [1.0, 2.0], 2.0)
        se = math.sqrt(exact * (1 - exact) / m)
        assert abs(rep.mean - exact) < 3 * se

    def test_ratio_problem(self):
        marginals = (Exponential(1.0), Exponential(1.0))
        problem = ProblemSpec(marginals, ("I", "D"), Ratio(0.3), 0.5, "continuous")
        m = 200_000
        rep = naive_mc(problem, m, RngStream(3))
        exact = 1.0 - math.exp(-0.5 * 0.3) / 1.5  # closed form for exp/exp ratio
        se = math.sqrt(exact * (1 - exact) / m)
        assert abs(rep.mean - exact) < 3 * se

    def test_lognormal_ratio_against_oracle(self):
        # the two-coordinate ratio of test_stats: its "D" column is drawn
        # through the lower-tail quantile
        problem = ProblemSpec((LogNormal(1.0, 0.8), LogNormal(0.0, 0.6)), ("I", "D"),
                              Ratio(0.2), 0.8, "continuous")
        m = 400_000
        rep = naive_mc(problem, m, RngStream(2201))
        exact = oracle_exact(problem)
        se = math.sqrt(exact * (1 - exact) / m)
        assert abs(rep.mean - exact) < 4 * se

    def test_bernoulli_re_formula(self):
        m = 50_000
        rep = naive_mc(exp_sum(4, 1.5), m, RngStream(4))
        p = rep.mean
        expected_re = math.sqrt(p * (1 - p) * m / (m - 1)) / (p * math.sqrt(m))
        assert rep.re == pytest.approx(expected_re, rel=1e-12)
        assert 0.0 <= rep.mean <= 1.0

    def test_deterministic(self):
        a = naive_mc(exp_sum(), 50_000, RngStream(7))
        b = naive_mc(exp_sum(), 50_000, RngStream(7))
        assert a.mean == b.mean

    def test_validation(self):
        with pytest.raises(ValueError):
            naive_mc(exp_sum(), 0, RngStream(0))

    def test_one_sample_has_no_variance(self):
        with pytest.raises(ValueError, match="m must be >= 2"):
            naive_mc(exp_sum(), 1, RngStream(0))


class TestPoissonIs:
    def test_tilt_arithmetic(self):
        lambdas = [1.0 + 0.2 * i for i in range(12)]
        weights = [float(i) for i in range(1, 13)]
        theta = poisson_is_tilt(lambdas, weights, 30.0)
        assert sum(w * l for w, l in zip(weights, lambdas)) == pytest.approx(192.4)
        assert theta == pytest.approx(30.0 / 192.4, rel=1e-12)

    def test_enumeration_case(self):
        # lattice {(k1, k2): k1 + 2 k2 <= 2} has four points summing to 3.5 e^{-2}
        exact = oracles.weighted_poisson_tail([1.0, 1.0], [1.0, 2.0], 2.0)
        assert exact == pytest.approx(3.5 * math.exp(-2.0), rel=1e-12)
        m = 100_000
        rep = poisson_is([1.0, 1.0], [1.0, 2.0], 2.0, m, RngStream(5))
        se = math.sqrt(rep.variance / m)
        assert abs(rep.mean - exact) < 3 * se

    @pytest.mark.parametrize("gamma", [0.3, 1.5, 2.7])
    def test_unbiased_across_tilts(self, gamma):
        # theta = gamma/3 runs through 0.1, 0.5 and 0.9
        exact = oracles.weighted_poisson_tail([1.0, 1.0], [1.0, 2.0], gamma)
        m = 100_000
        rep = poisson_is([1.0, 1.0], [1.0, 2.0], gamma, m, RngStream(6))
        se = math.sqrt(rep.variance / m)
        assert abs(rep.mean - exact) < 3 * se

    def test_theta_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamping"):
            rep = poisson_is([1.0, 1.0], [1.0, 2.0], 5.0, 20_000, RngStream(8))
        # at theta = 1 the likelihood ratio is 1 and the estimator is a
        # plain MC proportion
        exact = oracles.weighted_poisson_tail([1.0, 1.0], [1.0, 2.0], 5.0)
        se = math.sqrt(rep.variance / rep.m)
        assert abs(rep.mean - exact) < 3 * se
        assert rep.mean * 20_000 == pytest.approx(round(rep.mean * 20_000))

    def test_never_negative(self):
        rep = poisson_is([0.5, 2.0], [1.0, 3.0], 1.0, 10_000, RngStream(9))
        assert rep.mean >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_is([1.0], [0.0], 1.0, 100, RngStream(0))
        with pytest.raises(ValueError):
            poisson_is([1.0, -1.0], [1.0, 1.0], 1.0, 100, RngStream(0))
        with pytest.raises(ValueError):
            poisson_is([1.0], [1.0], -1.0, 100, RngStream(0))
        with pytest.raises(ValueError):
            poisson_is([1.0, 1.0], [1.0], 1.0, 100, RngStream(0))

    def test_one_sample_has_no_variance(self):
        with pytest.raises(ValueError, match="m must be >= 2"):
            poisson_is([1.0, 1.0], [1.0, 2.0], 1.0, 1, RngStream(0))

    @pytest.mark.parametrize("lambdas,weights", [
        ([1.0, math.nan], [1.0, 1.0]), ([1.0, math.inf], [1.0, 1.0]),
        ([1.0, 1.0], [math.nan, 1.0]), ([1.0, 1.0], [1.0, math.inf]),
    ])
    def test_non_finite_inputs_rejected(self, lambdas, weights):
        with pytest.raises(ValueError, match="finite"):
            poisson_is(lambdas, weights, 1.0, 100, RngStream(0))

    def test_deterministic(self):
        a = poisson_is([1.0, 2.0], [1.0, 1.0], 1.0, 50_000, RngStream(10))
        b = poisson_is([1.0, 2.0], [1.0, 1.0], 1.0, 50_000, RngStream(10))
        assert a.mean == b.mean and a.variance == b.variance


def one_chunk_naive(problem, m, seed):
    """naive_mc's (mean, variance) from one (m, n) draw, as before row blocks,
    every row embedded and scored in full: the replay's route to S(X)."""
    gen = RngStream(seed).gen
    if problem.kind == "poisson":
        x = poisson_sampler(problem.rates())(gen, m)
    else:
        x = embed(gen.standard_exponential((m, problem.n)), problem.marginals,
                  problem.directions)
    mean = int(np.count_nonzero(importance(problem.importance, x) <= problem.gamma)) / m
    return mean, mean * (1.0 - mean) * m / (m - 1)


def one_chunk_is(lambdas, weights, gamma, m, seed, block=1 << 12):
    """poisson_is's (mean, variance) from one (m, n) draw, its moments summed
    ``block`` rows at a time, in order."""
    gen = RngStream(seed).gen
    lambdas, weights = np.asarray(lambdas, dtype=float), np.asarray(weights, dtype=float)
    theta = poisson_is_tilt(lambdas, weights, gamma)
    const = -float(lambdas.sum()) * (1.0 - theta)
    x = poisson_sampler(lambdas * theta)(gen, m)
    log_w = const - math.log(theta) * x.sum(axis=1)
    vals = np.where((x @ weights) <= gamma, np.exp(log_w), 0.0)
    total = total_sq = 0.0
    for done in range(0, m, block):
        part = vals[done:done + block]
        total += float(part.sum())
        total_sq += float((part * part).sum())
    mean = total / m
    return mean, max((total_sq - m * mean * mean) / (m - 1), 0.0)


class TestRowBlocks:
    """The baselines stream fixed row blocks and report the bits of one draw."""

    # several blocks, the last one partial
    M = 3 * baseline._BLOCK + 123

    def test_naive_poisson_matches_one_chunk(self):
        problem = ProblemSpec((Poisson(1.0), Poisson(2.5), Poisson(0.7)), ("I",) * 3,
                              WeightedSum((1.0, 0.5, 2.25)), 3.0, "poisson")
        rep = naive_mc(problem, self.M, RngStream(21))
        assert (rep.mean, rep.variance) == one_chunk_naive(problem, self.M, 21)
        assert 0.0 < rep.mean < 1.0

    def test_naive_continuous_matches_one_chunk(self):
        problem = ProblemSpec((Weibull(0.7, 1.0), LogNormal(0.0, 1.0), Exponential(2.0)),
                              ("I",) * 3, Sum(), 2.0, "continuous")
        rep = naive_mc(problem, self.M, RngStream(22))
        assert (rep.mean, rep.variance) == one_chunk_naive(problem, self.M, 22)
        assert 0.0 < rep.mean < 1.0

    def test_is_matches_one_chunk(self):
        args = ([1.0, 2.0, 0.5], [1.0, 1.5, 3.0], 1.2)
        rep = poisson_is(*args, self.M, RngStream(23))
        assert (rep.mean, rep.variance) == one_chunk_is(*args, self.M, 23)

    def test_is_across_the_chunk_sum_boundary(self):
        m = (1 << 20) + 5
        args = ([1.0, 2.0], [1.0, 2.0], 0.9)
        rep = poisson_is(*args, m, RngStream(24))
        assert (rep.mean, rep.variance) == one_chunk_is(*args, m, 24)
        assert rep.mean > 0.0


def preset_row(table, gamma, box):
    problem = preset_problem(load_preset(table), gamma)
    return problem.boxed()[0] if box else problem


# one member of each continuous law, off the unit parameters
LAWS = (LogNormal(0.3, 1.7), Weibull(0.6, 2.0), GeneralizedGamma(2.5, 0.7, 1.3),
        Gamma(0.4, 2.0), Exponential(1.5))


class TestOneDecision:
    """naive MC decides S(X) <= gamma by ``process.survives``, the survival
    bracket with exact scoring behind it; its estimate has the bits of
    embedding every draw and scoring it with ``importance``."""

    M = 3 * baseline._BLOCK + 123

    # (problem, whether the row is loose enough that some draws hit at M)
    @pytest.mark.parametrize("problem, hits", [
        (preset_row("V", 1.39, False), False),
        (preset_row("V", 1.39, True), False),
        (preset_row("V", 10.0, False), True),
        (preset_row("V", 10.0, True), True),
        (preset_row("II", 0.005, False), False),
        (preset_row("II", 0.005, True), True),
        (preset_row("II", 1.0, False), True),
        (preset_row("VI", 0.02, False), False),
        (preset_row("VI", 0.3, False), True),
        (ProblemSpec(LAWS, ("I",) * 5, Sum(), 3.0), True),
        (ProblemSpec(LAWS, ("I",) * 5, Sum(), 3.0).boxed()[0], True),
        (ProblemSpec((LogNormal(0.0, 1.0),) + LAWS, ("I",) + ("D",) * 5, Ratio(0.1), 0.1),
         True),
        (preset_row("I", 50.0, False), False),
        (preset_row("I", 100.0, False), True),
    ], ids=["V-1.39", "V-1.39-box", "V-10", "V-10-box", "II-0.005", "II-0.005-box", "II-1",
            "VI-0.02", "VI-0.3", "laws-upper", "laws-upper-box", "laws-lower",
            "I-50", "I-100"])
    def test_hits_equal_exact_scoring_of_every_draw(self, problem, hits):
        rep = naive_mc(problem, self.M, RngStream(31))
        assert (rep.mean, rep.variance) == one_chunk_naive(problem, self.M, 31)
        assert (rep.mean > 0.0) == hits


class TestLogNormalRatioSmoke:
    def test_naive_on_interference_scenario(self):
        # down-scaled Table-style interference problem, non-rare gamma
        db = math.log(10.0) / 10.0
        marginals = (LogNormal(20 * db, 6 * db),) + (LogNormal(0.0, 4 * db),) * 3
        problem = ProblemSpec(marginals, ("I",) + ("D",) * 3, Ratio(0.1),
                              2.0, "continuous")
        rep = naive_mc(problem, 100_000, RngStream(11))
        assert 0.0 < rep.mean < 1.0
