import math

import numpy as np
import pytest

from raresplit.cli import TABLES, load_preset, preset_problem
from raresplit.curve import survival_bracket
from raresplit.dist import (Exponential, LogNormal, Poisson, Weibull, poisson_cdf_at,
                            reg_lower_inc_gamma)
from raresplit.model import (
    OrderedPartialSum,
    ProblemSpec,
    Ratio,
    Sum,
    WeightedSum,
)
from raresplit.process import RngStream
from raresplit.sched import (
    _GRID,
    SchedulingError,
    _place_levels,
    inverse_ccdf_schedule,
    lower_bound_schedule,
)
from raresplit.split import SplitRunResult, run_splitting, replicate
from raresplit.stats import oracle_exact

import oracles


def exp_sum(n=4, gamma=0.5):
    return ProblemSpec((Exponential(1.0),) * n, ("I",) * n, Sum(), gamma, "continuous")


def table1_problem(gamma=30.0):
    marginals = tuple(Poisson(1.0 + 0.2 * i) for i in range(12))
    weights = tuple(float(i) for i in range(1, 13))
    return ProblemSpec(marginals, ("I",) * 12, WeightedSum(weights), gamma, "poisson")


def weibull_ordered(alpha=0.5, gamma=1.0):
    return ProblemSpec((Weibull(alpha, 1.0),) * 8, ("I",) * 8,
                       OrderedPartialSum(4), gamma, "continuous")


def mixed_ordered(gamma=0.3):
    """Top 2 of 4 marginals that are not identical: the curve engine does not
    cover it, so only the pilot-built schedule applies."""
    marginals = (Weibull(0.5, 1.0), Weibull(0.8, 1.0), Exponential(1.0), Weibull(0.5, 2.0))
    return ProblemSpec(marginals, ("I",) * 4, OrderedPartialSum(2), gamma, "continuous")


def reference_log_curve(problem, t):
    """log c(t) = log P[S(X(t)) <= gamma] by a route that shares no code with
    the schedule: the Gamma CDF for Exp(1) sums (X_i(t) = G_i(t)), the mpmath
    Poisson DP at rates lambda * t, the order-statistic sum of oracles for
    i.i.d. Weibull top-n_bar sums."""
    spec = problem.importance
    if problem.kind == "poisson":
        return math.log(oracles.weighted_poisson_cdf_mp(
            [lam * t for lam in problem.rates()], spec.weights, problem.gamma))
    if isinstance(spec, Sum):
        return math.log(oracles.reg_lower_inc_gamma_series(problem.n * t, problem.gamma))
    law = problem.marginals[0]

    def cdf(x):
        return oracles.reg_lower_inc_gamma_series(t, (x / law.eta) ** law.alpha)

    return math.log(oracles.top_sum_cdf(cdf, problem.n, spec.n_bar, problem.gamma))


def assert_equal_survival_levels(problem, sched, p_bar=0.1, tol=0.02,
                                 log_curve=reference_log_curve):
    """Each interior level t_l solves log c(t_l) = (l/L) log c(1) within
    ``tol``, and L is the fewest levels that each survive at least p_bar."""
    assert sched.times[-1] == 1.0
    assert all(b > a for a, b in zip(sched.times, sched.times[1:]))
    L = len(sched)
    log_end = log_curve(problem, 1.0)
    assert log_end / L >= math.log(p_bar) - tol / L
    if L > 1:
        assert log_end / (L - 1) < math.log(p_bar) + tol / (L - 1)
    for l, t in enumerate(sched.times[:-1], start=1):
        assert abs(log_curve(problem, t) - l / L * log_end) <= tol


class TestLowerBoundSchedule:
    def test_single_coordinate_residual(self):
        # n = 1, Exp(1), gamma = 1: c(t) = gammainc(t, 1) and c(1) = 0.632.
        # With p_bar = 0.5 one level already survives more than p_bar, so the
        # schedule is (1.0,); with p_bar = 0.7 it takes two levels, and t_1
        # must satisfy c(t_1) = c(1)^(1/2).
        problem = exp_sum(n=1, gamma=1.0)
        assert lower_bound_schedule(problem, p_bar=0.5).times == (1.0,)
        sched = lower_bound_schedule(problem, p_bar=0.7)
        assert len(sched) == 2
        t1 = sched.times[0]
        assert t1 < 1.0
        assert_equal_survival_levels(problem, sched, p_bar=0.7)
        # independent bisection oracle agrees on the root
        target = math.sqrt(oracles.reg_lower_inc_gamma_series(1.0, 1.0))
        t_ref = oracles.bisect_root(
            lambda t: oracles.reg_lower_inc_gamma_series(t, 1.0) - target, 1e-9, 1.0)
        assert t1 == pytest.approx(t_ref, abs=1e-3)

    @pytest.mark.parametrize("problem", [
        exp_sum(4, 0.5),
        exp_sum(4, 0.1),
        weibull_ordered(0.5, 1.0),
        weibull_ordered(0.8, 0.38),
        table1_problem(30.0),
        table1_problem(60.0),
    ])
    def test_residuals_at_interior_levels(self, problem):
        assert_equal_survival_levels(problem, lower_bound_schedule(problem))

    @pytest.mark.parametrize("case", ["ratio", "mixed_top_sum", "poisson_past_cap"])
    def test_uncovered_problems_rejected_with_guidance(self, case, monkeypatch):
        if case == "ratio":
            marginals = (LogNormal(2.0, 0.6),) + (LogNormal(0.0, 0.9),) * 3
            problem = ProblemSpec(marginals, ("I",) + ("D",) * 3, Ratio(0.1),
                                  0.02, "continuous")
        elif case == "mixed_top_sum":
            problem = mixed_ordered(0.3)
        else:
            # one pair for each of the _GRID times
            monkeypatch.setattr("raresplit.curve.MAX_LATTICE", _GRID)
            problem = table1_problem(30.0)
        with pytest.raises(SchedulingError, match="inverse_ccdf_schedule") as info:
            lower_bound_schedule(problem)
        assert "--levels-method iccdf" in str(info.value)

    @pytest.mark.parametrize("table", [t for t in TABLES if t != "VI"])
    def test_every_sum_preset_row_is_covered(self, table):
        # no preset row of the sum family may need a curve the engine lacks
        preset = load_preset(table)
        ts = np.linspace(0.0, 1.0, _GRID + 1)[1:]
        for row in preset["rows"]:
            problem = preset_problem(preset, row["gamma"])
            assert survival_bracket(problem, ts) is not None, (table, row["gamma"])

    def test_huge_gamma_gives_single_level(self):
        sched = lower_bound_schedule(exp_sum(4, 1e9))
        assert sched.times == (1.0,)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(SchedulingError):
            lower_bound_schedule(exp_sum(4, -1.0))
        with pytest.raises(SchedulingError):
            lower_bound_schedule(table1_problem(-5.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            lower_bound_schedule(exp_sum(), p_bar=0.0)

    def test_zero_weight_coordinates_skipped(self):
        marginals = (Poisson(1.0), Poisson(2.0))
        problem = ProblemSpec(marginals, ("I", "I"), WeightedSum((0.0, 1.0)),
                              1.0, "poisson")
        sched = lower_bound_schedule(problem)
        assert sched.times[-1] == 1.0


def lognormal_ratio(gamma):
    return ProblemSpec((LogNormal(1.0, 0.8), LogNormal(0.0, 0.6)), ("I", "D"), Ratio(0.2),
                       gamma, "continuous")


class TestExtremes:
    """``lower_bound_schedule`` and ``oracle_exact`` where c(1) rounds to 1,
    at gamma <= 0, and on one Poisson coordinate at the 1e6 rate cap; the
    suite turns any warning into an error."""

    @pytest.mark.parametrize("problem", [
        exp_sum(4, 1e9),
        lognormal_ratio(1e6),
        ProblemSpec((Poisson(1.0), Poisson(2.0)), ("I", "I"), WeightedSum((1.0, 1.0)),
                    200.0, "poisson"),
    ])
    def test_certain_event_is_one_level(self, problem):
        assert oracle_exact(problem) == 1.0
        assert lower_bound_schedule(problem).times == (1.0,)

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    @pytest.mark.parametrize("family", ["exponential_sum", "bracketed_sum", "ratio"])
    def test_nonpositive_gamma_reads_zero(self, gamma, family):
        problem = {"exponential_sum": exp_sum(4, gamma),
                   "bracketed_sum": weibull_ordered(0.5, gamma),
                   "ratio": lognormal_ratio(gamma)}[family]
        assert oracle_exact(problem) == 0.0
        with pytest.raises(SchedulingError, match="0 to double precision"):
            lower_bound_schedule(problem)

    def test_poisson_coordinate_at_rate_cap(self):
        problem = ProblemSpec((Poisson(1e6),), ("I",), WeightedSum((1.0,)), 1e6, "poisson")
        assert oracle_exact(problem) == pytest.approx(poisson_cdf_at(1e6, 1e6), rel=1e-10)


class TestInverseCcdfSchedule:
    def test_fixed_point_of_exact_pilot(self, monkeypatch):
        # pilot estimates exactly p_bar^l at the pilot knots -> the inverted
        # times are the knots themselves
        s = 1000
        counts = (100,) * 12

        def fake_run(problem, schedule, s_pilot, rng):
            return SplitRunResult(math.prod(k / s_pilot for k in counts), counts)

        monkeypatch.setattr("raresplit.sched.run_splitting", fake_run)
        sched = inverse_ccdf_schedule(exp_sum(), RngStream(0), l_pilot=12, s_pilot=s)
        expected = [l / 12 for l in range(1, 12)]
        assert len(sched.times) == 12
        assert sched.times[-1] == 1.0
        assert np.allclose(sched.times[:-1], expected, rtol=1e-9)

    def test_extinct_final_pilot_level_uses_prefix(self, monkeypatch):
        counts = (100,) * 11 + (0,)

        def fake_run(problem, schedule, s_pilot, rng):
            return SplitRunResult(0.0, counts)

        monkeypatch.setattr("raresplit.sched.run_splitting", fake_run)
        sched = inverse_ccdf_schedule(exp_sum(), RngStream(0), l_pilot=12, s_pilot=1000)
        assert sched.times[-1] == 1.0
        assert np.allclose(sched.times[:-1], [l / 12 for l in range(1, 11)], rtol=1e-9)

    def test_uneven_pilot_end_gets_equal_survival_levels(self, monkeypatch):
        # the pilot curve ends at 0.1^11 * 0.3, no power of p_bar: every
        # level still aims at P^(l/L), at the times the one placement rule
        # gives on that curve
        s = 1000
        counts = (100,) * 11 + (300,)

        def fake_run(problem, schedule, s_pilot, rng):
            return SplitRunResult(math.prod(k / s_pilot for k in counts), counts)

        monkeypatch.setattr("raresplit.sched.run_splitting", fake_run)
        sched = inverse_ccdf_schedule(exp_sum(), RngStream(0), l_pilot=12, s_pilot=s)
        ts, log_c = [0.0], [0.0]
        for l, k in enumerate(counts, start=1):
            ts.append(l / 12)
            log_c.append(log_c[-1] + math.log(k / s))
        L = len(sched)
        assert L == 12
        end = math.exp(log_c[-1])
        for l, target in enumerate(sched.targets, start=1):
            assert target == pytest.approx(end ** (l / L), rel=1e-12)
        ratios = np.asarray(sched.targets[1:]) / np.asarray(sched.targets[:-1])
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        np.testing.assert_allclose(sched.times, _place_levels(ts, log_c, 0.1).times,
                                   rtol=1e-12)

    def test_strictly_increasing_terminal_one(self):
        sched = inverse_ccdf_schedule(exp_sum(4, 0.1), RngStream(4),
                                      l_pilot=10, s_pilot=2000)
        assert sched.times[-1] == 1.0
        assert all(b > a for a, b in zip(sched.times, sched.times[1:]))
        assert all(0.0 < t <= 1.0 for t in sched.times)

    def test_pilot_extinction_raises(self):
        problem = exp_sum(4, 1e-6)  # ell ~ 4e-27: a 100-state pilot dies early
        with pytest.raises(SchedulingError, match="s_pilot"):
            inverse_ccdf_schedule(problem, RngStream(1), l_pilot=12, s_pilot=100)

    def test_non_rare_problem_single_level(self):
        sched = inverse_ccdf_schedule(exp_sum(4, 20.0), RngStream(2),
                                      l_pilot=6, s_pilot=500)
        assert sched.times == (1.0,)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            inverse_ccdf_schedule(exp_sum(), RngStream(0), l_pilot=1)
        with pytest.raises(ValueError):
            inverse_ccdf_schedule(exp_sum(), RngStream(0), s_pilot=50)
        with pytest.raises(ValueError):
            inverse_ccdf_schedule(exp_sum(), RngStream(0), p_bar=1.5)

    def test_pilot_level_cap(self):
        # one past the cap: rejected before any pilot level is built
        with pytest.raises(ValueError, match="l_pilot must be <= 10000"):
            inverse_ccdf_schedule(exp_sum(), RngStream(0), l_pilot=10_001)

    def test_estimates_match_oracle_through_schedule(self):
        problem = exp_sum(4, 0.5)
        sched = inverse_ccdf_schedule(problem, RngStream(8), l_pilot=8, s_pilot=1000)
        rep = replicate(problem, sched, 500, 100, RngStream(9))
        exact = reg_lower_inc_gamma(4, 0.5)
        assert abs(rep.mean - exact) < 3 * rep.re * rep.mean + 3e-5

    def test_ratio_splitting_matches_quadrature_oracle(self):
        # two-coordinate ratio: split through a pilot schedule against the
        # 1-d quadrature oracle
        from raresplit.stats import oracle_exact
        problem = ProblemSpec((LogNormal(1.0, 0.8), LogNormal(0.0, 0.6)),
                              ("I", "D"), Ratio(0.2), 0.05, "continuous")
        exact = oracle_exact(problem)
        sched = inverse_ccdf_schedule(problem, RngStream(14), l_pilot=8,
                                      s_pilot=1000)
        rep = replicate(problem, sched, 800, 100, RngStream(15))
        assert exact is not None
        assert abs(rep.mean - exact) < 3 * rep.re * rep.mean


class TestScheduleQualityMidLevels:
    def test_lower_bound_mid_levels_near_target(self):
        # the analytic bound is loose at the first level and at the forced
        # final level; interior levels should sit near p_bar
        problem = exp_sum(4, 0.1)
        sched = lower_bound_schedule(problem)
        rng = RngStream(12)
        L = len(sched)
        fractions = np.zeros(L)
        m = 40
        for i in range(m):
            res = run_splitting(problem, sched, 2000, rng.substream(i))
            fractions += np.asarray(res.survivor_counts) / 2000
        fractions /= m
        for p in fractions[1:-1]:
            assert 0.1 / 3 < p < 0.3
