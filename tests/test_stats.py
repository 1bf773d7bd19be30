import itertools
import json
import math
import re

import pytest

from raresplit.cli import load_preset, preset_problem
from raresplit.curve import CurveRefusal, survival_bracket
from raresplit.dist import Exponential, LogNormal, Poisson, Weibull
from raresplit.model import OrderedPartialSum, ProblemSpec, Ratio, Sum, WeightedSum
from raresplit.process import RngStream
from raresplit.stats import EstimateReport, oracle_exact, relative_error, wnrv

import oracles


class TestRelativeError:
    def test_zero_variance(self):
        assert relative_error(0.5, 0.0, 100) == 0.0

    def test_hand_arithmetic(self):
        # sqrt(1.6e-7) / (1e-4 * sqrt(200)) = 4e-4 / 1.41421e-3
        got = relative_error(1e-4, 1.6e-7, 200)
        assert got == pytest.approx(math.sqrt(1.6e-7) / (1e-4 * math.sqrt(200)), rel=1e-12)
        assert got == pytest.approx(0.2828, abs=5e-5)

    def test_zero_mean_is_absent(self):
        assert relative_error(0.0, 1e-3, 10) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_error(0.5, -1.0, 10)
        with pytest.raises(ValueError):
            relative_error(0.5, 1.0, 0)


class TestWnrv:
    def test_zero_re(self):
        assert wnrv(0.0, 100.0) == 0.0

    def test_arithmetic(self):
        assert wnrv(0.02, 100.0) == pytest.approx(0.04, rel=1e-12)

    def test_published_consistency(self):
        # a published row with RE 58.1% and WNRV 84.63 implies ~250.7 s
        implied_seconds = 84.63 / 0.581 ** 2
        assert wnrv(0.581, implied_seconds) == pytest.approx(84.63, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            wnrv(-0.1, 1.0)


class TestOracleExact:
    def test_exponential_sum(self):
        problem = ProblemSpec((Exponential(1.0),) * 4, ("I",) * 4, Sum(),
                              0.1, "continuous")
        got = oracle_exact(problem)
        assert got == pytest.approx(oracles.reg_lower_inc_gamma_series(4, 0.1), rel=1e-11)

    def test_exponential_sum_rate_scaling(self):
        problem = ProblemSpec((Exponential(2.0),) * 3, ("I",) * 3, Sum(),
                              0.5, "continuous")
        assert oracle_exact(problem) == pytest.approx(
            oracles.reg_lower_inc_gamma_series(3, 1.0), rel=1e-11)

    def test_weighted_poisson_enumeration(self):
        marginals = (Poisson(1.0), Poisson(1.0))
        problem = ProblemSpec(marginals, ("I", "I"), WeightedSum((1.0, 2.0)),
                              2.0, "poisson")
        assert oracle_exact(problem) == pytest.approx(3.5 * math.exp(-2.0), rel=1e-11)

    def test_poisson_gamma_zero(self):
        marginals = (Poisson(0.7), Poisson(1.3))
        problem = ProblemSpec(marginals, ("I", "I"), WeightedSum((1.0, 1.0)),
                              0.0, "poisson")
        assert oracle_exact(problem) == pytest.approx(math.exp(-2.0), rel=1e-11)

    def test_enumeration_cap_reports_unsupported(self, monkeypatch):
        marginals = tuple(Poisson(1.0 + 0.2 * i) for i in range(12))
        problem = ProblemSpec(marginals, ("I",) * 12,
                              WeightedSum(tuple(float(i) for i in range(1, 13))),
                              40.0, "poisson")
        assert oracle_exact(problem) > 0
        monkeypatch.setattr("raresplit.curve.MAX_LATTICE", 1000)  # the oracle's one time
        with pytest.raises(CurveRefusal, match="lattice passes 1,000 pairs"):
            oracle_exact(problem)

    def test_ratio_quadrature_closed_form(self):
        # exp/exp ratio has the closed form 1 - e^{-gamma eta} / (1 + gamma)
        problem = ProblemSpec((Exponential(1.0), Exponential(1.0)), ("I", "D"),
                              Ratio(0.3), 0.5, "continuous")
        expected = 1.0 - math.exp(-0.5 * 0.3) / 1.5
        assert oracle_exact(problem) == pytest.approx(expected, rel=1e-8)

    def test_ratio_quadrature_lognormal_vs_mc(self):
        import numpy as np
        problem = ProblemSpec((LogNormal(1.0, 0.8), LogNormal(0.0, 0.6)), ("I", "D"),
                              Ratio(0.2), 0.8, "continuous")
        exact = oracle_exact(problem)
        gen = RngStream(13).gen
        m = 400_000
        x1 = np.exp(1.0 + 0.8 * gen.standard_normal(m))
        x2 = np.exp(0.6 * gen.standard_normal(m))
        est = np.mean(x1 / (x2 + 0.2) <= 0.8)
        se = math.sqrt(est * (1 - est) / m)
        assert abs(exact - est) < 3 * se

    def test_unsupported_families(self):
        mixed = ProblemSpec((Exponential(1.0), Weibull(0.5, 1.0)), ("I", "I"),
                            Sum(), 1.0, "continuous")
        ordered = ProblemSpec((Weibull(0.5, 1.0),) * 4, ("I",) * 4,
                              OrderedPartialSum(2), 1.0, "continuous")
        for bracketed in (mixed, ordered):
            # the refusal carries both ends of the engine's bracket at t = 1
            with pytest.raises(CurveRefusal, match="only brackets") as info:
                oracle_exact(bracketed)
            (lo,), (hi,) = survival_bracket(bracketed, [1.0])
            ends = re.search(r"in \[(\S+), (\S+)\]", str(info.value)).groups()
            assert tuple(map(float, ends)) == (lo, hi) and lo < hi
        ratio3 = ProblemSpec((LogNormal(0, 1),) * 3, ("I", "D", "D"),
                             Ratio(0.1), 0.5, "continuous")
        with pytest.raises(CurveRefusal, match="ratio of 3 coordinates"):
            oracle_exact(ratio3)

    def test_gamma_at_or_below_zero(self):
        problem = ProblemSpec((Exponential(1.0),) * 2, ("I", "I"), Sum(),
                              0.0, "continuous")
        assert oracle_exact(problem) == 0.0

    @pytest.mark.parametrize("gamma", [0.05, 0.01, 0.005, 0.002, 0.001])
    def test_ratio_matches_mpmath_reference(self, gamma):
        # c runs from about 4e-5 down to 1.5e-15; a quadrature with an
        # absolute tolerance loses these digits
        problem = ProblemSpec((LogNormal(1.0, 0.8), LogNormal(0.0, 0.6)), ("I", "D"),
                              Ratio(0.2), gamma, "continuous")
        exact = oracles.lognormal_ratio_curve_mp((1.0, 0.8), (0.0, 0.6), 0.2, gamma, 1.0)
        assert oracle_exact(problem) == pytest.approx(exact, rel=1e-9, abs=0.0)


def poisson_pmf(k, lam):
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def brute_force_weighted_poisson(rates, weights, gamma, kmax=40, slack=1e-9):
    """Sum the joint pmf over every point of the box {0..kmax}^n within gamma.

    ``slack`` admits points whose float weighted sum misses gamma by roundoff.
    """
    total = 0.0
    for point in itertools.product(range(kmax + 1), repeat=len(rates)):
        if sum(w * k for w, k in zip(weights, point)) <= gamma + slack:
            total += math.prod(poisson_pmf(k, lam) for k, lam in zip(point, rates))
    return total


class TestWeightedPoissonOracle:
    @pytest.mark.parametrize("gamma", [30.0, 40.0, 50.0, 60.0])
    def test_table1_rows_match_mpmath(self, gamma):
        problem = preset_problem(load_preset("I"), gamma)
        exact = oracles.weighted_poisson_cdf_mp(
            problem.rates(), problem.importance.weights, gamma)
        assert oracle_exact(problem) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_non_integer_and_zero_weights(self):
        rates, weights = (1.3, 0.7, 2.0), (0.5, 1.5, 0.0)
        problem = ProblemSpec(tuple(Poisson(r) for r in rates), ("I",) * 3,
                              WeightedSum(weights), 4.2, "poisson")
        expected = brute_force_weighted_poisson(rates, weights, 4.2)
        assert oracle_exact(problem) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_roundoff_boundary_points_count(self):
        # 3 * 0.1 and 0.1 + 0.2 both exceed 0.3 in floating point, yet the
        # points (3, 0) and (1, 1) lie on the threshold and must count
        assert 3 * 0.1 > 0.3 and 0.1 + 0.2 > 0.3
        rates, weights = (1.0, 2.0), (0.1, 0.2)
        problem = ProblemSpec((Poisson(1.0), Poisson(2.0)), ("I", "I"),
                              WeightedSum(weights), 0.3, "poisson")
        expected = brute_force_weighted_poisson(rates, weights, 0.3, kmax=5)
        strict = brute_force_weighted_poisson(rates, weights, 0.3, kmax=5, slack=0.0)
        boundary = poisson_pmf(3, 1.0) * poisson_pmf(0, 2.0) \
            + poisson_pmf(1, 1.0) * poisson_pmf(1, 2.0)
        assert expected - strict == pytest.approx(boundary, rel=1e-12, abs=0.0)
        assert oracle_exact(problem) == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestEstimateReport:
    def make(self, **timing):
        timing = {"wall_seconds": 12.5, "schedule_seconds": 0.25, **timing}
        return EstimateReport(
            method="split", mean=1e-4, variance=1.6e-7, m=200, s=3000,
            levels=[0.25, 0.5, 1.0], per_level_survival=[0.1, 0.12, 0.3],
            seed=42, **timing)

    def test_json_round_trip_lossless(self):
        report = self.make()
        d = report.to_json_dict()
        assert list(d) == ["method", "mean", "variance", "re", "wnrv", "wall_seconds", "m",
                           "s", "levels", "per_level_survival", "seed", "schedule_seconds"]
        again = EstimateReport.from_json_dict(d)
        assert again == report
        assert again.to_json_dict() == d

    def test_round_trip_without_timing_fields(self):
        # a report written without timing has null wall_seconds, wnrv and
        # schedule_seconds; one from before schedule_seconds lacks the key
        d = self.make(wall_seconds=None, schedule_seconds=None).to_json_dict()
        assert d["wnrv"] is None and d["re"] is not None
        assert EstimateReport.from_json_dict(d).to_json_dict() == d
        d.pop("schedule_seconds")
        assert EstimateReport.from_json_dict(d).schedule_seconds is None

    def test_derived_fields_bit_for_bit(self):
        report = self.make()
        assert report.re == relative_error(1e-4, 1.6e-7, 200)
        assert report.wnrv == wnrv(relative_error(1e-4, 1.6e-7, 200), 12.5)

    def test_absent_re_round_trips(self):
        report = EstimateReport(method="naive", mean=0.0, variance=0.0, wall_seconds=1.0, m=10)
        assert report.re is None and report.wnrv is None
        again = EstimateReport.from_json_dict(report.to_json_dict())
        assert again.re is None and again.wnrv is None

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimateReport(method="x", mean=-0.1, variance=0.0, wall_seconds=1.0, m=2)
        with pytest.raises(ValueError):
            EstimateReport(method="x", mean=0.5, variance=-1.0, wall_seconds=1.0, m=2)
        with pytest.raises(TypeError):
            EstimateReport(method="x", mean=0.5, variance=0.1, re=0.2, wall_seconds=1.0, m=2)

    def test_nan_mean_rejected(self):
        # NaN < 0 is False, so a sign check alone lets it through
        with pytest.raises(ValueError, match="mean must be >= 0"):
            EstimateReport("split", math.nan, 1.0, 1.0, 10)

    def test_nan_variance_rejected(self):
        with pytest.raises(ValueError, match="variance must be >= 0"):
            EstimateReport("split", 0.5, math.nan, 1.0, 10)

    def test_json_with_nan_rejected(self):
        # Python's json reads the non-standard NaN token as a float
        text = json.dumps(self.make().to_json_dict()).replace('"variance": 1.6e-07',
                                                               '"variance": NaN')
        assert "NaN" in text
        with pytest.raises(ValueError, match="variance must be >= 0"):
            EstimateReport.from_json_dict(json.loads(text))

    @pytest.mark.parametrize("key,value", [
        # a float and a string that print alike, numbered as pytest numbered them
        pytest.param("re", 0.2, id="re-0.2_0"), ("re", None),
        pytest.param("re", "0.2", id="re-0.2_1"),
        ("wnrv", 99.0), ("wnrv", None),
    ])
    def test_inconsistent_derived_field_rejected(self, key, value):
        d = self.make().to_json_dict()
        d[key] = value
        with pytest.raises(ValueError, match=f"report JSON {key} = "):
            EstimateReport.from_json_dict(d)

    def test_derived_field_within_tolerance_accepted(self):
        d = self.make().to_json_dict()
        d["wnrv"] *= 1 + 1e-12  # a JSON writer's last-digit rounding
        assert EstimateReport.from_json_dict(d) == self.make()

    def test_missing_field_rejected(self):
        d = self.make().to_json_dict()
        d.pop("seed")
        with pytest.raises(ValueError):
            EstimateReport.from_json_dict(d)

    @pytest.mark.parametrize("key,value", [
        ("mean", "0.5"), ("mean", True), ("variance", None), ("m", "4"), ("m", 2.5),
        ("wall_seconds", "12.5"), ("levels", [0.25, "0.5", 1.0]), ("method", 5),
    ])
    def test_wrong_field_type_rejected(self, key, value):
        d = self.make().to_json_dict()
        d[key] = value
        with pytest.raises(ValueError, match=rf"^\$\.{key}: must be "):
            EstimateReport.from_json_dict(d)

    def test_unknown_field_rejected(self):
        d = {**self.make().to_json_dict(), "gamma": 1.5}
        with pytest.raises(ValueError, match=r"^\$: unknown fields \['gamma'\]"):
            EstimateReport.from_json_dict(d)
