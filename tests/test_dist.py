import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from raresplit.dist import (
    MAX_POISSON_RATE,
    Exponential,
    Gamma,
    GeneralizedGamma,
    LogNormal,
    Poisson,
    Truncated,
    Weibull,
    marginal_from_json,
    poisson_cdf_at,
    reg_lower_inc_gamma,
)

import oracles

CONTINUOUS = [
    LogNormal(0.0, 2.0),
    LogNormal(-1.0, 0.5),
    Weibull(0.5, 1.0),
    Weibull(0.8, 1.0),
    Weibull(2.0, 3.0),
    GeneralizedGamma(2.5, 1.5, 1.3),
    Gamma(3.0, 2.0),
    Exponential(1.0),
    Exponential(0.25),
]


class TestCdf:
    def test_lognormal_median(self):
        assert LogNormal(0.0, 2.0).cdf(1.0) == pytest.approx(0.5, abs=1e-14)

    def test_weibull_at_scale(self):
        # x = eta forces a unit exponent
        assert Weibull(0.5, 1.0).cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_poisson_cdf(self):
        expected = oracles.poisson_cdf_direct(2.0, 2)
        assert Poisson(2.0).cdf(2.0) == pytest.approx(expected, rel=1e-13)

    def test_poisson_cdf_floor_and_negative(self):
        p = Poisson(2.0)
        assert p.cdf(-0.5) == 0.0
        assert p.cdf(2.9) == p.cdf(2.0)

    def test_support_edges(self):
        for d in CONTINUOUS:
            assert d.cdf(0.0) == 0.0
            assert d.cdf(-1.0) == 0.0
            assert d.cdf(1e12) == pytest.approx(1.0, abs=1e-9)
            # NaN in gives NaN out, alone and among entries on and off the support
            assert math.isnan(d.cdf(math.nan)), d
            assert np.array_equal(d.cdf(np.array([math.nan, -1.0, 0.0, math.inf])),
                                  [math.nan, 0.0, 0.0, 1.0], equal_nan=True), d

    def test_nondecreasing(self):
        xs = np.linspace(0.0, 50.0, 400)
        for d in CONTINUOUS:
            vals = d.cdf(xs)
            assert np.all(np.diff(vals) >= 0)


class TestQuantile:
    """F^{-1}(p) is the lower-tail quantile at g = -log p and the upper-tail
    one at g = -log1p(-p)."""

    def test_lognormal_median(self):
        assert LogNormal(0.0, 2.0).quantile_from_neg_log_tail(-math.log(0.5), "lower") == (
            pytest.approx(1.0, rel=1e-14))

    def test_weibull_inverse_of_example(self):
        g = -math.log1p(-(1.0 - math.exp(-1.0)))
        assert Weibull(0.5, 1.0).quantile_from_neg_log_tail(g, "upper") == pytest.approx(
            1.0, rel=1e-12)

    def test_exponential_half(self):
        # p = 1 - e^{-1/2}, so the quantile is exactly 0.5
        p = 1.0 - math.exp(-0.5)
        assert Exponential(1.0).quantile_from_neg_log_tail(-math.log1p(-p), "upper") == (
            pytest.approx(0.5, rel=1e-12))

    def test_support_infimum_and_infinity(self):
        for d in CONTINUOUS:
            assert d.quantile_from_neg_log_tail(math.inf, "lower") == 0.0  # p = 0
            assert d.quantile_from_neg_log_tail(0.0, "lower") == math.inf  # p = 1

    def test_poisson_quantile_unsupported(self):
        with pytest.raises(ValueError):
            Poisson(1.0).quantile_from_neg_log_tail(-math.log(0.5), "lower")

    def test_round_trip_grid(self):
        ps = np.array([1e-8, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-8])
        for d in CONTINUOUS:
            back = d.cdf(d.quantile_from_neg_log_tail(-np.log(ps), "lower"))
            assert np.max(np.abs(back - ps)) < 1e-9

    def test_quantile_cdf_round_trip_bulk(self):
        for d in CONTINUOUS:
            xs = d.quantile_from_neg_log_tail(-np.log(np.linspace(0.05, 0.95, 19)), "lower")
            back = d.quantile_from_neg_log_tail(-np.log(d.cdf(xs)), "lower")
            assert np.max(np.abs(back / xs - 1.0)) < 1e-10

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
           st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_monotone_in_p(self, p1, p2):
        lo, hi = sorted((p1, p2))
        for d in (LogNormal(0.0, 1.0), Weibull(0.5, 1.0), Gamma(3.0, 2.0)):
            assert (d.quantile_from_neg_log_tail(-math.log(lo), "lower")
                    <= d.quantile_from_neg_log_tail(-math.log(hi), "lower"))


class TestNegLogTailQuantile:
    def test_unit_exponential_identity(self):
        assert Exponential(1.0).quantile_from_neg_log_tail(3.7, "upper") == 3.7

    def test_ln2_gives_median(self):
        g = math.log(2.0)
        for d in CONTINUOUS:
            median = d.quantile_from_neg_log_tail(g, "lower")
            # abs=0: approx's default abs=1e-12 passes any quantile below 1e-12
            assert median == pytest.approx(
                oracles.neg_log_tail_quantile_mp(d.to_json(), g, "lower"), rel=1e-10, abs=0), d
            assert d.quantile_from_neg_log_tail(g, "upper") == pytest.approx(median, rel=1e-12)

    def test_lognormal_deep_tail_against_mpmath(self):
        z = oracles.normal_upper_quantile(math.exp(-50.0))
        got = LogNormal(0.0, 1.0).quantile_from_neg_log_tail(50.0, "upper")
        assert got == pytest.approx(math.exp(z), rel=1e-12)

    def test_agrees_with_quantile_at_moderate_g(self):
        # beyond g ~ 6 the reference route 1 - e^{-g} itself loses digits,
        # so the comparison grid stays where the naive route is still exact
        gs_up = np.array([1e-6, 0.01, 0.3, 1.0, 3.0, 6.0])
        gs_lo = np.array([1e-6, 0.01, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0])
        for d in CONTINUOUS:
            up = d.quantile_from_neg_log_tail(gs_up, "upper")
            lo = d.quantile_from_neg_log_tail(gs_lo, "lower")
            # the upper tail: F^{-1}(p) at p = 1 - e^{-g}, with p formed first
            p_up = -np.expm1(-gs_up)
            assert np.allclose(up, d.quantile_from_neg_log_tail(-np.log(p_up), "lower"),
                               rtol=1e-10)
            # the lower tail: F^{-1}(e^{-g}), independently by mpmath
            for g, x in zip(gs_lo, lo):
                assert x == pytest.approx(oracles.neg_log_tail_quantile_mp(
                    d.to_json(), g, "lower"), rel=1e-10, abs=0), (d, g)

    def test_deep_upper_tail_beats_naive_route(self):
        # at g = 30 the exact tail is known in closed form for these laws;
        # the tail-stable route must hit it even though 1 - e^{-30} rounds badly
        g = 30.0
        assert Exponential(2.0).quantile_from_neg_log_tail(g, "upper") == pytest.approx(
            15.0, rel=1e-14)
        assert Weibull(0.5, 1.0).quantile_from_neg_log_tail(g, "upper") == pytest.approx(
            900.0, rel=1e-14)
        z = oracles.normal_upper_quantile(math.exp(-g))
        assert LogNormal(0.0, 1.0).quantile_from_neg_log_tail(g, "upper") == pytest.approx(
            math.exp(z), rel=1e-12)

    def test_no_saturation_up_to_700(self):
        gs = np.linspace(0.0, 700.0, 1401)
        for d in CONTINUOUS:
            vals = d.quantile_from_neg_log_tail(gs, "upper")
            assert np.all(np.isfinite(vals))
            assert np.all(np.diff(vals) > 0), f"{d} saturated"

    def test_lower_tail_monotone_decreasing(self):
        gs = np.linspace(1e-3, 700.0, 500)
        for d in CONTINUOUS:
            vals = d.quantile_from_neg_log_tail(gs, "lower")
            assert np.all(np.diff(vals) <= 0)

    def test_g_zero(self):
        for d in CONTINUOUS:
            assert d.quantile_from_neg_log_tail(0.0, "upper") == 0.0
            assert d.quantile_from_neg_log_tail(0.0, "lower") == math.inf

    def test_negative_g_rejected(self):
        with pytest.raises(ValueError):
            Exponential(1.0).quantile_from_neg_log_tail(-0.1, "upper")

    def test_bad_tail_rejected(self):
        with pytest.raises(ValueError):
            Exponential(1.0).quantile_from_neg_log_tail(1.0, "sideways")

    @given(st.floats(min_value=0.0, max_value=700.0),
           st.floats(min_value=0.0, max_value=700.0))
    def test_nondecreasing_in_g(self, g1, g2):
        lo, hi = sorted((g1, g2))
        for d in (LogNormal(0.0, 1.0), Weibull(0.8, 1.0), GeneralizedGamma(2.5, 1.5, 1.3)):
            assert (d.quantile_from_neg_log_tail(lo, "upper")
                    <= d.quantile_from_neg_log_tail(hi, "upper"))


# One member of every continuous law, with parameters off the unit values.
EXTREME_LAWS = [
    LogNormal(0.3, 1.7),
    Weibull(0.6, 2.0),
    GeneralizedGamma(2.5, 0.7, 1.3),
    Gamma(0.4, 2.0),
    Exponential(1.5),
]
# ... and two whose lower-tail quantile is still a normal double far past
# e^{-g}'s underflow: x ~ H^(1/3) and x = H / 1e-300 for a hazard H ~ e^{-g}
PAST_UNDERFLOW_LAWS = EXTREME_LAWS + [Weibull(3.0, 1.0), Exponential(1e-300)]
_LN2 = math.log(2.0)
# Largest g at which e^{-g} is still a normal double.
_NORMAL_G = -math.log(np.finfo(float).tiny)
# g = 0, tiny g, both sides of the ln 2 branch switch, deep tail, the edge
# of normal doubles, subnormal e^{-g}, and past its underflow to 0 (g > 745.13).
EDGE_GS = [
    0.0, 5e-324, 1e-300, 1e-12,
    math.nextafter(_LN2, 0.0), _LN2, math.nextafter(_LN2, 1.0), _LN2 - 1e-9, _LN2 + 1e-9,
    1.0, 50.0, 699.0, 700.0, 708.0, 720.0, 745.0, 745.2, 800.0, 1e4,
]
edge_or_any_g = st.one_of(st.sampled_from(EDGE_GS), st.floats(min_value=0.0, max_value=1e4))


class TestNegLogTailQuantileExtremes:
    """Every law, both tails, from g = 0 to past the underflow of e^{-g}."""

    @pytest.mark.parametrize("law", EXTREME_LAWS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("tail", ["upper", "lower"])
    def test_against_mpmath_while_tail_mass_is_normal(self, law, tail):
        # 5e-324, a subnormal mass, is checked below
        for g in [x for x in EDGE_GS if 1e-300 <= x <= _NORMAL_G]:
            expected = oracles.neg_log_tail_quantile_mp(law.to_json(), g, tail)
            # abs=0: approx's default abs=1e-12 passes any quantile below 1e-12
            assert law.quantile_from_neg_log_tail(g, tail) == pytest.approx(
                expected, rel=1e-10, abs=0), f"g = {g!r}"

    @given(edge_or_any_g, edge_or_any_g)
    def test_monotone_in_g_and_never_nan(self, g1, g2):
        lo, hi = sorted((g1, g2))
        for d in EXTREME_LAWS:
            up = d.quantile_from_neg_log_tail(np.array([lo, hi]), "upper")
            down = d.quantile_from_neg_log_tail(np.array([lo, hi]), "lower")
            assert not np.any(np.isnan(up)) and not np.any(np.isnan(down))
            assert 0.0 <= up[0] <= up[1], d
            assert down[0] >= down[1] >= 0.0, d

    @given(st.one_of(st.sampled_from([g for g in EDGE_GS if 0.0 < g <= _NORMAL_G]),
                     st.floats(min_value=5e-324, max_value=_NORMAL_G)))
    def test_finite_while_tail_mass_is_positive_and_normal(self, g):
        for d in EXTREME_LAWS:
            assert math.isfinite(d.quantile_from_neg_log_tail(g, "upper")), d
            assert math.isfinite(d.quantile_from_neg_log_tail(g, "lower")), d

    @pytest.mark.parametrize("law", [d for d in EXTREME_LAWS
                                     if d.kind in ("weibull", "exponential")],
                             ids=lambda d: d.kind)
    def test_closed_form_upper_tail_exact_past_underflow(self, law):
        for g in (745.2, 800.0, 1e4):
            got = law.quantile_from_neg_log_tail(g, "upper")
            assert got == pytest.approx(
                oracles.neg_log_tail_quantile_mp(law.to_json(), g, "upper"), rel=1e-12)

    @staticmethod
    def check_against_mpmath(law, tail, gs):
        """The quantiles at ``gs`` against mpmath; returns how many were normal."""
        checked = 0
        for g in gs:
            expected = oracles.neg_log_tail_quantile_mp(law.to_json(), g, tail)
            got = law.quantile_from_neg_log_tail(g, tail)
            if np.finfo(float).tiny <= expected < math.inf:
                assert got == pytest.approx(expected, rel=1e-10, abs=0), g
                checked += 1
            else:
                assert got == expected, g  # 0 where the true quantile underflows
        return checked

    # a repeated kind is numbered, as pytest numbered it before ids had to be unique
    @pytest.mark.parametrize("law", PAST_UNDERFLOW_LAWS, ids=["lognormal", "weibull0", "gengamma",
                                                              "gamma", "exponential0", "weibull1",
                                                              "exponential1"])
    @pytest.mark.parametrize("tail", ["upper", "lower"])
    def test_gamma_laws_in_log_space(self, law, tail):
        # every law, not only the Gamma ones: a subnormal mass, where scipy's
        # Gamma inverses lose digits, and g past -log(tiny), where e^{-g} is
        # no normal double and a quantile through it saturates or reads 0
        assert self.check_against_mpmath(
            law, tail, (5e-324, 720.0, 745.0, 745.2, 750.0, 800.0, 2000.0, 1e4))

    @pytest.mark.parametrize("law", [Gamma(0.05, 1.0), Gamma(20.0, 0.5)],
                             ids=["shape-0.05", "shape-20"])
    @pytest.mark.parametrize("tail", ["upper", "lower"])
    def test_gamma_shapes_far_past_underflow(self, law, tail):
        # a shape far below and one far above 1, where log Q and log P bend
        # the most, so the Newton steps start furthest from their roots
        checked = self.check_against_mpmath(law, tail, (720.0, 800.0, 2000.0, 1e4))
        # shape 0.05's lower quantile, about e^{-g / 0.05}, is 0 at every g here
        assert checked == (0 if (law.shape, tail) == (0.05, "lower") else 4)

    def test_gengamma_lower_tail_where_y_underflows(self):
        # y = (x / a)^p = x^3 underflows while x is a normal double, so x
        # comes from log y; the same law as Weibull(3, 1), by its log hazard
        gengamma, weibull = GeneralizedGamma(3.0, 3.0, 1.0), Weibull(3.0, 1.0)
        for g in (745.2, 800.0, 2000.0):
            assert gengamma.quantile_from_neg_log_tail(g, "lower") == pytest.approx(
                weibull.quantile_from_neg_log_tail(g, "lower"), rel=1e-12, abs=0), g

    def test_unit_shape_gamma_upper_tail_past_underflow(self):
        # Gamma(1, 2) is Exponential(2): the upper-tail quantile is g / 2
        for g in (745.2, 800.0, 1e4):
            assert Gamma(1.0, 2.0).quantile_from_neg_log_tail(g, "upper") == pytest.approx(
                g / 2.0, rel=1e-13), g

    @pytest.mark.parametrize("law", EXTREME_LAWS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("tail", ["upper", "lower"])
    def test_special_g(self, law, tail):
        # NaN in gives NaN out, g = 0 and g = inf give the ends of the support
        # and g = 5e-324 a finite x: alone and in one array, so that no entry
        # is left to an uninitialised output
        ends = (0.0, math.inf) if tail == "upper" else (math.inf, 0.0)
        gs = [math.nan, 0.0, math.inf, 5e-324]
        for got in ([law.quantile_from_neg_log_tail(g, tail) for g in gs],
                    law.quantile_from_neg_log_tail(np.array(gs), tail)):
            assert math.isnan(got[0])
            assert (got[1], got[2]) == ends
            assert math.isfinite(got[3])

    @pytest.mark.parametrize("tail", ["upper", "lower"])
    def test_lognormal_past_underflow(self, tail):
        law = EXTREME_LAWS[0]
        for g in (720.0, 745.2, 800.0, 1e4):
            got = law.quantile_from_neg_log_tail(g, tail)
            assert got == pytest.approx(
                oracles.neg_log_tail_quantile_mp(law.to_json(), g, tail), rel=1e-10, abs=0), g

    @pytest.mark.parametrize("tail", ["upper", "lower"])
    def test_lognormal_routes_agree_at_the_switch(self, tail):
        # within 5 ulps of the last g whose e^{-g} is normal, the quantile
        # takes one route on both sides: through ndtri_exp(-g), bit for bit
        law = EXTREME_LAWS[0]
        g = np.array([_NORMAL_G])
        for _ in range(5):
            g = np.concatenate([np.nextafter(g[:1], 0.0), g, np.nextafter(g[-1:], np.inf)])
        z = special.ndtri_exp(-g)
        through_log = np.exp(law.mu - law.sigma * z if tail == "upper" else law.mu + law.sigma * z)
        assert law.quantile_from_neg_log_tail(g, tail).tobytes() == through_log.tobytes()


# F(b) from 1e-100 to 1 - 1e-12, each as the smaller of F(b) and 1 - F(b) reads;
# 1 - F(b) = 1e-12 is no double's distance from 1, so F(b) rounds in double
TRUNCATIONS = [("F", 1e-100), ("F", 1e-10), ("F", 0.5), ("1-F", 1e-6), ("1-F", 1e-12)]
TRUNCATION_GS = [1e-30, 1e-6, _LN2, 1.0, 30.0, 700.0]


def truncation_point(law, side, mass):
    """The b at which F(b) (side "F") or 1 - F(b) (side "1-F") is ``mass``."""
    return law.quantile_from_neg_log_tail(-math.log(mass), "lower" if side == "F" else "upper")


class TestTruncated:
    """F truncated to [0, b], on both tails, with b near either end of F."""

    @pytest.mark.parametrize("law", EXTREME_LAWS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("side, mass", TRUNCATIONS)
    def test_kernels_against_mpmath(self, law, side, mass):
        b = truncation_point(law, side, mass)
        cut = Truncated(law, b)
        if side == "F":
            assert cut.log_mass == pytest.approx(math.log(mass), rel=1e-9)
        else:
            assert cut.log_mass == pytest.approx(math.log1p(-mass), rel=1e-9)
        for tail in ("upper", "lower"):
            for g in TRUNCATION_GS:
                expected = oracles.truncated_quantile_mp(law.to_json(), b, g, tail)
                got = cut.quantile_from_neg_log_tail(g, tail)
                if expected >= np.finfo(float).tiny:
                    assert got == pytest.approx(expected, rel=1e-10, abs=0), (tail, g)
                else:  # the true quantile underflows
                    assert got < np.finfo(float).tiny, (tail, g)

    @given(edge_or_any_g, edge_or_any_g)
    def test_monotone_in_g_inside_the_box(self, g1, g2):
        lo, hi = sorted((g1, g2))
        for law in EXTREME_LAWS:
            for side, mass in TRUNCATIONS:
                cut = Truncated(law, truncation_point(law, side, mass))
                up = cut.quantile_from_neg_log_tail(np.array([lo, hi]), "upper")
                down = cut.quantile_from_neg_log_tail(np.array([lo, hi]), "lower")
                assert 0.0 <= up[0] <= up[1] <= cut.b, (cut, up)
                assert cut.b >= down[0] >= down[1] >= 0.0, (cut, down)

    @pytest.mark.parametrize("law", EXTREME_LAWS, ids=lambda d: d.kind)
    def test_ends_and_cdf(self, law):
        b = truncation_point(law, "F", 0.3)
        cut = Truncated(law, b)
        assert cut.quantile_from_neg_log_tail(0.0, "upper") == 0.0
        assert cut.quantile_from_neg_log_tail(math.inf, "upper") == pytest.approx(b, rel=1e-12)
        assert cut.quantile_from_neg_log_tail(0.0, "lower") == pytest.approx(b, rel=1e-12)
        assert cut.quantile_from_neg_log_tail(math.inf, "lower") == 0.0
        gs = np.array([0.01, 0.5, 3.0])
        assert np.all(cut.quantile_from_neg_log_tail(gs, "upper") <= b)
        x = cut.quantile_from_neg_log_tail(gs, "lower")
        assert cut.cdf(x) == pytest.approx(np.exp(-gs), rel=1e-9)
        assert cut.cdf(2.0 * b) == 1.0 and cut.cdf(-1.0) == 0.0

    def test_equal_and_hashable(self):
        law = LogNormal(0.0, 2.0)
        assert Truncated(law, 1.39) == Truncated(LogNormal(0.0, 2.0), 1.39)
        assert len({Truncated(law, 1.39), Truncated(law, 1.39), Truncated(law, 2.0)}) == 2

    def test_mass_that_underflows_reads_minus_inf(self):
        assert Truncated(LogNormal(0.0, 2.0), 1e-40).log_mass == -math.inf

    @pytest.mark.parametrize("b", [0.0, -1.0, math.inf, math.nan])
    def test_bad_bound_rejected(self, b):
        with pytest.raises(ValueError):
            Truncated(Exponential(1.0), b)


class TestRegLowerIncGamma:
    def test_reduces_to_exponential(self):
        assert reg_lower_inc_gamma(1.0, 0.5) == pytest.approx(1.0 - math.exp(-0.5), rel=1e-13)

    def test_against_series_oracle(self):
        for a, x in [(4.0, 0.5), (4.0, 0.1), (4.0, 1.5), (0.3, 2.0), (2.5, 7.0), (10.0, 3.0)]:
            assert reg_lower_inc_gamma(a, x) == pytest.approx(
                oracles.reg_lower_inc_gamma_series(a, x), rel=1e-12)

    def test_at_zero(self):
        assert reg_lower_inc_gamma(4.0, 0.0) == 0.0

    def test_monotone_in_x_and_a(self):
        xs = np.linspace(0.0, 10.0, 200)
        vals = reg_lower_inc_gamma(2.0, xs)
        assert np.all(np.diff(vals) >= 0)
        a_grid = np.linspace(0.5, 5.0, 100)
        vals_a = np.array([reg_lower_inc_gamma(a, 0.4) for a in a_grid])
        assert np.all(np.diff(vals_a) <= 0)

    def test_complement_identity(self):
        for a in (0.2, 1.0, 3.7, 25.0):
            for x in (0.01, 0.5, 2.0, 40.0):
                assert reg_lower_inc_gamma(a, x) + special.gammaincc(a, x) == pytest.approx(
                    1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(1.0, -1.0)

    def test_nan_shape_rejected(self):
        with pytest.raises(ValueError, match="shape a must be > 0"):
            reg_lower_inc_gamma(math.nan, 1.0)


class TestPoissonCdfAt:
    def test_single_term(self):
        assert poisson_cdf_at(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_direct_sum(self):
        assert poisson_cdf_at(2.0, 2) == pytest.approx(
            oracles.poisson_cdf_direct(2.0, 2), rel=1e-13)

    def test_negative_k(self):
        assert poisson_cdf_at(5.0, -1) == 0.0

    def test_large_rate_stable(self):
        expected = oracles.poisson_cdf_direct(1e4, 10_000)
        assert poisson_cdf_at(1e4, 10_000) == pytest.approx(expected, rel=1e-8)

    def test_non_integer_floors(self):
        assert poisson_cdf_at(3.0, 2.9) == poisson_cdf_at(3.0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_cdf_at(0.0, 1)

    def test_nan_rate_rejected(self):
        with pytest.raises(ValueError, match="lam must be > 0"):
            poisson_cdf_at(math.nan, 3)


class TestGeneralizedGammaReductions:
    def test_reduces_to_weibull_when_d_equals_p(self):
        gg = GeneralizedGamma(0.8, 0.8, 1.3)
        wb = Weibull(0.8, 1.3)
        xs = np.linspace(0.01, 12.0, 50)
        assert np.allclose(gg.cdf(xs), wb.cdf(xs), atol=1e-10)

    def test_reduces_to_gamma_when_p_is_one(self):
        gg = GeneralizedGamma(2.5, 1.0, 0.5)
        gm = Gamma(2.5, 2.0)  # rate = 1/a
        xs = np.linspace(0.01, 12.0, 50)
        assert np.allclose(gg.cdf(xs), gm.cdf(xs), atol=1e-10)


class TestValidationAndJson:
    @pytest.mark.parametrize("bad", [
        lambda: LogNormal(0.0, 0.0),
        lambda: LogNormal(math.nan, 1.0),
        lambda: Weibull(-0.5, 1.0),
        lambda: Weibull(1.0, 0.0),
        lambda: GeneralizedGamma(0.0, 1.0, 1.0),
        lambda: Gamma(1.0, -1.0),
        lambda: Exponential(0.0),
        lambda: Poisson(-2.0),
        lambda: Poisson(math.nextafter(MAX_POISSON_RATE, math.inf)),
    ], ids=[f"<lambda>{i}" for i in range(9)])  # the ids pytest gave them before
    def test_bad_params_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_json_round_trip(self):
        for d in CONTINUOUS + [Poisson(2.5), Poisson(MAX_POISSON_RATE)]:
            assert marginal_from_json(d.to_json()) == d

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            marginal_from_json({"kind": "cauchy", "params": {}})

    def test_missing_and_extra_params(self):
        with pytest.raises(ValueError):
            marginal_from_json({"kind": "weibull", "params": {"alpha": 1.0}})
        with pytest.raises(ValueError):
            marginal_from_json({"kind": "weibull",
                                "params": {"alpha": 1.0, "eta": 1.0, "shift": 2.0}})

    @pytest.mark.parametrize("obj", [
        {"kind": "weibull", "params": 5},
        {"kind": "weibull", "params": [0.5, 1.0]},
        {"kind": "weibull"},
        {"kind": "exponential", "params": {"rate": 1.0}, "rate_db": 3},
        ["weibull"],
    ])
    def test_malformed_object_rejected(self, obj):
        with pytest.raises(ValueError, match=r"^\$"):
            marginal_from_json(obj)

    @pytest.mark.parametrize("law,expected", [
        (LogNormal(0.3, 1.7), {"kind": "lognormal", "params": {"mu": 0.3, "sigma": 1.7}}),
        (Weibull(0.6, 2.0), {"kind": "weibull", "params": {"alpha": 0.6, "eta": 2.0}}),
        (GeneralizedGamma(2.5, 0.7, 1.3),
         {"kind": "gengamma", "params": {"d": 2.5, "p": 0.7, "a": 1.3}}),
        (Gamma(0.4, 2.0), {"kind": "gamma", "params": {"shape": 0.4, "rate": 2.0}}),
        (Exponential(1.5), {"kind": "exponential", "params": {"rate": 1.5}}),
        (Poisson(2.5), {"kind": "poisson", "params": {"lambda": 2.5}}),
    ], ids=lambda v: getattr(v, "kind", "to_json"))
    def test_json_format(self, law, expected):
        # scenario files and oracles.neg_log_tail_quantile_mp read these keys
        assert law.to_json() == expected
