import copy
import functools
import itertools
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from raresplit import model, process
from raresplit.baseline import naive_mc
from raresplit.cli import build_schedule, load_preset, preset_problem
from raresplit.dist import (MAX_POISSON_RATE, Exponential, Gamma, LogNormal, Poisson, Truncated,
                            Weibull, GeneralizedGamma, marginal_from_json)
from raresplit.model import (
    _BRACKET_BITS,
    _BRACKET_MAX_EXP,
    _BRACKET_MIN_EXP,
    _quantile_groups,
    OrderedPartialSum,
    ProblemSpec,
    Ratio,
    Sum,
    WeightedSum,
    embed,
    importance,
    importance_from_json,
)
from raresplit.process import RngStream, advance_gamma_batch, gamma_increments, poisson_sampler
from raresplit.split import run_splitting

KS_1PCT = 1.63


class TestEmbed:
    def test_unit_exponential_identity(self):
        got = embed(np.array([2.5]), (Exponential(1.0),), ("I",))
        assert got[0] == 2.5

    def test_zero_level_maps_to_support_infimum(self):
        for m in (Exponential(1.0), LogNormal(0.0, 1.0), Weibull(0.5, 1.0)):
            assert embed(np.array([0.0]), (m,), ("I",))[0] == 0.0

    def test_decreasing_direction_exponential(self):
        # F^{-1}(e^{-g}) = -ln(1 - e^{-g}) for a unit exponential
        g = math.log(2.0)
        got = embed(np.array([g]), (Exponential(1.0),), ("D",))
        assert got[0] == pytest.approx(-math.log1p(-math.exp(-g)), rel=1e-12)

    def test_batch_matches_rowwise(self):
        marginals = (LogNormal(0.0, 1.0), Weibull(0.8, 1.0), Exponential(2.0))
        rng = RngStream(5)
        g = rng.gen.gamma(0.7, size=(50, 3))
        batch = embed(g, marginals, ("I", "D", "I"))
        for row in range(50):
            single = embed(g[row], marginals, ("I", "D", "I"))
            assert np.allclose(batch[row], single, rtol=1e-14)

    def test_monotone_per_coordinate(self):
        gs = np.linspace(0.0, 20.0, 200)[:, None]
        up = embed(gs, (LogNormal(0.0, 2.0),), ("I",))[:, 0]
        down = embed(gs[1:], (LogNormal(0.0, 2.0),), ("D",))[:, 0]
        assert np.all(np.diff(up) >= 0)
        assert np.all(np.diff(down) <= 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            embed(np.zeros(2), (Exponential(1.0),), ("I",))


class TestEmbeddedMarginalLaw:
    @pytest.mark.parametrize("marginal", [
        LogNormal(0.0, 1.0),
        Weibull(0.5, 1.0),
        Exponential(1.0),
        GeneralizedGamma(2.5, 1.5, 1.3),
        Gamma(3.0, 2.0),
    ])
    def test_ks_at_t1(self, marginal):
        n_paths = 20_000
        rng = RngStream(17)
        g = np.zeros((n_paths, 1))
        for dt in (0.4, 0.6):
            g = advance_gamma_batch(g, dt, rng)
        x = embed(g, (marginal,), ("I",))[:, 0]
        d = stats.kstest(x, marginal.cdf).statistic
        assert d < KS_1PCT / math.sqrt(n_paths)

    # one member of each continuous law, off the unit parameters
    LAWS = (LogNormal(0.3, 1.7), Weibull(0.6, 2.0), GeneralizedGamma(2.5, 0.7, 1.3),
            Gamma(0.4, 2.0), Exponential(1.5))

    @pytest.mark.parametrize("problem", [
        ProblemSpec(LAWS, ("I",) * 5, Sum(), 1.0),
        ProblemSpec((LogNormal(0.0, 1.0),) + LAWS, ("I",) + ("D",) * 5, Ratio(0.1), 1.0),
    ], ids=["sum-upper", "ratio-lower"])
    def test_sampler_draws_every_column_from_its_marginal(self, problem):
        # naive MC's draw: the state at t = 1, Exp(1) levels, whose embedding
        # is X(1), each law once on the upper tail ("I") and once on the lower
        # tail ("D"), the Ratio's interferers
        c = 20_000
        g = problem.process.sampler()(RngStream(22).gen, c)
        assert g.shape == (c, problem.n)
        x = embed(g, problem.marginals, problem.directions)
        # 1e-3 per test keeps the false-alarm rate of ten or twelve tests near 1%
        for i, marginal in enumerate(problem.marginals):
            assert stats.kstest(g[:, i], "expon").pvalue > 1e-3, i
            assert stats.kstest(x[:, i], marginal.cdf).pvalue > 1e-3, (i, marginal)

    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_sampler_draws_named_columns(self, t):
        # the refresh's proposals: one level per named column, from the law
        # every column has at t, Gamma(t, 1): gamma_increments' bits, and at
        # t = 1 numpy's Exp(1); the whole states' draw stays as it was
        c, problem = 500, ProblemSpec(self.LAWS, ("I",) * 5, Sum(), 1.0)
        draw = problem.process.sampler(t)
        cols = RngStream(23).gen.integers(0, problem.n, size=c)
        for shape, got in [((c,), draw(RngStream(24).gen, c, cols)),
                           ((c, problem.n), draw(RngStream(24).gen, c))]:
            ref = RngStream(24).gen
            expected = gamma_increments(shape, t, ref) if t < 1 else ref.standard_exponential(shape)
            assert np.array_equal(got, expected), shape


class TestImportance:
    def test_sum(self):
        assert importance(Sum(), np.array([1.0, 2.0, 3.0])) == 6.0

    def test_ratio(self):
        assert importance(Ratio(eta=1.0), np.array([2.0, 1.0])) == 1.0

    def test_ordered_partial_sum(self):
        assert importance(OrderedPartialSum(2), np.array([1.0, 4.0, 2.0, 3.0])) == 7.0

    def test_weighted_sum(self):
        assert importance(WeightedSum((1.0, 2.0, 0.5)), np.array([1.0, 1.0, 2.0])) == 4.0

    def test_ratio_infinite_denominator_is_zero(self):
        x = np.array([3.0, math.inf, 1.0])
        assert importance(Ratio(eta=0.1), x) == 0.0

    def test_ratio_at_time_zero_levels(self):
        # D-coordinates at g = 0 are +inf; S must be 0, never NaN
        marginals = (LogNormal(0.0, 1.0), LogNormal(0.0, 1.0), LogNormal(0.0, 1.0))
        x = embed(np.zeros(3), marginals, ("I", "D", "D"))
        val = importance(Ratio(eta=0.1), x)
        assert val == 0.0 and not math.isnan(val)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            importance(WeightedSum((1.0, 2.0)), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            importance(OrderedPartialSum(4), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("obj", [
        {"kind": "sum", "weights": [1, 100]},
        {"kind": "ratio", "eta": 0.5, "eta_db": -3.0},
        {"kind": "ratio", "eta": "0.5"},
        {"kind": "ratio", "eta": True},
        {"kind": "ordered_partial_sum"},
        {"kind": "weighted_sum", "weights": "12"},
        {"kind": "weighted_sum", "weights": [1.0, None]},
    ])
    def test_from_json_rejects(self, obj):
        with pytest.raises(ValueError):
            importance_from_json(obj)

    def test_from_json_round_trip(self):
        for spec in (Sum(), Ratio(0.5), OrderedPartialSum(2), WeightedSum((1.0, 2.5))):
            assert importance_from_json(json.loads(json.dumps(spec.to_json()))) == spec

    def test_batch(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(importance(Sum(), x), [3.0, 7.0])

    def test_weighted_sum_independent_of_row_blocks(self):
        # a row's score must not depend on how many rows share the call
        gen = np.random.default_rng(5)
        spec = WeightedSum(tuple(gen.random(12) * 3.7 + 0.1))
        rows = gen.random((300_005, 12)) * 50.0
        whole = spec.score_rows(rows)
        blocks = np.concatenate([spec.score_rows(rows[i:i + (1 << 14)])
                                 for i in range(0, rows.shape[0], 1 << 14)])
        assert np.array_equal(whole, blocks)

    @pytest.mark.parametrize("spec", [
        Sum(), WeightedSum(tuple(np.linspace(0.0, 3.5, 9))), OrderedPartialSum(4),
        OrderedPartialSum(9), Ratio(0.3),
    ], ids=["sum", "weighted_sum", "top_4_of_9", "top_9_of_9", "ratio"])
    def test_row_score_independent_of_its_batch(self, spec):
        # the one row-sum rule: a row scores the same bits in a shuffled
        # batch, in a taken subset and alone, on rows spanning many binades
        # with infinite and NaN entries
        gen = np.random.default_rng(8)
        rows = np.exp(gen.normal(0.0, 8.0, size=(500, 9)))
        spots = gen.random(rows.shape)
        rows[spots < 0.01] = np.inf
        rows[(0.01 <= spots) & (spots < 0.02)] = -np.inf
        rows[(0.02 <= spots) & (spots < 0.03)] = np.nan
        with np.errstate(invalid="ignore"):
            whole = spec.score_rows(rows).view(np.uint64)
            order = gen.permutation(rows.shape[0])
            subset = np.sort(gen.choice(rows.shape[0], 61, replace=False))
            assert np.array_equal(spec.score_rows(rows[order]).view(np.uint64), whole[order])
            assert np.array_equal(spec.score_rows(rows.take(subset, axis=0)).view(np.uint64),
                                  whole[subset])
            alone = [spec.score_rows(rows[i:i + 1]).view(np.uint64)[0]
                     for i in range(rows.shape[0])]
        assert np.array_equal(alone, whole)


@pytest.mark.parametrize("spec,n,message", [
    pytest.param(Ratio(1.0), 1, "Ratio needs at least two coordinates", id="ratio"),
    pytest.param(OrderedPartialSum(3), 2, "n_bar is 3, more than the 2 coordinates",
                 id="ordered_partial_sum"),
    pytest.param(WeightedSum((1.0, 2.0)), 3, "weights has 2 entries for 3 coordinates",
                 id="weighted_sum"),
])
def test_arity_message(spec, n, message):
    # S's directions bound its arity, for a single score and for a problem alike
    with pytest.raises(ValueError, match=f"^{message}$"):
        importance(spec, np.ones(n))
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProblemSpec((Exponential(1.0),) * n, ("I",) * n, spec, 1.0)


class TestQuasiMonotoneWitness:
    def test_sanctioned_pairs(self):
        assert Sum().directions(3) == ("I", "I", "I")
        assert Ratio(1.0).directions(3) == ("I", "D", "D")
        assert OrderedPartialSum(2).directions(3) == ("I", "I", "I")
        assert WeightedSum((1.0, 2.0)).directions(2) == ("I", "I")

    def test_rejected_pairs(self):
        for spec, directions in [(Ratio(1.0), ("I", "I", "I")), (Ratio(1.0), ("D", "D")),
                                 (Sum(), ("I", "D")), (WeightedSum((1.0,)), ("D",))]:
            expected = spec.directions(len(directions))
            assert expected != directions
            with pytest.raises(ValueError, match=re.escape(
                    f"directions must be {list(expected)}, the quasi-monotone pairing of "
                    f"this importance, got {list(directions)}")):
                ProblemSpec((Exponential(1.0),) * len(directions), directions, spec, 1.0)

    def test_ten_thousand_ordered_pairs(self):
        # bulk randomized check: 1e4 pairs ordered per (I, D) never decrease S
        rng = np.random.default_rng(77)
        n, pairs = 5, 10_000
        base = rng.random((pairs, n)) * 5.0
        bump = rng.random((pairs, n)) * 2.0
        for spec, directions in [
            (Sum(), ("I",) * n),
            (OrderedPartialSum(3), ("I",) * n),
            (WeightedSum((0.5, 1.0, 2.0, 0.0, 1.5)), ("I",) * n),
            (Ratio(eta=0.5), ("I",) + ("D",) * (n - 1)),
        ]:
            x = base.copy()
            y = base.copy()
            for i, d in enumerate(directions):
                if d == "I":
                    y[:, i] += bump[:, i]
                else:
                    x[:, i] += bump[:, i]
            assert np.all(importance(spec, x) <= importance(spec, y) + 1e-12)

    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_ordered_pairs_never_decrease_s(self, n, data):
        # for each family, draw x <= y in the (I, D) partial order and
        # check S(x) <= S(y)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        base = rng.random(n) * 5.0
        bump = rng.random(n) * 2.0
        for spec, directions in [
            (Sum(), ("I",) * n),
            (OrderedPartialSum(max(1, n // 2)), ("I",) * n),
            (WeightedSum(tuple(rng.random(n) + 0.1)), ("I",) * n),
            (Ratio(eta=0.5), ("I",) + ("D",) * (n - 1)),
        ]:
            x = base.copy()
            y = base.copy()
            for i, d in enumerate(directions):
                if d == "I":
                    y[i] += bump[i]
                else:
                    x[i] += bump[i]
            assert importance(spec, x) <= importance(spec, y) + 1e-12


class TestPathMonotonicity:
    @pytest.mark.parametrize("spec,directions,marginals", [
        (Sum(), ("I",) * 3, (Exponential(1.0), Weibull(0.5, 1.0), LogNormal(0.0, 1.0))),
        (OrderedPartialSum(2), ("I",) * 3,
         (Weibull(0.5, 1.0), Weibull(0.5, 1.0), Weibull(0.5, 1.0))),
        (WeightedSum((1.0, 2.0, 0.5)), ("I",) * 3,
         (Exponential(1.0), Exponential(2.0), Exponential(0.5))),
        (Ratio(eta=0.1), ("I", "D", "D"),
         (LogNormal(0.0, 1.0), LogNormal(0.0, 1.0), LogNormal(0.0, 1.0))),
    ])
    def test_s_nondecreasing_along_paths(self, spec, directions, marginals):
        rng = RngStream(23)
        n_paths, n_steps = 200, 20
        g = np.zeros((n_paths, len(marginals)))
        prev = importance(spec, embed(g, marginals, directions))
        for _ in range(n_steps):
            g = advance_gamma_batch(g, 1.0 / n_steps, rng)
            cur = importance(spec, embed(g, marginals, directions))
            assert np.all(cur >= prev - 1e-12)
            prev = cur


class TestProblemSpec:
    def test_valid_continuous(self):
        p = ProblemSpec((Exponential(1.0),) * 3, ("I",) * 3, Sum(), 1.0, "continuous")
        assert p.n == 3

    def test_poisson_requirements(self):
        marginals = (Poisson(1.0), Poisson(2.0))
        p = ProblemSpec(marginals, ("I", "I"), WeightedSum((1.0, 2.0)), 3.0, "poisson")
        assert np.allclose(p.rates(), [1.0, 2.0])
        with pytest.raises(ValueError, match="weighted-sum importance"):
            ProblemSpec(marginals, ("I", "I"), Sum(), 3.0, "poisson")
        with pytest.raises(ValueError, match="kind 'poisson' needs every marginal to be Poisson"):
            ProblemSpec((Poisson(1.0), Exponential(1.0)), ("I", "I"),
                        WeightedSum((1.0, 2.0)), 3.0, "poisson")

    def test_continuous_rejects_poisson_marginals(self):
        for marginals in [(Poisson(1.0),), (Exponential(1.0), Poisson(1.0))]:
            with pytest.raises(ValueError, match="kind 'continuous' needs no marginal"):
                ProblemSpec(marginals, ("I",) * len(marginals), Sum(), 1.0, "continuous")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be .* got 'lattice'"):
            ProblemSpec((Poisson(1.0),), ("I",), WeightedSum((1.0,)), 1.0, "lattice")

    def test_non_monotone_pair_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec((Exponential(1.0),) * 2, ("I", "D"), Sum(), 1.0, "continuous")
        with pytest.raises(ValueError):
            ProblemSpec((Exponential(1.0),) * 2, ("I", "I"), Ratio(1.0), 1.0, "continuous")

    def test_n_bar_bound(self):
        with pytest.raises(ValueError):
            ProblemSpec((Exponential(1.0),) * 2, ("I", "I"),
                        OrderedPartialSum(3), 1.0, "continuous")

    def test_score_continuous_and_poisson(self):
        # a continuous state is scored through the embedding, Poisson counts as they are
        p = ProblemSpec((Exponential(1.0),) * 2, ("I", "I"), Sum(), 1.0, "continuous")
        assert np.allclose(reference_score(p, np.array([[0.2, 0.3]])), [0.5])
        q = ProblemSpec((Poisson(1.0), Poisson(1.0)), ("I", "I"),
                        WeightedSum((1.0, 2.0)), 3.0, "poisson")
        assert np.allclose(importance(q.importance, np.array([[1, 1]])), [3.0])

    @pytest.mark.parametrize("kind", ["continuous", "poisson"])
    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    def test_advance_rejects_bad_dt(self, kind, dt):
        law = Poisson(1.0) if kind == "poisson" else Exponential(1.0)
        p = ProblemSpec((law,) * 2, ("I", "I"), WeightedSum((1.0, 2.0)), 3.0, kind)
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            p.step(np.zeros((4, 2)), np.arange(4), dt, RngStream(0))

    @pytest.mark.parametrize("refresh_at", [math.nan, -0.5, math.inf])
    @pytest.mark.parametrize("table,gamma,box", [("I", 50.0, False), ("V", 1.39, True),
                                                 ("VI", 0.001, False)])
    def test_a_refreshed_level_refuses_a_bad_start_time(self, table, gamma, box, refresh_at):
        # no time to refresh at: the level raises rather than run unrefreshed
        problem = preset_problem(load_preset(table), gamma)
        problem = problem.boxed()[0] if box else problem
        with pytest.raises(ValueError):
            problem.step(np.zeros((4, problem.n)), np.arange(4), 0.1, RngStream(0),
                         refresh_at=refresh_at)

    def test_advance_draws(self):
        # the benchmark's replay makes these same generator calls; 3000 rows
        # of 12 are four full row blocks of a Poisson level and a ragged one
        s, n, dt = 3000, 12, 0.3
        idx = RngStream(1).gen.integers(0, s, size=s)
        rates = np.linspace(0.5, 3.0, n)
        q = ProblemSpec(tuple(Poisson(lam) for lam in rates), ("I",) * n,
                        WeightedSum(np.linspace(1.0, 2.0, n)), 30.0, "poisson")
        states = RngStream(2).gen.poisson(rates * 0.5, size=(s, n)).astype(float)
        rng, ref = RngStream(5), RngStream(5)
        advanced = states[idx] + ref.gen.poisson(rates * dt, size=(s, n))
        expected = advanced[importance(q.importance, advanced) <= q.gamma]
        assert 0 < len(expected) < s
        assert np.array_equal(q.step(states, idx, dt, rng), expected)
        assert rng.gen.random() == ref.gen.random()  # no draw more or less

        p = ProblemSpec((Exponential(1.0),) * n, ("I",) * n, Sum(), 8.0, "continuous")
        states = RngStream(3).gen.exponential(0.5, size=(s, n))
        rng, ref = RngStream(4), RngStream(4)
        advanced = advance_gamma_batch(states[idx], dt, ref)
        # the decision comes from the embedding, not the bracket that step reads
        expected = advanced[reference_score(p, advanced) <= p.gamma]
        assert 0 < len(expected) < s
        assert np.array_equal(p.step(states, idx, dt, rng), expected)
        assert rng.gen.random() == ref.gen.random()

    def test_a_refreshed_level_draws_advances_gamma_bits(self):
        # below dt = 1 the sampler's X(dt) is advance's Gamma(dt, 1)
        # increments, so a refreshed first level is the plain one, bit for bit
        s, n, dt = 3000, 12, 0.3
        idx = RngStream(1).gen.integers(0, s, size=s)
        p = ProblemSpec((Exponential(1.0),) * n, ("I",) * n, Sum(), 8.0, "continuous")
        states = RngStream(3).gen.exponential(0.5, size=(s, n))
        rng, ref = RngStream(4), RngStream(4)
        got = p.step(states, idx, dt, rng, refresh_at=0.0)
        assert 0 < len(got) < s
        assert np.array_equal(got, p.step(states, idx, dt, ref))
        assert rng.gen.random() == ref.gen.random()

    def test_json_round_trip(self):
        specs = [
            ProblemSpec((Exponential(1.0),) * 4, ("I",) * 4, Sum(), 1.5, "continuous"),
            ProblemSpec((Weibull(0.5, 1.0),) * 8, ("I",) * 8,
                        OrderedPartialSum(4), 1.0, "continuous"),
            ProblemSpec((LogNormal(2.0, 0.6), LogNormal(0.0, 0.9)), ("I", "D"),
                        Ratio(0.1), 0.02, "continuous"),
            ProblemSpec((Poisson(1.0), Poisson(1.2)), ("I", "I"),
                        WeightedSum((1.0, 2.0)), 30.0, "poisson"),
        ]
        for p in specs:
            assert ProblemSpec.from_json(p.to_json()) == p
            assert ProblemSpec.from_json(json.loads(json.dumps(p.to_json()))) == p

    def test_db_and_natural_forms(self):
        # the dB forms convert as x * (ln 10 / 10) and 10 ** (x / 10), bit for bit
        db = math.log(10.0) / 10.0
        law = marginal_from_json({"kind": "lognormal", "params": {"mu_db": 20.0, "sigma_db": 6.0}})
        assert law == LogNormal(20.0 * db, 6.0 * db)
        assert law.to_json() == {"kind": "lognormal", "params": {"mu": 20.0 * db, "sigma": 6.0 * db}}
        eta = importance_from_json({"kind": "ratio", "eta_db": -10.0})
        assert eta == Ratio(10.0 ** (-10.0 / 10.0))
        assert eta.to_json() == {"kind": "ratio", "eta": 10.0 ** (-10.0 / 10.0)}

    @pytest.mark.parametrize("where,value,path", [
        (("marginals", 0, "params"), {"mu": 0.0, "sigma_db": 4.0}, r"\$\.marginals\[0\]\.params"),
        (("marginals", 1, "params"), {"mu_db": 0.0, "mu": 0.0, "sigma_db": 4.0},
         r"\$\.marginals\[1\]\.params"),
        (("importance",), {"kind": "ratio", "eta": 0.1, "eta_db": -10.0}, r"\$\.importance"),
    ], ids=["lognormal-mixed", "lognormal-both", "ratio-both"])
    def test_db_and_natural_mix_rejected(self, where, value, path):
        scen = ProblemSpec((LogNormal(2.0, 0.6), LogNormal(0.0, 0.9)), ("I", "D"),
                           Ratio(0.1), 0.02).to_json()
        node = scen
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        with pytest.raises(ValueError, match=path + ": mix of dB and natural fields"):
            ProblemSpec.from_json(scen)


class TestBoxed:
    """``ProblemSpec.boxed``: every sum's problem on the box x_i <= gamma / w_i."""

    def test_table5_keeps_one_quantile_group(self):
        problem = preset_problem(load_preset("V"), 1.39)
        boxed, log_mass = problem.boxed()
        law = Truncated(LogNormal(0.0, 2.0), 1.39)
        assert boxed.marginals == (law,) * 15
        assert log_mass == pytest.approx(15 * math.log(LogNormal(0.0, 2.0).cdf(1.39)), rel=1e-12)
        [((group_law, tail), cols, width)] = _quantile_groups(boxed.marginals, boxed.directions)
        assert (group_law, tail, cols, width) == (law, "upper", slice(0, 15), 15)
        assert np.ndim(boxed.process.bracket._base) == 0  # the scalar bracket base

    def test_weights_set_each_bound(self):
        laws = (Exponential(1.0), Weibull(0.8, 1.0), Exponential(2.0))
        problem = ProblemSpec(laws, ("I",) * 3, WeightedSum((2.0, 0.0, 0.5)), 0.3)
        boxed, log_mass = problem.boxed()
        # a weight of 0 leaves its coordinate uncut
        assert boxed.marginals == (Truncated(laws[0], 0.15), laws[1], Truncated(laws[2], 0.6))
        assert log_mass == pytest.approx(math.log(laws[0].cdf(0.15) * laws[2].cdf(0.6)),
                                         rel=1e-12)
        assert (boxed.importance, boxed.gamma) == (problem.importance, problem.gamma)

    @pytest.mark.parametrize("problem", [
        pytest.param(ProblemSpec((LogNormal(2.0, 0.6), LogNormal(0.0, 0.9)), ("I", "D"),
                                 Ratio(0.1), 0.02), id="ratio"),
        pytest.param(ProblemSpec((Poisson(1.0), Poisson(1.2)), ("I", "I"),
                                 WeightedSum((1.0, 2.0)), 30.0, "poisson"), id="poisson"),
        pytest.param(ProblemSpec((Exponential(1.0),) * 4, ("I",) * 4, Sum(), 0.0),
                     id="gamma-zero"),
        pytest.param(ProblemSpec((Exponential(1.0),) * 4, ("I",) * 4, Sum(), -1.0),
                     id="gamma-negative"),
    ])
    def test_no_box(self, problem):
        assert problem.boxed() == (problem, 0.0)

    def test_boxed_problem_refuses_json_with_one_error(self):
        problem = preset_problem(load_preset("V"), 1.39)
        json.dumps(problem.to_json())  # the problem before boxing serializes
        with pytest.raises(ValueError, match="serialize the problem before boxing"):
            problem.boxed()[0].to_json()


def reference_score(problem, g):
    """S of each state of a continuous problem, embedded then scored."""
    return importance(problem.importance, embed(g, problem.marginals, problem.directions))


def survives(problem, states):
    """The process's survival decision for each row of ``states``."""
    return problem.process.survives(states, problem.gamma)


def embed_by_column(g, marginals, directions):
    """Reference embedding: one quantile call per column."""
    out = np.empty_like(g)
    for i, (m, d) in enumerate(zip(marginals, directions)):
        out[:, i] = m.quantile_from_neg_log_tail(g[:, i], "upper" if d == "I" else "lower")
    return out


class TestGroupedEmbed:
    @pytest.mark.parametrize("marginals,directions", [
        # Table VI: one upper-tail signal column, ten lower-tail interferers
        ((LogNormal(20 * math.log(10) / 10, 6 * math.log(10) / 10),)
         + (LogNormal(0.0, 4 * math.log(10) / 10),) * 10, ("I",) + ("D",) * 10),
        # two different marginals sharing the upper tail, interleaved
        ((LogNormal(0.0, 2.0), Gamma(0.5, 1.0), LogNormal(0.0, 2.0), Gamma(0.5, 1.0),
          Weibull(0.5, 2.0)), ("I",) * 5),
        # one marginal on both tails
        ((GeneralizedGamma(0.6, 1.7, 2.0),) * 4, ("I", "D", "D", "D")),
    ])
    def test_bit_identical_to_column_loop(self, marginals, directions):
        n = len(marginals)
        # 2000 rows span several blocks of one quantile call
        shape = (2000, n)
        rng = RngStream(41).gen
        g = rng.gamma(0.3, size=shape) * 10.0 ** rng.uniform(-12, 3, size=shape)
        g[0] = 0.0
        g[1] = 800.0  # e^-g underflows: the quantile saturates
        got = embed(g, marginals, directions)
        ref = embed_by_column(g, marginals, directions)
        assert got.tobytes() == ref.tobytes()
        assert embed(g[5], marginals, directions).tobytes() == ref[5].tobytes()


# the survival bracket's cells: K of them between its first and last grid point
BRACKET_CELLS = (_BRACKET_MAX_EXP - _BRACKET_MIN_EXP) << _BRACKET_BITS
BRACKET_G_MIN = 2.0 ** _BRACKET_MIN_EXP
BRACKET_G_MAX = 2.0 ** _BRACKET_MAX_EXP


def grid_point(k):
    """The survival bracket's k-th grid point 2^e * (1 + i / 2^B), with
    e = _BRACKET_MIN_EXP + k // 2^B and i = k % 2^B: a double whose
    mantissa keeps only its top B bits."""
    e, i = divmod(int(k), 1 << _BRACKET_BITS)
    return math.ldexp(1.0 + i / (1 << _BRACKET_BITS), _BRACKET_MIN_EXP + e)


CONTINUOUS_LAWS = st.one_of(
    st.builds(LogNormal, st.floats(-2.0, 2.0), st.floats(0.2, 3.0)),
    st.builds(Weibull, st.floats(0.3, 3.0), st.floats(0.2, 5.0)),
    st.builds(GeneralizedGamma, st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.2, 5.0)),
    st.builds(Gamma, st.floats(0.3, 5.0), st.floats(0.2, 5.0)),
    st.builds(Exponential, st.floats(0.2, 5.0)),
)

# Gamma levels at the bracket's edges: 0, below the first grid point, on a
# grid point, above the last grid point, past e^-g underflow, and in between
LEVELS = st.one_of(
    st.just(0.0),
    st.floats(1e-300, BRACKET_G_MIN * 0.999),
    st.integers(0, BRACKET_CELLS).map(grid_point),
    st.floats(BRACKET_G_MAX * 1.001, 1e6),
    st.just(math.log(2.0)),
    st.floats(-35.0, 3.0).map(lambda e: 10.0 ** e),
)


def neighbours(row, levels=()):
    """row itself and every row that differs from it by one ulp in one
    entry, or has one entry replaced by one of ``levels``."""
    out = [row]
    for i in range(len(row)):
        for moved_to in [np.nextafter(row[i], -np.inf), np.nextafter(row[i], np.inf), *levels]:
            moved = row.copy()
            moved[i] = moved_to
            if moved_to >= 0.0:
                out.append(moved)
    return np.array(out)


class TestBracketCells:
    # two groups: column 0 reads the first table, columns 1 and 2 the second
    marginals = (LogNormal(0.0, 1.0), Gamma(0.5, 1.0), Gamma(0.5, 1.0))
    bracket = ProblemSpec(marginals, ("I",) * 3, Sum(), 1.0).process.bracket

    def cells(self, column):
        """Cells of one column of levels, each read from every group."""
        col = np.asarray(column, dtype=float)
        c = self.bracket.cells(np.column_stack([col] * 3))
        np.testing.assert_array_equal(c[:, 2], c[:, 1])
        np.testing.assert_array_equal(c[:, 1], c[:, 0] + BRACKET_CELLS + 1)
        return c[:, 0]

    def test_grid_points_open_their_cells(self):
        ks = np.unique(np.linspace(0, BRACKET_CELLS - 1, 997).astype(int))
        ks = np.concatenate([ks, np.arange(1, (1 << _BRACKET_BITS) + 1)])  # a whole binade
        v = np.array([grid_point(k) for k in ks])
        np.testing.assert_array_equal(self.cells(v), ks)
        np.testing.assert_array_equal(self.cells(np.nextafter(v[ks > 0], -np.inf)),
                                      ks[ks > 0] - 1)

    def test_below_the_grid_shares_cell_zero(self):
        below = [0.0, 5e-324, 1e-300, np.nextafter(BRACKET_G_MIN, 0.0)]
        np.testing.assert_array_equal(self.cells(below), 0)

    def test_entries_off_the_grid_reach_the_nan_slot(self):
        off = [np.nan, -np.nan, -0.0, -5e-324, -1.0, -np.inf, np.inf,
               BRACKET_G_MAX, 1e6, np.finfo(float).max]
        c = self.cells(off)
        np.testing.assert_array_equal(c, BRACKET_CELLS)
        assert np.isnan(self.bracket.lo[c]).all() and np.isnan(self.bracket.hi[c]).all()
        last = self.cells([np.nextafter(BRACKET_G_MAX, 0.0)])
        assert last[0] == BRACKET_CELLS - 1 and not np.isnan(self.bracket.hi[last]).any()

    def test_bounds_enclose_the_embedding(self):
        g = RngStream(43).gen.gamma(0.2, size=(4000, 3)) * 10.0 ** np.arange(-20, 1, 10)
        c = self.bracket.cells(g)
        x = embed(g, self.marginals, ("I",) * 3)
        assert np.all(self.bracket.lo[c] <= x) and np.all(x <= self.bracket.hi[c])


class TestBracketTables:
    def test_blocked_build_equals_whole_grid_calls(self):
        # Table VI's two groups on opposite tails: the signal's upper tail
        # and the interferers' lower tail, each table built block by block
        marginals = ((LogNormal(20 * math.log(10) / 10, 6 * math.log(10) / 10),)
                     + (LogNormal(0.0, 4 * math.log(10) / 10),) * 10)
        bracket = ProblemSpec(marginals, ("I",) + ("D",) * 10, Ratio(1.0), 1.0).process.bracket
        grid = np.array([0.0] + [grid_point(k) for k in range(BRACKET_CELLS + 2)])
        lo, hi = [], []
        for law, tail in ((marginals[0], "upper"), (marginals[1], "lower")):
            q = law.quantile_from_neg_log_tail(grid, tail)  # q[1 + k]: at v_k
            lo += [q[:BRACKET_CELLS], [np.nan]]
            hi += [q[3:], [np.nan]]
        assert bracket.lo.tobytes() == np.concatenate(lo).tobytes()
        assert bracket.hi.tobytes() == np.concatenate(hi).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSurvives:
    """The process's ``survives`` decides each row from a bracket of
    tabulated quantiles and must equal reference_score(states) <= gamma
    exactly, without RuntimeWarnings from the infinite ends of the bracket."""

    @given(st.data())
    def test_equals_score_at_most_gamma(self, data):
        n = data.draw(st.integers(1, 3))
        marginals = tuple(data.draw(CONTINUOUS_LAWS) for _ in range(n + 1))
        aggregate = data.draw(st.sampled_from(["sum", "weighted", "top", "ratio"]))
        if aggregate == "ratio":
            spec, directions = Ratio(data.draw(st.floats(1e-3, 2.0))), ("I",) + ("D",) * n
        else:
            marginals = marginals[:n]
            directions = ("I",) * n
            if aggregate == "sum":
                spec = Sum()
            elif aggregate == "top":
                spec = OrderedPartialSum(data.draw(st.integers(1, n)))
            else:
                weights = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                             min_size=n, max_size=n))
                spec = WeightedSum(tuple(weights) if any(weights) else (1.0,) * n)
        base = np.array([data.draw(LEVELS) for _ in marginals])
        # 740: e^-g is subnormal there; 1e4 and 1e6: past the bracket's
        # grid, where LogNormal's upper tail can reach +inf.  A zero-weight
        # column at +inf makes the score NaN.
        g = neighbours(base, levels=(740.0, 1e4, 1e6))
        scores = reference_score(ProblemSpec(marginals, directions, spec, 0.0), g)
        finite = scores[np.isfinite(scores)]
        gamma = float(data.draw(st.sampled_from(finite))) if finite.size else 1.0
        got = survives(ProblemSpec(marginals, directions, spec, gamma), g)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, scores <= gamma)

    @pytest.mark.parametrize("marginal,direction", [
        (LogNormal(0.0, 2.0), "I"), (Gamma(0.5, 1.0), "I"), (LogNormal(1.0, 0.5), "D"),
    ])
    def test_cell_edges(self, marginal, direction):
        # rows on grid points and one ulp either side, with gamma at each
        # row's own score: a bracket without its slack cells gets these wrong
        marginals = (LogNormal(0.0, 1.0), marginal) if direction == "D" else (marginal,)
        directions = ("I", "D") if direction == "D" else ("I",)
        spec = Ratio(0.1) if direction == "D" else Sum()
        js = np.linspace(0, BRACKET_CELLS, 120).astype(int)
        col = np.concatenate([neighbours(np.array([grid_point(j)]))[:, 0] for j in js])
        g = np.column_stack([np.full_like(col, 0.5)] * (len(marginals) - 1) + [col])
        scores = reference_score(ProblemSpec(marginals, directions, spec, 0.0), g)
        for gamma in scores[np.isfinite(scores)][::7]:
            problem = ProblemSpec(marginals, directions, spec, float(gamma))
            np.testing.assert_array_equal(survives(problem, g), scores <= gamma)

    def test_zero_weight_on_infinite_column(self):
        # g = 1e6 sends the zero-weight column's quantile to +inf, so the
        # score is 0 * inf = NaN and the row fails; at g = 740, where e^-g
        # is subnormal, the column is finite
        problem = ProblemSpec((LogNormal(0.0, 1.0),) * 2, ("I", "I"),
                              WeightedSum((1.0, 0.0)), 2.0)
        g = np.array([[0.1, 1e6], [0.1, 740.0], [0.1, np.inf], [5.0, 740.0], [0.1, 0.1]])
        scores = reference_score(problem, g)
        assert np.isnan(scores[0]) and np.isnan(scores[2])
        np.testing.assert_array_equal(survives(problem, g), [False, True, False, False, True])

    def test_poisson_problems_score_the_counts(self):
        poisson = ProblemSpec((Poisson(1.0), Poisson(2.0)), ("I", "I"),
                              WeightedSum((1.0, 2.0)), 3.0, "poisson")
        counts = np.array([[0.0, 1.0], [3.0, 0.0], [2.0, 1.0]])
        np.testing.assert_array_equal(survives(poisson, counts), [True, True, False])

    @pytest.mark.parametrize("law", [Weibull(0.5, 1.0), Exponential(2.0)], ids=lambda d: d.kind)
    @pytest.mark.parametrize("spec", [OrderedPartialSum(2), WeightedSum((1.0, 0.0, 2.0)),
                                      Ratio(0.1)], ids=lambda s: s.kind)
    def test_closed_form_laws_at_the_grid_edges(self, law, spec):
        # the laws whose upper tail is a closed form, on the upper tail
        # under OrderedPartialSum and WeightedSum, and on both tails under
        # Ratio; every row of levels at g = 0, below the grid, at and
        # above its top 2^10, and NaN
        edges = [0.0, 5e-324, 1e-300, np.nextafter(BRACKET_G_MIN, 0.0), BRACKET_G_MIN, 0.3,
                 2.0, np.nextafter(BRACKET_G_MAX, 0.0), BRACKET_G_MAX, 2e3, 1e6, np.nan]
        g = np.array(list(itertools.product(edges, repeat=3)))
        directions = spec.directions(3)
        scores = reference_score(ProblemSpec((law,) * 3, directions, spec, 0.0), g)
        finite = np.unique(scores[np.isfinite(scores)])
        for gamma in finite[np.linspace(0, finite.size - 1, 12).astype(int)]:
            problem = ProblemSpec((law,) * 3, directions, spec, float(gamma))
            np.testing.assert_array_equal(survives(problem, g), scores <= gamma)

    def test_bracket_built_on_first_use(self):
        problem = ProblemSpec((LogNormal(0.0, 1.0),) * 2, ("I", "I"), Sum(), 2.0)
        assert "bracket" not in vars(problem.process)
        survives(problem, np.array([[0.1, 0.2]]))
        assert vars(problem.process)["bracket"] is not None

    def test_single_state(self):
        # one state is a one-row matrix, decided as it is inside a level
        problem = ProblemSpec((LogNormal(0.0, 1.0), Gamma(2.0, 1.0)), ("I", "D"), Ratio(0.1), 0.5)
        for g in ([0.0, 0.0], [0.3, 2.0], [2.0, 0.3], [1e-40, 1e4]):
            state = np.array([g])
            np.testing.assert_array_equal(survives(problem, state),
                                          reference_score(problem, state) <= 0.5)

    def test_negative_level_raises_like_score(self):
        problem = ProblemSpec((LogNormal(0.0, 1.0),) * 2, ("I", "I"), Sum(), 2.0)
        with pytest.raises(ValueError, match="g must be >= 0"):
            reference_score(problem, np.array([[0.1, -1.0]]))
        with pytest.raises(ValueError, match="g must be >= 0"):
            survives(problem, np.array([[0.1, -1.0]]))


def two_sample_chi_square_p(a, b):
    """p-value of the chi-square test that two samples of counts share one
    law: cells of consecutive counts are merged until each expects at least
    5 draws of the smaller sample; the last cell holds every count above."""
    top = int(max(a.max(), b.max())) + 1
    ca, cb = (np.bincount(x.astype(np.int64), minlength=top) for x in (a, b))
    cum = np.cumsum(ca + cb)
    share = min(a.size, b.size) / (a.size + b.size)
    edges, below = [], 0
    for k in range(top - 1):
        if (cum[k] - below) * share >= 5 and (cum[-1] - cum[k]) * share >= 5:
            edges.append(k + 1)
            below = cum[k]
    table = [np.add.reduceat(c, [0, *edges]) for c in (ca, cb)]
    return stats.chi2_contingency(table).pvalue


class DrawSizes:
    """A generator that records the ``size`` of each of its ``poisson``
    calls (``sizes``) and of its ``random`` calls (``uniform_sizes``)."""

    def __init__(self, gen):
        self.gen, self.sizes, self.uniform_sizes = gen, [], []

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def poisson(self, lam, size):
        self.sizes.append(size)
        return self.gen.poisson(lam, size=size)

    def random(self, size=None):
        self.uniform_sizes.append(size)
        return self.gen.random(size)


# Two ways to give each row five refresh updates: five calls of one update
# each, and one call of five updates, whose draws come in one batch.
FIVE_UPDATES = [(5, 1), (1, 5)]


class TestPoissonRefresh:
    """A Poisson clone's refresh keeps the survivors' law at its time t:
    independent Poisson(rates * t) counts restricted to S <= gamma.  The
    setting, Table I's rates at t = 0.5 and gamma = 50, where
    P[S <= gamma] = 0.049, and the seeds were fixed before the first run;
    both ways of ``FIVE_UPDATES`` start from the same rows and seeds."""

    T, GAMMA, ROWS = 0.5, 50.0, 20_000

    def survivors(self, problem, rng, rows=ROWS):
        """``rows`` rejection samples of the survivors' law at T, decided by
        the reference S rather than the process."""
        rates, out = problem.rates() * self.T, []
        while sum(map(len, out)) < rows:
            x = rng.gen.poisson(rates, size=(100_000, problem.n)).astype(float)
            out.append(x[importance(problem.importance, x) <= problem.gamma])
        return np.concatenate(out)[:rows]

    def refreshed(self, calls, updates):
        """Survivors after ``calls`` refreshes of ``updates`` updates each,
        and per coordinate the p-value against an independent rejection sample."""
        problem = preset_problem(load_preset("I"), self.GAMMA)
        rows, rng = self.survivors(problem, RngStream(9201)), RngStream(9202)
        for _ in range(calls):
            problem.refresh(rows, self.T, rng, updates)
        reference = self.survivors(problem, RngStream(9203))
        return rows, [two_sample_chi_square_p(a, b) for a, b in zip(rows.T, reference.T)]

    def test_keeps_the_survivors_law(self):
        problem = preset_problem(load_preset("I"), self.GAMMA)
        for passes in FIVE_UPDATES:
            rows, p = self.refreshed(*passes)
            assert (importance(problem.importance, rows) <= self.GAMMA).all()
            assert min(p) > 1e-3, (passes, p)

    def test_fails_a_proposal_at_a_later_time(self, monkeypatch):
        monkeypatch.setattr(model, "poisson_sampler", lambda rates: poisson_sampler(1.3 * rates))
        for passes in FIVE_UPDATES:
            assert min(self.refreshed(*passes)[1]) < 1e-3, passes

    def test_fails_a_step_that_keeps_rejected_proposals(self, monkeypatch):
        monkeypatch.setattr(model._PoissonJumps, "survives",
                            lambda self, states, gamma: np.ones(len(states), dtype=bool))
        for passes in FIVE_UPDATES:
            assert min(self.refreshed(*passes)[1]) < 1e-3, passes

    def test_moves_one_coordinate_per_row_from_its_draws(self):
        # the stream: one column per row, then the sampler's one uniform per row
        problem = preset_problem(load_preset("I"), self.GAMMA)
        before = self.survivors(problem, RngStream(9204), 3000)
        rows, rng, ref = before.copy(), RngStream(5), RngStream(5)
        problem.refresh(rows, self.T, rng)
        cols = ref.gen.integers(0, problem.n, size=3000)
        moved = before.copy()
        moved[np.arange(3000), cols] = poisson_sampler(problem.rates() * self.T)(
            ref.gen, 3000, cols)
        kept = importance(problem.importance, moved) <= problem.gamma
        assert 0 < kept.sum() < 3000 and (moved != before).any(axis=1)[kept].any()
        assert np.array_equal(rows, np.where(kept[:, None], moved, before))
        assert rng.gen.random() == ref.gen.random()  # no draw more or less

    def test_updates_decide_in_order_from_one_batch_of_draws(self):
        # the stream: every update's columns, then every proposal; each update
        # then moves the rows its predecessor left, decided by the reference S
        problem = preset_problem(load_preset("I"), self.GAMMA)
        before = self.survivors(problem, RngStream(9204), 3000)
        rows, rng, ref = before.copy(), RngStream(5), RngStream(5)
        problem.refresh(rows, self.T, rng, 3)
        cols = ref.gen.integers(0, problem.n, size=(3, 3000))
        proposals = poisson_sampler(problem.rates() * self.T)(
            ref.gen, cols.size, cols.ravel()).reshape(cols.shape)
        expected = before.copy()
        for picked, new in zip(cols, proposals):
            moved = expected.copy()
            moved[np.arange(3000), picked] = new
            kept = importance(problem.importance, moved) <= problem.gamma
            assert 0 < kept.sum() < 3000
            expected = np.where(kept[:, None], moved, expected)
        assert np.array_equal(rows, expected)
        assert rng.gen.random() == ref.gen.random()  # no draw more or less

    def test_refuses_rows_it_cannot_write_in_place(self):
        problem = preset_problem(load_preset("I"), self.GAMMA)
        with pytest.raises(ValueError, match="C-contiguous"):
            problem.refresh(np.zeros((12, 10)).T, self.T, RngStream(7))

    @pytest.mark.parametrize("refresh_at", [None, T])
    def test_level_draws_in_row_blocks(self, refresh_at):
        # whole-level draws fault in fresh heap pages on every level; the
        # blocks keep each temporary under process.BLOCK_ENTRIES entries.  The
        # plain level draws gen.poisson counts; the refreshed one (at T) its
        # refresh's proposals in one batch, then its counts from the tables
        problem = preset_problem(load_preset("I"), self.GAMMA)
        s, dt = 3000, 0.1
        states = self.survivors(problem, RngStream(9205), s)
        idx = RngStream(9206).gen.integers(0, s, size=s)
        rng, ref = RngStream(5), RngStream(5)
        rng.gen = DrawSizes(rng.gen)
        got = problem.step(states, idx, dt, rng, refresh_at=refresh_at)
        rows = states[idx]
        if refresh_at:
            problem.refresh(rows, refresh_at, ref, model.REFRESH_UPDATES)
            rows += poisson_sampler(problem.rates() * dt)(ref.gen, s)
            proposals, *blocks = rng.gen.uniform_sizes
            assert proposals == model.REFRESH_UPDATES * s and not rng.gen.sizes
        else:
            rows += ref.gen.poisson(problem.rates() * dt, size=rows.shape)
            blocks = rng.gen.sizes
        expected = rows[importance(problem.importance, rows) <= problem.gamma]
        assert 0 < len(expected) < s
        assert np.array_equal(got, expected)
        assert len(blocks) > 1 and sum(size[0] for size in blocks) == s
        assert all(math.prod(size) <= process.BLOCK_ENTRIES for size in blocks)
        assert rng.gen.random() == ref.gen.random()  # no draw more or less

    def test_one_table_per_rate_vector_shared_and_bounded(self, monkeypatch):
        # two refreshes at one time, a pickled copy's refresh and naive MC
        # build the tables of rates * t and of rates once each
        problem = preset_problem(load_preset("I"), self.GAMMA)
        rows, rng = np.zeros((10, problem.n)), RngStream(6)
        built, sampler = [], process._sampler
        monkeypatch.setattr(process, "_sampler", lambda *key: built.append(key) or sampler(*key))
        monkeypatch.setattr(process, "_tables", {})
        for copy in (problem, problem, pickle.loads(pickle.dumps(problem))):
            copy.refresh(rows, 0.25, rng)
        naive_mc(problem, 10, RngStream(7))
        assert len(built) == len(process._tables) == 2
        assert poisson_sampler(problem.rates() * 0.25) is poisson_sampler(
            list(problem.rates() * 0.25))
        # past the byte budget the least recently used tables go: the memo
        # keeps the longest run of the vectors read last that fits it
        monkeypatch.setattr(process, "_TABLE_BYTES", 300_000)
        keys = [((1,), np.array([float(lam)]).tobytes()) for lam in range(1, 200)]
        for _, data in keys:
            poisson_sampler(np.frombuffer(data))
        kept = list(process._tables)
        held = sum(nbytes for _, nbytes in process._tables.values())
        assert kept == keys[-len(kept):] and 10 < len(kept) < 150
        assert held <= 300_000 < held + sampler(*keys[-len(kept) - 1])[1]
        # a read moves its vector's tables to the end, with no build; the
        # newest tables stay, even past the budget
        count = len(built)
        poisson_sampler(np.frombuffer(kept[0][1]))
        assert len(built) == count and list(process._tables)[-1] == kept[0]
        poisson_sampler([MAX_POISSON_RATE])
        assert list(process._tables) == [((1,), np.array([MAX_POISSON_RATE]).tobytes())]


class TestGammaRefresh:
    """A continuous clone's refresh keeps the survivors' law at its time t:
    independent Gamma(t, 1) levels restricted to S(embed(g)) <= gamma.  The
    setting, Table V's box at gamma = 1.39 and t = 0.5, and the seeds were
    fixed before the first run; each column's levels are compared with an
    independent rejection sample by a two-sample KS test, after either way
    of ``FIVE_UPDATES`` from the same rows and seed."""

    T, GAMMA, ROWS = 0.5, 1.39, 20_000

    @classmethod
    @functools.cache
    def samples(cls):
        """The problem, ``ROWS`` rejection samples of the survivors' levels at T
        to refresh, and as many independent ones; numpy's Gamma sampler draws
        them and the reference S decides them, so no mutant reaches them."""
        problem, out = preset_problem(load_preset("V"), cls.GAMMA).boxed()[0], []
        for seed in (9211, 9213):
            rng, kept = RngStream(seed), []
            while sum(map(len, kept)) < cls.ROWS:
                g = rng.gen.standard_gamma(cls.T, size=(50_000, problem.n))
                x = embed(g, problem.marginals, problem.directions)
                kept.append(g[importance(problem.importance, x) <= problem.gamma])
            out.append(np.concatenate(kept)[:cls.ROWS])
        return problem, *out

    def refreshed(self, calls, updates):
        """Survivors after ``calls`` refreshes of ``updates`` updates each,
        and per column the KS p-value against the independent rejection sample."""
        problem, start, reference = self.samples()
        rows, rng = start.copy(), RngStream(9212)
        for _ in range(calls):
            problem.refresh(rows, self.T, rng, updates)
        return problem, rows, [stats.ks_2samp(a, b).pvalue for a, b in zip(rows.T, reference.T)]

    def test_keeps_the_survivors_law(self):
        for passes in FIVE_UPDATES:
            problem, rows, p = self.refreshed(*passes)
            x = embed(rows, problem.marginals, problem.directions)
            assert (importance(problem.importance, x) <= self.GAMMA).all()
            assert min(p) > 1e-3, (passes, p)

    def test_fails_a_proposal_at_a_later_time(self, monkeypatch):
        # the refresh proposes through the sampler, whose draw at t < 1 this is
        monkeypatch.setattr(model, "gamma_increments",
                            lambda shape, t, gen: gamma_increments(shape, 1.3 * t, gen))
        for passes in FIVE_UPDATES:
            assert min(self.refreshed(*passes)[2]) < 1e-3, passes

    def test_fails_a_step_that_keeps_rejected_proposals(self, monkeypatch):
        monkeypatch.setattr(model._GammaEmbedding, "survives",
                            lambda self, states, gamma: np.ones(len(states), dtype=bool))
        for passes in FIVE_UPDATES:
            assert min(self.refreshed(*passes)[2]) < 1e-3, passes


def room_from_lo(self, states, cols, gamma):
    """``_GammaEmbedding.room`` read from the bracket's ``lo`` bounds, which
    lie below every "I" and above every "D" coordinate: an a_lo above the true room."""
    swapped = copy.copy(self)
    swapped.bracket = copy.copy(self.bracket)
    swapped.bracket.hi = self.bracket.lo
    return ROOM(swapped, states, cols, gamma)


def move_with_exponent_one(self, rows, cols, a_lo, t, rng):
    """``_GammaEmbedding.move`` proposing a_lo U, uniform on [0, a_lo]."""
    at = (np.arange(len(rows)), cols)
    g = rows[at]
    u, v = rng.gen.random((2, len(rows)))
    new = a_lo * u
    accept = (g <= a_lo) & (v < np.exp(g - new))
    rows[at] = np.where(accept, new, g)


def same_column_once_in_m(gen, m, c, depth):
    """``model._room_picks`` whose second pick, (j1 + 1 + U{0..m-1}) mod m,
    is the first one once in m: that move's room then reads its own column."""
    first = gen.integers(0, m, c)
    return np.stack([first, (first + 1 + gen.integers(0, m, c)) % m], axis=1)


ROOM = model._GammaEmbedding.room


def stale_clone_room(self, states, idx, rows, cols, gamma):
    """``_GammaEmbedding.clone_room`` read from the parent's rest: the room of
    the column before the clone's first move, which may have grown into it."""
    return ROOM(self, states, cols[:, -1], gamma).take(idx)


def moved_rows(problem, start, reference, gamma, t, calls, seed, depth=model.ROOM_MOVES):
    """(the fewest rows that survive a call, the share of rows a call
    changed, per column the KS p-value against the independent sample)
    after ``calls`` calls of ``process.moves`` with ``model.ROOM_MOVES`` =
    ``depth`` on ``start``'s rows, each row its own parent."""
    rows, rng, alive, changed = start.copy(), RngStream(seed), [], []
    idx = np.arange(len(rows))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "ROOM_MOVES", depth)
        for _ in range(calls):
            before = rows.copy()
            problem.process.moves(before, rows, idx, gamma, t, rng)
            alive.append((reference_score(problem, rows) <= gamma).sum())
            changed.append((rows != before).any(axis=1).mean())
    return min(alive), min(changed), [stats.ks_2samp(a, b).pvalue
                                      for a, b in zip(rows.T, reference.T)]


@functools.cache
def refreshed_levels(table, gamma, levels_method):
    """(per move over one refreshed run of the preset row's box: the rows
    before it, their columns and a_lo, the rows after it; the problem)."""
    problem = preset_problem(load_preset(table), gamma).boxed()[0]
    schedule = build_schedule(problem, RngStream(99), levels_method=levels_method)
    seen, move = [], problem.process.move

    def recorded(rows, cols, a_lo, t, rng):
        before = rows.copy()
        move(rows, cols, a_lo, t, rng)
        seen.append((before, cols, a_lo, rows.copy()))

    problem.process.move = recorded
    counts = run_splitting(problem, schedule, 3000, RngStream(5), refresh=True).survivor_counts
    del problem.process.move
    depth = min(model.ROOM_MOVES, problem.process.room_columns.size)
    assert len(seen) == depth * (len(counts) - 1) == depth * (len(schedule) - 1)
    return seen, problem


class TestRatioMove:
    """A ratio's numerator move keeps the survivors' law at its time t:
    Gamma(t, 1) levels restricted to S(embed(g)) <= gamma.  The setting, the
    unbiasedness gate's two-coordinate LogNormal ratio at gamma = 0.1 and
    t = 0.5, and the seeds were fixed before the first run; each column's
    levels are compared with an independent rejection sample by a two-sample
    KS test after one move and after five, from the same rows and seed."""

    T, GAMMA, ROWS = 0.5, 0.1, 20_000

    @classmethod
    @functools.cache
    def samples(cls):
        """The problem, ``ROWS`` rejection samples of the survivors' levels at
        T to move, and as many independent ones, decided by the reference S."""
        problem, out = ProblemSpec((LogNormal(1.0, 0.8), LogNormal(0.0, 0.6)), ("I", "D"),
                                   Ratio(0.2), cls.GAMMA, "continuous"), []
        for seed in (9221, 9223):
            rng, kept = RngStream(seed), []
            while sum(map(len, kept)) < cls.ROWS:
                g = rng.gen.standard_gamma(cls.T, size=(200_000, problem.n))
                kept.append(g[reference_score(problem, g) <= problem.gamma])
            out.append(np.concatenate(kept)[:cls.ROWS])
        return problem, *out

    def moved(self, calls):
        return moved_rows(*self.samples(), self.GAMMA, self.T, calls, 9222)

    @pytest.mark.parametrize("calls", [1, 5])
    def test_keeps_the_survivors_law(self, calls):
        alive, changed, p = self.moved(calls)
        assert alive == self.ROWS and changed > 0.9
        assert min(p) > 1e-3, p

    def test_fails_a_room_above_the_true_one(self, monkeypatch):
        monkeypatch.setattr(model._GammaEmbedding, "room", room_from_lo)
        for calls in (1, 5):
            assert self.moved(calls)[0] < self.ROWS, calls

    def test_fails_a_proposal_exponent_of_one(self, monkeypatch):
        monkeypatch.setattr(model._GammaEmbedding, "move", move_with_exponent_one)
        for calls in (1, 5):
            assert min(self.moved(calls)[2]) < 1e-3, calls

    def test_every_moved_row_survives(self):
        seen, problem = refreshed_levels("VI", 0.001, "iccdf")
        for before, cols, _, after in seen:
            assert problem.process.survives(after, problem.gamma).all()
            assert (after != before).any(axis=1).mean() > 0.5
            assert np.array_equal(after[:, 1:], before[:, 1:]) and not cols.any()

    def test_each_parents_room_gathered_is_the_room_of_its_clones(self):
        # a parent's clones are equal rows, so its room, computed once and
        # gathered by idx, is the room of each clone, bit for bit
        seen, problem = refreshed_levels("VI", 0.001, "iccdf")
        for before, cols, a_lo, _ in seen:
            assert np.array_equal(a_lo, problem.process.room(before, cols, problem.gamma))
            assert len(np.unique(a_lo)) < len(a_lo) / 2


class TestSumMove:
    """A full sum's moves keep the survivors' law at their time t = 0.5.
    Two settings: ``TestGammaRefresh``'s, Table V's box at gamma = 1.39 and
    its rejection samples, at one move (seed 9231) and at two
    (``model.ROOM_MOVES``, seed 9232); and the unbiasedness gate's weighted
    sum of a LogNormal and a Gamma column at gamma = 0.05, at two moves
    (samples on seeds 9234 and 9236, moves on 9235).  Each row is its own
    parent and draws its columns uniformly.  Settings, seeds and call counts
    were fixed before the first run.  The law test holds when every row
    survives every call and each column's KS p-value against the independent
    sample stays above 1e-3, after one call and after 15.

    A second pick that repeats the first once in m columns moves a column
    within a room that reads it.  Every row survives it; among Table V's 15
    columns it is too rare for this test to see, and on two columns, where
    it comes once in two, the test fails it."""

    CALLS = (1, 15)
    SEEDS = {("V", 1): 9231, ("V", 2): 9232, ("two_columns", 2): 9235}

    @staticmethod
    @functools.cache
    def two_columns():
        """The weighted sum, ``TestGammaRefresh.ROWS`` rejection samples of
        its survivors' levels at T to move, and as many independent ones."""
        problem, out = ProblemSpec((LogNormal(0.0, 1.5), Gamma(0.5, 1.0)), ("I", "I"),
                                   WeightedSum((1.0, 2.0)), 0.05, "continuous"), []
        for seed in (9234, 9236):
            rng, kept = RngStream(seed), []
            while sum(map(len, kept)) < TestGammaRefresh.ROWS:
                g = rng.gen.standard_gamma(TestGammaRefresh.T, size=(200_000, problem.n))
                kept.append(g[reference_score(problem, g) <= problem.gamma])
            out.append(np.concatenate(kept)[:TestGammaRefresh.ROWS])
        return problem, *out

    def law_holds(self, calls, depth, setting="V"):
        problem, start, reference = (TestGammaRefresh.samples() if setting == "V"
                                     else self.two_columns())
        alive, changed, p = moved_rows(problem, start, reference, problem.gamma,
                                       TestGammaRefresh.T, calls, self.SEEDS[setting, depth], depth)
        assert changed > 0.5, changed  # most rows move: the test sees the move
        return alive == len(start) and min(p) > 1e-3

    @pytest.mark.parametrize("calls", CALLS)
    def test_keeps_the_survivors_law(self, calls):
        assert self.law_holds(calls, 1)

    @pytest.mark.parametrize("setting", ["V", "two_columns"])
    @pytest.mark.parametrize("calls", CALLS)
    def test_keeps_the_survivors_law_two_deep(self, calls, setting):
        assert self.law_holds(calls, 2, setting)

    def test_fails_a_room_above_the_true_one(self, monkeypatch):
        monkeypatch.setattr(model._GammaEmbedding, "room", room_from_lo)
        for depth in (1, 2):
            assert not all(self.law_holds(calls, depth) for calls in self.CALLS), depth

    def test_fails_a_proposal_exponent_of_one(self, monkeypatch):
        monkeypatch.setattr(model._GammaEmbedding, "move", move_with_exponent_one)
        for depth in (1, 2):
            assert not all(self.law_holds(calls, depth) for calls in self.CALLS), depth

    def test_fails_a_second_move_on_the_first_column(self, monkeypatch):
        monkeypatch.setattr(model, "_room_picks", same_column_once_in_m)
        assert not all(self.law_holds(calls, 2, "two_columns") for calls in self.CALLS)

    @pytest.mark.parametrize("setting", ["V", "two_columns"])
    def test_fails_a_second_room_read_from_the_parents_rest(self, setting, monkeypatch):
        monkeypatch.setattr(model._GammaEmbedding, "clone_room", stale_clone_room)
        assert not all(self.law_holds(calls, 2, setting) for calls in self.CALLS)

    def test_each_parent_picks_distinct_columns_uniformly(self):
        # every ordered pair of distinct columns, equally often; seed fixed before the first run
        m, c = 5, 40_000
        picks = model._room_picks(RngStream(9237).gen, m, c, 2)
        assert picks.shape == (c, 2) and not (picks[:, 0] == picks[:, 1]).any()
        counts = np.bincount(picks[:, 0] * m + picks[:, 1], minlength=m * m).reshape(m, m)
        assert stats.chisquare(counts[~np.eye(m, dtype=bool)]).pvalue > 1e-3
        deep = model._room_picks(RngStream(9237).gen, m, c, 4)
        assert (np.sort(deep, axis=1)[:, 1:] > np.sort(deep, axis=1)[:, :-1]).all()
        assert stats.chisquare(np.bincount(deep[:, 3], minlength=m)).pvalue > 1e-3

    @staticmethod
    @functools.cache
    def second_rooms():
        """(problem, 300 parents, idx of 3000 clones, each parent's two
        columns, the clones after their first move, their second rooms) on
        ``TestGammaRefresh``'s rejection samples; seed fixed before the first run."""
        problem, start, _ = TestGammaRefresh.samples()
        gamma, t, rng = TestGammaRefresh.GAMMA, TestGammaRefresh.T, RngStream(9233)
        parents = start[:300]
        idx = rng.gen.integers(0, len(parents), 3000)
        cols = model._room_picks(rng.gen, problem.n, len(parents), 2)
        rows = parents.take(idx, axis=0)
        room = problem.process.room(parents, cols[:, 0], gamma)
        problem.process.move(rows, cols[idx, 0], room.take(idx), t, rng)
        assert (rows != parents[idx]).any(axis=1).mean() > 0.5
        return problem, parents, idx, cols, rows, problem.process.clone_room(
            parents, idx, rows, cols, gamma)

    def test_the_second_room_reads_no_level_of_its_column(self):
        problem, parents, idx, cols, rows, a_lo = self.second_rooms()
        clones = np.arange(len(idx))
        for level in (0.0, 1e-9, 0.5, 30.0, 2000.0, np.inf, np.nan):
            perturbed = rows.copy()
            perturbed[clones, cols[idx, 1]] = level
            again = problem.process.clone_room(parents, idx, perturbed, cols,
                                               TestGammaRefresh.GAMMA)
            assert again.tobytes() == a_lo.tobytes(), level
        assert (a_lo > 0).mean() > 0.9

    def test_the_second_room_is_each_clones_room_from_scratch(self):
        # per clone, from its own row alone: gamma minus its hi row with both
        # columns zeroed, minus the moved column's hi, at the bracket's level
        problem, _, idx, cols, rows, a_lo = self.second_rooms()
        bracket, clones = problem.process.bracket, np.arange(len(idx))
        j1, j2 = cols[idx, 0], cols[idx, 1]
        hi = bracket.hi.take(bracket.cells(rows))
        rest = hi.copy()
        rest[clones, j1] = rest[clones, j2] = 0.0
        x = TestGammaRefresh.GAMMA - problem.importance.score_rows(rest) - hi[clones, j1]
        assert a_lo.tobytes() == problem.process._level(x, j2).tobytes()
        # and it is the first move's room of each clone, read from its own row
        assert a_lo.tobytes() == problem.process.room(rows, j2, TestGammaRefresh.GAMMA).tobytes()

    def test_every_moved_row_survives(self):
        seen, problem = refreshed_levels("V", 1.39, "lb")
        for before, cols, _, after in seen:
            assert problem.process.survives(after, problem.gamma).all()
            assert (after != before).any(axis=1).mean() > 0.5
            assert len(np.unique(cols)) == problem.n  # every column is drawn
            untouched = np.ones_like(before, dtype=bool)
            untouched[np.arange(len(cols)), cols] = False
            assert np.array_equal(after[untouched], before[untouched])

    def test_each_parents_room_gathered_is_the_room_of_its_clones(self):
        # the first of each level's moves reads its parents' rooms
        seen, problem = refreshed_levels("V", 1.39, "lb")
        for before, cols, a_lo, _ in seen[::model.ROOM_MOVES]:
            assert np.array_equal(a_lo, problem.process.room(before, cols, problem.gamma))
            assert len(np.unique(a_lo)) < len(a_lo) / 2

    def test_each_clone_moves_two_distinct_columns(self):
        seen, problem = refreshed_levels("V", 1.39, "lb")
        for (_, first, _, _), (_, second, _, _) in zip(seen[::2], seen[1::2]):
            assert not (first == second).any()
            assert len(np.unique(second)) == problem.n


def bisected_room(spec, row, j, gamma):
    """The largest double x with spec.score_rows <= gamma when row's entry
    j is x, by bisection on the doubles' bit patterns (nonnegative x only);
    -inf where even x = 0 fails."""
    def fits(x):
        trial = row.copy()
        trial[j] = x
        return spec.score_rows(trial[None, :])[0] <= gamma

    if not fits(0.0):
        return -math.inf
    lo, hi = 0, int(np.float64(np.inf).view(np.int64))  # fits(lo); hi: inf, or a failing x
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(np.int64(mid).view(np.float64)) else (lo, mid)
    return float(np.int64(lo).view(np.float64))


class TestRoom:
    """``_Aggregate.room`` against a bisection on ``score_rows``, for every
    aggregate with room columns, on rows with ties; and the bracket form,
    ``process.room``, whose level's embedding never exceeds the bisection's
    room on surviving rows.  Sizes and seeds were fixed before the first run."""

    AGGREGATES = [Sum(), WeightedSum((1.0, 0.0, 2.5, 1.0)), OrderedPartialSum(4)]

    def test_room_columns(self):
        assert Sum().room_columns(3) == OrderedPartialSum(3).room_columns(3) == (0, 1, 2)
        assert WeightedSum((1.0, 0.0, 2.5)).room_columns(3) == (0, 2)
        assert OrderedPartialSum(2).room_columns(3) == ()
        assert Ratio(0.1).room_columns(3) == (0,)

    @pytest.mark.parametrize("spec", AGGREGATES, ids=lambda s: s.kind)
    def test_matches_a_bisection_with_ties(self, spec):
        gen = np.random.default_rng(9241)
        rows = np.round(gen.lognormal(0.0, 1.0, size=(60, 4)), 1)  # one decimal: ties
        rows[:10] = rows[:10, :1]  # rows of four equal entries
        columns = spec.room_columns(4)
        cols = np.array(columns).take(gen.integers(0, len(columns), len(rows)))
        gamma = 5.0
        got = spec.room(rows, cols, gamma)
        for row, j, x in zip(rows, cols, got):
            want = bisected_room(spec, row, j, gamma)
            if want == -math.inf:
                assert x < 0
            else:
                assert abs(x - want) <= 2 * np.spacing(gamma), (row, j, x, want)

    @pytest.mark.parametrize("spec,marginals", [
        (Sum(), (LogNormal(0.0, 1.0),) * 4),
        (WeightedSum((1.0, 0.0, 2.5, 1.0)), (LogNormal(0.0, 1.0), Weibull(0.7, 1.0),
                                             Gamma(0.5, 1.0), LogNormal(0.0, 1.0))),
        (OrderedPartialSum(4), (Weibull(0.7, 1.0),) * 4),
    ], ids=["sum", "weighted_sum", "ordered_partial_sum"])
    def test_the_bracket_form_never_exceeds_the_bisection(self, spec, marginals):
        problem = ProblemSpec(marginals, ("I",) * 4, spec, 2.0, "continuous")
        gen = np.random.default_rng(9242)
        g = gen.standard_gamma(0.5, size=(4000, 4))
        g = g[reference_score(problem, g) <= problem.gamma][:400]
        columns = problem.process.room_columns
        cols = columns.take(gen.integers(0, columns.size, len(g)))
        a_lo = problem.process.room(g, cols, problem.gamma)
        x = embed(g, problem.marginals, problem.directions)
        for row, j, level in zip(x, cols, a_lo):
            top = problem.marginals[j].quantile_from_neg_log_tail(np.array([level]), "upper")[0]
            assert top <= bisected_room(spec, row, j, problem.gamma)
        assert (a_lo > 0).mean() > 0.9

    @pytest.mark.parametrize("level", [2000.0, np.inf, np.nan])
    def test_a_level_the_bracket_leaves_open_reads_no_room(self, level):
        # Table VI's interferer or Table V's other column past 2^10, at +inf or
        # NaN: the room reads a NaN bound, and the row gets a_lo = 0, no move
        for table, gamma, j in (("VI", 0.001, 3), ("V", 1.39, 3)):
            problem = preset_problem(load_preset(table), gamma).boxed()[0]
            rows = np.full((2, problem.n), 0.01)
            rows[1, j] = level
            a_lo = problem.process.room(rows, np.zeros(2, dtype=np.intp), gamma)
            assert a_lo[0] > 0 and a_lo[1] == 0.0, (table, a_lo)


def searched_level(bracket, x, col):
    """``_SurvivalBracket.below`` by a plain binary search of column col's
    table for every entry: v_{k-1}, k the entries at most x, 0 for k = 0
    and for a NaN x, which searchsorted counts past the table's NaN slot."""
    start, K = bracket._offsets[col], bracket._last - bracket._first
    k = np.searchsorted(bracket.hi[start:start + K + 1], x, "right") % (K + 1)
    bits = (k + (bracket._first - 1)).view(np.uint64) << np.uint64(52 - _BRACKET_BITS)
    return np.where(k > 0, bits.view(float), 0.0)


# bit patterns: quiet, negative quiet and signalling NaN
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                dtype=np.uint64).view(float)


class TestRoomSearch:
    """``below`` finds a room's level through a guide over the room's bits;
    it must equal the plain search, bit for bit, for every double.  The
    tables: Table V's box at gamma = 1.39, whose top 1,247 entries equal
    the box bound, Table VI's numerator and its decreasing interferers'
    table, which the guide leaves to the search, and the two tables of the
    weighted LogNormal and Gamma sum."""

    TABLES = [(("V", 1.39), 0), (("VI", 0.001), 0), (("VI", 0.001), 1),
              ("two_columns", 0), ("two_columns", 1)]

    @staticmethod
    @functools.cache
    def bracket(problem):
        if problem == "two_columns":
            return TestSumMove.two_columns()[0].process.bracket
        return preset_problem(load_preset(problem[0]), problem[1]).boxed()[0].process.bracket

    def table(self, problem, col):
        bracket = self.bracket(problem)
        start, K = bracket._offsets[col], bracket._last - bracket._first
        return bracket, bracket.hi[start:start + K]

    def assert_same(self, problem, col, x):
        bracket = self.bracket(problem)
        x = np.asarray(x, dtype=float)
        got, want = bracket.below(x, col), searched_level(bracket, x, col)
        assert got.tobytes() == want.tobytes(), x[got.view(np.uint64) != want.view(np.uint64)]

    @pytest.mark.parametrize("problem,col", TABLES)
    def test_fixed_cases(self, problem, col):
        bracket, values = self.table(problem, col)
        tiny = np.finfo(float).smallest_subnormal
        edges = [0.0, -0.0, -1.0, -1e300, -tiny, tiny, 1e-310, 2.2250738585072014e-308,
                 np.inf, -np.inf, np.finfo(float).max, *NANS]
        picked = values[np.unique(np.linspace(0, values.size - 1, 3001).astype(int))]
        top = values[-1]
        above = [top, np.nextafter(top, np.inf), np.nextafter(top, 0.0), 2.0 * top, 1e300]
        for x in (edges, picked, np.nextafter(picked, np.inf), np.nextafter(picked, -np.inf),
                  above, values):
            self.assert_same(problem, col, x)

    def test_rooms_at_the_box_bound_are_searched_not_stepped(self):
        # Table V's top run: the guide's bucket of the bound reads -1
        bracket, values = self.table(("V", 1.39), 0)
        assert (values == 1.39).sum() == 1247
        self.assert_same(("V", 1.39), 0, [1.39, np.nextafter(1.39, 0.0)] * 5)
        first, starts = bracket._guides[bracket._offsets[0]]
        key = (np.float64(1.39).view(np.int64) >> np.int64(52 - model._GUIDE_BITS)) - first
        assert starts[key] == -1 and (starts >= 0).mean() > 0.99

    @pytest.mark.parametrize("problem,col", TABLES)
    @given(x=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                      | st.floats(0.0, 3.0), min_size=1, max_size=40))
    def test_equals_the_plain_search(self, problem, col, x):
        self.assert_same(problem, col, x)

    def test_an_unsorted_or_negative_table_is_searched_throughout(self):
        table = np.array([0.5, 0.25, 1.0, np.nan])
        assert (model._guide(table)[1] == -1).all()
        assert (model._guide(np.array([-1.0, 0.25, 1.0, np.nan]))[1] == -1).all()
        assert (model._guide(np.array([0.25, 0.5, 1.0, np.nan]))[1] >= 0).any()


class CallLog:
    """A generator that records the name of each method called on it."""

    def __init__(self, gen):
        self.gen, self.calls = gen, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.gen, name)


@pytest.mark.parametrize("updates", [1, 4])
@pytest.mark.parametrize("table,gamma,box", [("I", 50.0, False), ("V", 1.39, True)])
def test_refresh_draws_every_update_in_one_batch(table, gamma, box, updates, monkeypatch):
    # one integers call for every column pick and one sampler(t) draw for
    # every proposal, whatever the number of updates: no pass per update
    problem = preset_problem(load_preset(table), gamma)
    problem = problem.boxed()[0] if box else problem
    rows, rng = np.zeros((300, problem.n)), RngStream(5)
    proposed, sampler = [], problem.process.sampler

    def counted(t=1.0):
        draw = sampler(t)
        return lambda gen, c, cols=None: proposed.append((t, c, len(cols))) or draw(gen, c, cols)

    monkeypatch.setattr(problem.process, "sampler", counted)
    rng.gen = CallLog(rng.gen)
    problem.refresh(rows, 0.5, rng, updates)
    assert rng.gen.calls.count("integers") == 1
    assert proposed == [(0.5, updates * 300, updates * 300)]
