import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from raresplit.cli import load_preset, preset_problem
from raresplit.dist import (Exponential, Gamma, LogNormal, Poisson, Truncated, Weibull,
                            GeneralizedGamma, marginal_from_json)
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
from raresplit.process import RngStream, advance_gamma_batch

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
