import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from raresplit.cli import parse_scenario
from raresplit.dist import Exponential, Gamma, LogNormal, Poisson, Weibull, GeneralizedGamma
from raresplit.model import (
    _BRACKET_CELLS,
    _BRACKET_G_MAX,
    _BRACKET_G_MIN,
    OrderedPartialSum,
    ProblemSpec,
    Ratio,
    Sum,
    WeightedSum,
    embed,
    importance,
    is_quasi_monotone_witness,
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


class TestQuasiMonotoneWitness:
    def test_sanctioned_pairs(self):
        assert is_quasi_monotone_witness(Sum(), ("I", "I", "I"))
        assert is_quasi_monotone_witness(Ratio(1.0), ("I", "D", "D"))
        assert is_quasi_monotone_witness(OrderedPartialSum(2), ("I", "I", "I"))
        assert is_quasi_monotone_witness(WeightedSum((1.0, 2.0)), ("I", "I"))

    def test_rejected_pairs(self):
        assert not is_quasi_monotone_witness(Ratio(1.0), ("I", "I", "I"))
        assert not is_quasi_monotone_witness(Ratio(1.0), ("D", "D"))
        assert not is_quasi_monotone_witness(Sum(), ("I", "D"))
        assert not is_quasi_monotone_witness(WeightedSum((1.0,)), ("D",))

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
        with pytest.raises(ValueError):
            ProblemSpec(marginals, ("I", "I"), Sum(), 3.0, "poisson")
        with pytest.raises(ValueError):
            ProblemSpec((Poisson(1.0), Exponential(1.0)), ("I", "I"),
                        WeightedSum((1.0, 2.0)), 3.0, "poisson")

    def test_continuous_rejects_poisson_marginals(self):
        with pytest.raises(ValueError):
            ProblemSpec((Poisson(1.0),), ("I",), Sum(), 1.0, "continuous")

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
        p = ProblemSpec((Exponential(1.0),) * 2, ("I", "I"), Sum(), 1.0, "continuous")
        assert np.allclose(p.score(np.array([[0.2, 0.3]])), [0.5])
        q = ProblemSpec((Poisson(1.0), Poisson(1.0)), ("I", "I"),
                        WeightedSum((1.0, 2.0)), 3.0, "poisson")
        assert np.allclose(q.score(np.array([[1, 1]])), [3.0])

    def test_json_round_trip(self, tmp_path):
        specs = [
            ProblemSpec((Exponential(1.0),) * 4, ("I",) * 4, Sum(), 1.5, "continuous"),
            ProblemSpec((Weibull(0.5, 1.0),) * 8, ("I",) * 8,
                        OrderedPartialSum(4), 1.0, "continuous"),
            ProblemSpec((LogNormal(2.0, 0.6), LogNormal(0.0, 0.9)), ("I", "D"),
                        Ratio(0.1), 0.02, "continuous"),
            ProblemSpec((Poisson(1.0), Poisson(1.2)), ("I", "I"),
                        WeightedSum((1.0, 2.0)), 30.0, "poisson"),
        ]
        path = tmp_path / "scenario.json"
        for p in specs:
            path.write_text(json.dumps(p.to_json()))
            assert parse_scenario(path) == (p, {})


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


def grid_point(j):
    """The survival bracket's j-th grid point, computed as the bracket does."""
    shift = math.log(_BRACKET_G_MIN)
    h = (math.log(_BRACKET_G_MAX) - shift) / _BRACKET_CELLS
    return float(np.exp(shift + h * np.arange(_BRACKET_CELLS + 1))[j])


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
    st.floats(1e-300, _BRACKET_G_MIN * 0.999),
    st.integers(0, _BRACKET_CELLS).map(grid_point),
    st.floats(_BRACKET_G_MAX * 1.001, 1e6),
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSurvives:
    """ProblemSpec.survives decides each row from a bracket of tabulated
    quantiles and must equal score(states) <= gamma exactly, without
    RuntimeWarnings from the infinite ends of the bracket."""

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
        # 740: a finite quantile whose bracket may reach +inf; 1e4: +inf itself,
        # which makes a zero-weight column's score NaN
        g = neighbours(base, levels=(740.0, 1e4))
        probe = ProblemSpec(marginals, directions, spec, 0.0)
        scores = probe.score(g)
        finite = scores[np.isfinite(scores)]
        gamma = float(data.draw(st.sampled_from(finite))) if finite.size else 1.0
        problem = ProblemSpec(marginals, directions, spec, gamma)
        got = problem.survives(g)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, problem.score(g) <= gamma)

    @pytest.mark.parametrize("marginal,direction", [
        (LogNormal(0.0, 2.0), "I"), (Gamma(0.5, 1.0), "I"), (LogNormal(1.0, 0.5), "D"),
    ])
    def test_cell_edges(self, marginal, direction):
        # rows on grid points and one ulp either side, with gamma at each
        # row's own score: a bracket without its slack cells gets these wrong
        marginals = (LogNormal(0.0, 1.0), marginal) if direction == "D" else (marginal,)
        directions = ("I", "D") if direction == "D" else ("I",)
        spec = Ratio(0.1) if direction == "D" else Sum()
        js = np.linspace(0, _BRACKET_CELLS, 120).astype(int)
        col = np.concatenate([neighbours(np.array([grid_point(j)]))[:, 0] for j in js])
        g = np.column_stack([np.full_like(col, 0.5)] * (len(marginals) - 1) + [col])
        scores = ProblemSpec(marginals, directions, spec, 0.0).score(g)
        for gamma in scores[np.isfinite(scores)][::7]:
            problem = ProblemSpec(marginals, directions, spec, float(gamma))
            np.testing.assert_array_equal(problem.survives(g), problem.score(g) <= gamma)

    def test_zero_weight_on_infinite_column(self):
        # g = 1e4 sends the zero-weight column's quantile to +inf, so the
        # score is 0 * inf = NaN and the row fails; at g = 740 the column is
        # finite but its bracket's upper end is not
        problem = ProblemSpec((LogNormal(0.0, 1.0),) * 2, ("I", "I"),
                              WeightedSum((1.0, 0.0)), 2.0)
        g = np.array([[0.1, 1e4], [0.1, 740.0], [0.1, np.inf], [5.0, 740.0], [0.1, 0.1]])
        scores = problem.score(g)
        assert np.isnan(scores[0]) and np.isnan(scores[2])
        np.testing.assert_array_equal(problem.survives(g), [False, True, False, False, True])

    def test_poisson_and_closed_form_problems_score_directly(self):
        poisson = ProblemSpec((Poisson(1.0), Poisson(2.0)), ("I", "I"),
                              WeightedSum((1.0, 2.0)), 3.0, "poisson")
        counts = np.array([[0, 1], [3, 0], [2, 1]])
        np.testing.assert_array_equal(poisson.survives(counts), [True, True, False])
        weibull = ProblemSpec((Weibull(0.5, 1.0), Exponential(2.0)), ("I", "I"),
                              OrderedPartialSum(1), 0.5)
        assert weibull._bracket is None
        g = np.array([[0.2, 0.9], [0.8, 0.1]])
        np.testing.assert_array_equal(weibull.survives(g), weibull.score(g) <= 0.5)

    def test_single_state(self):
        problem = ProblemSpec((LogNormal(0.0, 1.0), Gamma(2.0, 1.0)), ("I", "D"), Ratio(0.1), 0.5)
        for g in ([0.0, 0.0], [0.3, 2.0], [2.0, 0.3], [1e-40, 1e4]):
            state = np.array(g)
            assert problem.survives(state) == (problem.score(state) <= 0.5)

    def test_negative_level_raises_like_score(self):
        problem = ProblemSpec((LogNormal(0.0, 1.0),) * 2, ("I", "I"), Sum(), 2.0)
        with pytest.raises(ValueError, match="g must be >= 0"):
            problem.score(np.array([[0.1, -1.0]]))
        with pytest.raises(ValueError, match="g must be >= 0"):
            problem.survives(np.array([[0.1, -1.0]]))
