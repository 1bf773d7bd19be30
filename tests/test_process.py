import math

import numpy as np
import pytest
from scipy import stats

from raresplit.dist import reg_lower_inc_gamma
from raresplit.process import RngStream, advance_gamma_batch, advance_poisson_batch

KS_1PCT = 1.63  # critical coefficient: reject if D > 1.63 / sqrt(n)


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42).gen.random(100)
        b = RngStream(42).gen.random(100)
        assert np.array_equal(a, b)

    def test_substream_reproducible_and_distinct(self):
        s = RngStream(42)
        a = s.substream(3).gen.random(50)
        b = RngStream(42).substream(3).gen.random(50)
        c = s.substream(4).gen.random(50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_independent_of_parent_consumption(self):
        s = RngStream(7)
        s.gen.random(1000)  # consume the parent
        a = s.substream(0).gen.random(10)
        b = RngStream(7).substream(0).gen.random(10)
        assert np.array_equal(a, b)

    def test_nested_keys(self):
        assert RngStream(1).substream(2, 3).key == (2, 3)
        assert RngStream(1).substream(2).substream(3).key == (2, 3)


class TestAdvanceGamma:
    def test_marginal_law_at_t1(self):
        # any step partition leaves G(1) ~ Gamma(1,1) = Exp(1)
        rng = RngStream(1)
        values = np.zeros((100_000, 1))
        for dt in (0.25, 0.5, 0.25):
            values = advance_gamma_batch(values, dt, rng)
        d = stats.kstest(values[:, 0], "expon").statistic
        assert d < KS_1PCT / math.sqrt(100_000)

    def test_two_step_matches_one_step_moments(self):
        n = 100_000
        rng = RngStream(2)
        two = advance_gamma_batch(advance_gamma_batch(np.zeros((n, 1)), 0.3, rng), 0.7, rng)
        # Gamma(1,1): mean 1, var 1; SE of mean ~ 1/sqrt(n), of var ~ sqrt(8)/sqrt(n)
        assert abs(two.mean() - 1.0) < 3.0 / math.sqrt(n)
        assert abs(two.var() - 1.0) < 3.0 * math.sqrt(8.0) / math.sqrt(n)

    def test_strictly_increasing_paths(self):
        # increments are a.s. positive; ties can only come from float
        # underflow of a tiny Gamma(dt) draw against the accumulated level
        rng = RngStream(3)
        values = np.zeros(4)
        strict = 0
        total = 0
        for _ in range(10):
            new = advance_gamma_batch(values, 0.1, rng)
            assert np.all(new >= values)
            strict += int(np.sum(new > values))
            total += values.size
            values = new
        assert strict >= 0.9 * total

    def test_value_semantics(self):
        rng = RngStream(4)
        values = np.zeros(3)
        advance_gamma_batch(values, 0.5, rng)
        assert np.array_equal(values, np.zeros(3))

    def test_validation(self):
        rng = RngStream(5)
        values = np.zeros(2)
        with pytest.raises(ValueError):
            advance_gamma_batch(values, 0.0, rng)
        with pytest.raises(ValueError):
            advance_gamma_batch(values, -0.1, rng)

    def test_increment_independence(self):
        n = 100_000
        rng = RngStream(6)
        first = advance_gamma_batch(np.zeros((n, 1)), 0.5, rng)
        second = advance_gamma_batch(first, 0.5, rng) - first
        r = np.corrcoef(first[:, 0], second[:, 0])[0, 1]
        assert abs(r) < 4.0 / math.sqrt(n)

    def test_determinism_bit_exact(self):
        a = advance_gamma_batch(np.zeros(5), 0.3, RngStream(99))
        b = advance_gamma_batch(np.zeros(5), 0.3, RngStream(99))
        assert np.array_equal(a, b)


class TestAdvancePoisson:
    def test_marginal_law_at_t1(self):
        n = 100_000
        rng = RngStream(7)
        counts = advance_poisson_batch(np.zeros((n, 1), dtype=np.int64), 1.0,
                                       np.array([1.0]), rng)
        p0 = np.mean(counts[:, 0] == 0)
        se = math.sqrt(math.exp(-1.0) * (1.0 - math.exp(-1.0)) / n)
        assert abs(p0 - math.exp(-1.0)) < 3.0 * se

    def test_dt_additivity_chi_square(self):
        n = 100_000
        rng = RngStream(8)
        halves = advance_poisson_batch(
            advance_poisson_batch(np.zeros((n, 1), dtype=np.int64), 0.5, np.array([1.0]), rng),
            0.5, np.array([1.0]), rng)[:, 0]
        single = advance_poisson_batch(np.zeros((n, 1), dtype=np.int64), 1.0,
                                       np.array([1.0]), rng)[:, 0]
        bins = np.arange(12)  # counts 0..10 plus overflow
        h1 = np.bincount(np.minimum(halves, 11), minlength=12)
        h2 = np.bincount(np.minimum(single, 11), minlength=12)
        table = np.vstack([h1, h2])
        keep = table.sum(axis=0) > 0
        _, p, _, _ = stats.chi2_contingency(table[:, keep])
        assert p > 0.01

    def test_counts_never_decrease(self):
        rng = RngStream(9)
        counts = np.zeros((100, 3), dtype=np.int64)
        rates = np.array([0.5, 1.0, 2.0])
        for _ in range(5):
            new = advance_poisson_batch(counts, 0.2, rates, rng)
            assert np.all(new >= counts)
            counts = new

    def test_validation(self):
        rng = RngStream(10)
        counts = np.zeros((4, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            advance_poisson_batch(counts, 0.0, np.array([1.0, 1.0]), rng)
        with pytest.raises(ValueError):
            advance_poisson_batch(counts, 0.1, np.array([1.0, 0.0]), rng)
        with pytest.raises(ValueError):
            advance_poisson_batch(counts, 0.1, np.array([1.0]), rng)


class TestGammaVariate:
    def test_unit_shape_is_exponential(self):
        rng = RngStream(11)
        draws = rng.gen.gamma(1.0, size=1_000_000)
        assert abs(draws.mean() - 1.0) < 4.0 / math.sqrt(1e6)
        assert abs(draws.var() - 1.0) < 4.0 * math.sqrt(8.0) / math.sqrt(1e6)

    def test_small_shape_left_tail(self):
        # P[draw < 1e-6] must match the Gamma(0.05, 1) CDF
        rng = RngStream(12)
        draws = advance_gamma_batch(np.zeros(200_000), 0.05, rng)
        target = reg_lower_inc_gamma(0.05, 1e-6)
        se = math.sqrt(target * (1.0 - target) / draws.size)
        assert abs(np.mean(draws < 1e-6) - target) < 3.0 * se

    def test_mean_over_million_draws(self):
        rng = RngStream(15)
        shape = 0.7
        draws = advance_gamma_batch(np.zeros(1_000_000), shape, rng)
        se = math.sqrt(shape / draws.size)  # Var[Gamma(k,1)] = k
        assert abs(draws.mean() - shape) < 4.0 * se

    def test_shape_three_moments(self):
        rng = RngStream(13)
        draws = advance_gamma_batch(np.zeros(100_000), 3.0, rng)
        n = draws.size
        assert abs(draws.mean() - 3.0) < 4.0 * math.sqrt(3.0 / n)
        assert abs(draws.var() - 3.0) < 4.0 * math.sqrt(15.0 * 3.0 / n)

    def test_positive_and_validated(self):
        rng = RngStream(14)
        assert np.all(advance_gamma_batch(np.zeros(1000), 0.5, rng) > 0)
        with pytest.raises(ValueError):
            advance_gamma_batch(np.zeros(1), 0.0, rng)
        with pytest.raises(ValueError):
            advance_gamma_batch(np.zeros(1), -1.0, rng)
