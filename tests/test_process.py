import math

import numpy as np
import pytest
from scipy import special, stats

from raresplit.dist import MAX_POISSON_RATE, Poisson, poisson_cdf_at, reg_lower_inc_gamma
from raresplit.model import ProblemSpec, WeightedSum
from raresplit.process import RngStream, advance_gamma_batch, poisson_sampler

KS_1PCT = 1.63  # critical coefficient: reject if D > 1.63 / sqrt(n)


def ks_distance_above(draws, cdf, floor):
    """Kolmogorov-Smirnov distance between the draws' empirical CDF and
    ``cdf``, taken over x >= floor only.  Draws below the floor still count
    in the empirical CDF, so the distance is at most the full KS distance,
    and the full test's critical value still holds; the floor keeps draws
    that underflowed to 0 out of the supremum."""
    x = np.sort(draws)
    n = x.size
    first = np.searchsorted(x, floor)
    f = cdf(x[first:])
    ranks = np.arange(first, n)
    return max(abs(first / n - cdf(floor)),
               float(np.max((ranks + 1) / n - f, initial=0.0)),
               float(np.max(f - ranks / n, initial=0.0)))


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


def poisson_problem(*rates):
    """A Poisson problem on these rates whose threshold no count reaches;
    only its ``step`` is used here."""
    return ProblemSpec(tuple(Poisson(lam) for lam in rates), ("I",) * len(rates),
                       WeightedSum((1.0,) * len(rates)), 1e300, "poisson")


def advance(problem, states, dt, rng):
    """``problem.step`` on every row of ``states``, each of which survives."""
    out = problem.step(states, np.arange(len(states)), dt, rng)
    assert out.shape == states.shape
    return out


class TestAdvancePoisson:
    """ProblemSpec.step on a Poisson problem: the jump process's law."""

    def test_marginal_law_at_t1(self):
        n = 100_000
        rng = RngStream(7)
        counts = advance(poisson_problem(1.0), np.zeros((n, 1)), 1.0, rng)
        p0 = np.mean(counts[:, 0] == 0)
        se = math.sqrt(math.exp(-1.0) * (1.0 - math.exp(-1.0)) / n)
        assert abs(p0 - math.exp(-1.0)) < 3.0 * se

    def test_dt_additivity_chi_square(self):
        n = 100_000
        rng = RngStream(8)
        problem = poisson_problem(1.0)
        halves = advance(problem, advance(problem, np.zeros((n, 1)), 0.5, rng), 0.5, rng)[:, 0]
        single = advance(problem, np.zeros((n, 1)), 1.0, rng)[:, 0]
        h1 = np.bincount(np.minimum(halves, 11).astype(int), minlength=12)  # 0..10, overflow
        h2 = np.bincount(np.minimum(single, 11).astype(int), minlength=12)
        table = np.vstack([h1, h2])
        keep = table.sum(axis=0) > 0
        _, p, _, _ = stats.chi2_contingency(table[:, keep])
        assert p > 0.01

    @pytest.mark.parametrize("dt", [0.05, 0.7])
    def test_refreshed_level_law_chi_square(self, dt):
        # a refreshed run's level adds one draw of X(dt) from the sampler's
        # tables; at its first level (refresh_at 0.0) nothing is refreshed,
        # and no count reaches the threshold, so each row's increment is the draw
        n, rates = 200_000, (0.5, 3.0, 40.0)
        states = RngStream(40).gen.poisson(rates, size=(n, len(rates))).astype(float)
        out = poisson_problem(*rates).step(states, np.arange(n), dt, RngStream(41),
                                           refresh_at=0.0)
        assert out.shape == states.shape
        for lam, col in zip(rates, (out - states).astype(np.int64).T):
            assert poisson_chi_square_p(np.bincount(col), lam * dt) > 1e-3, lam

    def test_counts_never_decrease(self):
        rng = RngStream(9)
        problem = poisson_problem(0.5, 1.0, 2.0)
        counts = np.zeros((100, 3))
        for _ in range(5):
            new = advance(problem, counts, 0.2, rng)
            assert np.all(new >= counts)
            assert np.array_equal(new, np.round(new))
            counts = new

    def test_validation(self):
        rng = RngStream(10)
        problem = poisson_problem(1.0, 1.0)
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            advance(problem, np.zeros((4, 2)), 0.0, rng)
        with pytest.raises(ValueError):
            advance(problem, np.zeros((4, 3)), 0.1, rng)  # one rate per column
        with pytest.raises(ValueError):
            Poisson(0.0)


SAMPLER_RATES = [1e-6, 0.26, 0.83, 3.2, 9.99, 10.01, 50.0, 1e4]


def poisson_chi_square_p(counts, lam):
    """p-value of ``counts[k]``, the draws equal to k, against Poisson(lam).
    Cells of consecutive k are merged until each expects at least 2 draws
    (the draws of a tiny rate have no more to give); the last cell holds
    every k above the others."""
    n = counts.sum()
    cdf = stats.poisson.cdf(np.arange(counts.size), lam)
    edges, below = [], 0.0
    for k, f in enumerate(cdf):
        if n * (f - below) >= 2 and n * (1.0 - f) >= 2:
            edges.append(k)
            below = f
    observed = np.diff(np.cumsum(counts)[edges], prepend=0, append=n)
    expected = n * np.diff(cdf[edges], prepend=0.0, append=1.0)
    return stats.chisquare(observed, expected).pvalue


class _FixedUniforms:
    """Stands in for a Generator whose ``random`` returns one value."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


class TestPoissonSampler:
    def test_law_chi_square(self):
        draw = poisson_sampler(SAMPLER_RATES)
        gen = RngStream(31).gen
        counts = np.zeros((len(SAMPLER_RATES), 12_000), dtype=np.int64)
        for _ in range(40):  # 2.6 M draws per column, 65536 rows at a time
            for j, col in enumerate(draw(gen, 1 << 16).astype(np.int64).T):
                counts[j] += np.bincount(col, minlength=counts.shape[1])
        for lam, col in zip(SAMPLER_RATES, counts):
            assert poisson_chi_square_p(col, lam) > 1e-3, lam

    def test_inverts_the_cdf_of_the_same_uniforms(self):
        # X = min{k : u < F(k)}, which scipy's ppf gives but at u == F(k)
        u = RngStream(32).gen.random((20_000, len(SAMPLER_RATES)))
        x = poisson_sampler(SAMPLER_RATES)(RngStream(32).gen, 20_000)
        assert np.array_equal(x, stats.poisson.ppf(u, SAMPLER_RATES))

    def test_cols_law_chi_square(self, monkeypatch):
        # one count per row from a random column; the tails of 50 and 1e4 hold
        # guide bins with several jumps of F, which the binary search settles.
        # Rate 1e-6 is left out: its 370,000 draws would expect one count above 0
        rates = SAMPLER_RATES[1:]
        draw = poisson_sampler(rates)
        search, searches = np.searchsorted, []
        monkeypatch.setattr(np, "searchsorted",
                            lambda *args, **kw: searches.append(1) or search(*args, **kw))
        gen, n = RngStream(36).gen, len(rates)
        counts = np.zeros((n, 12_000), dtype=np.int64)
        for _ in range(40):  # 2.6 M draws, about 370,000 per column
            cols = gen.integers(0, n, size=1 << 16)
            x = draw(gen, cols.size, cols).astype(np.int64)
            for j in range(n):
                counts[j] += np.bincount(x[cols == j], minlength=counts.shape[1])
        assert searches
        for lam, col in zip(rates, counts):
            assert poisson_chi_square_p(col, lam) > 1e-3, lam

    def test_cols_invert_the_cdf_of_the_same_uniforms(self):
        cols = RngStream(37).gen.integers(0, len(SAMPLER_RATES), size=20_000)
        u = RngStream(32).gen.random(20_000)
        x = poisson_sampler(SAMPLER_RATES)(RngStream(32).gen, 20_000, cols)
        assert x.shape == (20_000,) and x.dtype == np.float64
        assert np.array_equal(x, stats.poisson.ppf(u, np.take(SAMPLER_RATES, cols)))

    @pytest.mark.parametrize("c,cols", [(3, [0, 1]), (2, [0, 2]), (2, [-1, 0]), (1, [[0]])])
    def test_bad_cols_rejected(self, c, cols):
        with pytest.raises(ValueError, match="cols"):
            poisson_sampler([1.0, 2.0])(RngStream(38).gen, c, cols)

    def test_counts_do_not_depend_on_the_blocks(self):
        draw = poisson_sampler([0.3, 4.0, 1e4])
        gen = RngStream(33).gen
        parts = [draw(gen, c) for c in (1, 0, 700, 5000)]
        assert np.array_equal(np.concatenate(parts), draw(RngStream(33).gen, 5701))

    def test_ends_of_the_table(self):
        rates = [1e-6, 3.2, 1e4]
        k = np.arange(11_000.0)
        cdf = [poisson_cdf_at(lam, k) for lam in rates]
        lowest = [np.argmax(f > 0) for f in cdf]  # 0, 0 and about 6469
        top = [np.argmax(f == 1.0) for f in cdf]
        draw = poisson_sampler(rates)
        assert lowest[2] > 6000
        assert np.array_equal(draw(_FixedUniforms(0.0), 2), [lowest] * 2)
        assert np.array_equal(draw(_FixedUniforms(1.0 - 2.0 ** -53), 1), [top])

    def test_shape_and_float_counts(self):
        draw = poisson_sampler([1.0, 2.0])
        assert draw(RngStream(34).gen, 0).shape == (0, 2)
        x = draw(RngStream(34).gen, 3)
        assert x.shape == (3, 2) and x.dtype == np.float64

    def test_rate_at_cap(self):
        # the cap's table (about 80,000 entries) is built and draws its mean
        c = 4000
        x = poisson_sampler([MAX_POISSON_RATE])(RngStream(35).gen, c)
        assert abs(x.mean() - MAX_POISSON_RATE) < 4.0 * math.sqrt(MAX_POISSON_RATE / c)

    @pytest.mark.parametrize("rates", [[1.0, math.nan], [math.inf], [0.0], [-1.0], [],
                                       [[1.0, 2.0]],
                                       [1.0, math.nextafter(MAX_POISSON_RATE, math.inf)]])
    def test_bad_rates_rejected(self, rates):
        with pytest.raises(ValueError, match="rates"):
            poisson_sampler(rates)


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

    @pytest.mark.parametrize("shape", [1e-3, 0.036, 0.1, 0.22, 0.5, 1.0, 2.5, 3.0])
    def test_ks_against_gamma_law(self, shape):
        # shapes below 1 are drawn by GS rejection alone, 1 takes its tail
        # branch on every entry, and 2.5 and 3.0 add exponentials to it;
        # at 1e-3 about 47% of the draws underflow to exactly 0
        n = 100_000
        draws = advance_gamma_batch(np.zeros(n), shape, RngStream(16))
        d = ks_distance_above(draws, stats.gamma(shape).cdf, 1e-300)
        assert d < KS_1PCT / math.sqrt(n)

    def test_mean_log_is_digamma(self):
        # E[log X] = psi(a) and Var[log X] = psi'(a): a test of the far
        # left tail, where U^(1/a) carries the draws down to 1e-300
        shape, n = 0.05, 200_000
        logs = np.log(advance_gamma_batch(np.zeros(n), shape, RngStream(17)))
        se = math.sqrt(special.polygamma(1, shape) / n)
        assert abs(logs.mean() - special.digamma(shape)) < 4.0 * se

    @pytest.mark.parametrize("shape", [(7,), (40, 3), (0, 4)])
    def test_output_shape_and_values(self, shape):
        values = np.arange(math.prod(shape), dtype=float).reshape(shape)
        for dt in (0.3, 2.5):
            out = advance_gamma_batch(values, dt, RngStream(18))
            assert out.shape == shape and out.dtype == float
            assert np.all(out >= values)

    @pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="finite"):
            advance_gamma_batch(np.zeros(3), dt, RngStream(19))

    def test_positive_and_validated(self):
        rng = RngStream(14)
        assert np.all(advance_gamma_batch(np.zeros(1000), 0.5, rng) > 0)
        with pytest.raises(ValueError):
            advance_gamma_batch(np.zeros(1), 0.0, rng)
        with pytest.raises(ValueError):
            advance_gamma_batch(np.zeros(1), -1.0, rng)
