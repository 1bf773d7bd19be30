import concurrent.futures
import math
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from raresplit import model
from raresplit.baseline import naive_mc
from raresplit.cli import load_preset, preset_problem
from raresplit.dist import Exponential, LogNormal, Poisson, reg_lower_inc_gamma
from raresplit.model import ProblemSpec, Sum, WeightedSum, embed, importance
from raresplit.process import RngStream
from raresplit.sched import inverse_ccdf_schedule, lower_bound_schedule
from raresplit.split import LevelSchedule, SplitRunResult, replicate, run_splitting


def exp_sum_problem(n=4, gamma=1.5):
    return ProblemSpec((Exponential(1.0),) * n, ("I",) * n, Sum(), gamma, "continuous")


class ScriptedGen:
    """Replays scripted index/increment arrays in call order."""

    def __init__(self, integers_script, increments_script):
        self._integers = list(integers_script)
        self._increments = list(increments_script)

    def integers(self, lo, hi, size):
        out = np.asarray(self._integers.pop(0))
        assert out.size == size and np.all(out < hi)
        return out

    def increments(self, size):
        out = np.asarray(self._increments.pop(0), dtype=float)
        assert out.shape == size
        return out

    def poisson(self, lam, size=None):
        out = np.asarray(self._increments.pop(0))
        assert out.shape == size
        return out


class ScriptedStream:
    def __init__(self, integers_script, increments_script):
        self.gen = ScriptedGen(integers_script, increments_script)
        self.seed = 0
        self.key = ()

    def substream(self, *indices):
        raise AssertionError("scripted stream has no substreams")


@pytest.fixture
def scripted_gamma(monkeypatch):
    """Splitting advances continuous states by the scripted increments."""
    monkeypatch.setattr(model, "advance_gamma_batch",
                        lambda values, dt, rng: values + rng.gen.increments(values.shape))


class TestLevelSchedule:
    def test_valid(self):
        s = LevelSchedule((0.2, 0.7, 1.0))
        assert len(s) == 3

    @pytest.mark.parametrize("times", [
        (), (0.0, 1.0), (-0.1, 1.0), (0.5, 0.5, 1.0), (0.7, 0.4, 1.0), (0.2, 0.9),
    ])
    def test_invalid(self, times):
        with pytest.raises(ValueError):
            LevelSchedule(times)

    def test_targets_one_per_level(self):
        assert LevelSchedule((0.5, 1.0), (0.1, 0.01)).targets == (0.1, 0.01)
        with pytest.raises(ValueError):
            LevelSchedule((0.5, 1.0), (0.1,))


class TestSplitRunResult:
    def test_extinct_at_read_off_the_counts(self):
        assert SplitRunResult(0.125, (1, 1, 1)).extinct_at is None
        assert SplitRunResult(0.0, (1, 0)).extinct_at == 1
        assert SplitRunResult(0.0, (0,)).extinct_at == 0

    def test_underflowed_product_is_no_extinction(self):
        # a long run's product of fractions can round to 0 with every level alive
        assert SplitRunResult(0.0, (1, 1)).extinct_at is None


@pytest.mark.usefixtures("scripted_gamma")
class TestRunSplittingScripted:
    def test_one_survivor_per_level_gives_one_eighth(self):
        # s = 2, L = 3, exactly one of two states survives each level
        problem = exp_sum_problem(n=1, gamma=1.0)
        schedule = LevelSchedule((1 / 3, 2 / 3, 1.0))
        rng = ScriptedStream(
            integers_script=[[0, 1], [0, 0], [0, 0]],
            increments_script=[[[0.5], [2.0]], [[0.3], [1.0]], [[0.1], [0.5]]],
        )
        res = run_splitting(problem, schedule, 2, rng)
        assert res.survivor_counts == (1, 1, 1)
        assert res.estimate == 0.125
        assert res.extinct_at is None

    def test_extinction_short_circuits(self):
        problem = exp_sum_problem(n=1, gamma=1.0)
        schedule = LevelSchedule((1 / 3, 2 / 3, 1.0))
        rng = ScriptedStream(
            integers_script=[[0, 1], [0, 0]],
            increments_script=[[[0.5], [2.0]], [[1.0], [2.0]]],
        )
        res = run_splitting(problem, schedule, 2, rng)
        assert res.estimate == 0.0
        assert res.extinct_at == 1
        assert res.survivor_counts == (1, 0)


class TestRunSplitting:
    def test_estimate_is_product_of_fractions(self):
        problem = exp_sum_problem(4, 0.8)
        schedule = lower_bound_schedule(problem)
        for seed in range(5):
            res = run_splitting(problem, schedule, 100, RngStream(seed))
            expected = math.prod(k / 100 for k in res.survivor_counts) \
                if res.extinct_at is None else 0.0
            assert res.estimate == pytest.approx(expected, rel=1e-12)
            assert 0.0 <= res.estimate <= 1.0

    def test_underflowed_run_reaches_the_end(self):
        # 6,732 lb levels at p_bar = 0.9: the product of fractions underflows to 0
        problem = ProblemSpec((Exponential(1.0),), ("I",), Sum(), 1e-308, "continuous")
        schedule = lower_bound_schedule(problem, p_bar=0.9)
        res = run_splitting(problem, schedule, 10, RngStream(7, (0,)))
        assert len(res.survivor_counts) == len(schedule)
        assert min(res.survivor_counts) > 0
        assert res.estimate == 0.0
        assert res.extinct_at is None

    def test_single_level_is_naive_mc(self):
        # with L = 1 and t_1 = 1 the estimator is a plain MC proportion
        problem = exp_sum_problem(4, 1.5)
        schedule = LevelSchedule((1.0,))
        exact = reg_lower_inc_gamma(4, 1.5)
        m, s = 200, 500
        rng = RngStream(31)
        estimates = [run_splitting(problem, schedule, s, rng.substream(i)).estimate
                     for i in range(m)]
        mean = float(np.mean(estimates))
        se = math.sqrt(exact * (1 - exact) / (m * s))
        assert abs(mean - exact) < 3 * se

    def test_agreement_with_naive_mc_non_rare(self):
        problem = exp_sum_problem(4, 2.5)  # ell ~ 0.24, not rare
        schedule = lower_bound_schedule(problem)
        rep = replicate(problem, schedule, 500, 100, RngStream(5))
        naive = naive_mc(problem, 100_000, RngStream(6))
        se_split = math.sqrt(rep.variance / rep.m)
        se_naive = math.sqrt(naive.variance / naive.m)
        assert abs(rep.mean - naive.mean) < 3 * math.hypot(se_split, se_naive)

    def test_poisson_level_memory_bound(self):
        # a Poisson level draws, scores and keeps its rows block by block;
        # with whole 3000 x 12 temporaries (288 kB each) this run peaked at 1.47 MB
        problem = preset_problem(load_preset("I"), 50.0)
        schedule = LevelSchedule((0.2, 1.0))
        tracemalloc.start()
        try:
            run_splitting(problem, schedule, 3000, RngStream(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_degenerate_threshold_all_survive(self):
        marginals = (Poisson(1.0), Poisson(1.5))
        problem = ProblemSpec(marginals, ("I", "I"), WeightedSum((1.0, 2.0)),
                              1e6, "poisson")
        schedule = LevelSchedule((0.5, 1.0))
        res = run_splitting(problem, schedule, 50, RngStream(3))
        assert res.estimate == 1.0
        assert res.survivor_counts == (50, 50)

    def test_determinism(self):
        problem = exp_sum_problem(4, 1.0)
        schedule = lower_bound_schedule(problem)
        a = run_splitting(problem, schedule, 200, RngStream(11))
        b = run_splitting(problem, schedule, 200, RngStream(11))
        assert a == b

    def test_resampled_parents_satisfy_threshold(self, monkeypatch):
        # S is monotone along the paths, so every parent drawn from a level's
        # survivors still has S <= gamma before it is advanced
        problem = exp_sum_problem(4, 1.0)
        schedule = lower_bound_schedule(problem)
        advance = model.advance_gamma_batch
        seen = []

        def checked(values, dt, rng):
            seen.append(values.shape[0])
            x = embed(values, problem.marginals, problem.directions)
            assert np.all(importance(problem.importance, x) <= problem.gamma)
            return advance(values, dt, rng)

        monkeypatch.setattr(model, "advance_gamma_batch", checked)
        result = run_splitting(problem, schedule, 100, RngStream(1))
        assert len(seen) == len(result.survivor_counts) > 1

    def test_s_validation(self):
        problem = exp_sum_problem()
        with pytest.raises(ValueError):
            run_splitting(problem, LevelSchedule((1.0,)), 1, RngStream(0))


class TestReplicate:
    @pytest.mark.usefixtures("scripted_gamma")
    def test_stub_rng_zero_variance(self):
        problem = exp_sum_problem(n=1, gamma=1.0)
        schedule = LevelSchedule((1.0,))

        class ConstantStream:
            seed = 0

            def substream(self, *indices):
                return ScriptedStream([[0, 0, 0]], [[[0.5], [0.2], [3.0]]])

        rep = replicate(problem, schedule, 3, 5, ConstantStream())
        assert rep.variance == 0.0
        assert rep.re == 0.0
        assert rep.mean == pytest.approx(2 / 3)

    def test_report_contents(self):
        problem = exp_sum_problem(4, 1.5)
        schedule = lower_bound_schedule(problem)
        rep = replicate(problem, schedule, 300, 40, RngStream(9))
        assert rep.method == "split"
        assert rep.m == 40 and rep.s == 300
        assert rep.levels == list(schedule.times)
        assert len(rep.per_level_survival) == len(schedule)
        assert all(0.0 <= p <= 1.0 for p in rep.per_level_survival)
        assert rep.seed == 9
        assert rep.wall_seconds > 0
        assert rep.wnrv == pytest.approx(rep.re ** 2 * rep.wall_seconds)

    def test_deterministic_reports(self):
        problem = exp_sum_problem(4, 1.0)
        schedule = lower_bound_schedule(problem)
        a = replicate(problem, schedule, 100, 10, RngStream(21))
        b = replicate(problem, schedule, 100, 10, RngStream(21))
        assert a.mean == b.mean and a.variance == b.variance
        assert a.per_level_survival == b.per_level_survival

    @pytest.mark.parametrize("problem", [
        pytest.param(exp_sum_problem(4, 1.0), id="exponential-sum"),
        pytest.param(ProblemSpec(tuple(Poisson(1.0 + 0.5 * i) for i in range(4)), ("I",) * 4,
                                 WeightedSum((1.0, 2.0, 0.5, 3.0)), 4.0, "poisson"),
                     id="weighted-poisson-sum"),
        pytest.param(ProblemSpec((LogNormal(0.0, 1.0),) * 3, ("I",) * 3, Sum(), 1.0),
                     id="lognormal-sum"),
    ])
    def test_workers_do_not_change_results(self, problem):
        # the problem and its process object are pickled into the workers,
        # which build their own survival bracket; m = 7 on two workers maps
        # chunks of 4 and 3 replications
        schedule = lower_bound_schedule(problem)
        assert len(schedule) > 1
        seq = replicate(problem, schedule, 100, 7, RngStream(13), workers=1)
        par = replicate(problem, schedule, 100, 7, RngStream(13), workers=2)
        assert seq.mean > 0
        assert seq.mean == par.mean
        assert seq.variance == par.variance
        assert seq.per_level_survival == par.per_level_survival

    def test_pool_tasks_carry_no_bracket(self):
        # Table VI has two (marginal, tail) groups; the parent builds their
        # tables before the pool starts, as the iccdf pilot does
        problem = preset_problem(load_preset("VI"))
        schedule = inverse_ccdf_schedule(problem, RngStream(3), l_pilot=6, s_pilot=200)
        assert "bracket" in vars(problem.process)
        blob = pickle.dumps(problem)
        assert len(blob) < 4096
        levels = RngStream(31).gen.gamma(0.3, size=(2000, problem.n))
        survive = problem.process.survives(levels, problem.gamma)
        assert 0 < survive.sum() < survive.size
        copy = pickle.loads(blob)
        assert np.array_equal(copy.process.survives(levels, copy.gamma), survive)
        par = replicate(problem, schedule, 200, 4, RngStream(5), workers=2)
        seq = replicate(problem, schedule, 200, 4, RngStream(5), workers=1)
        assert par.mean > 0
        assert (par.mean, par.variance) == (seq.mean, seq.variance)
        assert par.per_level_survival == seq.per_level_survival

    def test_boxed_problem_pickles_without_its_tables(self):
        # the box's laws are Truncated ones; a pool task carries the laws
        # alone, and each worker builds the tables of their quantile
        problem = preset_problem(load_preset("V"), 2.3).boxed()[0]
        schedule = lower_bound_schedule(problem)
        levels = RngStream(31).gen.gamma(0.5, size=(2000, problem.n))
        survive = problem.process.survives(levels, problem.gamma)
        assert 0 < survive.sum() < survive.size
        assert "bracket" in vars(problem.process)
        copy = pickle.loads(pickle.dumps(problem))
        assert "bracket" not in vars(copy.process)
        assert np.array_equal(copy.process.survives(levels, copy.gamma), survive)
        par = replicate(problem, schedule, 200, 4, RngStream(5), workers=2)
        seq = replicate(problem, schedule, 200, 4, RngStream(5), workers=1)
        assert par.mean > 0
        assert (par.mean, par.variance) == (seq.mean, seq.variance)
        assert par.per_level_survival == seq.per_level_survival

    def test_pool_capped_at_replications(self, monkeypatch):
        # an in-process stand-in for the pool records the size it was asked
        # for and the chunk size it maps with
        sizes, chunks = [], []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                chunks.append(chunksize)
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        problem = exp_sum_problem(4, 1.0)
        schedule = lower_bound_schedule(problem)
        par = replicate(problem, schedule, 100, 2, RngStream(5), workers=4)
        seq = replicate(problem, schedule, 100, 2, RngStream(5))
        assert sizes == [2] and chunks == [1]
        assert (par.mean, par.variance) == (seq.mean, seq.variance)
        # one usable CPU of the machine's 64 (taskset, a cpuset): no pool at all
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        one = replicate(problem, schedule, 100, 2, RngStream(5), workers=4)
        assert sizes == [2] and (one.mean, one.variance) == (seq.mean, seq.variance)
        # where the OS reports no affinity, the machine's count caps the pool
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        replicate(problem, schedule, 100, 2, RngStream(5), workers=4)
        assert sizes == [2, 2]

    def test_extinct_runs_contribute_zero(self):
        # s = 2 on a moderately rare one-level problem: most runs go extinct
        problem = exp_sum_problem(4, 0.5)
        schedule = LevelSchedule((1.0,))
        rep = replicate(problem, schedule, 2, 60, RngStream(2))
        assert 0.0 <= rep.mean < 1e-2
        if rep.mean == 0.0:
            assert rep.re is None and rep.wnrv is None

    def test_m_validation(self):
        problem = exp_sum_problem()
        with pytest.raises(ValueError):
            replicate(problem, LevelSchedule((1.0,)), 10, 1, RngStream(0))
