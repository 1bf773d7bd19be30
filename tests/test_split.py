import concurrent.futures
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from raresplit import model, process
from raresplit.baseline import naive_mc
from raresplit.cli import build_schedule, load_preset, preset_problem, run_estimation
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

    @pytest.mark.parametrize("times", [(math.nan, 1.0), (0.5, math.nan, 1.0)])
    def test_nan_time_rejected(self, times):
        # a NaN fails every comparison, so the ordering checks let it through
        with pytest.raises(ValueError, match="levels must be finite"):
            LevelSchedule(times)

    def test_targets_must_be_survival_probabilities(self):
        with pytest.raises(ValueError, match=r"targets must lie in \(0, 1\]"):
            LevelSchedule((0.5, 1.0), (math.nan, 2.0))


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

    def test_refreshed_table5_replications_refault_no_heap(self):
        # boxed Table V at gamma = 1.39, s = 3000, in a fresh interpreter: after
        # 10 warm-up replications a refreshed one takes about 0 minor page
        # faults.  A level whose pages glibc hands back to the kernel refaults
        # them on every level: trimming the heap at each bracket read took
        # about 3,000 per replication
        src = str(Path(model.__file__).resolve().parent.parent)
        code = f"""
import resource, sys
sys.path.insert(0, {src!r})
from raresplit import RngStream, run_splitting
from raresplit.cli import build_schedule, load_preset, preset_problem
box = preset_problem(load_preset("V"), 1.39).boxed()[0]
schedule = build_schedule(box, RngStream(99), levels_method="lb")
rng = RngStream(5)
for i in range(10):
    run_splitting(box, schedule, 3000, rng.substream(i), refresh=True)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(10, 40):
    run_splitting(box, schedule, 3000, rng.substream(i), refresh=True)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / 30)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 64

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

    def test_refresh_moves_poisson_clones_from_level_two(self, monkeypatch):
        poisson = preset_problem(load_preset("I"), 50.0)
        schedule = lower_bound_schedule(poisson)
        refresh, times = model.ProblemSpec.refresh, []

        def recorded(self, rows, t, rng, updates=1):
            times.append(t)
            refresh(self, rows, t, rng, updates)

        monkeypatch.setattr(model.ProblemSpec, "refresh", recorded)
        plain = [run_splitting(poisson, schedule, 300, RngStream(8, (i,))) for i in range(4)]
        assert not times
        moved = [run_splitting(poisson, schedule, 300, RngStream(8, (i,)), refresh=True)
                 for i in range(4)]
        # level 1 starts at t = 0, where there is nothing to refresh; each
        # later level refreshes at its start time (its level-1 increments come
        # from the sampler's tables, so its counts differ there too)
        assert all(len(r.survivor_counts) == len(schedule) for r in moved)
        assert times == list(schedule.times[:-1]) * 4
        assert plain != moved

    def test_refresh_moves_continuous_clones_from_level_two(self):
        problem = exp_sum_problem(4, 1.0)
        schedule = lower_bound_schedule(problem)
        assert len(schedule) > 1
        plain = [run_splitting(problem, schedule, 200, RngStream(12, (i,))) for i in range(4)]
        moved = [run_splitting(problem, schedule, 200, RngStream(12, (i,)), refresh=True)
                 for i in range(4)]
        # level 1 starts at t = 0, where there is nothing to refresh
        assert [r.survivor_counts[0] for r in plain] == [r.survivor_counts[0] for r in moved]
        assert plain != moved

    def test_a_refreshed_run_builds_each_table_once(self, monkeypatch):
        # Table I's longest CLI schedule (gamma = 30, p_bar = 0.7: 41 levels)
        # reads 2L - 1 = 81 rate vectors per replication: each level's
        # increments at its dt and each later level's refresh at its start
        # time; 80 differ, since level 1's dt is t_1, level 2's refresh time
        problem = preset_problem(load_preset("I"), 30.0)
        schedule = lower_bound_schedule(problem, 0.7)
        times = schedule.times
        reads = [(problem.rates() * t).tobytes()
                 for t in (*times[:-1], *np.diff((0.0, *times)))]
        tables = len(set(reads))
        assert len(schedule) == 41 and (len(reads), tables) == (81, 80)
        built, sampler = [], process._sampler
        monkeypatch.setattr(process, "_sampler", lambda *key: built.append(key) or sampler(*key))
        monkeypatch.setattr(process, "_tables", {})
        for i in (1, 2):
            result = run_splitting(problem, schedule, 300, RngStream(11, (i,)), refresh=True)
            assert len(result.survivor_counts) == len(schedule)
            assert len(built) == len(process._tables) == tables

    def test_the_cli_splits_continuous_problems_plain(self):
        # the CLI refreshes only what ProblemSpec.refreshes names: Table IV's
        # top-n_bar sum (n_bar < n) states no room, so it splits as
        # replicate's default, scaled by the box mass as run_estimation scales it
        problem = preset_problem(load_preset("IV"))
        got = run_estimation(problem, "split", s=300, m=4, seed=1)
        rng = RngStream(1)
        box, log_mass = problem.boxed()
        plain = replicate(box, build_schedule(box, rng, pilot_s=300), 300, 4, rng)
        mass = math.exp(log_mass)
        assert log_mass < 0 and len(plain.levels) > 1 and not problem.refreshes
        assert (got.mean, got.variance, got.levels, got.per_level_survival) == (
            mass * plain.mean, mass * (mass * plain.variance), plain.levels,
            plain.per_level_survival)

    def test_the_cli_refreshes_poisson_counts_a_ratio_and_a_full_sum(self):
        # Table VI's ratio (no box) splits with the numerator's move, and
        # Table V's full sum with the move of a column per parent on its
        # box, as replicate's refresh runs them; of the presets only they
        # and Table I refresh
        tables = ("I", "II", "III", "IV", "V", "VI")
        assert [t for t in tables if preset_problem(load_preset(t)).refreshes] == ["I", "V", "VI"]
        for table, gamma, levels_method in (("VI", 0.003, "iccdf"), ("V", 1.39, "lb")):
            problem = preset_problem(load_preset(table), gamma)
            got = run_estimation(problem, "split", s=300, m=4, levels_method=levels_method,
                                 seed=1)
            rng = RngStream(1)
            box, log_mass = problem.boxed()
            schedule = build_schedule(box, rng, levels_method=levels_method, pilot_s=300)
            assert (log_mass < 0) == (table == "V") and len(schedule) > 2
            refreshed = replicate(box, schedule, 300, 4, rng, refresh=True)
            mass = math.exp(log_mass)
            assert got.per_level_survival == refreshed.per_level_survival
            assert (got.mean, got.variance) == (mass * refreshed.mean,
                                                mass * (mass * refreshed.variance))

    def test_s_validation(self):
        problem = exp_sum_problem()
        with pytest.raises(ValueError):
            run_splitting(problem, LevelSchedule((1.0,)), 1, RngStream(0))


class TestRefreshStreams:
    """Table I at gamma = 50, s = 300: survivor counts at substreams 0, 7 and
    31 of seed 2026 with one refresh update per clone.  Recorded from the
    single-step refresh before its draws were batched, which the batched
    refresh matched, and re-recorded when the refreshed levels began to draw
    their increments from the sampler's tables instead of ``gen.poisson``."""

    PINNED = {0: (42, 31, 34, 39, 26), 7: (41, 28, 42, 42, 51), 31: (39, 39, 55, 42, 37)}

    def runs(self, **options):
        problem = preset_problem(load_preset("I"), 50.0)
        schedule, rng = lower_bound_schedule(problem), RngStream(2026)
        return {i: run_splitting(problem, schedule, 300, rng.substream(i), **options)
                for i in self.PINNED}

    def test_one_update_draws_the_single_step_stream(self, monkeypatch):
        monkeypatch.setattr(model, "REFRESH_UPDATES", 1)
        assert {i: r.survivor_counts for i, r in self.runs(refresh=True).items()} == self.PINNED

    def test_no_refresh_is_the_default_plain_loop(self):
        assert self.runs(refresh=False) == self.runs()


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
        # which build their own survival bracket and refresh samplers; m = 7
        # on two workers maps chunks of 4 and 3 replications
        schedule = lower_bound_schedule(problem)
        assert len(schedule) > 1
        for refresh in (False, True):
            seq = replicate(problem, schedule, 100, 7, RngStream(13), workers=1, refresh=refresh)
            par = replicate(problem, schedule, 100, 7, RngStream(13), workers=2, refresh=refresh)
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

    def test_workers_validation(self):
        # as --workers 0 exits, not run serially
        problem = exp_sum_problem()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            replicate(problem, LevelSchedule((1.0,)), 10, 2, RngStream(0), workers=0)
