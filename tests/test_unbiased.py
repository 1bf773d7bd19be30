"""Unbiasedness at every level of a splitting run.

In fixed-effort splitting every prefix prod_{j<=l} k_j / s of a run's
product is itself unbiased for c(t_l) = P[S(X(t_l)) <= gamma], and the
sample-free engine (``curve.survival_bracket``) gives c(t_l) for each family
below, so a bias in the draws, the embedding, the survival decision or the
resampling shows at the first level where it enters.  Level 1 is plain MC
over s * runs states, so its z is sharp.  Three families are box-truncated
problems, which ``run_estimation`` splits for every sum.

The rule: at every level the mean prefix over ``RUNS`` runs lies within
``Z_MAX`` standard errors beyond the bracket's half-width.  A bracketed
family's reference is the engine on its own, finer number of cells, so
that its half-width stays a small fraction of a standard error.  The
problems, seeds and threshold were fixed before the gate's first run; a
failure is a finding about the program, never a reason to re-pick them.

The Poisson family, which the CLI splits with the clones' refresh
(``run_splitting(..., refresh=True)``, ``model.REFRESH_UPDATES`` = 3
updates per clone), also runs with it, at one update and at three, and so
does one continuous family with no room, the boxed top-2 of 3 LogNormal;
their seeds and rule are the families' own, fixed before their first
refreshed runs.  The families whose aggregate states a room, which the
CLI splits with the move of a column within it (``ProblemSpec.step``), run
with the move on their own seeds and rule: the LogNormal ratio, the boxed
exponential sum, and the unboxed weighted sum of two laws, whose clones
move two distinct columns each (``model.ROOM_MOVES``).

The gate tests its own power: the same harness, at the same scale and
seeds, must fail a Gamma level whose shape is 0.5% too large, Poisson
jumps whose rates are 1% too large, in the plain loop and in the
refreshed levels' draw from the sampler's tables, a level loop that
resamples its parents from every advanced state, failures included, a
refresh that keeps the proposals that fail S <= gamma, at one update and
at three, moves whose a_lo lies 10% above the room's, on the ratio
and on the exponential sum (every move of a clone), and on both full
sums a second move whose column repeats the first once in m.  (A room
read from the bracket's ``lo`` bounds puts about 0.3% of the ratio's
moved clones outside the true room per level, below this scale's
resolution: ``test_model``'s law tests catch it.)
"""

import dataclasses

import numpy as np
import pytest

from raresplit import curve, model
from raresplit.curve import survival_bracket
from raresplit.dist import Exponential, Gamma, LogNormal, Poisson, Weibull
from raresplit.model import OrderedPartialSum, ProblemSpec, Ratio, Sum, WeightedSum
from raresplit.process import RngStream, advance_gamma_batch
from raresplit.sched import lower_bound_schedule
from raresplit.split import SplitRunResult, run_splitting

S = 200
RUNS = 4000
Z_MAX = 4.0

# name -> (problem, seed of the runs, cells of its bracket; None where the curve is exact)
FAMILIES = {
    "poisson_weighted_sum": (
        ProblemSpec((Poisson(6.0), Poisson(4.0), Poisson(3.0)), ("I",) * 3,
                    WeightedSum((1.0, 2.0, 3.0)), 4.0, "poisson"), 9101, None),
    "exponential_sum": (
        ProblemSpec((Exponential(1.0),) * 4, ("I",) * 4, Sum(), 0.1, "continuous"), 9102, None),
    "lognormal_ratio": (
        ProblemSpec((LogNormal(1.0, 0.8), LogNormal(0.0, 0.6)), ("I", "D"), Ratio(0.2),
                    0.01, "continuous"), 9103, None),
    "top2_of_3_lognormal": (
        ProblemSpec((LogNormal(0.0, 1.0),) * 3, ("I",) * 3, OrderedPartialSum(2), 0.3,
                    "continuous"), 9104, 4096),
    # the box-truncated problems that splitting runs on (ProblemSpec.boxed):
    # laws truncated to [0, gamma], whose curve the engine brackets
    "boxed_exponential_sum": (
        ProblemSpec((Exponential(1.0),) * 4, ("I",) * 4, Sum(), 0.3,
                    "continuous").boxed()[0], 9105, 4096),
    "boxed_top2_of_3_lognormal": (
        ProblemSpec((LogNormal(0.0, 1.0),) * 3, ("I",) * 3, OrderedPartialSum(2), 0.3,
                    "continuous").boxed()[0], 9106, 4096),
    # the law of Tables II-III on its upper tail
    "boxed_top2_of_3_weibull": (
        ProblemSpec((Weibull(0.7, 1.0),) * 3, ("I",) * 3, OrderedPartialSum(2), 0.3,
                    "continuous").boxed()[0], 9107, 4096),
    # a weighted sum of two different laws, one of them Gamma-power, in two
    # quantile groups; run unboxed, since its box leaves one level and the
    # plain problem has three
    "weighted_lognormal_gamma": (
        ProblemSpec((LogNormal(0.0, 1.5), Gamma(0.5, 1.0)), ("I", "I"), WeightedSum((1.0, 2.0)),
                    0.05, "continuous"), 9108, 4096),
}


def prefix_estimates(problem, schedule, s, runs, rng, refresh=False):
    """(runs, levels) array whose row i holds the prefix products
    prod_{j<=l} k_j / s of run i, on ``rng.substream(i)``; 0 from the
    level where the run went extinct."""
    out = np.zeros((runs, len(schedule)))
    for i in range(runs):
        counts = run_splitting(problem, schedule, s, rng.substream(i),
                               refresh=refresh).survivor_counts
        out[i, :len(counts)] = np.cumprod(np.asarray(counts) / s)
    return out


def excess_z(prefixes, lo, hi):
    """Per level, the standard errors by which the mean prefix lies outside
    [lo, hi]; at most 0 inside it."""
    mean = prefixes.mean(axis=0)
    se = prefixes.std(axis=0, ddof=1) / np.sqrt(prefixes.shape[0])
    return (np.abs(mean - 0.5 * (lo + hi)) - 0.5 * (hi - lo)) / se


def gate_z(family, monkeypatch, runs_on=None, updates=0):
    """The gate's excess z at every level of ``family``: its runs go on
    ``runs_on`` (the family's own problem by default), with ``updates``
    refresh updates per clone (0: the plain loop); its schedule and bracket
    always come from the family's problem."""
    if updates:
        monkeypatch.setattr(model, "REFRESH_UPDATES", updates)
    problem, seed, cells = FAMILIES[family]
    schedule = lower_bound_schedule(problem)
    if cells is not None:
        monkeypatch.setattr(curve, "CELLS", cells)
    lo, hi = survival_bracket(problem, schedule.times)
    assert np.array_equal(lo, hi) == (cells is None)
    prefixes = prefix_estimates(runs_on or problem, schedule, S, RUNS, RngStream(seed),
                                updates > 0)
    return excess_z(prefixes, lo, hi)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_prefix_is_unbiased(family, monkeypatch):
    z = gate_z(family, monkeypatch)
    assert (z <= Z_MAX).all(), z


def test_every_prefix_is_unbiased_with_the_refresh(monkeypatch):
    z = gate_z("poisson_weighted_sum", monkeypatch, updates=1)
    assert (z <= Z_MAX).all(), z


def test_every_prefix_of_a_continuous_family_is_unbiased_with_the_refresh(monkeypatch):
    # a top-n_bar sum below n states no room, so its levels take the updates
    z = gate_z("boxed_top2_of_3_lognormal", monkeypatch, updates=1)
    assert (z <= Z_MAX).all(), z


@pytest.mark.parametrize("family", ["poisson_weighted_sum", "boxed_top2_of_3_lognormal"])
def test_every_prefix_is_unbiased_with_three_refresh_updates(family, monkeypatch):
    z = gate_z(family, monkeypatch, updates=3)
    assert (z <= Z_MAX).all(), z


def test_every_prefix_of_the_ratio_is_unbiased_with_the_numerator_move(monkeypatch):
    # a refreshed ratio level moves the numerator, whatever REFRESH_UPDATES is
    z = gate_z("lognormal_ratio", monkeypatch, updates=model.REFRESH_UPDATES)
    assert (z <= Z_MAX).all(), z


@pytest.mark.parametrize("family", ["boxed_exponential_sum", "weighted_lognormal_gamma"])
def test_every_prefix_of_a_full_sum_is_unbiased_with_the_move(family, monkeypatch):
    # a refreshed level of a full sum moves model.ROOM_MOVES = 2 distinct
    # columns of each clone: the first within its parent's room, the second
    # within the clone's own
    assert model.ROOM_MOVES == 2
    z = gate_z(family, monkeypatch, updates=model.REFRESH_UPDATES)
    assert (z <= Z_MAX).all(), z


def room_above_the_brackets(monkeypatch):
    """Make every move's a_lo, ``process._level``'s, 10% above the bracket's."""
    level = model._GammaEmbedding._level
    monkeypatch.setattr(model._GammaEmbedding, "_level",
                        lambda self, x, cols: 1.1 * level(self, x, cols))


def test_gate_fails_a_numerator_move_past_its_room(monkeypatch):
    room_above_the_brackets(monkeypatch)
    z = gate_z("lognormal_ratio", monkeypatch, updates=model.REFRESH_UPDATES)
    assert (z > Z_MAX).any(), z


def test_gate_fails_a_sum_move_past_its_room(monkeypatch):
    room_above_the_brackets(monkeypatch)
    z = gate_z("boxed_exponential_sum", monkeypatch, updates=model.REFRESH_UPDATES)
    assert (z > Z_MAX).any(), z


@pytest.mark.parametrize("family", ["boxed_exponential_sum", "weighted_lognormal_gamma"])
def test_gate_fails_a_second_move_on_the_same_column(family, monkeypatch):
    # the second pick (j1 + 1 + U{0..m-1}) mod m repeats the first once in m,
    # and that move's room then reads the column it moves; every row survives
    def picks(gen, m, c, depth):
        first = gen.integers(0, m, c)
        return np.stack([first, (first + 1 + gen.integers(0, m, c)) % m], axis=1)

    monkeypatch.setattr(model, "_room_picks", picks)
    z = gate_z(family, monkeypatch, updates=model.REFRESH_UPDATES)
    assert (z > Z_MAX).any(), z


def test_gate_fails_a_refresh_that_keeps_rejected_proposals(monkeypatch):
    def refresh_keeping_all(self, rows, t, rng, updates=1):
        cols = rng.gen.integers(0, rows.shape[1], size=(updates, len(rows)))
        draw = self.process.sampler(t)
        proposals = draw(rng.gen, cols.size, cols.ravel()).reshape(cols.shape)
        for picked, new in zip(cols, proposals):
            rows[np.arange(len(rows)), picked] = new

    monkeypatch.setattr(model.ProblemSpec, "refresh", refresh_keeping_all)
    for family in ("poisson_weighted_sum", "boxed_top2_of_3_lognormal"):
        for updates in (1, 3):
            z = gate_z(family, monkeypatch, updates=updates)
            assert (z > Z_MAX).any(), (family, updates, z)


@pytest.mark.parametrize("family", ["exponential_sum", "lognormal_ratio"])
def test_gate_fails_a_gamma_shape_mutant(family, monkeypatch):
    monkeypatch.setattr(model, "advance_gamma_batch",
                        lambda values, dt, rng: advance_gamma_batch(values, 1.005 * dt, rng))
    z = gate_z(family, monkeypatch)
    assert (z > Z_MAX).any(), z


def test_gate_fails_a_poisson_rate_mutant(monkeypatch):
    problem = FAMILIES["poisson_weighted_sum"][0]
    faster = dataclasses.replace(problem, marginals=[Poisson(m.lam * 1.01)
                                                     for m in problem.marginals])
    z = gate_z("poisson_weighted_sum", monkeypatch, runs_on=faster)
    assert (z > Z_MAX).any(), z


def test_gate_fails_a_poisson_rate_mutant_in_the_refreshed_draw(monkeypatch):
    # the refreshed levels' increments come from the sampler's tables
    # (process.sampler(dt)), not gen.poisson; make those 1% too fast
    sampler = model._PoissonJumps.sampler
    monkeypatch.setattr(model._PoissonJumps, "sampler",
                        lambda self, t=1.0: sampler(self, 1.01 * t))
    z = gate_z("poisson_weighted_sum", monkeypatch, updates=3)
    assert (z > Z_MAX).any(), z


def resample_from_every_state(problem, schedule, s, rng, refresh=False):
    """``run_splitting`` with a resampling fault: each level's parents are
    drawn from all s states the last level advanced, failures included,
    while the counts still count only the survivors.  It takes no refresh:
    the gate runs it on a plain loop only."""
    current, counts = np.zeros((s, problem.n)), []
    for t0, t1 in zip((0.0, *schedule.times), schedule.times):
        idx = rng.gen.integers(0, s, size=s)
        current = advance_gamma_batch(current[idx], t1 - t0, rng)
        counts.append(int(problem.process.survives(current, problem.gamma).sum()))
        if not counts[-1]:
            break
    return SplitRunResult(float(np.prod([k / s for k in counts])), tuple(counts))


def test_gate_fails_a_resampling_mutant(monkeypatch):
    monkeypatch.setitem(globals(), "run_splitting", resample_from_every_state)
    z = gate_z("exponential_sum", monkeypatch)
    assert (z > Z_MAX).any(), z
