"""Traced run: per-layer timings measured from outside the library.

For every replication the traced run first times one ``run_splitting``
call, then replays the same replication (same substream) through the
public calls in ``run_splitting``'s generator order: the parent draw,
``advance_gamma_batch`` (or the same ``gen.poisson`` call split.py makes),
``embed``, ``importance`` and the survivor compaction.  The replay's
survivor counts must equal ``run_splitting``'s exactly.  One span is kept
per step per level, in memory, and written out when the run ends.
"""

from __future__ import annotations

import json
import math
import time
import uuid

import numpy as np

from raresplit import (RngStream, embed, importance, oracle_exact, replicate,
                       run_splitting)
from raresplit.cli import build_schedule, run_estimation
from raresplit.process import advance_gamma_batch

from workloads import IS_M, P_BAR, PILOT_LEVELS, check

STEPS = ("split.parents", "process.draw", "model.embed", "model.score", "split.compact")
_clock = time.perf_counter_ns


class Spans:
    """Spans of one benchmark run; they share ``trace_id``."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.rows = []

    def add(self, name, start, end, parent=None, **attrs) -> int:
        """Record a finished span (ns clock) and return its id."""
        self.rows.append((len(self.rows), parent, name, start, end, attrs))
        return len(self.rows) - 1

    def open(self, name, parent=None, **attrs) -> int:
        """Record a span whose end is set later by ``close``."""
        return self.add(name, _clock(), None, parent, **attrs)

    def close(self, span_id):
        sid, parent, name, start, _, attrs = self.rows[span_id]
        self.rows[span_id] = (sid, parent, name, start, _clock(), attrs)

    def durations(self, name) -> np.ndarray:
        """Durations in ns of every span called ``name``."""
        return np.array([end - start for _, _, n, start, end, _ in self.rows
                         if n == name], dtype=float)

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"trace_id": self.trace_id, **header}) + "\n")
            for sid, parent, name, start, end, attrs in self.rows:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, **attrs}) + "\n")


def replay(problem, schedule, s: int, rng: RngStream, spans: Spans, parent: int) -> tuple:
    """Re-run one replication step by step; returns its survivor counts."""
    gen = rng.gen
    poisson = problem.kind == "poisson"
    rates = problem.rates() if poisson else None
    n = problem.n
    current = np.zeros((s, n), dtype=np.int64 if poisson else float)
    counts = []
    t_prev = 0.0
    for level, t in enumerate(schedule.times):
        dt = t - t_prev
        a = _clock()
        parents = current[gen.integers(0, current.shape[0], size=s)]
        b = _clock()
        if poisson:
            advanced = parents + gen.poisson(rates * dt, size=(s, n))
        else:
            advanced = advance_gamma_batch(parents, dt, rng)
        c = _clock()
        # ProblemSpec.score maps Poisson counts to floats where it embeds
        # continuous states, so that conversion is the Poisson embed step
        x = (np.asarray(advanced, dtype=float) if poisson
             else embed(advanced, problem.marginals, problem.directions))
        d = _clock()
        survive = importance(problem.importance, x) <= problem.gamma
        e = _clock()
        k = int(np.count_nonzero(survive))
        current = advanced[survive]
        f = _clock()
        for name, lo, hi in zip(STEPS, (a, b, c, d, e), (b, c, d, e, f)):
            spans.add(name, lo, hi, parent, level=level)
        counts.append(k)
        if k == 0:
            break
        t_prev = t
    return tuple(counts)


class ReplayMismatch(AssertionError):
    """The replay, or the parallel report, differs from run_splitting's runs."""


def traced_call(wl, problem, ref, seed: int, s: int, m: int, spans: Spans) -> dict:
    """One traced call: schedule, m timed-then-replayed replications, then
    ``replicate`` with the workload's workers and, on ``verify`` workloads,
    the oracle and the IS baseline.  Returns the raw figures of the call.
    """
    call = spans.open("bench.call", seed=seed)
    rng = RngStream(seed)
    sid = spans.open("sched.build", call)
    schedule = build_schedule(problem, rng, levels_method=wl.levels_method,
                              p_bar=P_BAR, pilot_levels=PILOT_LEVELS, pilot_s=s)
    spans.close(sid)

    results = []
    for i in range(m):
        sid = spans.open("split.run_splitting", call, rep=i)
        result = run_splitting(problem, schedule, s, rng.substream(i))
        spans.close(sid)
        rep = spans.open("split.replication", call, rep=i)
        counts = replay(problem, schedule, s, rng.substream(i), spans, rep)
        spans.close(rep)
        if counts != result.survivor_counts:
            raise ReplayMismatch(f"replication {i}: replay {counts} != "
                                 f"run_splitting {result.survivor_counts}")
        results.append(result)

    sid = spans.open("split.replicate", call, workers=wl.workers)
    report = replicate(problem, schedule, s, m, rng, workers=wl.workers)
    spans.close(sid)
    # the same arithmetic replicate uses, on the serial results
    fractions = np.zeros((m, len(schedule)))
    for row, r in enumerate(results):
        got = np.asarray(r.survivor_counts, dtype=float) / s
        fractions[row, :got.size] = got
    estimates = np.asarray([r.estimate for r in results])
    if not (np.array_equal(fractions.mean(axis=0), report.per_level_survival)
            and report.mean == float(estimates.mean())
            and report.variance == float(estimates.var(ddof=1))):
        raise ReplayMismatch(f"replicate(workers={wl.workers}) differs from the serial runs")

    exact = is_report = None
    if wl.verify:
        sid = spans.open("stats.oracle", call)
        exact = oracle_exact(problem)
        spans.close(sid)
        sid = spans.open("baseline.is", call)
        is_report = run_estimation(problem, "is", m=IS_M, seed=seed)
        spans.close(sid)
    spans.close(call)
    return {"n": problem.n, "schedule": schedule, "results": results,
            "report": report,
            "error": check(wl, report, ref, exact, is_report)}


def layer_metrics(wl, call: dict, spans: Spans, s: int, m: int) -> dict:
    """Per-layer figures of one traced call, from its spans and results."""
    ns = 1e-9
    schedule, results, report = call["schedule"], call["results"], call["report"]
    levels_run = sum(len(r.survivor_counts) for r in results)
    elems = levels_run * s * call["n"]
    step = {name: spans.durations(name) for name in STEPS}
    rep_ms = spans.durations("split.run_splitting") * 1e-6
    replay_ns = spans.durations("split.replication").sum()
    steps_ns = sum(d.sum() for d in step.values())
    p = np.asarray(report.per_level_survival)
    alive = p[p > 0]
    ideal = float(np.sum((1.0 - alive) / (alive * s * m)))
    mean_reached = levels_run / m
    serial_s = rep_ms.sum() * 1e-3
    replicate_s = spans.durations("split.replicate").sum() * ns
    return {
        "sched.schedule_s": spans.durations("sched.build").sum() * ns,
        "sched.levels": len(schedule),
        "sched.levels_out_of_band": int(np.count_nonzero(
            (p < P_BAR / 3) | (p > 3 * P_BAR))),
        "process.draw_ms": step["process.draw"].mean() * 1e-6,
        "process.draw_ns_per_elem": step["process.draw"].sum() / elems,
        "model.embed_ms": step["model.embed"].mean() * 1e-6,
        "model.embed_ns_per_elem": step["model.embed"].sum() / elems,
        "model.score_ms": step["model.score"].mean() * 1e-6,
        "split.resample_ms": (step["split.parents"] + step["split.compact"]).mean() * 1e-6,
        "split.rep_ms_p50": float(np.percentile(rep_ms, 50)),
        "split.rep_ms_p95": float(np.percentile(rep_ms, 95)),
        "split.unaccounted_frac": (replay_ns - steps_ns) / replay_ns,
        "split.extinct_frac": sum(r.extinct_at is not None for r in results) / m,
        "split.states_per_decade": (s * mean_reached / math.log10(1.0 / report.mean)
                                    if report.mean > 0 else 0.0),
        "split.var_inflation": report.re ** 2 / ideal if report.re else 0.0,
        "split.parallel_eff": serial_s / (wl.workers * replicate_s),
        "stats.oracle_s": spans.durations("stats.oracle").sum() * ns,
        "baseline.is_s": spans.durations("baseline.is").sum() * ns,
        "trace.overhead_frac": (replay_ns * ns - serial_s) / serial_s,
    }
