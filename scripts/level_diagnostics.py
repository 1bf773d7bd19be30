#!/usr/bin/env python3
"""Compare the two level heuristics on a scenario: schedule times and the
empirical per-level survival they actually achieve.

Useful for judging calibration against the per-level target p_bar; the
lower-bound schedule places levels of equal survival on the sample-free
survival curve, the pilot-based one on a pilot estimate of it.

Example:
    python scripts/level_diagnostics.py --preset I --gamma 30 --m 60
    python scripts/level_diagnostics.py --scenario my_scenario.json
"""

import argparse
import sys

import numpy as np

from raresplit.cli import load_preset, parse_scenario, preset_problem
from raresplit.process import RngStream
from raresplit.sched import SchedulingError, inverse_ccdf_schedule, lower_bound_schedule
from raresplit.split import replicate


def survival_profile(problem, schedule, s, m, seed):
    rep = replicate(problem, schedule, s, m, RngStream(seed))
    return rep.mean, rep.re, np.asarray(rep.per_level_survival)


def show(name, problem, schedule, args):
    mean, re, surv = survival_profile(problem, schedule, args.s, args.m, args.seed + 1)
    print(f"\n{name}: L = {len(schedule.times)}")
    print("  times   :", "  ".join(f"{t:.4f}" for t in schedule.times))
    print("  survival:", "  ".join(f"{p:.3f}" for p in surv))
    flagged = [i + 1 for i, p in enumerate(surv) if not (args.pbar / 3 <= p <= 3 * args.pbar)]
    print(f"  estimate: {mean:.4e}  (RE {100 * re:.2f}%)" if re is not None
          else f"  estimate: {mean:.4e}")
    if flagged:
        print(f"  levels outside [{args.pbar / 3:.3f}, {3 * args.pbar:.1f}]: {flagged}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=["I", "II", "III", "IV", "V", "VI"])
    src.add_argument("--scenario", help="scenario JSON file")
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--s", type=int, default=3000)
    parser.add_argument("--m", type=int, default=60)
    parser.add_argument("--pbar", type=float, default=0.1)
    parser.add_argument("--pilot-levels", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.preset:
        problem = preset_problem(load_preset(args.preset), args.gamma)
    else:
        problem, _ = parse_scenario(args.scenario)
        if args.gamma is not None:
            import dataclasses
            problem = dataclasses.replace(problem, gamma=args.gamma)

    print(f"problem: n = {problem.n}, gamma = {problem.gamma}, kind = {problem.kind}")

    try:
        lb = lower_bound_schedule(problem, args.pbar)
        show("survival-curve schedule (lb)", problem, lb, args)
    except SchedulingError as exc:
        print(f"\nsurvival-curve schedule (lb) failed: {exc}")

    try:
        iccdf = inverse_ccdf_schedule(problem, RngStream(args.seed),
                                      l_pilot=args.pilot_levels,
                                      s_pilot=args.s, p_bar=args.pbar)
        show("pilot-calibrated schedule", problem, iccdf, args)
    except SchedulingError as exc:
        print(f"\npilot-calibrated schedule failed: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
