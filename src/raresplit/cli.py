"""Command-line front end: scenario ingestion (including dB conventions),
the run/levels/verify/reproduce subcommands, and report emission.

Scenario files are JSON: {"marginals": [...], "directions": [...],
"importance": {...}, "gamma": x, "kind": "continuous"|"poisson"}.
Log-normal parameters may be given as mu_db/sigma_db and the ratio noise
floor as eta_db; powers follow the 10*log10 convention, so a dB pair maps
to log-scale mu = mu_db * ln(10)/10, sigma = sigma_db * ln(10)/10 and
eta = 10^(eta_db/10).  Preset files wrap a scenario with run defaults and
per-gamma rows carrying the published reference numbers.

Exit codes: 0 success, 2 configuration error, 3 runtime estimation error.
By default the timing fields (wall_seconds, wnrv, schedule_seconds) are
written as null so reports are byte-stable for a fixed seed; pass
--timing to include the measured values (stderr always shows them).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from importlib import resources

from .baseline import naive_mc, poisson_is
from .dist import marginal_from_json
from .model import ProblemSpec, importance_from_json
from .process import RngStream
from .sched import SchedulingError, inverse_ccdf_schedule, lower_bound_schedule
from .split import LevelSchedule, replicate
from .stats import EstimateReport, oracle_exact

__all__ = ["ScenarioError", "parse_scenario", "build_schedule", "run_estimation", "main"]

_DB = math.log(10.0) / 10.0  # power quantities, 10*log10 convention

CSV_COLUMNS = ("gamma", "method", "mean", "re_percent", "wnrv", "wall_seconds", "seed")

TABLES = {"I": "table1", "II": "table2", "III": "table3",
          "IV": "table4", "V": "table5", "VI": "table6"}


class ScenarioError(ValueError):
    """Configuration-level failure; the message carries the offending JSON path."""


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


def _require_number(obj, key, path):
    if key not in obj:
        _fail(path, f"missing required field '{key}'")
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        _fail(f"{path}.{key}", f"must be a number, got {v!r}")
    return float(v)


def _convert_marginal(obj, path) -> dict:
    """Resolve dB-tagged Log-normal parameters to natural log-scale units."""
    if not isinstance(obj, dict):
        _fail(path, "marginal must be an object")
    if "kind" not in obj:
        _fail(path, "missing required field 'kind'")
    params = obj.get("params")
    if not isinstance(params, dict):
        _fail(f"{path}.params", "must be an object")
    if obj["kind"] != "lognormal":
        return obj
    has_db = "mu_db" in params or "sigma_db" in params
    has_nat = "mu" in params or "sigma" in params
    if has_db and has_nat:
        _fail(f"{path}.params", "mix of dB and natural log-normal parameters")
    if not has_db:
        return obj
    mu_db = _require_number(params, "mu_db", f"{path}.params")
    sigma_db = _require_number(params, "sigma_db", f"{path}.params")
    return {"kind": "lognormal",
            "params": {"mu": mu_db * _DB, "sigma": sigma_db * _DB}}


def _convert_importance(obj, path) -> dict:
    if not isinstance(obj, dict):
        _fail(path, "importance must be an object")
    if obj.get("kind") == "ratio" and "eta_db" in obj:
        if "eta" in obj:
            _fail(path, "give either eta or eta_db, not both")
        eta_db = _require_number(obj, "eta_db", path)
        return {"kind": "ratio", "eta": 10.0 ** (eta_db / 10.0)}
    return obj


def _build_problem(scen: dict, path: str = "$") -> ProblemSpec:
    if not isinstance(scen, dict):
        _fail(path, "scenario must be a JSON object")
    for key in ("marginals", "directions", "importance", "gamma", "kind"):
        if key not in scen:
            _fail(path, f"missing required field '{key}'")
    if not isinstance(scen["marginals"], list) or not scen["marginals"]:
        _fail(f"{path}.marginals", "must be a non-empty array")
    if not isinstance(scen["directions"], list):
        _fail(f"{path}.directions", f"must be an array, got {scen['directions']!r}")
    marginals = []
    for i, mobj in enumerate(scen["marginals"]):
        mpath = f"{path}.marginals[{i}]"
        try:
            marginals.append(marginal_from_json(_convert_marginal(mobj, mpath)))
        except ScenarioError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{mpath}: {exc}") from exc
    ipath = f"{path}.importance"
    try:
        imp = importance_from_json(_convert_importance(scen["importance"], ipath))
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{ipath}: {exc}") from exc
    _require_number(scen, "gamma", path)
    try:
        return ProblemSpec(
            marginals=tuple(marginals),
            directions=tuple(scen["directions"]),
            importance=imp,
            gamma=float(scen["gamma"]),
            kind=scen["kind"],
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_scenario(path) -> tuple[ProblemSpec, dict]:
    """Load a scenario (or preset) file; returns the problem and run defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}")
    if isinstance(data, dict) and "scenario" in data:
        return _build_problem(data["scenario"], "$.scenario"), dict(data.get("defaults", {}))
    return _build_problem(data, "$"), {}


def load_preset(table: str) -> dict:
    key = table.strip().upper()
    if key not in TABLES:
        _fail("$.table", f"unknown table {table!r}; choose one of {sorted(TABLES)}")
    text = resources.files("raresplit").joinpath("presets", f"{TABLES[key]}.json").read_text()
    return json.loads(text)


def preset_problem(preset: dict, gamma=None) -> ProblemSpec:
    problem = _build_problem(preset["scenario"], "$.scenario")
    if gamma is not None:
        problem = dataclasses.replace(problem, gamma=float(gamma))
    return problem


def build_schedule(problem, rng, *, levels_method="lb", p_bar=0.1,
                   pilot_levels=12, pilot_s=3000) -> LevelSchedule:
    if levels_method == "lb":
        return lower_bound_schedule(problem, p_bar)
    if levels_method == "iccdf":
        return inverse_ccdf_schedule(problem, rng, l_pilot=pilot_levels,
                                     s_pilot=pilot_s, p_bar=p_bar)
    raise ScenarioError(f"unknown levels method {levels_method!r} (use 'lb' or 'iccdf')")


def run_estimation(problem: ProblemSpec, method: str, *, s=3000, m=200,
                   p_bar=0.1, levels_method="lb", pilot_levels=12,
                   seed=0, workers=1) -> EstimateReport:
    """Schedule (when splitting) plus estimation, with full-call wall time."""
    rng = RngStream(seed)
    if method == "split":
        t0 = time.perf_counter()
        schedule = build_schedule(problem, rng, levels_method=levels_method,
                                  p_bar=p_bar, pilot_levels=pilot_levels, pilot_s=s)
        return replicate(problem, schedule, s, m, rng, workers=workers,
                         schedule_seconds=time.perf_counter() - t0)
    if method == "naive":
        return naive_mc(problem, m, rng)
    if method == "is":
        if problem.kind != "poisson":
            raise ScenarioError("--method is requires a poisson scenario")
        if not problem.gamma > 0:
            raise ScenarioError(f"gamma = {problem.gamma!r}: --method is needs gamma > 0")
        return poisson_is(problem.rates(), problem.importance.weight_array(),
                          problem.gamma, m, rng)
    raise ScenarioError(f"unknown method {method!r} (use split, naive or is)")


def _strip_timing(d: dict) -> dict:
    return {**d, "wall_seconds": None, "wnrv": None, "schedule_seconds": None}


def report_json_text(report: EstimateReport, include_timing: bool) -> str:
    d = report.to_json_dict()
    if not include_timing:
        d = _strip_timing(d)
    return json.dumps(d, indent=2) + "\n"


def _csv_cell(v):
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


def csv_rows_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def report_csv_row(report: EstimateReport, gamma: float, include_timing: bool) -> dict:
    return {
        "gamma": gamma,
        "method": report.method,
        "mean": report.mean,
        "re_percent": None if report.re is None else 100.0 * report.re,
        "wnrv": report.wnrv if include_timing else None,
        "wall_seconds": report.wall_seconds if include_timing else None,
        "seed": report.seed,
    }


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _echo_timing(report: EstimateReport):
    print(f"[timing] wall_seconds={report.wall_seconds!r} "
          f"schedule_seconds={report.schedule_seconds!r} wnrv={report.wnrv!r}",
          file=sys.stderr)


def _settings(args, defaults, method) -> dict:
    """Run settings: CLI flags win, then preset defaults, then built-ins.

    They are checked for ``method`` ("split", "naive", "is", or None for a
    schedule alone), so a bad value is a configuration error; so are a
    negative --seed and a --workers below 1.
    """
    if args.seed < 0:
        _fail(f"--seed {args.seed}", "must be a non-negative integer")
    if args.workers < 1:
        _fail(f"--workers {args.workers}", "must be at least 1")

    def pick(flag, key, cast, builtin):
        value = getattr(args, flag, None)
        return value if value is not None else _default(defaults, key, cast, builtin)

    settings = {
        "s": pick("s", "s", _count, 3000),
        "m": pick("m", "m", _count, 200),
        "p_bar": pick("pbar", "p_bar", float, 0.1),
        "levels_method": pick("levels_method", "levels_method", str, "lb"),
        "pilot_levels": pick("pilot_levels", "pilot_levels", _count, 12),
    }
    if method in ("split", None):
        _check_schedule(settings)
    if method is not None:
        _check_samples(settings["m"], method)
    return settings


def _count(value) -> int:
    """A count from JSON: an int or an integral float such as 6e6, never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(value)


_CAST_NAMES = {_count: "an integer", float: "a number"}  # str() takes any JSON value


def _default(defaults: dict, key: str, cast, builtin):
    """A preset default cast to its type; a bad value is a configuration error."""
    value = defaults.get(key, builtin)
    try:
        return cast(value)
    except (TypeError, ValueError):
        _fail(f"$.defaults.{key}", f"must be {_CAST_NAMES[cast]}, got {value!r}")


def _check_schedule(settings: dict) -> None:
    s, p_bar, pilot_levels = settings["s"], settings["p_bar"], settings["pilot_levels"]
    if not 0.0 < p_bar < 1.0:
        _fail(f"p_bar = {p_bar!r}", "must lie in (0, 1)")
    if s < 2:
        _fail(f"s = {s!r}", "splitting needs at least 2 states per level")
    if settings["levels_method"] == "iccdf" and s < 100:
        _fail(f"s = {s!r}", "the iccdf pilot needs at least 100 states per level")
    if pilot_levels < 2:
        _fail(f"pilot_levels = {pilot_levels!r}", "a pilot needs at least 2 levels")


def _check_samples(m, method):
    least = 2 if method == "split" else 1
    if m < least:
        _fail(f"m = {m!r}", f"{method} needs m >= {least}")


def _scenario_at_gamma(args):
    """parse_scenario plus the --gamma override; a bad override is a configuration error."""
    problem, defaults = parse_scenario(args.scenario)
    if args.gamma is not None:
        try:
            problem = dataclasses.replace(problem, gamma=args.gamma)
        except ValueError as exc:
            raise ScenarioError(f"--gamma {args.gamma!r}: {exc}") from exc
    return problem, defaults


def cmd_run(args) -> int:
    problem, defaults = _scenario_at_gamma(args)
    settings = _settings(args, defaults, args.method)
    report = run_estimation(problem, args.method, seed=args.seed,
                            workers=args.workers, **settings)
    _echo_timing(report)
    if args.format == "json":
        text = report_json_text(report, args.timing)
    else:
        text = csv_rows_text([report_csv_row(report, problem.gamma, args.timing)])
    _write_output(text, args.out)
    return 0


def cmd_levels(args) -> int:
    problem, defaults = _scenario_at_gamma(args)
    settings = _settings(args, defaults, method=None)
    p_bar = settings["p_bar"]
    schedule = build_schedule(problem, RngStream(args.seed),
                              levels_method=settings["levels_method"], p_bar=p_bar,
                              pilot_levels=settings["pilot_levels"], pilot_s=settings["s"])
    targets = list(schedule.targets)
    if args.format == "json":
        text = json.dumps({"times": list(schedule.times), "p_bar": p_bar,
                           "targets": targets}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["level", "time", "target"])
        for i, (t, q) in enumerate(zip(schedule.times, targets), start=1):
            writer.writerow([i, repr(t), repr(q)])
        text = buf.getvalue()
    _write_output(text, args.out)
    return 0


def cmd_verify(args) -> int:
    """Estimate and compare against the exact oracle for the problem family.

    Exit 0 when the estimate sits within 3 standard errors of the oracle,
    1 when it does not, 2 when the family has no exact oracle.
    """
    problem, defaults = _scenario_at_gamma(args)
    settings = _settings(args, defaults, args.method)
    exact = oracle_exact(problem)
    if exact is None:
        print("configuration error: no exact oracle covers this problem family "
              "(supported: i.i.d. exponential sums, weighted Poisson sums, "
              "two-coordinate ratios)", file=sys.stderr)
        return 2
    report = run_estimation(problem, args.method, seed=args.seed,
                            workers=args.workers, **settings)
    se = math.sqrt(report.variance / report.m)
    diff = abs(report.mean - exact)
    ok = diff <= 3.0 * se if se > 0 else report.mean == exact
    verdict = {
        "method": report.method,
        "mean": report.mean,
        "oracle": exact,
        "abs_diff": diff,
        "three_se": 3.0 * se,
        "verified": ok,
        "seed": report.seed,
    }
    _write_output(json.dumps(verdict, indent=2) + "\n", args.out)
    return 0 if ok else 1


def cmd_reproduce(args) -> int:
    preset = load_preset(args.table)
    defaults = preset.get("defaults", {})
    methods = defaults.get("methods", ["split"])
    settings = {"split": _settings(args, defaults, "split")}
    for method in methods:
        if method != "split":
            m = args.baseline_m if args.baseline_m is not None \
                else _default(defaults, f"{method}_m", _count, 10 ** 6)
            _check_samples(m, method)
            settings[method] = {"m": m}
    rows_out = []
    for row in preset["rows"]:
        gamma = float(row["gamma"])
        problem = preset_problem(preset, gamma)
        for method in methods:
            try:
                report = run_estimation(problem, method, seed=args.seed,
                                        workers=args.workers, **settings[method])
            except ScenarioError:
                raise
            except (SchedulingError, ValueError) as exc:
                raise SchedulingError(f"at gamma={gamma}, method={method}: {exc}") from exc
            _echo_timing(report)
            rows_out.append(report_csv_row(report, gamma, args.timing))
        for ref_name, ref in row.get("paper_reference", {}).items():
            rows_out.append({
                "gamma": gamma,
                "method": f"paper_reference:{ref_name}",
                "mean": ref.get("mean"),
                "re_percent": ref.get("re_percent"),
                "wnrv": ref.get("wnrv"),
                "wall_seconds": None,
                "seed": None,
            })
    _write_output(csv_rows_text(rows_out), args.out)
    return 0


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--timing", action="store_true",
                   help="write measured timing fields instead of nulls "
                        "(makes reports non-reproducible byte-for-byte)")
    p.add_argument("--workers", type=int, default=1,
                   help="max worker processes for replications")
    # the flag's first name, kept so existing command lines still run
    p.add_argument("--threads", type=int, dest="workers", help=argparse.SUPPRESS)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raresplit",
        description="Rare-event probability estimation by multilevel splitting "
                    "over a monotone process embedding.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="estimate one scenario")
    run.add_argument("--scenario", required=True, help="scenario or preset JSON file")
    run.add_argument("--method", choices=("split", "naive", "is"), default="split")
    run.add_argument("--gamma", type=float, default=None, help="threshold override")
    run.add_argument("--s", type=int, default=None, help="states per level (split)")
    run.add_argument("--m", type=int, default=None,
                     help="replications (split) or samples (naive/is)")
    run.add_argument("--pbar", type=float, default=None, help="per-level survival target")
    run.add_argument("--levels-method", choices=("lb", "iccdf"), default=None)
    run.add_argument("--pilot-levels", type=int, default=None)
    run.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(run)
    run.set_defaults(func=cmd_run)

    levels = sub.add_parser("levels", help="print a level schedule and its targets")
    levels.add_argument("--scenario", required=True)
    levels.add_argument("--gamma", type=float, default=None)
    levels.add_argument("--pbar", type=float, default=None)
    levels.add_argument("--levels-method", choices=("lb", "iccdf"), default=None)
    levels.add_argument("--pilot-levels", type=int, default=None)
    levels.add_argument("--s", type=int, default=None, help="pilot states per level")
    levels.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(levels)
    levels.set_defaults(func=cmd_levels)

    verify = sub.add_parser("verify",
                            help="check an estimator against the exact oracle")
    verify.add_argument("--scenario", required=True)
    verify.add_argument("--method", choices=("split", "naive", "is"), default="split")
    verify.add_argument("--gamma", type=float, default=None)
    verify.add_argument("--s", type=int, default=None)
    verify.add_argument("--m", type=int, default=None)
    verify.add_argument("--pbar", type=float, default=None)
    verify.add_argument("--levels-method", choices=("lb", "iccdf"), default=None)
    verify.add_argument("--pilot-levels", type=int, default=None)
    _add_common(verify)
    verify.set_defaults(func=cmd_verify)

    rep = sub.add_parser("reproduce", help="rerun a published table preset")
    rep.add_argument("--table", required=True, choices=sorted(TABLES),
                     help="table id (I..VI)")
    rep.add_argument("--s", type=int, default=None, help="states per level override")
    rep.add_argument("--m", type=int, default=None, help="replication override")
    rep.add_argument("--baseline-m", type=int, default=None,
                     help="sample-count override for naive/is columns")
    _add_common(rep)
    rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SchedulingError, ValueError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
