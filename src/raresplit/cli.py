"""Command-line front end: the run/levels/verify/reproduce subcommands
and report emission.

A scenario file holds the JSON object ``ProblemSpec.to_json`` writes, which
``ProblemSpec.from_json`` reads.  A preset file wraps one as
{"scenario": {...}, "defaults": {...}, "rows": [...]}: run defaults, and
per-gamma rows carrying the published reference numbers; ``--scenario``
takes either.  An error names the JSON path of the bad value, $-rooted at
the file's top level.

Exit codes: 0 success, 2 configuration error, 3 runtime estimation error.
A warning is one stderr line; one that the interpreter's filters raise as
an error is an estimation error.
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
import os
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

from .baseline import naive_mc, poisson_is
from .dist import ScenarioError, _at, _fail, _json_object, _json_value
from .model import ProblemSpec
from .process import RngStream
from .sched import (_MAX_LEVELS, SchedulingError, inverse_ccdf_schedule,
                    lower_bound_schedule)
from .split import LevelSchedule, replicate
from .stats import EstimateReport, oracle_exact

__all__ = ["ScenarioError", "parse_scenario", "build_schedule", "run_estimation", "main"]

CSV_COLUMNS = ("gamma", "method", "mean", "re_percent", "wnrv", "wall_seconds", "seed")

METHODS = ("split", "naive", "is")

TABLES = {"I": "table1", "II": "table2", "III": "table3",
          "IV": "table4", "V": "table5", "VI": "table6"}


# One row per run setting: preset key -> (flag, JSON type, built-in, help); each flag parses
# as its built-in's type.  In _settings the flag wins, then the preset default, then the built-in.
_SETTINGS = {
    "s": ("--s", "count", 3000, "states per level (split, and the iccdf pilot)"),
    "m": ("--m", "count", 200, "replications (split) or samples (naive/is)"),
    "p_bar": ("--pbar", "float", 0.1, "per-level survival target"),
    "levels_method": ("--levels-method", "str", "lb", "level heuristic"),
    "pilot_levels": ("--pilot-levels", "count", 12, "levels of the iccdf pilot run"),
}
_BUILTIN = {key: row[2] for key, row in _SETTINGS.items()}  # the library calls' defaults
_LEVELS_METHODS = ("lb", "iccdf")


def _read_scenario(data) -> tuple[ProblemSpec, dict]:
    """The problem and run defaults of a scenario object, or of a preset wrapping
    one, whose defaults are run settings, the methods and the baselines' counts."""
    if not (isinstance(data, dict) and "scenario" in data):
        return ProblemSpec.from_json(data), {}
    wrapper = ("scenario", "name", "description", "defaults", "rows")
    _json_object(data, wrapper, "$", optional=wrapper[1:])
    known = (*_SETTINGS, "methods", "naive_m", "is_m")
    defaults = _json_object(data.get("defaults", {}), known, "$.defaults", optional=known)
    return ProblemSpec.from_json(data["scenario"], "$.scenario"), dict(defaults)


def _unique_keys(pairs) -> dict:
    """A JSON object's ``object_pairs_hook``: a key given twice is a configuration error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"key {key!r} is given more than once")
        obj[key] = value
    return obj


def parse_scenario(path) -> tuple[ProblemSpec, dict]:
    """Load a scenario (or preset) file; returns the problem and run defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, a file not UTF-8
        raise ScenarioError(f"cannot read scenario file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}")
    return _read_scenario(data)


def load_preset(table: str) -> dict:
    key = table.strip().upper()
    if key not in TABLES:
        _fail("$.table", f"unknown table {table!r}; choose one of {sorted(TABLES)}")
    text = resources.files(__package__).joinpath("presets", f"{TABLES[key]}.json").read_text()
    return json.loads(text, object_pairs_hook=_unique_keys)


def _with_gamma(problem: ProblemSpec, gamma, path: str) -> ProblemSpec:
    """The problem at threshold ``gamma`` (None keeps its own); a bad one fails at ``path``."""
    if gamma is None:
        return problem
    with _at(path):
        return dataclasses.replace(problem, gamma=_json_value(gamma, "float", path))


def preset_problem(preset: dict, gamma=None) -> ProblemSpec:
    return _with_gamma(_read_scenario(preset)[0], gamma, f"gamma = {gamma!r}")


def build_schedule(problem, rng, *, levels_method=_BUILTIN["levels_method"],
                   p_bar=_BUILTIN["p_bar"], pilot_levels=_BUILTIN["pilot_levels"],
                   pilot_s=_BUILTIN["s"]) -> LevelSchedule:
    if levels_method == "lb":
        return lower_bound_schedule(problem, p_bar)
    if levels_method == "iccdf":
        return inverse_ccdf_schedule(problem, rng, l_pilot=pilot_levels,
                                     s_pilot=pilot_s, p_bar=p_bar)
    raise ScenarioError(f"unknown levels method {levels_method!r} (use 'lb' or 'iccdf')")


def _check_method(problem: ProblemSpec, method: str) -> None:
    """Fail unless ``method`` is an estimator that can run ``problem``."""
    if method not in METHODS:
        raise ScenarioError(f"unknown method {method!r} (use split, naive or is)")
    if method == "is" and problem.kind != "poisson":
        raise ScenarioError("--method is requires a poisson scenario")
    if method == "is" and not problem.gamma > 0:
        raise ScenarioError(f"gamma = {problem.gamma!r}: --method is needs gamma > 0")


def run_estimation(problem: ProblemSpec, method: str, *, s=_BUILTIN["s"], m=_BUILTIN["m"],
                   p_bar=_BUILTIN["p_bar"], levels_method=_BUILTIN["levels_method"],
                   pilot_levels=_BUILTIN["pilot_levels"], seed=0, workers=1) -> EstimateReport:
    """Schedule (when splitting) plus estimation, with full-call wall time.

    Every method runs on the problem's box (``ProblemSpec.boxed``), which
    for IS's Poisson problems is the problem itself with log mass 0: the mean
    is scaled by the box mass and the variance by the mass twice, while the
    levels and their survival are the boxed run's.  ``ProblemSpec.refreshes``
    says whether a split refreshes its clones (``run_splitting``'s ``refresh``).
    """
    _check_method(problem, method)
    rng = RngStream(seed)
    t0 = time.perf_counter()
    box, log_mass = problem.boxed()
    built = {}
    if method == "split":
        schedule = build_schedule(box, rng, levels_method=levels_method,
                                  p_bar=p_bar, pilot_levels=pilot_levels, pilot_s=s)
        built = {"schedule_seconds": time.perf_counter() - t0}
        report = replicate(box, schedule, s, m, rng, workers, refresh=problem.refreshes)
    elif method == "naive":
        report = naive_mc(box, m, rng)
    else:
        report = poisson_is(box.rates(), box.importance.weight_array(), box.gamma, m, rng)
    mass = math.exp(log_mass)
    return dataclasses.replace(report, mean=mass * report.mean,
                               variance=mass * (mass * report.variance),
                               wall_seconds=time.perf_counter() - t0, **built)


def _report_fields(report: EstimateReport, include_timing: bool) -> dict:
    """The report's JSON fields, with the timing ones blanked unless asked for."""
    d = report.to_json_dict()
    return d if include_timing else {**d, "wall_seconds": None, "wnrv": None,
                                     "schedule_seconds": None}


def report_json_text(report: EstimateReport, include_timing: bool) -> str:
    return json.dumps(_report_fields(report, include_timing), indent=2) + "\n"


def csv_rows_text(rows: list[dict], columns=CSV_COLUMNS) -> str:
    """CSV text: a header of ``columns``, then one line per row; a missing cell is blank."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(col) for col in columns])  # None: blank; floats: repr
    return buf.getvalue()


def report_csv_row(report: EstimateReport, gamma: float, include_timing: bool) -> dict:
    """The report's fields plus the CSV's gamma and re_percent; csv_rows_text picks the columns."""
    d = _report_fields(report, include_timing)
    return {**d, "gamma": gamma, "re_percent": None if d["re"] is None else 100.0 * d["re"]}


def _check_writable(out_path) -> None:
    """Fail unless ``out_path`` can be opened for writing; a file the check
    creates is removed, so a run that fails leaves no file behind."""
    if Path(out_path).is_fifo():
        return  # opened twice, a pipe would end its reader's stream at the first close
    existed = os.path.lexists(out_path)
    try:
        open(out_path, "a", encoding="utf-8").close()
    except OSError as exc:
        _fail(f"--out {out_path}", f"cannot be written: {exc.strerror or exc}")
    if not existed:
        os.remove(out_path)


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"--out {out_path}", f"cannot be written: {exc.strerror or exc}")


def _echo_timing(report: EstimateReport):
    print(f"[timing] wall_seconds={report.wall_seconds!r} "
          f"schedule_seconds={report.schedule_seconds!r} wnrv={report.wnrv!r}",
          file=sys.stderr)


def _settings(args, defaults, method) -> dict:
    """Run settings from the _SETTINGS rows, checked for ``method``.

    ``method`` is "split", "naive", "is", or None for a schedule alone; a
    value no such run can use is a configuration error, and so are a
    negative --seed, a --workers below 1 and an --out that cannot be written.
    """
    if args.seed < 0:
        _fail(f"--seed {args.seed}", "must be a non-negative integer")
    if args.workers < 1:
        _fail(f"--workers {args.workers}", "must be at least 1")
    if args.out is not None:
        _check_writable(args.out)
    settings = {key: _pick(getattr(args, key, None), defaults, key, json_type, builtin)
                for key, (_, json_type, builtin, _) in _SETTINGS.items()}
    if method in ("split", None):
        _check_schedule(settings)
    if method is not None:
        _check_samples(settings["m"], method)
    return settings


def _pick(flag, defaults: dict, key: str, json_type: str, builtin):
    """The flag if given, else the preset default read as ``json_type``, else the built-in."""
    if flag is not None:
        return flag
    return _json_value(defaults.get(key, builtin), json_type, f"$.defaults.{key}")


def _check_schedule(settings: dict) -> None:
    s, p_bar, pilot_levels = settings["s"], settings["p_bar"], settings["pilot_levels"]
    method = settings["levels_method"]
    if method not in _LEVELS_METHODS:  # the flag takes only these, so this is a preset default
        _fail("$.defaults.levels_method", f"must be one of {_LEVELS_METHODS}, got {method!r}")
    if not 0.0 < p_bar < 1.0:
        _fail(f"p_bar = {p_bar!r}", "must lie in (0, 1)")
    if s < 2:
        _fail(f"s = {s!r}", "splitting needs at least 2 states per level")
    if method == "iccdf" and s < 100:
        _fail(f"s = {s!r}", "the iccdf pilot needs at least 100 states per level")
    if pilot_levels < 2:
        _fail(f"pilot_levels = {pilot_levels!r}", "a pilot needs at least 2 levels")
    if pilot_levels > _MAX_LEVELS:
        _fail(f"pilot_levels = {pilot_levels!r}", f"a pilot takes at most {_MAX_LEVELS} levels")


def _check_samples(m, method):
    if m < 2:
        _fail(f"m = {m!r}", f"{method} needs m >= 2 for a sample variance")


def _load_scenario(args, method):
    """The --scenario problem at --gamma, and its run settings, both checked for ``method``."""
    problem, defaults = parse_scenario(args.scenario)
    problem = _with_gamma(problem, args.gamma, f"--gamma {args.gamma!r}")
    if method is not None:
        _check_method(problem, method)
    return problem, _settings(args, defaults, method)


def cmd_run(args) -> int:
    problem, settings = _load_scenario(args, args.method)
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
    """The schedule a split run uses: its box's where it has one."""
    problem, settings = _load_scenario(args, None)
    schedule = build_schedule(problem.boxed()[0], RngStream(args.seed),
                              levels_method=settings["levels_method"], p_bar=settings["p_bar"],
                              pilot_levels=settings["pilot_levels"], pilot_s=settings["s"])
    targets = list(schedule.targets)
    if args.format == "json":
        text = json.dumps({"times": list(schedule.times), "p_bar": settings["p_bar"],
                           "targets": targets}, indent=2) + "\n"
    else:
        text = csv_rows_text([{"level": i, "time": t, "target": q} for i, (t, q)
                              in enumerate(zip(schedule.times, targets), start=1)],
                             ("level", "time", "target"))
    _write_output(text, args.out)
    return 0


def cmd_verify(args) -> int:
    """Estimate and compare against the exact oracle.

    Exit 0 when the estimate sits within 3 standard errors of the oracle
    (with no spread, within the oracle's rounding), 1 when it does not, 2
    when the engine refuses the problem (``oracle_exact`` says why).
    """
    problem, settings = _load_scenario(args, args.method)
    exact = oracle_exact(problem)
    report = run_estimation(problem, args.method, seed=args.seed,
                            workers=args.workers, **settings)
    se = math.sqrt(report.variance / report.m)
    diff = abs(report.mean - exact)
    ok = diff <= 3.0 * se if se > 0 else math.isclose(report.mean, exact, rel_tol=1e-12)
    verdict = {"method": report.method, "mean": report.mean, "oracle": exact, "abs_diff": diff,
               "three_se": 3.0 * se, "verified": ok, "seed": report.seed}
    _write_output(json.dumps(verdict, indent=2) + "\n", args.out)
    return 0 if ok else 1


def cmd_reproduce(args) -> int:
    """Every row of a table's preset, each checked before the first estimate."""
    preset = load_preset(args.table)
    base, defaults = _read_scenario(preset)
    methods = defaults.get("methods", ["split"])
    if not (isinstance(methods, list) and all(m in METHODS for m in methods)):
        _fail("$.defaults.methods", f"must be an array of {list(METHODS)}, got {methods!r}")
    settings = {"split": _settings(args, defaults, "split")}
    for method in methods:
        if method != "split":
            m = _pick(args.baseline_m, defaults, f"{method}_m", "count", 10 ** 6)
            _check_samples(m, method)
            settings[method] = {"m": m}
    rows = [(row, _with_gamma(base, row["gamma"], f"$.rows[{i}].gamma"))
            for i, row in enumerate(preset["rows"])]
    rows_out = []
    for row, problem in rows:
        for method in methods:
            try:
                report = run_estimation(problem, method, seed=args.seed,
                                        workers=args.workers, **settings[method])
            except ScenarioError:
                raise
            except (SchedulingError, ValueError) as exc:
                raise SchedulingError(f"at gamma={problem.gamma}, method={method}: {exc}") from exc
            _echo_timing(report)
            rows_out.append(report_csv_row(report, problem.gamma, args.timing))
        rows_out += ({**ref, "gamma": problem.gamma, "method": f"paper_reference:{name}"}
                     for name, ref in row.get("paper_reference", {}).items())
    _write_output(csv_rows_text(rows_out), args.out)
    return 0


def _add_settings(p, keys):
    for key in keys:
        flag, _, builtin, text = _SETTINGS[key]
        p.add_argument(flag, dest=key, type=type(builtin), default=None,
                       choices=_LEVELS_METHODS if key == "levels_method" else None, help=text)


def _add_common(p, func):
    p.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--timing", action="store_true",
                   help="write measured timing fields instead of nulls "
                        "(makes reports non-reproducible byte-for-byte)")
    p.add_argument("--workers", type=int, default=1,
                   help="max worker processes for replications")
    p.set_defaults(func=func)


class _Parser(argparse.ArgumentParser):
    """A parser, and its subcommands' parsers, whose errors are one stderr line."""

    def error(self, message):
        self.exit(2, f"configuration error: {self.prog}: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="raresplit",
        description="Rare-event probability estimation by multilevel splitting "
                    "over a monotone process embedding.")
    sub = parser.add_subparsers(dest="command", required=True)
    method = ("--method", {"choices": METHODS, "default": "split"})
    fmt = ("--format", {"choices": ("json", "csv"), "default": "json"})
    for name, func, text, options in (
            ("run", cmd_run, "estimate one scenario", (method, fmt)),
            ("levels", cmd_levels, "print a level schedule and its targets", (fmt,)),
            ("verify", cmd_verify, "check an estimator against the exact oracle", (method,))):
        p = sub.add_parser(name, help=text)
        p.add_argument("--scenario", required=True, help="scenario or preset JSON file")
        p.add_argument("--gamma", type=float, default=None, help="threshold override")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        # a schedule alone takes no replication count
        _add_settings(p, [key for key in _SETTINGS if name != "levels" or key != "m"])
        _add_common(p, func)

    rep = sub.add_parser("reproduce", help="rerun a published table preset")
    rep.add_argument("--table", required=True, choices=sorted(TABLES),
                     help="table id (I..VI)")
    _add_settings(rep, ("s", "m"))
    rep.add_argument("--baseline-m", type=int, default=None,
                     help="sample-count override for naive/is columns")
    _add_common(rep, cmd_reproduce)
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # a warning is one stderr line, not source code
            warnings.showwarning = _warning_line
            return args.func(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SchedulingError, ValueError, MemoryError, Warning) as exc:
        print(f"estimation error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
