import argparse
import contextlib
import csv
import functools
import importlib
import io
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from raresplit import cli
from raresplit.baseline import naive_mc
from raresplit.cli import (
    CSV_COLUMNS,
    ScenarioError,
    TABLES,
    load_preset,
    main,
    parse_scenario,
    preset_problem,
)
from raresplit.curve import MAX_LATTICE
from raresplit.dist import LogNormal, Weibull
from raresplit.model import Ratio
from raresplit.process import RngStream
from raresplit.sched import _GRID, SchedulingError, lower_bound_schedule
from raresplit.split import replicate


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "raresplit", *args],
                          capture_output=True, text=True)


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


EXP_SUM = {
    "marginals": [{"kind": "exponential", "params": {"rate": 1.0}}] * 4,
    "directions": ["I"] * 4,
    "importance": {"kind": "sum"},
    "gamma": 1.5,
    "kind": "continuous",
}

LOGNORMAL_RATIO = {
    "marginals": [{"kind": "lognormal", "params": {"mu": 1.0, "sigma": 0.8}},
                  {"kind": "lognormal", "params": {"mu": 0.0, "sigma": 0.6}}],
    "directions": ["I", "D"],
    "importance": {"kind": "ratio", "eta": 0.2},
    "gamma": 0.01,
    "kind": "continuous",
}


class TestParseScenario:
    def test_db_lognormal_conversion(self, tmp_path):
        scen = {
            "marginals": [{"kind": "lognormal", "params": {"mu_db": 0.0, "sigma_db": 4.0}}],
            "directions": ["I"],
            "importance": {"kind": "sum"},
            "gamma": 1.0,
            "kind": "continuous",
        }
        problem, _ = parse_scenario(write_scenario(tmp_path, scen))
        marginal = problem.marginals[0]
        assert isinstance(marginal, LogNormal)
        assert marginal.mu == 0.0
        assert marginal.sigma == pytest.approx(4.0 * math.log(10.0) / 10.0, rel=1e-12)
        assert marginal.sigma == pytest.approx(0.92103, abs=1e-5)

    def test_natural_weibull_passthrough(self, tmp_path):
        scen = {
            "marginals": [{"kind": "weibull", "params": {"alpha": 0.5, "eta": 1.0}}],
            "directions": ["I"],
            "importance": {"kind": "sum"},
            "gamma": 1.0,
            "kind": "continuous",
        }
        problem, _ = parse_scenario(write_scenario(tmp_path, scen))
        assert problem.marginals[0] == Weibull(0.5, 1.0)

    def test_eta_db_conversion(self, tmp_path):
        scen = {
            "marginals": [{"kind": "lognormal", "params": {"mu": 0.0, "sigma": 1.0}}] * 2,
            "directions": ["I", "D"],
            "importance": {"kind": "ratio", "eta_db": -10.0},
            "gamma": 0.5,
            "kind": "continuous",
        }
        problem, _ = parse_scenario(write_scenario(tmp_path, scen))
        assert isinstance(problem.importance, Ratio)
        assert problem.importance.eta == pytest.approx(0.1, rel=1e-12)

    def test_mixed_db_and_natural_rejected(self, tmp_path):
        scen = {
            "marginals": [{"kind": "lognormal",
                           "params": {"mu": 0.0, "sigma_db": 4.0}}],
            "directions": ["I"],
            "importance": {"kind": "sum"},
            "gamma": 1.0,
            "kind": "continuous",
        }
        with pytest.raises(ScenarioError, match=r"\$\.marginals\[0\]\.params"):
            parse_scenario(write_scenario(tmp_path, scen))

    def test_error_paths_carry_json_paths(self, tmp_path):
        scen = dict(EXP_SUM)
        scen["marginals"] = [{"kind": "exponential", "params": {"rate": -1.0}}]
        scen["directions"] = ["I"]
        with pytest.raises(ScenarioError, match=r"\$\.marginals\[0\]"):
            parse_scenario(write_scenario(tmp_path, scen))

    def test_unknown_kind_rejected(self, tmp_path):
        scen = dict(EXP_SUM)
        scen["marginals"] = [{"kind": "rice", "params": {}}]
        scen["directions"] = ["I"]
        with pytest.raises(ScenarioError, match="unknown distribution kind"):
            parse_scenario(write_scenario(tmp_path, scen))

    @pytest.mark.parametrize("field,value,path", [
        ("marginals", [{"kind": "exponential", "params": {"rate": None}}] * 4, r"\$\.marginals\[0\]"),
        ("importance", {"kind": "ratio", "eta": None}, r"\$\.importance"),
        ("importance", {"kind": "weighted_sum", "weights": 5}, r"\$\.importance"),
        ("directions", 5, r"\$\.directions"),
        ("importance", {"kind": "ordered_partial_sum", "n_bar": True}, r"\$\.importance"),
        ("directions", "IIII", r"\$\.directions"),
        ("marginals", [{"kind": "weibull", "params": {"alpha": True, "eta": 1.0}}] * 4,
         r"\$\.marginals\[0\]"),
        ("marginals", [{"kind": "weibull", "params": {"alpha": "0.5", "eta": 1.0}}] * 4,
         r"\$\.marginals\[0\]"),
        # float() of an integer past the double range raises OverflowError
        pytest.param("gamma", 10 ** 400, r"\$\.gamma", id="gamma-huge-int"),
        pytest.param("marginals", [{"kind": "lognormal",
                                    "params": {"mu": 10 ** 400, "sigma": 1.0}}] * 4,
                     r"\$\.marginals\[0\]", id="marginals-huge-mu"),
        pytest.param("marginals", [{"kind": "lognormal",
                                    "params": {"mu_db": 10 ** 400, "sigma_db": 4.0}}] * 4,
                     r"\$\.marginals\[0\]\.params\.mu_db", id="marginals-huge-mu_db"),
        pytest.param("importance", {"kind": "weighted_sum", "weights": [10 ** 400, 1, 1, 1]},
                     r"\$\.importance", id="importance-huge-weight"),
        # importance fields follow the marginals' rules: no unknown field, and
        # each value a JSON number (weights: an array of them)
        pytest.param("importance", {"kind": "sum", "weights": [1, 100]},
                     r"\$\.importance: .*unknown fields", id="importance-sum-weights"),
        pytest.param("importance", {"kind": "weighted_sum", "weights": [1, 1, 1, 1], "w": 2},
                     r"\$\.importance: .*unknown fields", id="importance-weighted_sum-extra"),
        pytest.param("importance", {"kind": "ordered_partial_sum", "n_bar": 2, "eta": 1},
                     r"\$\.importance: .*unknown fields", id="importance-ordered_partial_sum-extra"),
        pytest.param("importance", {"kind": "ratio", "eta": 0.5, "n_bar": 2},
                     r"\$\.importance: .*unknown fields", id="importance-ratio-extra"),
        pytest.param("importance", {"kind": "ratio", "eta_db": -10.0, "weights": [1, 1]},
                     r"\$\.importance: .*unknown fields", id="importance-ratio-eta_db-extra"),
        pytest.param("importance", {"kind": "weighted_sum", "weights": "1212"},
                     r"\$\.importance", id="importance-weights-string"),
        pytest.param("importance", {"kind": "weighted_sum", "weights": [True, 1, 1, 1]},
                     r"\$\.importance", id="importance-weights-bool"),
        pytest.param("importance", {"kind": "ratio", "eta": "0.5"},
                     r"\$\.importance", id="importance-eta-string"),
        pytest.param("importance", {"kind": "ratio", "eta": True},
                     r"\$\.importance", id="importance-eta-bool"),
        # a marginal holds only kind and params, and a scenario only its five fields
        pytest.param("marginals", [{"kind": "exponential", "params": {"rate": 1.0}, "rate_db": 3}] * 4,
                     r"\$\.marginals\[0\]: unknown fields \['rate_db'\]", id="marginal-extra-key"),
        pytest.param("gama", 2, r"\$: unknown fields \['gama'\]", id="scenario-extra-key"),
    ])
    def test_wrong_json_types_rejected(self, tmp_path, field, value, path):
        scen = {**EXP_SUM, field: value}
        with pytest.raises(ScenarioError, match=path):
            parse_scenario(write_scenario(tmp_path, scen))

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            parse_scenario("/nonexistent/scenario.json")


class TestUnreadableOrUnwritable:
    """A scenario file that cannot be read or an --out that cannot be written
    is a configuration error, and an allocation that fails is an estimation
    error: each ends in one stderr line, never a traceback."""

    @pytest.mark.parametrize("command", ["run", "levels", "verify"])
    @pytest.mark.parametrize("case", ["directory", "not-utf8"])
    def test_unreadable_scenario(self, tmp_path, capsys, command, case):
        path = tmp_path
        if case == "not-utf8":
            path = tmp_path / "scenario.json"
            path.write_bytes(b"\xff" + json.dumps(EXP_SUM).encode())
        assert main([command, "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("configuration error:")

    @pytest.mark.parametrize("argv", [
        ["run", "--method", "naive", "--m", "100"],
        ["levels"],
        ["verify", "--method", "naive", "--m", "100"],
        ["reproduce", "--table", "I", "--s", "100", "--m", "2", "--baseline-m", "100"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out(self, tmp_path, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("--out is checked before the first schedule or estimate")

        monkeypatch.setattr(cli, "run_estimation", no_work)
        monkeypatch.setattr(cli, "build_schedule", no_work)
        out = tmp_path / "missing" / "r.json"
        if argv[0] != "reproduce":
            argv = [*argv, "--scenario", str(write_scenario(tmp_path, EXP_SUM))]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"configuration error: --out {out}: cannot be written: ")

    def test_out_unwritable_by_the_end_of_the_run(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        estimate = cli.run_estimation

        def run_estimation(*args, **kwargs):
            out_dir.rmdir()  # after the check, before the write
            return estimate(*args, **kwargs)

        monkeypatch.setattr(cli, "run_estimation", run_estimation)
        scen = write_scenario(tmp_path, EXP_SUM)
        out = out_dir / "r.json"
        assert main(["run", "--scenario", str(scen), "--method", "naive", "--m", "100",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        timing, line = captured.err.splitlines()
        assert timing.startswith("[timing] ")
        assert line.startswith(f"configuration error: --out {out}: cannot be written: ")

    @pytest.mark.parametrize("out_exists", [True, False], ids=["existing-out", "new-out"])
    @pytest.mark.parametrize("failure,code", [
        ("bad-json", 2), ("bad-default", 2), ("estimation-error", 3)])
    def test_failed_run_writes_no_file(self, tmp_path, capsys, monkeypatch, out_exists,
                                       failure, code):
        def run_estimation(*args, **kwargs):
            raise ValueError("the estimate failed")

        monkeypatch.setattr(cli, "run_estimation", run_estimation)
        data = load_preset("I")
        if failure == "bad-default":
            data["defaults"]["p_bar"] = 2.0  # checked after --out
        scen = write_scenario(tmp_path, data)
        if failure == "bad-json":
            scen.write_text("{")
        out = tmp_path / "r.json"
        if out_exists:
            out.write_text("an earlier report\n")
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == code
        assert len(capsys.readouterr().err.splitlines()) == 1
        if out_exists:
            assert out.read_text() == "an earlier report\n"
        else:
            assert not out.exists()

    def test_out_may_be_the_scenario(self, tmp_path):
        scen = write_scenario(tmp_path, EXP_SUM)
        assert main(["run", "--scenario", str(scen), "--method", "naive", "--m", "100",
                     "--out", str(scen)]) == 0
        assert json.loads(scen.read_text())["method"] == "naive"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_may_be_a_named_pipe(self, tmp_path):
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
        reader.start()
        scen = write_scenario(tmp_path, EXP_SUM)
        proc = subprocess.run([sys.executable, "-m", "raresplit", "levels", "--scenario",
                               str(scen), "--out", str(fifo)], capture_output=True, text=True,
                              timeout=60)
        reader.join(60)
        assert proc.returncode == 0, proc.stderr
        assert read and json.loads(read[0])["times"][-1] == 1.0

    @pytest.mark.parametrize("argv", [
        ["run"], ["verify"], ["reproduce", "--table", "I"]], ids=lambda argv: argv[0])
    def test_out_of_memory(self, tmp_path, capsys, monkeypatch, argv):
        def run_estimation(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        # a real oversized --s could be granted by a kernel that overcommits
        monkeypatch.setattr(cli, "run_estimation", run_estimation)
        if argv[0] != "reproduce":
            argv = [*argv, "--scenario", str(write_scenario(tmp_path, EXP_SUM))]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == "estimation error: Unable to allocate 7.28 TiB for an array"


class TestColdStart:
    def test_cli_import_loads_no_scipy_integrate(self):
        # scipy.integrate pulls these in; only the ratio oracle's quadrature needs it
        heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.fft"]
        src = str(Path(cli.__file__).resolve().parent.parent)
        code = (f"import sys; sys.path.insert(0, {src!r}); import raresplit.cli; "
                f"print([m for m in {heavy!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestPresets:
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_presets_round_trip(self, table, tmp_path):
        preset = load_preset(table)
        problem = preset_problem(preset)
        assert problem.n >= 1
        # the preset file itself must parse through the scenario reader
        path = write_scenario(tmp_path, preset, f"{table}.json")
        parsed, defaults = parse_scenario(path)
        assert parsed == problem
        assert defaults.get("s") == 3000 and defaults.get("m") == 200

    def test_renamed_copy_reads_its_own_presets(self, tmp_path, monkeypatch):
        # a copy of the package under another name loads the presets it ships
        copy = tmp_path / "raresplit_copy"
        shutil.copytree(Path(cli.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        table5 = copy / "presets" / "table5.json"
        data = json.loads(table5.read_text())
        data["defaults"]["pilot_levels"] = 7
        table5.write_text(json.dumps(data))
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            copied = importlib.import_module("raresplit_copy.cli")
            assert copied.load_preset("V")["defaults"]["pilot_levels"] == 7
        finally:
            for name in [n for n in sys.modules if n.split(".")[0] == "raresplit_copy"]:
                del sys.modules[name]
        assert load_preset("V")["defaults"]["pilot_levels"] == 12

    def test_table6_db_resolution(self):
        problem = preset_problem(load_preset("VI"))
        db = math.log(10.0) / 10.0
        assert problem.marginals[0].mu == pytest.approx(20 * db)
        assert problem.marginals[0].sigma == pytest.approx(6 * db)
        assert problem.marginals[1].sigma == pytest.approx(4 * db)
        assert problem.importance.eta == pytest.approx(0.1)
        assert problem.directions == ("I",) + ("D",) * 10

    def test_table1_scenario(self):
        problem = preset_problem(load_preset("I"))
        assert problem.kind == "poisson"
        assert problem.n == 12
        assert problem.rates()[-1] == pytest.approx(3.2)
        assert list(problem.importance.weights) == [float(i) for i in range(1, 13)]


class TestCliRun:
    def test_byte_identical_reports(self, tmp_path):
        scen = write_scenario(tmp_path, EXP_SUM)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            proc = run_cli("run", "--scenario", str(scen), "--method", "split",
                           "--s", "200", "--m", "10", "--seed", "77",
                           "--out", str(out))
            assert proc.returncode == 0, proc.stderr
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["method"] == "split"
        assert report["wall_seconds"] is None  # timing suppressed by default
        assert report["seed"] == 77

    def test_threads_is_no_flag(self, tmp_path, capsys):
        # --threads was --workers' first name; it is an unknown flag now
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(load_preset("V")))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(preset), "--s", "300", "--m", "4", "--threads", "2"])
        assert exc.value.code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == "configuration error: raresplit: unrecognized arguments: --threads 2"

    def test_csv_format_and_columns(self, tmp_path):
        scen = write_scenario(tmp_path, EXP_SUM)
        out = tmp_path / "r.csv"
        proc = run_cli("run", "--scenario", str(scen), "--method", "naive",
                       "--m", "20000", "--seed", "1", "--format", "csv",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert rows[1][0] == "1.5" and rows[1][1] == "naive"

    def test_timing_flag_includes_wall(self, tmp_path):
        scen = write_scenario(tmp_path, EXP_SUM)
        out = tmp_path / "t.json"
        proc = run_cli("run", "--scenario", str(scen), "--method", "split",
                       "--s", "200", "--m", "5", "--seed", "3", "--timing",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["wall_seconds"] > 0
        assert report["schedule_seconds"] >= 0

    def test_split_wall_covers_the_schedule_build(self):
        # replicate times only its replications; run_estimation's report
        # covers the whole call, and re and wnrv are derived from it
        problem = cli.ProblemSpec.from_json(EXP_SUM)
        report = cli.run_estimation(problem, "split", s=200, m=5, seed=3)
        assert 0 < report.schedule_seconds < report.wall_seconds
        assert report.wnrv == pytest.approx(report.re ** 2 * report.wall_seconds, rel=1e-12)

    def test_gamma_override(self, tmp_path):
        scen = write_scenario(tmp_path, EXP_SUM)
        proc = run_cli("run", "--scenario", str(scen), "--method", "naive",
                       "--m", "5000", "--gamma", "-1", "--seed", "1",
                       "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("-1.0,naive,0.0")

    def test_config_error_exit_2(self, tmp_path):
        proc = run_cli("run", "--scenario", str(tmp_path / "missing.json"))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_runtime_error_exit_3(self, tmp_path):
        # lb levels on a ratio scenario is an estimation-time failure
        preset_path = tmp_path / "t6.json"
        preset_path.write_text(json.dumps(load_preset("VI")))
        proc = run_cli("run", "--scenario", str(preset_path),
                       "--levels-method", "lb", "--s", "200", "--m", "5")
        assert proc.returncode == 3
        assert "inverse_ccdf_schedule" in proc.stderr

    def test_is_requires_poisson(self, tmp_path):
        scen = write_scenario(tmp_path, EXP_SUM)
        proc = run_cli("run", "--scenario", str(scen), "--method", "is", "--m", "100")
        assert proc.returncode == 2


class TestCliLevels:
    def test_levels_json(self, tmp_path):
        scen = write_scenario(tmp_path, EXP_SUM)
        proc = run_cli("levels", "--scenario", str(scen), "--gamma", "0.1")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        times, targets = payload["times"], payload["targets"]
        assert times[-1] == 1.0
        assert all(b > a for a, b in zip(times, times[1:]))
        # lb levels aim at P^(l/L), P the survival curve at t = 1 of the box
        # run: the Gamma(4, 1) CDF at 0.1 over the box mass (1 - e^{-0.1})^4,
        # up to the curve bracket's resolution
        L = len(targets)
        assert L == len(times)
        for l, q in enumerate(targets, start=1):
            assert math.log(q) == pytest.approx(l / L * math.log(targets[-1]), rel=1e-12)
        box_mass = (-math.expm1(-0.1)) ** 4
        assert targets[-1] == pytest.approx(special.gammainc(4, 0.1) / box_mass, rel=0.03)

    def test_levels_csv(self, tmp_path):
        scen = write_scenario(tmp_path, EXP_SUM)
        proc = run_cli("levels", "--scenario", str(scen), "--gamma", "0.5",
                       "--format", "csv")
        assert proc.returncode == 0
        header = proc.stdout.splitlines()[0]
        assert header == "level,time,target"

    def test_levels_iccdf_method(self, tmp_path):
        scen = write_scenario(tmp_path, EXP_SUM)
        proc = run_cli("levels", "--scenario", str(scen), "--gamma", "0.5",
                       "--levels-method", "iccdf", "--pilot-levels", "6",
                       "--s", "500", "--seed", "4")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["times"][-1] == 1.0
        assert len(payload["times"]) >= 2


class TestCliVerify:
    def test_verified_within_three_se(self, tmp_path):
        scen = write_scenario(tmp_path, EXP_SUM)
        proc = run_cli("verify", "--scenario", str(scen), "--gamma", "0.5",
                       "--s", "500", "--m", "50", "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        verdict = json.loads(proc.stdout)
        assert verdict["verified"] is True
        assert verdict["abs_diff"] <= verdict["three_se"]
        assert verdict["oracle"] == pytest.approx(1.7516e-3, rel=1e-3)

    def test_naive_method(self, tmp_path):
        scen = write_scenario(tmp_path, EXP_SUM)
        proc = run_cli("verify", "--scenario", str(scen), "--method", "naive",
                       "--m", "100000", "--seed", "5")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verified"] is True

    def test_ratio_verified_end_to_end(self, tmp_path, capsys):
        # the oracle keeps its digits at c ~ 1.2e-8; a quadrature with an
        # absolute tolerance read 7.0e-9 and failed this correct estimate
        scen = write_scenario(tmp_path, LOGNORMAL_RATIO)
        assert main(["verify", "--scenario", str(scen), "--levels-method", "iccdf",
                     "--s", "3000", "--m", "100", "--seed", "1"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verified"] is True
        assert verdict["oracle"] == pytest.approx(1.2388120057e-8, rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    @pytest.mark.parametrize("law", [{"kind": "exponential", "params": {"rate": 1.0}},
                                     {"kind": "weibull", "params": {"alpha": 0.5, "eta": 1.0}}])
    def test_nonpositive_gamma_exit_3(self, tmp_path, capsys, gamma, law):
        # the oracle reads 0 for every continuous sum, bracketed or not, and
        # no schedule can reach a curve that is 0 at t = 1
        scen = write_scenario(tmp_path, {**EXP_SUM, "marginals": [law] * 4, "gamma": gamma})
        assert main(["verify", "--scenario", str(scen), "--s", "300", "--m", "4"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("estimation error: ") and "0 to double precision" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("table", ["V", "VI"])
    def test_is_on_a_continuous_scenario_names_the_method(self, tmp_path, capsys, table):
        # the method's needs are checked with the settings, before the oracle,
        # whose refusal (a bracket, a ratio of 11 laws) would hide the reason
        preset = write_scenario(tmp_path, load_preset(table))
        assert main(["verify", "--scenario", str(preset), "--method", "is", "--m", "10"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == "configuration error: --method is requires a poisson scenario"

    @pytest.mark.parametrize("method", ["split", "naive", "is"])
    def test_zero_spread_agrees_within_the_oracle_rounding(self, tmp_path, method):
        # every sample sits below gamma = 1000, so each method reads 1.0 with
        # no spread, while the DP oracle's sum rounds to 1 - 2^-52
        preset = write_scenario(tmp_path, load_preset("I"), "t1.json")
        proc = run_cli("verify", "--scenario", str(preset), "--gamma", "1000",
                       "--s", "300", "--m", "20", "--method", method)
        assert proc.returncode == 0, proc.stderr
        verdict = json.loads(proc.stdout)
        assert verdict["mean"] == 1.0 and verdict["three_se"] == 0.0
        assert verdict["oracle"] == pytest.approx(1.0, rel=1e-12) and verdict["verified"] is True


class TestBox:
    """Splitting and naive MC run every sum on its box (``ProblemSpec.boxed``)."""

    def test_split_report_is_the_mass_times_the_boxed_run(self):
        problem = preset_problem(load_preset("IV"), 0.3)
        boxed, log_mass = problem.boxed()
        mass = math.exp(log_mass)
        report = cli.run_estimation(problem, "split", s=300, m=6, seed=4)
        plain = replicate(boxed, lower_bound_schedule(boxed), 300, 6, RngStream(4))
        assert report.mean == mass * plain.mean > 0
        assert report.variance == mass * (mass * plain.variance)
        assert report.re == pytest.approx(plain.re, rel=1e-12)
        assert (report.levels, report.per_level_survival) == (plain.levels,
                                                              plain.per_level_survival)

    def test_naive_report_is_the_mass_times_the_boxed_run(self):
        problem = cli.ProblemSpec.from_json({**EXP_SUM, "gamma": 0.5})
        boxed, log_mass = problem.boxed()
        mass = math.exp(log_mass)
        report = cli.run_estimation(problem, "naive", m=20000, seed=2)
        plain = naive_mc(boxed, 20000, RngStream(2))
        assert report.mean == mass * plain.mean > 0
        assert report.variance == mass * (mass * plain.variance)

    @pytest.mark.parametrize("gamma", [1e-40, 1e-12])
    def test_mass_that_underflows_runs_as_without_a_box(self, tmp_path, capsys, gamma):
        # gamma = 1e-40 puts F(b) past the underflow, 1e-12 the product of
        # the 15 F(b); either way the run meets the plain problem's refusal
        problem = preset_problem(load_preset("V"), gamma)
        assert problem.boxed() == (problem, 0.0)
        with pytest.raises(SchedulingError) as exc:
            lower_bound_schedule(problem)
        preset = write_scenario(tmp_path, load_preset("V"), "t5.json")
        assert main(["run", "--scenario", str(preset), "--gamma", str(gamma),
                     "--s", "300", "--m", "4"]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"estimation error: {exc.value}"

    def test_zero_weight_matches_the_unboxed_estimate(self):
        # the zero-weight coordinate stays uncut; the box and the plain
        # problem estimate one probability
        problem = cli.ProblemSpec.from_json({
            "marginals": [{"kind": "exponential", "params": {"rate": 1.0}},
                          {"kind": "weibull", "params": {"alpha": 0.8, "eta": 1.0}},
                          {"kind": "exponential", "params": {"rate": 0.5}}],
            "directions": ["I"] * 3,
            "importance": {"kind": "weighted_sum", "weights": [1.0, 0.0, 2.0]},
            "gamma": 0.2, "kind": "continuous"})
        assert problem.boxed()[0].marginals[1] == problem.marginals[1]
        boxed = cli.run_estimation(problem, "split", s=1000, m=40, seed=6)
        plain = replicate(problem, lower_bound_schedule(problem), 1000, 40, RngStream(6))
        se = math.hypot(math.sqrt(boxed.variance / 40), math.sqrt(plain.variance / 40))
        assert abs(boxed.mean - plain.mean) <= 3.0 * se

    @pytest.mark.parametrize("gamma", ["0.05", "0.3", "1e-3"])
    def test_verify_exponential_sum_with_the_box(self, tmp_path, capsys, gamma):
        scen = write_scenario(tmp_path, EXP_SUM)
        assert cli.ProblemSpec.from_json({**EXP_SUM, "gamma": float(gamma)}).boxed()[1] < 0.0
        assert main(["verify", "--scenario", str(scen), "--gamma", gamma,
                     "--s", "1000", "--m", "40", "--seed", "3"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verified"] is True
        assert verdict["oracle"] == pytest.approx(special.gammainc(4, float(gamma)), rel=1e-12)

    def test_levels_print_the_boxed_schedule(self, tmp_path, capsys):
        preset = write_scenario(tmp_path, load_preset("V"), "t5.json")
        assert main(["levels", "--scenario", str(preset), "--gamma", "1.39"]) == 0
        printed = json.loads(capsys.readouterr().out)
        boxed = preset_problem(load_preset("V"), 1.39).boxed()[0]
        schedule = lower_bound_schedule(boxed)
        assert printed["times"] == list(schedule.times) and len(schedule) == 6
        assert printed["targets"] == list(schedule.targets)


POISSON_PAST_ITS_LATTICE = {
    "marginals": [{"kind": "poisson", "params": {"lambda": 1e6}},
                  {"kind": "poisson", "params": {"lambda": 1.0}}],
    "directions": ["I", "I"], "importance": {"kind": "weighted_sum", "weights": [1, 1]},
    "gamma": 999000, "kind": "poisson"}

TOP_OF_MIXED_LAWS = {
    "marginals": [{"kind": "weibull", "params": {"alpha": 0.5, "eta": 1.0}},
                  {"kind": "weibull", "params": {"alpha": 0.8, "eta": 1.0}},
                  {"kind": "exponential", "params": {"rate": 1.0}},
                  {"kind": "weibull", "params": {"alpha": 0.5, "eta": 2.0}}],
    "directions": ["I"] * 4, "importance": {"kind": "ordered_partial_sum", "n_bar": 2},
    "gamma": 0.3, "kind": "continuous"}

# one problem for each reason the curve engine gives for having no curve, or
# no exact answer: its scenario and the reason, by command where they differ
REFUSALS = {
    # a supported family; only the lattice budget stops it, at lb's share
    # MAX_LATTICE / _GRID for each of its times and at all of it for verify
    "poisson_lattice": (POISSON_PAST_ITS_LATTICE, {
        "levels": f"lattice passes {MAX_LATTICE // _GRID:,} pairs, its share of "
                  f"curve.MAX_LATTICE = {MAX_LATTICE:,}",
        "verify": f"lattice passes {MAX_LATTICE:,} pairs, its share of "
                  f"curve.MAX_LATTICE = {MAX_LATTICE:,}"}),
    "table6_ratio": (load_preset("VI"), "no curve for a ratio of 11 coordinates"),
    "top_of_mixed_laws": (TOP_OF_MIXED_LAWS,
                          "no curve for the top 2 of 4 laws that are not identical"),
    # lb places its levels on the bracket; only verify needs an exact answer
    "table5_bracket": (load_preset("V"), "no exact answer: the engine only brackets"),
}


class TestRefusals:
    """``levels --levels-method lb`` exits 3 and ``verify`` exits 2, each
    with one stderr line that carries the engine's own reason."""

    @pytest.mark.parametrize("command, case", [
        *(("levels", case) for case in REFUSALS if case != "table5_bracket"),
        *(("verify", case) for case in REFUSALS)])
    def test_one_line_names_the_reason(self, tmp_path, capsys, command, case):
        scenario, reason = REFUSALS[case]
        reason = reason[command] if isinstance(reason, dict) else reason
        scen = write_scenario(tmp_path, scenario)
        extra = ["--levels-method", "lb"] if command == "levels" else ["--s", "300", "--m", "4"]
        code = main([command, "--scenario", str(scen), *extra])
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert reason in line
        if command == "levels":
            assert code == 3 and line.startswith("estimation error: lower_bound_schedule: ")
            assert line.endswith("; use --levels-method iccdf (inverse_ccdf_schedule) instead")
        else:
            assert code == 2 and line.startswith("configuration error: ")


class TestNonFiniteGamma:
    @pytest.mark.parametrize("command", ["run", "levels", "verify"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_config_error_exit_2(self, tmp_path, command, value):
        scen = write_scenario(tmp_path, EXP_SUM)
        # the = form keeps argparse from reading "-inf" as an option
        proc = run_cli(command, "--scenario", str(scen), f"--gamma={value}")
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr


class TestWarnings:
    """A library warning reaches the user as one ``warning:`` stderr line."""

    def test_is_clamp_is_one_line(self, tmp_path):
        # theta >= 1: IS is clamped to naive MC and says so
        preset = write_scenario(tmp_path, load_preset("I"), "t1.json")
        proc = run_cli("run", "--scenario", str(preset), "--method", "is", "--m", "1000",
                       "--gamma", "1e9")
        assert proc.returncode == 0, proc.stderr
        warning, timing = proc.stderr.splitlines()
        assert warning.startswith("warning: theta = gamma / sum(w*lambda) = ")
        assert warning.endswith("(the event is not rare and the estimator reduces to naive MC)")
        assert timing.startswith("[timing] ")

    def test_a_warning_raised_as_an_error_is_one_line(self, tmp_path):
        # -W error turns the warning into an exception: an estimation error, not a traceback
        preset = write_scenario(tmp_path, load_preset("I"), "t1.json")
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "raresplit", "run",
                               "--scenario", str(preset), "--method", "is", "--m", "1000",
                               "--gamma", "1e9"], capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("estimation error: theta = gamma / sum(w*lambda) = ")
        assert proc.stdout == ""

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_only_the_cli_call_shows_warnings_its_way(self, tmp_path, capsys):
        shown = warnings.showwarning
        preset = write_scenario(tmp_path, load_preset("I"), "t1.json")
        assert main(["run", "--scenario", str(preset), "--method", "is", "--m", "1000",
                     "--gamma", "1e9"]) == 0
        assert capsys.readouterr().err.splitlines()[0].startswith("warning: theta = ")
        assert warnings.showwarning is shown


BAD_SETTINGS = [
    ("--s", "1"), ("--m", "1"), ("--pbar", "1.5"),
    ("--levels-method", "iccdf", "--s", "50"), ("--pilot-levels", "1"),
]
# every command takes these flags; listed apart so the ids above keep their numbers
BAD_COMMON_FLAGS = [("--seed", "-1"), ("--workers", "0")]


# each scenario command's flags at a desk scale
SMALL = {"run": ("--s", "120", "--m", "3"), "levels": ("--s", "120"),
         "verify": ("--s", "120", "--m", "3")}


class TestBadSettings:
    """A setting no estimator can run with is a configuration error (exit 2,
    one stderr line), caught before any estimation starts."""

    @pytest.mark.parametrize("command,table,flags", [
        *[("run", "V", f) for f in BAD_SETTINGS],
        *[("levels", "V", f) for f in BAD_SETTINGS if f[0] != "--m"],
        ("levels", "V", ("--s", "1")),
        *[("verify", "I", f) for f in BAD_SETTINGS],
        ("verify", "I", ("--method", "is", "--m", "0")),
        ("run", "V", ("--method", "naive", "--m", "0")),
        ("run", "I", ("--method", "is", "--gamma=-1")),
        ("verify", "I", ("--method", "is", "--gamma=-1")),
        *[(command, table, f) for command, table in (("run", "V"), ("levels", "V"), ("verify", "I"))
          for f in BAD_COMMON_FLAGS],
        # one past the schedules' level cap; a larger value is never run
        *[(command, table, ("--pilot-levels", "10001"))
          for command, table in (("run", "V"), ("levels", "V"), ("verify", "I"))],
        # a sample variance needs two samples, whatever the method
        ("run", "V", ("--method", "naive", "--m", "1")),
        ("verify", "I", ("--method", "is", "--m", "1")),
    ])
    def test_scenario_commands(self, tmp_path, capsys, command, table, flags):
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(load_preset(table)))
        assert main([command, "--scenario", str(preset), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,key,value", [
        pytest.param("run", "s", "abc", id="run"),
        pytest.param("levels", "s", "abc", id="levels"),
        pytest.param("verify", "s", "abc", id="verify"),
        pytest.param("run", "s", 300.9, id="run-s-fraction"),
        pytest.param("run", "m", True, id="run-m-bool"),
        pytest.param("levels", "pilot_levels", 2.5, id="levels-pilot_levels-fraction"),
        pytest.param("verify", "m", 2.9, id="verify-m-fraction"),
        pytest.param("reproduce", "naive_m", 1e6 + 0.5, id="reproduce-naive_m-fraction"),
        pytest.param("reproduce", "is_m", True, id="reproduce-is_m-bool"),
        pytest.param("run", "p_bar", 10 ** 400, id="run-p_bar-huge-int"),
        pytest.param("levels", "p_bar", "0.05", id="levels-p_bar-string"),
        pytest.param("levels", "levels_method", ["lb"], id="levels-levels_method-array"),
        # a string no schedule knows: caught with the other settings, before any estimate
        pytest.param("run", "levels_method", "bogus", id="run-levels_method-unknown"),
        pytest.param("reproduce", "levels_method", "bogus", id="reproduce-levels_method-unknown"),
    ])
    def test_bad_preset_default(self, tmp_path, capsys, monkeypatch, command, key, value):
        data = load_preset("I")
        data["defaults"][key] = value
        if command == "reproduce":
            monkeypatch.setattr(cli, "load_preset", lambda table: data)
            argv = ["reproduce", "--table", "I"]
        else:
            preset = tmp_path / "preset.json"
            preset.write_text(json.dumps(data))
            argv = [command, "--scenario", str(preset)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: $.defaults.{key}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("defaults", [5, None, "abc", [["s", 100]]],
                             ids=["number", "null", "string", "pairs"])
    @pytest.mark.parametrize("command", ["run", "levels", "verify"])
    def test_defaults_not_an_object(self, tmp_path, capsys, command, defaults):
        data = load_preset("I")
        data["defaults"] = defaults
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(data))
        assert main([command, "--scenario", str(preset)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: $.defaults: must be an object")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("where,value,path", [
        pytest.param(("rows", 2, "gamma"), "abc", "$.rows[2].gamma", id="row-gamma-string"),
        pytest.param(("rows", 1, "gamma"), math.inf, "$.rows[1].gamma", id="row-gamma-inf"),
        pytest.param(("defaults", "methods"), ["split", "bogus"], "$.defaults.methods",
                     id="methods-unknown"),
        pytest.param(("defaults", "methods"), "split", "$.defaults.methods", id="methods-string"),
    ])
    def test_reproduce_checks_preset_first(self, capsys, monkeypatch, where, value, path):
        data = load_preset("I")
        node = data
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        monkeypatch.setattr(cli, "load_preset", lambda table: data)

        def no_estimate(*args, **kwargs):
            raise AssertionError("an estimate ran before the preset was checked")

        monkeypatch.setattr(cli, "run_estimation", no_estimate)
        assert main(["reproduce", "--table", "I"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: ")
        assert len(err.splitlines()) == 1

    def test_pilot_levels_cap_from_preset_default(self, tmp_path, capsys):
        data = load_preset("V")
        data["defaults"]["pilot_levels"] = 10_001
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(data))
        assert main(["levels", "--scenario", str(preset)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: pilot_levels = 10001: ")
        assert len(err.splitlines()) == 1

    def test_integral_float_default_accepted(self, tmp_path, capsys):
        data = load_preset("I")
        data["defaults"].update(s=3e2, m=4.0)
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(data))
        assert main(["run", "--scenario", str(preset)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["s"] == 300 and report["m"] == 4

    @pytest.mark.parametrize("flags", [
        ("--s", "1"), ("--m", "1"), ("--baseline-m", "0"),
        ("--table", "VI", "--s", "50"), ("--seed", "-1"), ("--baseline-m", "1"),
    ])
    def test_reproduce(self, capsys, flags):
        argv = ["reproduce", *flags] if "--table" in flags else ["reproduce", "--table", "I", *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


    @pytest.mark.parametrize("command", ["run", "levels", "verify"])
    @pytest.mark.parametrize("where,key,path", [
        pytest.param((), "extra", "$", id="wrapper"),
        pytest.param(("defaults",), "pbar", "$.defaults", id="defaults"),
    ])
    def test_unknown_preset_key(self, tmp_path, capsys, command, where, key, path):
        # a misspelt key is refused, never run at the built-in value
        data = load_preset("I")
        data["defaults"]["p_bar"] = 0.5
        functools.reduce(operator.getitem, where, data)[key] = 0.5
        preset = write_scenario(tmp_path, data, "preset.json")
        assert main([command, "--scenario", str(preset), *SMALL[command]]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: {path}: unknown fields [{key!r}]\n"

    def test_reproduce_refuses_an_unknown_default(self, capsys, monkeypatch):
        data = load_preset("I")
        data["defaults"]["baseline_m"] = 20
        monkeypatch.setattr(cli, "load_preset", lambda table: data)
        assert main(["reproduce", "--table", "I", "--s", "120", "--m", "3"]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: $.defaults: unknown fields ['baseline_m']\n"

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_every_built_in_preset_gives_each_known_key_once(self, table):
        cli._read_scenario(load_preset(table))  # load_preset refuses a repeated key


# a two-exponential sum, as JSON text in which one key is given twice
TWO_EXP = {"marginals": [{"kind": "exponential", "params": {"rate": 1.0}}] * 2,
           "directions": ["I", "I"], "importance": {"kind": "sum"}, "gamma": 5.0,
           "kind": "continuous"}


class TestRepeatedKey:
    """Every field is given once: a JSON object that repeats a key is a
    configuration error naming the key, not a run at the last value."""

    @pytest.mark.parametrize("command", ["run", "levels", "verify"])
    @pytest.mark.parametrize("old,new,key", [
        pytest.param('"gamma": 5.0', '"gamma": 0.1, "gamma": 5.0', "gamma", id="top-level"),
        pytest.param('"rate": 1.0}', '"rate": 3.0, "rate": 1.0}', "rate", id="marginal"),
        pytest.param('"s": 3000', '"s": 300, "s": 3000', "s", id="preset-default"),
    ])
    def test_refused_with_its_name(self, tmp_path, capsys, command, old, new, key):
        text = json.dumps(TWO_EXP if key != "s" else {**load_preset("I"), "rows": []})
        assert text.count(old) >= 1
        path = tmp_path / "scenario.json"
        path.write_text(text.replace(old, new, 1))
        assert main([command, "--scenario", str(path), *SMALL[command]]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: key {key!r} is given more than once\n"


class TestNonFiniteScenario:
    """JSON reads the literal NaN (and Infinity); a non-finite weight or
    noise floor is a configuration error at its JSON path, whatever runs."""

    @pytest.mark.parametrize("command,flags", [
        ("run", ("--method", "naive", "--m", "100")),
        ("run", ("--method", "split", "--s", "300", "--m", "2")),
        ("run", ("--method", "is", "--m", "100")),
        ("verify", ("--s", "300", "--m", "2")),
    ])
    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_weighted_sum_weight(self, tmp_path, capsys, command, flags, weight):
        data = load_preset("I")
        data["scenario"]["importance"]["weights"][0] = weight
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(data))
        assert main([command, "--scenario", str(preset), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: $.scenario.importance: weights must be finite,")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("importance", [
        {"kind": "ratio", "eta": math.nan}, {"kind": "ratio", "eta": math.inf},
        {"kind": "ratio", "eta_db": math.inf},
    ])
    def test_ratio_eta(self, tmp_path, capsys, importance):
        data = load_preset("VI")
        data["scenario"]["importance"] = importance
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(data))
        assert main(["run", "--scenario", str(preset), "--method", "naive", "--m", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: $.scenario.importance: eta must be finite")
        assert len(err.splitlines()) == 1


class TestHugeJsonIntegers:
    """A JSON integer past the double range is a configuration error at its
    JSON path (exit 2, one stderr line), not an OverflowError traceback."""

    @pytest.mark.parametrize("table,where,path", [
        pytest.param("I", ("gamma",), "$.scenario.gamma", id="gamma"),
        pytest.param("V", ("marginals", 0, "params", "mu"), "$.scenario.marginals[0].params.mu",
                     id="marginal-mu"),
        pytest.param("VI", ("marginals", 0, "params", "mu_db"),
                     "$.scenario.marginals[0].params.mu_db", id="marginal-mu_db"),
    ])
    def test_scenario_field(self, tmp_path, capsys, table, where, path):
        data = load_preset(table)
        node = data["scenario"]
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = 10 ** 400
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(data))
        assert main(["run", "--scenario", str(preset), "--s", "300", "--m", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: ")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "verify"])
def test_poisson_rate_above_cap(tmp_path, capsys, command):
    # a rate one ulp above dist.MAX_POISSON_RATE fails at its marginal
    data = load_preset("I")
    data["scenario"]["marginals"][0]["params"]["lambda"] = math.nextafter(1e6, math.inf)
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps(data))
    assert main([command, "--scenario", str(preset), "--s", "300", "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: $.scenario.marginals[0]: lam must be <= 1e+06")
    assert len(err.splitlines()) == 1


def test_directions_name_the_pairing(tmp_path, capsys):
    # Table VI's ratio rises in its first coordinate and falls in the rest
    data = load_preset("VI")
    data["scenario"]["directions"] = ["I"] * len(data["scenario"]["directions"])
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps(data))
    assert main(["run", "--scenario", str(preset), "--method", "naive", "--m", "100"]) == 2
    err = capsys.readouterr().err
    [line] = err.splitlines()
    assert line.startswith("configuration error: $.scenario: directions must be ['I', 'D', ")


# every subcommand's option strings; the settings table must neither add nor drop one
COMMON_FLAGS = {"-h", "--help", "--seed", "--out", "--timing", "--workers"}
SCENARIO_FLAGS = {"--scenario", "--gamma", "--s", "--pbar", "--levels-method", "--pilot-levels"}
FLAGS = {
    "run": SCENARIO_FLAGS | {"--method", "--format", "--m"},
    "levels": SCENARIO_FLAGS | {"--format"},
    "verify": SCENARIO_FLAGS | {"--method", "--m"},
    "reproduce": {"--table", "--s", "--m", "--baseline-m"},
}


# values of the wrong type or range for any field of a preset
BAD_VALUES = [None, True, False, math.nan, math.inf, -math.inf, 1e308, -1e308, 10 ** 400,
              -10 ** 400, 0, -1, 1e-300, "", "x", "2.5", [], [1.0, "a"], {}, {"kind": "sum"}]


def json_locations(obj, path=()):
    """The path of every object key and array entry in ``obj``; the
    published rows, which run, levels and verify do not read, stay whole."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        if key != "rows":
            yield from json_locations(value, path + (key,))


@st.composite
def mutated_presets(draw):
    """A built-in preset with one key deleted, one added, or one value
    replaced by one of the wrong type or range."""
    preset = load_preset(draw(st.sampled_from(sorted(TABLES))))
    *where, key = draw(st.sampled_from(list(json_locations(preset))))
    parent = functools.reduce(operator.getitem, where, preset)
    edit = draw(st.sampled_from(["delete", "add", "replace"]))
    value = draw(st.sampled_from(BAD_VALUES))
    if edit == "delete":
        del parent[key]
    elif edit == "add" and isinstance(parent, dict):
        parent["unknown_key"] = value
    elif edit == "add":
        parent.insert(key, value)
    else:
        parent[key] = value
    return preset


def parses_as_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


# reproduce's flags at values it accepts, and for each flag values it refuses
# before the first estimate: an unknown table, an --s or a --m below 2, a
# --baseline-m below 2 (Table I runs naive and IS), a negative --seed, and
# anything that is no integer at all for a count or the seed
REPRODUCE_FLAGS = {"--table": "I", "--s": "120", "--m": "3", "--baseline-m": "20",
                   "--seed": "0"}
_NOT_AN_INT = st.text(max_size=8).filter(lambda v: not parses_as_int(v))
BAD_REPRODUCE_VALUES = {
    "--table": st.text(max_size=8).filter(lambda v: v not in TABLES),
    "--s": st.one_of(st.integers(max_value=1).map(str), _NOT_AN_INT),
    "--m": st.one_of(st.integers(max_value=1).map(str), _NOT_AN_INT),
    "--baseline-m": st.one_of(st.integers(max_value=1).map(str), _NOT_AN_INT),
    "--seed": st.one_of(st.integers(max_value=-1).map(str), _NOT_AN_INT),
}


@st.composite
def bad_reproduce_flags(draw):
    """reproduce's flags with one of them at a value it refuses."""
    flag = draw(st.sampled_from(sorted(BAD_REPRODUCE_VALUES)))
    return {**REPRODUCE_FLAGS, flag: draw(BAD_REPRODUCE_VALUES[flag])}


class TestGeneratedBadInput:
    """ROADMAP item 8's table of bad inputs, generated: every mutated preset
    exits with a documented code, a bad reproduce flag exits 2, and a
    refusal is one stderr line."""

    FLAGS = {"run": ("--s", "120", "--m", "3"), "levels": ("--s", "120"),
             "verify": ("--s", "120", "--m", "3")}

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(preset=mutated_presets())
    def test_documented_exit_and_one_line(self, preset):
        with tempfile.TemporaryDirectory() as tmp:
            scen = write_scenario(Path(tmp), preset)
            for command, flags in self.FLAGS.items():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, "--scenario", str(scen), *flags])
                assert code in (0, 1, 2, 3), (command, code)
                lines = [line for line in err.getvalue().splitlines()
                         if not line.startswith("[timing] ")]
                assert "Traceback" not in err.getvalue()
                if code in (2, 3):
                    assert len(lines) == 1, (command, lines)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(flags=bad_reproduce_flags())
    def test_reproduce_refuses_a_bad_flag_in_one_line(self, flags):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["reproduce", *(f"{k}={v}" for k, v in flags.items())])
            except SystemExit as exc:  # the parser refuses the value
                code = exc.code
        assert code == 2, (flags, err.getvalue())
        assert len(err.getvalue().splitlines()) == 1, (flags, err.getvalue())
        assert out.getvalue() == ""


class TestParser:
    def test_option_strings(self):
        sub = next(a for a in cli.make_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(FLAGS)
        for command, parser in sub.choices.items():
            got = {flag for action in parser._actions for flag in action.option_strings}
            assert got == FLAGS[command] | COMMON_FLAGS, command


class TestCsvForms:
    """The digests hash only the JSON forms; the CSV forms carry the same numbers."""

    @pytest.mark.parametrize("table", ["V", "VI"])  # an lb and an iccdf schedule
    def test_levels_csv_matches_json(self, tmp_path, capsys, table):
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(load_preset(table)))
        argv = ["levels", "--scenario", str(preset), "--s", "300", "--seed", "4"]
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main([*argv, "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["level"] for r in rows] == [str(i) for i in range(1, len(rows) + 1)]
        assert [r["time"] for r in rows] == [repr(t) for t in payload["times"]]
        assert [r["target"] for r in rows] == [repr(q) for q in payload["targets"]]

    @pytest.mark.parametrize("table,gamma,flags", [
        ("V", 1.39, ("--method", "split", "--s", "300", "--m", "4")),
        ("I", 120.0, ("--method", "naive", "--m", "3000")),  # P near 0.034: hits occur
        ("I", 50.0, ("--method", "is", "--m", "3000")),
    ])
    def test_run_csv_matches_json(self, tmp_path, capsys, table, gamma, flags):
        data = load_preset(table)
        data["scenario"]["gamma"] = gamma
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(data))
        argv = ["run", "--scenario", str(preset), *flags, "--seed", "2"]
        assert main([*argv, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main([*argv, "--format", "csv"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row == {
            "gamma": repr(gamma),
            "method": report["method"],
            "mean": repr(report["mean"]),
            "re_percent": repr(100.0 * report["re"]),
            "wnrv": "",
            "wall_seconds": "",
            "seed": "2",
        }


class TestCliReproduce:
    def test_table1_desk_scale(self, tmp_path):
        out = tmp_path / "t1.csv"
        proc = run_cli("reproduce", "--table", "I", "--s", "300", "--m", "5",
                       "--baseline-m", "20000", "--seed", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        methods = {r["method"] for r in rows}
        assert {"naive", "split", "is"} <= methods
        assert "paper_reference:split" in methods
        gammas = {r["gamma"] for r in rows if r["method"] == "split"}
        assert gammas == {"60.0", "50.0", "40.0", "30.0"}
        ref = [r for r in rows
               if r["method"] == "paper_reference:split" and r["gamma"] == "30.0"]
        assert float(ref[0]["mean"]) == pytest.approx(4.80e-7)
        assert float(ref[0]["wnrv"]) == pytest.approx(3.75e-2)

    def test_reproduce_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            proc = run_cli("reproduce", "--table", "II", "--s", "200", "--m", "4",
                           "--seed", "9", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_table(self):
        proc = run_cli("reproduce", "--table", "VII")
        assert proc.returncode == 2
