import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import special

from raresplit import cli
from raresplit.cli import (
    CSV_COLUMNS,
    ScenarioError,
    TABLES,
    load_preset,
    main,
    parse_scenario,
    preset_problem,
)
from raresplit.dist import LogNormal, Weibull
from raresplit.model import Ratio


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
        ("directions", 5, r"\$: "),
    ])
    def test_wrong_json_types_rejected(self, tmp_path, field, value, path):
        scen = {**EXP_SUM, field: value}
        with pytest.raises(ScenarioError, match=path):
            parse_scenario(write_scenario(tmp_path, scen))

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            parse_scenario("/nonexistent/scenario.json")


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

    def test_threads_is_a_hidden_alias_of_workers(self, tmp_path, capsys):
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(load_preset("V")))
        outs = []
        for flag in ("--workers", "--threads"):
            assert main(["run", "--scenario", str(preset), "--s", "300", "--m", "4",
                         "--seed", "3", flag, "2"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        usage = capsys.readouterr().out
        assert "--workers" in usage and "--threads" not in usage

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
        # lb levels aim at P^(l/L), P the survival curve at t = 1: here the
        # Gamma(4, 1) CDF at 0.1, up to the curve bracket's resolution
        L = len(targets)
        assert L == len(times)
        for l, q in enumerate(targets, start=1):
            assert math.log(q) == pytest.approx(l / L * math.log(targets[-1]), rel=1e-12)
        assert targets[-1] == pytest.approx(special.gammainc(4, 0.1), rel=0.03)

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


    def test_levels_lb_uncovered_exit_3(self, tmp_path):
        # top 2 of 4 marginals that are not identical: no exact curve for lb
        mixed = {
            "marginals": [
                {"kind": "weibull", "params": {"alpha": 0.5, "eta": 1.0}},
                {"kind": "weibull", "params": {"alpha": 0.8, "eta": 1.0}},
                {"kind": "exponential", "params": {"rate": 1.0}},
                {"kind": "weibull", "params": {"alpha": 0.5, "eta": 2.0}},
            ],
            "directions": ["I"] * 4,
            "importance": {"kind": "ordered_partial_sum", "n_bar": 2},
            "gamma": 0.3,
            "kind": "continuous",
        }
        scen = write_scenario(tmp_path, mixed)
        proc = run_cli("levels", "--scenario", str(scen), "--levels-method", "lb")
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "--levels-method iccdf" in lines[0]


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

    def test_unsupported_family_exit_2(self, tmp_path):
        preset_path = tmp_path / "t6.json"
        preset_path.write_text(json.dumps(load_preset("VI")))
        proc = run_cli("verify", "--scenario", str(preset_path),
                       "--s", "300", "--m", "10")
        assert proc.returncode == 2
        assert "no exact oracle" in proc.stderr


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


BAD_SETTINGS = [
    ("--s", "1"), ("--m", "1"), ("--pbar", "1.5"),
    ("--levels-method", "iccdf", "--s", "50"), ("--pilot-levels", "1"),
]


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
        ("--table", "VI", "--s", "50"),
    ])
    def test_reproduce(self, capsys, flags):
        argv = ["reproduce", *flags] if "--table" in flags else ["reproduce", "--table", "I", *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


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
