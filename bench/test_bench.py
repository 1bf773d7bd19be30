"""Self-tests of the benchmark at desk scale (s = 300, m = 4).

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from raresplit import RngStream, run_splitting  # noqa: E402
from raresplit.cli import build_schedule  # noqa: E402

from replay import Spans, replay  # noqa: E402
from workloads import P_BAR, PILOT_LEVELS, WORKLOADS, make_problem  # noqa: E402

DESK = ["--seconds", "1", "--s", "300", "--m", "4"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed=1, trace=0, cwd=ROOT):
    out = subprocess.run([sys.executable, str(cwd / "bench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--trace", str(trace), *DESK],
                         cwd=cwd, capture_output=True, text=True, timeout=300)
    return out


def result(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    res = result(bench(workload, trace=trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_replay_equals_run_splitting(workload):
    wl = WORKLOADS[workload]
    problem, _ = make_problem(wl)
    rng = RngStream(5)
    schedule = build_schedule(problem, rng, levels_method=wl.levels_method,
                              p_bar=P_BAR, pilot_levels=PILOT_LEVELS, pilot_s=300)
    spans = Spans()
    levels = 0
    for i in range(3):
        expected = run_splitting(problem, schedule, 300, rng.substream(i)).survivor_counts
        assert replay(problem, schedule, 300, rng.substream(i), spans, None) == expected
        levels += len(expected)
    assert len(spans.rows) == 5 * levels  # one span per step per level


def test_seed_reaches_the_run():
    one, again, two = (result(bench("lognormal-sum", seed=s)) for s in (1, 1, 2))
    assert one["metrics"]["re"]["value"] == again["metrics"]["re"]["value"]
    assert one["metrics"]["re"]["value"] != two["metrics"]["re"]["value"]
    assert set(one["metrics"]) == set(two["metrics"])


def test_seeded_layer_counts_repeat_exactly():
    one, again = (result(bench("poisson-verify", seed=3, trace=1)) for _ in range(2))
    for name in ("sched.levels", "split.var_inflation", "split.states_per_decade"):
        assert one["metrics"][name]["value"] == again["metrics"][name]["value"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("lognormal-sum", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
