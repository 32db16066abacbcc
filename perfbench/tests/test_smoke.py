"""Tiny-shape smoke run of the benchmark, so the harness cannot rot unnoticed.

    python3 -m pytest perfbench/tests -q

Each case runs the real harness (input generation, fresh CLI processes,
output checks, metrics) on a shape small enough to take a few seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import CheckFailed, check_outputs  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

TINY = {
    "tune-p17": dict(p=5, n=40, window=30, grid=(0.0, 1.0, 0.5)),
    "backtest-p100": dict(p=6, n=30, window=24),
    "backtest-crowded": dict(p=8, n=8, window=6, max_iter=50),
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str):
    return replace(WORKLOADS[name], **TINY[name])


def metric_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    deadline = time.monotonic() + run.DEADLINE_S
    metrics, record = run.measure(tiny(name), 3, 0, trace, tmp_path, deadline)
    expected = metric_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert record["runs"] >= 1 and record["operations"]["attempted"] >= 1
    if trace:
        assert record["traced_runs"] >= 2
        assert metrics["cli.load_config.self_s"]["value"] > 0
    else:
        assert record["runs"] >= 2
        assert metrics["cpu_s"]["value"] > 0 and metrics["setup_s"]["value"] > 0
        assert 0 < metrics["ops_ok_frac"]["value"] <= 1


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def _outputs(name: str, tmp_path: Path):
    workload = tiny(name)
    config, returns = write_inputs(workload, 5, tmp_path)
    deadline = time.monotonic() + run.DEADLINE_S
    run.Invoker(tmp_path, config, workload.command, deadline)("run0", "run")
    return workload, config, tmp_path / "out-run0", returns


def test_tampered_tuning_result_fails_the_check(tmp_path):
    workload, config, out, returns = _outputs("tune-p17", tmp_path)
    check_outputs(workload, config, out, returns)
    summary = json.loads((out / "tune.json").read_text())
    summary["synth"]["Ridge-MVP"] = 0.25  # not a grid point, so never the argmax
    (out / "tune.json").write_text(json.dumps(summary))
    with pytest.raises(CheckFailed, match="argmax"):
        check_outputs(workload, config, out, returns)


def test_tampered_variance_fails_the_check(tmp_path):
    workload, config, out, returns = _outputs("backtest-p100", tmp_path)
    check_outputs(workload, config, out, returns)
    report = json.loads((out / "report.json").read_text())
    strategy = next(s for s in report["reports"][0]["strategies"] if s["name"] == "S-MVP")
    strategy["oos_variance"] *= 1 + 1e-6
    (out / "report.json").write_text(json.dumps(report))
    with pytest.raises(CheckFailed, match="S-MVP: oos_variance"):
        check_outputs(workload, config, out, returns)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = SPEC["command"] + ["--workload", "tune-p17", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
