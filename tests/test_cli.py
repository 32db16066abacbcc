import json

import numpy as np
import pytest
import yaml

from conftest import panel_csv, synth_returns
from precis.cli import load_config, main
from precis.errors import ConfigError


@pytest.fixture
def workspace(tmp_path, rng):
    """Two datasets (one regular, one wider than the window) plus a config."""
    (tmp_path / "toy.csv").write_text(panel_csv(synth_returns(40, 4, rng)))
    wide = synth_returns(40, 26, rng)  # p=26 > window 24: singular windows
    (tmp_path / "wide.csv").write_text(panel_csv(wide))
    config = {
        "window_length": 24,
        "turnover": "drift",
        "out": "out",
        "grid": {"start": 0.0, "stop": 1.0, "step": 0.5},
        "solver": {"max_iter": 1500},  # bound the solves on the wide, singular windows
        "datasets": [
            {"name": "toy", "path": "toy.csv"},
            {"name": "wide", "path": "wide.csv"},
        ],
        "strategies": [
            "S-MVP",
            "EW-MVP",
            "LW-MVP",
            {"name": "Ridge-MVP", "kind": "qml_l2", "rho": 0.4},
        ],
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    return tmp_path, path


def test_describe_writes_json_and_csv(workspace, capsys):
    root, config = workspace
    assert main(["describe", "--config", str(config)]) == 0
    payload = json.loads((root / "out" / "describe" / "toy.json").read_text())
    assert payload["p"] == 4 and payload["n"] == 40
    assert abs(payload["dim_ratio"] - 0.1) < 1e-12
    csv_lines = (root / "out" / "describe" / "toy.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "asset,mean,variance,sharpe"
    assert len(csv_lines) == 5
    out = capsys.readouterr().out
    assert "toy:" in out and "wide:" in out


def test_describe_without_datasets_fails(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump({"datasets": [], "strategies": ["EW-MVP"]}))
    assert main(["describe", "--config", str(config)]) == 1


def test_missing_dataset_path_fails(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "datasets": [{"name": "x", "path": "nope.csv"}],
                "strategies": ["EW-MVP"],
            }
        )
    )
    assert main(["describe", "--config", str(config)]) == 1


def test_tune_curve_covers_grid(tmp_path, rng):
    (tmp_path / "toy.csv").write_text(panel_csv(synth_returns(40, 4, rng)))
    config = tmp_path / "run.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "window_length": 24,
                "out": "out",
                "datasets": [{"name": "toy", "path": "toy.csv"}],
                "strategies": [{"name": "Ridge-MVP", "kind": "qml_l2", "rho": "tune"}],
            }
        )
    )
    assert main(["tune", "--config", str(config), "--grid", "0:3:0.1"]) == 0
    curve = (tmp_path / "out" / "curves" / "toy_Ridge-MVP.csv").read_text().strip().splitlines()
    assert curve[0] == "rho,score"
    assert len(curve) == 1 + 31  # header plus the 0..3 step-0.1 grid
    summary = json.loads((tmp_path / "out" / "tune.json").read_text())
    assert summary["toy"]["Ridge-MVP"] is not None


def test_tune_total_failure_is_content_not_crash(workspace):
    # the wide dataset cannot converge with a starved budget; the run still
    # exits 0 and records a null rho
    root, config = workspace
    raw = yaml.safe_load(config.read_text())
    raw["solver"] = {"max_iter": 5}
    raw["datasets"] = [d for d in raw["datasets"] if d["name"] == "wide"]
    config.write_text(yaml.safe_dump(raw))
    assert main(["tune", "--config", str(config), "--grid", "0:0.5:0.5"]) == 0
    summary = json.loads((root / "out" / "tune.json").read_text())
    assert summary["wide"]["Ridge-MVP"] is None


def test_backtest_handles_singular_dataset_gracefully(workspace, capsys):
    root, config = workspace
    assert main(["backtest", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "wide S-MVP: 0/16 windows (UNAVAILABLE)" in out
    report = json.loads((root / "out" / "report.json").read_text())
    by_ds = {rep["dataset"]: rep for rep in report["reports"]}
    wide_sample = next(s for s in by_ds["wide"]["strategies"] if s["name"] == "S-MVP")
    assert wide_sample["available"] is False
    assert wide_sample["n_failed"] == 16
    wide_equal = next(s for s in by_ds["wide"]["strategies"] if s["name"] == "EW-MVP")
    assert wide_equal["available"] is True
    tables = root / "out" / "tables"
    for name in (
        "condition_numbers",
        "oos_variance",
        "oos_sharpe",
        "turnover",
        "weight_distribution",
        "sparsity",
    ):
        assert (tables / f"{name}.csv").exists()
    variance_rows = (tables / "oos_variance.csv").read_text().strip().splitlines()
    assert len(variance_rows) == 1 + 2 * 4  # header + strategies x datasets


def test_backtest_is_byte_deterministic(workspace):
    root, config = workspace
    assert main(["backtest", "--config", str(config)]) == 0
    first = (root / "out" / "report.json").read_bytes()
    assert main(["backtest", "--config", str(config)]) == 0
    second = (root / "out" / "report.json").read_bytes()
    assert first == second


def test_no_temp_files_left_behind(workspace):
    root, config = workspace
    assert main(["backtest", "--config", str(config)]) == 0
    leftovers = [p for p in (root / "out").rglob("*.tmp*")]
    assert leftovers == []


def test_flag_overrides_window(workspace, capsys):
    root, config = workspace
    assert main(["backtest", "--config", str(config), "--window", "30", "--strategies", "EW-MVP"]) == 0
    out = capsys.readouterr().out
    assert "toy EW-MVP: 10/10 windows (ok)" in out


def test_unknown_strategy_label_fails(workspace):
    root, config = workspace
    assert main(["describe", "--config", str(config), "--strategies", "Nope-MVP"]) == 1


def test_unknown_solver_key_fails(workspace):
    root, config = workspace
    raw = yaml.safe_load(config.read_text())
    raw["solver"]["algorithm"] = "auto"
    config.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match="algorithm"):
        load_config(config)
    assert main(["backtest", "--config", str(config)]) == 1


def test_diagnose_prints_per_asset_lines(workspace, capsys):
    root, config = workspace
    assert main(["diagnose", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "toy (n=40, p=4)" in out
    assert "wide (n=40, p=26)" in out
    assert out.count("max|beta|=") == 4 + 26


def test_diagnose_reports_rank_deficiency_without_failing(tmp_path, rng, capsys):
    returns = synth_returns(10, 12, rng)  # more assets than observations
    (tmp_path / "short.csv").write_text(panel_csv(returns))
    config = tmp_path / "run.yaml"
    config.write_text(
        yaml.safe_dump(
            {"datasets": [{"name": "short", "path": "short.csv"}], "strategies": ["EW-MVP"]}
        )
    )
    assert main(["diagnose", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "short: MulticollinearityError" in out
