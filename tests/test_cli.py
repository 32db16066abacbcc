import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import panel_csv, synth_returns
from precis import parse_panel
from precis.cli import load_config, main
from precis.errors import ConfigError, ParseError

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def workspace(tmp_path, rng):
    """Two datasets (one regular, one wider than the window) plus a config."""
    (tmp_path / "toy.csv").write_text(panel_csv(synth_returns(40, 4, rng)))
    wide = synth_returns(40, 26, rng)  # p=26 > window 24: singular windows
    (tmp_path / "wide.csv").write_text(panel_csv(wide))
    config = {
        "window_length": 24,
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
    assert set(payload) == {"p", "n", "dim_ratio", "max_corr", "mean_abs_corr", "per_asset"}
    assert payload["p"] == 4 and payload["n"] == 40
    assert abs(payload["dim_ratio"] - 0.1) < 1e-12
    assert len(payload["per_asset"]) == 4
    assert set(payload["per_asset"][0]) == {"asset", "mean", "variance", "sharpe"}
    csv_lines = (root / "out" / "describe" / "toy.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "asset,mean,variance,sharpe"
    assert len(csv_lines) == 5
    out = capsys.readouterr().out
    assert "toy:" in out and "wide:" in out


def test_only_backtest_needs_strategies(workspace, capsys):
    root, config = workspace
    raw = yaml.safe_load(config.read_text())
    del raw["strategies"]
    config.write_text(yaml.safe_dump(raw))
    assert main(["backtest", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: no strategies configured; nothing to backtest"], err
    assert not (root / "out").exists()
    for command in ("describe", "diagnose"):
        assert main([command, "--config", str(config)]) == 0


def test_describe_without_datasets_fails(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump({"datasets": [], "strategies": ["EW-MVP"]}))
    assert main(["describe", "--config", str(config)]) == 1


def test_missing_dataset_path_fails(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    datasets = [{"name": "a", "path": "nope_a.csv"}, {"name": "b", "path": "nope_b.csv"}]
    config.write_text(yaml.safe_dump({"datasets": datasets, "strategies": ["EW-MVP"]}))
    assert main(["describe", "--config", str(config)]) == 1
    # one error names every missing file, not only the first
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no such file"), err
    assert all(text in err[0] for text in ("'a'", "nope_a.csv", "'b'", "nope_b.csv")), err
    assert not (tmp_path / "out").exists()


def test_tune_curve_covers_grid(tmp_path, rng):
    (tmp_path / "toy.csv").write_text(panel_csv(synth_returns(40, 4, rng)))
    config = tmp_path / "run.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "window_length": 24,
                "out": "out",
                "grid": {"start": 0.0, "stop": 3.0, "step": 0.1},
                "datasets": [{"name": "toy", "path": "toy.csv"}],
                "strategies": [{"name": "Ridge-MVP", "kind": "qml_l2", "rho": "tune"}],
            }
        )
    )
    assert main(["tune", "--config", str(config)]) == 0
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
    raw["grid"] = {"start": 0.0, "stop": 0.5, "step": 0.5}
    raw["datasets"] = [d for d in raw["datasets"] if d["name"] == "wide"]
    config.write_text(yaml.safe_dump(raw))
    assert main(["tune", "--config", str(config)]) == 0
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
    # each setting has one home: the report echoes the tuned grid, no turnover convention
    assert report["config"]["grid"] == [0.0, 0.5, 1.0]
    assert "turnover_convention" not in json.dumps(report)
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
    turnover_header = (tables / "turnover.csv").read_text().splitlines()[0]
    assert turnover_header == "dataset,strategy,turnover"


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


@pytest.mark.parametrize(
    "flag, value",
    [("--window", "30"), ("--turnover", "literal"), ("--grid", "0:1:0.5"), ("--strategies", "EW-MVP")],
    ids=["--window", "--turnover", "--grid", "--strategies"],
)
def test_removed_flag_is_a_usage_error(workspace, capsys, flag, value):
    # the config file is the one source of these settings
    root, config = workspace
    with pytest.raises(SystemExit) as exit_info:
        main(["backtest", "--config", str(config), flag, value])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""
    assert not (root / "out").exists()


def test_unknown_strategy_label_fails(workspace):
    root, config = workspace
    raw = yaml.safe_load(config.read_text())
    raw["strategies"] = ["Nope-MVP"]
    config.write_text(yaml.safe_dump(raw))
    assert main(["describe", "--config", str(config)]) == 1


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


def test_tuning_failure_is_content_for_tune_and_backtest(workspace):
    # a 20-month window is too short for the 24-row tuning block: both
    # commands record the failure for the tuned strategy and carry on
    root, config = workspace
    raw = yaml.safe_load(config.read_text())
    raw["window_length"] = 20
    raw["datasets"] = [d for d in raw["datasets"] if d["name"] == "toy"]
    raw["strategies"] = ["EW-MVP", "S-MVP", {"name": "Glasso-MVP", "kind": "qml_l1", "rho": "tune"}]
    config.write_text(yaml.safe_dump(raw))
    assert main(["backtest", "--config", str(config)]) == 0
    report = json.loads((root / "out" / "report.json").read_text())["reports"][0]
    by_name = {s["name"]: s for s in report["strategies"]}
    assert by_name["EW-MVP"]["available"] and by_name["S-MVP"]["available"]
    tuned = by_name["Glasso-MVP"]
    assert not tuned["available"]
    assert tuned["n_failed"] == tuned["n_windows"] == 20
    assert all(msg.startswith("InsufficientDataError") for _, msg in tuned["failures"])
    assert main(["tune", "--config", str(config)]) == 0
    summary = json.loads((root / "out" / "tune.json").read_text())
    assert summary == {"toy": {"Glasso-MVP": None}}


@pytest.mark.parametrize("window", [40, 41], ids=["window-equals-rows", "window-exceeds-rows"])
def test_panel_shorter_than_window_fails_tune_like_backtest(workspace, capsys, window):
    # both commands need a panel longer than the window (the toy panel has 40 rows)
    root, config = workspace
    raw = yaml.safe_load(config.read_text())
    raw["window_length"] = window
    raw["datasets"] = [d for d in raw["datasets"] if d["name"] == "toy"]
    raw["strategies"] = ["EW-MVP", {"name": "Glasso-MVP", "kind": "qml_l1", "rho": "tune"}]
    config.write_text(yaml.safe_dump(raw))
    for command in ("tune", "backtest"):
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "InsufficientDataError" in err[0], err
    assert not (root / "out").exists()


@pytest.mark.parametrize("command", ["describe", "tune", "backtest", "diagnose"])
def test_failing_later_dataset_writes_nothing(workspace, capsys, command):
    # every dataset is computed before any file is written, so an error in
    # the second dataset leaves no output from the first
    root, config = workspace
    lines = (root / "wide.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = "abc"
    lines[5] = ",".join(cells)
    (root / "wide.csv").write_text("\n".join(lines) + "\n")
    assert main([command, "--config", str(config)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: dataset 'wide': ParseError"), err
    assert captured.out == ""
    assert not (root / "out").exists()


def test_non_utf8_panel_is_a_parse_error(workspace, capsys):
    root, config = workspace
    raw = (root / "wide.csv").read_bytes().splitlines(keepends=True)
    raw[2] = raw[2].replace(b",", b",\xff", 1)
    (root / "wide.csv").write_bytes(b"".join(raw))
    assert main(["describe", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: dataset 'wide': ParseError: row 3: not UTF-8 text"], err
    assert not (root / "out").exists()


def test_tune_and_backtest_write_identical_curves(workspace):
    root, config = workspace
    raw = yaml.safe_load(config.read_text())
    raw["datasets"] = [d for d in raw["datasets"] if d["name"] == "toy"]
    raw["strategies"] = [
        "EW-MVP",
        {"name": "Glasso-MVP", "kind": "qml_l1", "rho": "tune"},
        {"name": "Ridge-MVP", "kind": "qml_l2", "rho": "tune"},
    ]
    config.write_text(yaml.safe_dump(raw))
    assert main(["tune", "--config", str(config), "--out", str(root / "tuned")]) == 0
    assert main(["backtest", "--config", str(config), "--out", str(root / "tested")]) == 0
    names = ["toy_Glasso-MVP.csv", "toy_Ridge-MVP.csv"]
    for out in ("tuned", "tested"):
        assert sorted(p.name for p in (root / out / "curves").iterdir()) == names
    for name in names:
        tuned = (root / "tuned" / "curves" / name).read_bytes()
        assert tuned == (root / "tested" / "curves" / name).read_bytes()


# YAML's true, on and yes all load as True, which float() would take as 1
@pytest.mark.parametrize(
    "strategy, key",
    [
        ({"name": "EN-MVP", "kind": "qml_elastic", "rho": 0.5, "alpha": 1.5}, "alpha"),
        ({"name": "EN-MVP", "kind": "qml_elastic", "rho": 0.5, "alpha": "half"}, "half"),
        ({"name": "S-MVP", "rho": 0.7}, "rho"),
        ({"name": "Ridge-MVP", "kind": "qml_l2", "rho": 0.5, "alpha": 0.5}, "alpha"),
        ({"name": "EN-MVP", "kind": "qml_elastic", "rho": 0.5, "alpha": True}, "alpha"),
        ({"name": "Ridge-MVP", "kind": "qml_l2", "rho": True}, "rho"),
        # lw_alpha and pca_threshold are retired: any value is an unknown key
        ({"name": "LW-MVP", "lw_alpha": 2.0}, "lw_alpha"),
        ({"name": "PCA-MVP", "pca_threshold": 0}, "pca_threshold"),
        ({"name": "LW-MVP", "pca_threshold": 0.9}, "pca_threshold"),
        ({"name": "PCA-MVP", "lw_alpha": 0.5}, "lw_alpha"),
    ],
    ids=[
        "alpha-out-of-range",
        "alpha-not-a-number",
        "rho-on-sample",
        "alpha-on-ridge",
        "alpha-a-boolean",
        "rho-a-boolean",
        "lw_alpha-out-of-range",
        "pca_threshold-out-of-range",
        "pca_threshold-on-ledoit-wolf",
        "lw_alpha-on-pca",
    ],
)
def test_bad_strategy_parameter_is_a_config_error(workspace, capsys, strategy, key):
    root, config = workspace
    raw = yaml.safe_load(config.read_text())
    raw["datasets"] = [d for d in raw["datasets"] if d["name"] == "toy"]
    raw["strategies"] = ["EW-MVP", strategy]
    config.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match=key):
        load_config(config)
    assert main(["backtest", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
    assert not (root / "out").exists()


@pytest.mark.parametrize(
    "change, key",
    [
        (lambda raw: raw.update(seed=0), "seed"),
        (lambda raw: raw.update(turnover="drift"), "turnover"),
        (lambda raw: raw["datasets"][0].update(range=["1990-01", "1991-12"]), "range"),
        (lambda raw: raw["strategies"].append({"name": "LW-MVP", "lw_alpha": 0.0}), "lw_alpha"),
        (lambda raw: raw["strategies"].append({"name": "PCA-MVP", "pca_threshold": 1.0}),
         "pca_threshold"),
        (lambda raw: raw["solver"].update(tol=1e-6), "tol"),
    ],
    ids=[
        "top-level",
        "retired-turnover",
        "dataset",
        "retired-lw_alpha",
        "retired-pca_threshold",
        "retired-solver-tol",
    ],
)
def test_unknown_config_key_fails(workspace, capsys, change, key):
    root, config = workspace
    raw = yaml.safe_load(config.read_text())
    change(raw)
    config.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match=key):
        load_config(config)
    assert main(["backtest", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
    assert not (root / "out").exists()


@pytest.mark.parametrize(
    "change, key",
    [
        (lambda raw: raw["strategies"].append({"name": ["a"], "kind": "sample"}), "name"),
        (lambda raw: raw["grid"].update(start="abc"), "start"),
        (lambda raw: raw.update(window_length="abc"), "window_length"),
        (lambda raw: raw["solver"].update(max_iter=1.5), "max_iter"),
        (lambda raw: raw.update(grid=5), "grid"),
        (lambda raw: raw["grid"].update(stop=float("inf")), "stop"),
        (lambda raw: raw["grid"].update(step=1e-320), "step"),
        (lambda raw: raw["grid"].update(step=1e-300), "step"),
        (lambda raw: raw["grid"].update(stop=1e-10, step=1e-11), "step"),
        (lambda raw: raw["grid"].update(start=-1.0), "start"),
        (lambda raw: raw.update(datasets=5), "datasets"),
        (lambda raw: raw.update(strategies=5), "strategies"),
        (lambda raw: raw.update(out=5), "out"),
        (lambda raw: raw["datasets"][0].update(name=5), "name"),
        (lambda raw: raw["datasets"][0].update(path=5), "path"),
        (lambda raw: raw["datasets"][0].update(date_range="1990-01"), "date_range"),
        (lambda raw: raw["datasets"][0].update(date_range=[199001]), "date_range"),
        (lambda raw: raw["datasets"][1].update(name="toy"), "duplicate dataset names"),
        (lambda raw: raw["grid"].update(stop=True), "stop"),
        (lambda raw: raw["solver"].update(max_iter=True), "max_iter"),
        (lambda raw: raw.update(window_length=True), "window_length"),
        (lambda raw: raw["datasets"][0].update(date_range=[True, None]), "date_range"),
        # solver.tol is retired: any value is an unknown key
        (lambda raw: raw["solver"].update(tol=[1]), "tol"),
        (lambda raw: raw["solver"].update(tol=float("nan")), "tol"),
        (lambda raw: raw["solver"].update(tol=float("inf")), "tol"),
    ],
    ids=[
        "name-not-a-string",
        "grid-start-text",
        "window-text",
        "max_iter-fraction",
        "grid-not-a-mapping",
        "grid-stop-inf",
        "grid-step-overflows",
        "grid-step-too-many-points",
        "grid-step-below-rounding",
        "grid-start-negative",
        "datasets-not-a-list",
        "strategies-not-a-list",
        "out-not-a-string",
        "dataset-name-not-a-string",
        "dataset-path-not-a-string",
        "date_range-a-string",
        "date_range-one-item",
        "duplicate-dataset-names",
        "grid-stop-a-boolean",
        "max_iter-a-boolean",
        "window-a-boolean",
        "date_range-a-boolean",
        "tol-a-list",
        "tol-nan",
        "tol-inf",
    ],
)
def test_malformed_config_value_is_a_config_error(workspace, capsys, change, key):
    root, config = workspace
    raw = yaml.safe_load(config.read_text())
    change(raw)
    config.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match=key):
        load_config(config)
    assert main(["backtest", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
    assert not (root / "out").exists()


# One month rule serves parse_panel's date_range and the config's. Each
# rejected spec used to be read as some month, or passed the config unread.
@pytest.mark.parametrize(
    "spec, stamp",
    [
        (True, None),
        (-88, None),
        (97307, None),
        (19901, None),
        ("199013", None),
        ("-199001", None),
        (199001.0, None),
        ("1973-07", 197307),
        ("197307", 197307),
        (197307, 197307),
        (np.int64(197307), 197307),
    ],
    ids=[
        "boolean",
        "negative",
        "five-digit",
        "five-digit-month",
        "month-13",
        "negative-text",
        "float",
        "dashed-text",
        "text",
        "int",
        "numpy-int",
    ],
)
def test_month_spec_is_read_alike_by_panel_and_config(workspace, spec, stamp):
    root, config = workspace
    text = "date,A,B\n197306,1.0,2.0\n197307,2.0,1.0\n197308,0.5,0.5\n"
    raw = yaml.safe_load(config.read_text())
    # YAML has no numpy integers; the config gets the same value as a plain int
    raw["datasets"][0]["date_range"] = [spec.item() if isinstance(spec, np.generic) else spec, None]
    config.write_text(yaml.safe_dump(raw))
    if stamp is None:
        with pytest.raises(ParseError):
            parse_panel(text, date_range=(spec, None))
        (root / "toy.csv").unlink()  # the config error comes before any dataset file is read
        with pytest.raises(ConfigError, match="dataset 'toy' date_range"):
            load_config(config)
    else:
        assert parse_panel(text, date_range=(spec, None)).dates[0] == stamp
        loaded = load_config(config).datasets[0].date_range
        assert parse_panel(text, date_range=loaded).dates[0] == stamp


@pytest.mark.parametrize("command", ["tune", "backtest"])
@pytest.mark.parametrize("bad", ["", ".", "..", "a/../../../escaped", "x/y", "a\\b"])
@pytest.mark.parametrize("where", ["dataset", "strategy"])
def test_names_must_be_single_path_components(workspace, capsys, command, bad, where):
    # dataset and strategy names name output files, so a separator or a dot
    # entry could write outside the out directory
    root, config = workspace
    raw = yaml.safe_load(config.read_text())
    raw["strategies"] = [{"name": "Glasso-MVP", "kind": "qml_l1", "rho": "tune"}]
    if where == "dataset":
        raw["datasets"][0]["name"] = bad
    else:
        raw["strategies"][0]["name"] = bad
    config.write_text(yaml.safe_dump(raw))
    before = sorted(root.rglob("*"))
    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {where} name"), err
    assert sorted(root.rglob("*")) == before


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "set"])
def test_import_defaults_to_one_blas_thread(preset, expected):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in names}
    env["PYTHONPATH"] = str(REPO / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = f"import os, precis; print(*(os.environ[name] for name in {names!r}))"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == [expected, "1", "1"]


def test_committed_configs_use_only_known_keys():
    load_config(REPO / "demo" / "demo.yaml")
    try:
        load_config(REPO / "configs" / "paper.yaml")
    except ConfigError as exc:
        # the paper's return files are not shipped; nothing else may fail
        assert "no such file" in str(exc), exc


def test_every_exported_name_resolves():
    import precis

    missing = [name for name in precis.__all__ if not hasattr(precis, name)]
    assert not missing and len(set(precis.__all__)) == len(precis.__all__)
