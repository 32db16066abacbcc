"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 8 and 9 evaluate against the real monthly return files when
they are available (see conftest.data_dir) and skip otherwise.
"""
import json
import time

import numpy as np
import pytest
import yaml

from conftest import (
    kf_panel,
    kf_path,
    make_panel,
    panel_csv,
    rand_psd_singular,
    rand_spd,
    synth_returns,
)
from precis import (
    PenaltySpec,
    RollingConfig,
    SolverOptions,
    StrategySpec,
    condition_number,
    condition_stats,
    invert_spd,
    ledoit_wolf,
    lasso_hedge,
    no_short_mvp,
    ols_hedge,
    oos_sharpe,
    oos_variance,
    penalized_qml,
    precision_from_hedges,
    run_rolling,
    sample_covariance,
    soft_threshold,
    sym_eigen,
    turnover,
)
from precis.cli import main


def _passed(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number:02d} ({name}): PASS")


def test_criterion_01_stevens_identity_oracle():
    gen = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    for k in range(200):
        p = (3, 5, 10)[k % 3]
        window = gen.normal(size=(60, p)) @ np.linalg.cholesky(rand_spd(p, gen, cond=30.0)).T
        assembled = precision_from_hedges([ols_hedge(window, i) for i in range(p)])
        direct = invert_spd(sample_covariance(window))
        rel = np.linalg.norm(assembled - direct) / np.linalg.norm(direct)
        assert rel <= 1e-6, f"window {k}: relative error {rel:.3e}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"
    _passed(1, "Stevens identity on 200 random windows")


def test_criterion_02_unpenalized_limit():
    gen = np.random.default_rng(102)
    opts = SolverOptions(tol=1e-8)
    kinds = ("l1", "l2", "elastic")
    for k in range(50):
        p = int(gen.integers(2, 21))
        s = rand_spd(p, gen, cond=float(2 + 28 * gen.random()))
        est = penalized_qml(s, 120, PenaltySpec(kinds[k % 3], 0.0), opts)
        ref = invert_spd(s)
        rel = np.linalg.norm(est.psi - ref) / np.linalg.norm(ref)
        assert est.converged
        assert rel <= 1e-5, f"instance {k} (p={p}): relative error {rel:.3e}"
    _passed(2, "rho=0 recovers the sample inverse, 50 instances")


def _grid_argmax_2x2(s, t, rho, l1w, l2w):
    """Coarse-to-fine grid maximizer of the written 2x2 objective.

    The objective is strictly concave on the PD cone, so the continuous
    argmax lies within about sqrt(hessian condition) grid steps of the grid
    argmax; the refinement window keeps a wide margin around the running
    best so it is never lost, and the box grows whenever the argmax touches
    it. The procedure never references the solver being checked.
    """
    inv = np.linalg.inv(s)
    hi_diag = 4.0 * max(inv[0, 0], inv[1, 1], 1.0 / s[0, 0], 1.0 / s[1, 1])
    off_bound = 4.0 * (abs(inv[0, 1]) + 1.0)
    lo = np.array([1e-9, 1e-9, -off_bound])
    hi = np.array([hi_diag, hi_diag, off_bound])
    m = 49
    margin = 12.0
    for _ in range(80):
        axes = [np.linspace(lo[d], hi[d], m) for d in range(3)]
        d1, d2, z = np.meshgrid(*axes, indexing="ij")
        det = d1 * d2 - z * z
        valid = (d1 > 0) & (det > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            logdet = np.where(valid, np.log(np.where(valid, det, 1.0)), -np.inf)
        trace = s[0, 0] * d1 + s[1, 1] * d2 + 2.0 * s[0, 1] * z
        penalty = rho * (l1w * 2.0 * np.abs(z) + l2w * 2.0 * z * z)
        objective = np.where(valid, (t / 2.0) * (logdet - trace) - penalty, -np.inf)
        flat = int(np.argmax(objective))
        idx = np.unravel_index(flat, objective.shape)
        best = np.array([axes[d][idx[d]] for d in range(3)])
        steps = (hi - lo) / (m - 1)
        grew = False
        for d in range(3):
            if idx[d] == m - 1:
                hi[d] += (hi[d] - lo[d])
                grew = True
            if idx[d] == 0 and d == 2:  # only the off-diagonal may sit low
                lo[d] -= (hi[d] - lo[d])
                grew = True
        if grew:
            continue
        if np.all(steps <= 2e-5):
            return best
        lo = best - margin * steps
        hi = best + margin * steps
        lo[:2] = np.maximum(lo[:2], 1e-12)
    raise AssertionError("grid search failed to localize the maximizer")


def test_criterion_03_brute_force_qml_oracle():
    gen = np.random.default_rng(103)
    t = 60
    for k in range(20):
        s = rand_spd(2, gen, cond=float(2 + 8 * gen.random()))
        rho = float(0.1 + 1.9 * gen.random())
        for kind, l1w, l2w in (("l1", 1.0, 0.0), ("l2", 0.0, 1.0)):
            est = penalized_qml(s, t, PenaltySpec(kind, rho), SolverOptions(tol=1e-9))
            assert est.converged
            oracle = _grid_argmax_2x2(s, t, rho, l1w, l2w)
            got = np.array([est.psi[0, 0], est.psi[1, 1], est.psi[0, 1]])
            err = np.abs(got - oracle).max()
            assert err <= 1e-3, f"instance {k} {kind}: max entry error {err:.2e}"
    _passed(3, "2x2 solver matches grid-search maximizer, 20 instances")


def test_criterion_04_orthonormal_lasso_closed_form():
    gen = np.random.default_rng(104)
    for k in range(10):
        n, kreg = 50, 5
        raw = gen.normal(size=(n, kreg + 1))
        raw[:, 0] = 1.0
        q, _ = np.linalg.qr(raw)
        x = q[:, 1:]  # orthonormal and mean-zero columns
        y = x @ gen.normal(size=kreg) * 2.0 + 0.2 * gen.normal(size=n)
        window = np.column_stack([y, x])
        ols = ols_hedge(window, 0)
        for gamma in (0.0, 0.1, 0.5, 2.0):
            lasso = lasso_hedge(window, 0, gamma=gamma, tol=1e-13)
            expected = soft_threshold(ols.betas, gamma)
            assert np.abs(lasso.betas - expected).max() <= 1e-10
    _passed(4, "orthonormal-design Lasso equals the soft-threshold map")


def test_criterion_05_qp_certificate_and_probes():
    gen = np.random.default_rng(105)
    for k in range(100):
        p = int(gen.integers(2, 31))
        s = rand_spd(p, gen, cond=float(2 + 98 * gen.random()))
        wv, cert = no_short_mvp(s)
        w = wv.weights
        grad = 2.0 * s @ w
        lam = cert.multiplier
        on = w > 0
        residual = np.abs(grad[on] - lam).max()
        if np.any(~on):
            residual = max(residual, float(np.maximum(lam - grad[~on], 0.0).max()))
        assert residual <= 1e-7, f"instance {k}: KKT residual {residual:.2e}"
        probes = gen.dirichlet(np.ones(p), size=100_000)
        values = np.einsum("ij,jk,ik->i", probes, s, probes)
        ours = float(w @ s @ w)
        assert ours <= values.min() + 1e-9, f"instance {k}: beaten by a probe"
    _passed(5, "no-short QP: KKT residual <= 1e-7 and beats 1e5 simplex probes")


def test_criterion_06_ledoit_wolf_spectral_map():
    gen = np.random.default_rng(106)
    for k in range(100):
        p = int(gen.integers(2, 16))
        if k % 4 == 0:
            s = rand_psd_singular(p, max(1, p // 2), gen)
        else:
            s = rand_spd(p, gen, cond=float(1 + 199 * gen.random()))
        lam = np.linalg.eigvalsh(s)
        sigma2 = np.diag(s).mean()
        for alpha in (0.1, 0.5, 0.9):
            est = ledoit_wolf(sym_eigen(s), alpha=alpha)
            shrunk_lam = np.sort(1.0 / np.linalg.eigvalsh(est.psi))
            expected = np.sort((1.0 - alpha) * lam + alpha * sigma2)
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.abs(shrunk_lam - expected).max() <= 1e-8 * scale
            assert condition_number(invert_spd(est.psi)) <= condition_number(s) * (1 + 1e-10)
    _passed(6, "Ledoit-Wolf eigenvalue map and condition-number dominance")


def test_criterion_07_condition_number_of_inverse():
    gen = np.random.default_rng(107)
    for k in range(100):
        p = int(gen.integers(2, 21))
        a = rand_spd(p, gen, cond=float(1 + 9999 * gen.random()))
        ca = condition_number(a)
        ci = condition_number(invert_spd(a))
        assert abs(ca - ci) <= 1e-6 * ca, f"instance {k}: {ca} vs {ci}"
    _passed(7, "matrix and inverse share the condition number, 100 instances")


def test_criterion_08_monotonicity_ladders_on_17ind():
    panel = kf_panel("17Ind")  # skips when the file is absent
    s = sample_covariance(panel.returns[:120])
    ladder = [round(0.1 * k, 1) for k in range(1, 31)]
    energies = []
    zero_counts = []
    for rho in ladder:
        l2 = penalized_qml(s, 120, PenaltySpec("l2", rho))
        off = l2.psi[~np.eye(17, dtype=bool)]
        energies.append(float((off**2).sum()))
        l1 = penalized_qml(s, 120, PenaltySpec("l1", rho))
        off1 = l1.psi[~np.eye(17, dtype=bool)]
        zero_counts.append(int(np.sum(np.abs(off1) < 1e-8)))
    assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))
    assert zero_counts == sorted(zero_counts)
    _passed(8, "l2 energy nonincreasing and l1 zeros nondecreasing in rho")


def test_criterion_09_paper_table_reproduction():
    if kf_path("17Ind") is None or kf_path("132S") is None:
        pytest.skip(
            "real monthly return files not available in this environment "
            "(no network); provide pre-trimmed CSVs to run the table checks"
        )
    start = time.perf_counter()
    strategies = (
        StrategySpec("S-MVP", "sample"),
        StrategySpec("EW-MVP", "equal"),
        StrategySpec("LW-MVP", "ledoit_wolf"),
        StrategySpec("PCA-MVP", "pca"),
        StrategySpec("JM-MVP", "no_short"),
        StrategySpec("Glasso-MVP", "qml_l1", rho=0.8),
        StrategySpec("Ridge-MVP", "qml_l2", rho=0.4),
        StrategySpec("EN-MVP", "qml_elastic", rho=2.4),
    )
    config = RollingConfig(strategies=strategies, window_length=120)
    panel17 = kf_panel("17Ind")
    runs17 = run_rolling(panel17, config)

    ew_var = oos_variance(runs17["EW-MVP"])
    assert abs(ew_var - 20.68) <= 0.05 * 20.68, f"EW variance {ew_var}"
    ew_sharpe = oos_sharpe(runs17["EW-MVP"])
    assert abs(ew_sharpe - 0.215) <= 0.05 * 0.215, f"EW sharpe {ew_sharpe}"
    cond_mean = condition_stats(runs17["S-MVP"])["cond_mean"]
    assert abs(cond_mean - 300.60) <= 0.15 * 300.60, f"S cond mean {cond_mean}"
    assert oos_variance(runs17["LW-MVP"]) < oos_variance(runs17["S-MVP"])
    ew_to = turnover(runs17["EW-MVP"], panel17)
    for name in runs17:
        if name != "EW-MVP" and runs17[name].available:
            assert ew_to < turnover(runs17[name], panel17)

    panel132 = kf_panel("132S")
    config132 = RollingConfig(
        strategies=(StrategySpec("S-MVP", "sample"), StrategySpec("JM-MVP", "no_short")),
        window_length=120,
    )
    runs132 = run_rolling(panel132, config132)
    assert not runs132["S-MVP"].available
    assert not runs132["JM-MVP"].available

    elapsed = time.perf_counter() - start
    assert elapsed <= 30 * 60
    _passed(9, "paper-table reproduction on the real files")


def test_criterion_10_no_lookahead():
    gen = np.random.default_rng(110)
    returns = synth_returns(40, 4, gen)
    config = RollingConfig(
        strategies=(
            StrategySpec("S-MVP", "sample"),
            StrategySpec("EW-MVP", "equal"),
            StrategySpec("LW-MVP", "ledoit_wolf"),
            StrategySpec("PCA-MVP", "pca"),
            StrategySpec("JM-MVP", "no_short"),
            StrategySpec("Glasso-MVP", "qml_l1", rho=0.5),
        ),
        window_length=30,
    )
    baseline = run_rolling(make_panel(returns), config)
    target = 33
    bumped = returns.copy()
    bumped[target] = bumped[target] + np.array([500.0, -300.0, 250.0, -125.0])
    perturbed = run_rolling(make_panel(bumped), config)
    for name in baseline:
        before = next(r for r in baseline[name].records if r.window_id == target)
        after = next(r for r in perturbed[name].records if r.window_id == target)
        assert np.array_equal(before.weights.weights, after.weights.weights), name
    _passed(10, "evaluation-month perturbation leaves that window's weights bit-identical")


def test_criterion_11_cli_determinism(tmp_path):
    gen = np.random.default_rng(111)
    (tmp_path / "toy.csv").write_text(panel_csv(synth_returns(40, 4, gen)))
    config_path = tmp_path / "run.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "window_length": 24,
                "out": "out",
                "datasets": [{"name": "toy", "path": "toy.csv"}],
                "strategies": [
                    "S-MVP",
                    "EW-MVP",
                    {"name": "Glasso-MVP", "kind": "qml_l1", "rho": "tune"},
                ],
                "grid": {"start": 0.0, "stop": 1.0, "step": 0.5},
            }
        )
    )
    assert main(["backtest", "--config", str(config_path)]) == 0
    first = (tmp_path / "out" / "report.json").read_bytes()
    json.loads(first)  # well-formed
    assert main(["backtest", "--config", str(config_path)]) == 0
    second = (tmp_path / "out" / "report.json").read_bytes()
    assert first == second
    _passed(11, "repeated cmd_backtest produces byte-identical report.json")
