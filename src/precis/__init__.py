"""Precision-matrix estimation and minimum-variance portfolio evaluation."""

import os

# One BLAS thread unless the user set a count: the small LAPACK calls between
# numpy element-wise steps run several times slower on more. OpenBLAS reads
# these when numpy loads, so they are set before the first submodule import.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name, os  # keeps os out of the package's public names

from .backtest import (
    PAPER_LABELS,
    BacktestReport,
    RollingConfig,
    StrategyRun,
    StrategySpec,
    build_report,
    condition_stats,
    oos_mean,
    oos_sharpe,
    oos_variance,
    run_rolling,
    sparsity,
    turnover,
    weight_distribution,
)
from .estimators import (
    PenaltySpec,
    PrecisionEstimate,
    SolverOptions,
    ledoit_wolf,
    ledoit_wolf_intensity,
    pca_precision,
    penalized_qml,
    sample_precision,
    tune_rho,
)
from .hedge import (
    HedgeRegression,
    lasso_hedge,
    ols_hedge,
    precision_from_hedges,
    soft_threshold,
)
from .linalg import (
    EigenDecomposition,
    condition_number,
    invert_spd,
    sample_covariance,
    sym_eigen,
)
from .panel import DescriptiveStats, ReturnsPanel, describe, parse_panel
from .portfolio import (
    KktCertificate,
    WeightVector,
    equal_weights,
    mvp_weights,
    no_short_mvp,
)

__version__ = "0.1.0"
