"""Monthly return panels: CSV parsing with forward fill, descriptive stats.

Input files are pre-trimmed Ken-French-style CSVs: a header line, a first
column of YYYYMM stamps, and one numeric column per asset. Returns are kept
in percent units throughout. Missing observations are marked in the source
files by the sentinels -99.99 and -999 and are matched by exact equality on
the parsed value, never by a magnitude threshold. Parsing forward-fills them,
so every panel holds finite returns only.
"""
from __future__ import annotations

import csv
import io
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateColumnError,
    EmptyPanelError,
    InsufficientDataError,
    ParseError,
    UnfillableLeadingGapError,
)
from .linalg import sample_covariance

MISSING_SENTINELS = (-99.99, -999.0)
# The keys of each per-asset record that describe reports, in output column order.
DESCRIBE_COLUMNS = ("asset", "mean", "variance", "sharpe")


def month_stamp(value, row: int | None = None) -> int:
    """The YYYYMM stamp of a month: 'YYYYMM' or 'YYYY-MM' text, or a six-digit integer.

    Any other value, a boolean or a month outside 1-12 included, is a ParseError at row.
    """
    if isinstance(value, numbers.Integral):  # True and False fail the six-digit test
        stamp = int(value)
    else:
        match = isinstance(value, str) and re.fullmatch(r"([0-9]{4})-?([0-9]{2})", value.strip())
        stamp = int(match[1] + match[2]) if match else 0
    if not 100000 <= stamp <= 999999 or not 1 <= stamp % 100 <= 12:
        raise ParseError(f"{value!r} is not a YYYYMM or YYYY-MM month", row=row)
    return stamp


@dataclass(frozen=True)
class ReturnsPanel:
    """Dated n x p block of monthly percent returns, every one finite.

    missing_mask marks the cells that were missing in the source file and
    hold a forward-filled value; it is kept for audit.
    """

    dates: np.ndarray          # int64 month_stamp months, strictly increasing monthly
    assets: list[str]
    returns: np.ndarray        # n x p, percent units
    missing_mask: np.ndarray   # n x p bool, True where the source was missing

    def __post_init__(self):
        n, p = self.returns.shape
        if n < 2 or p < 2:
            raise InsufficientDataError(f"panel must be at least 2 x 2, got {n} x {p}")
        if len(self.dates) != n or len(self.assets) != p or self.missing_mask.shape != (n, p):
            raise ParseError("inconsistent panel dimensions")
        if bad := sorted({a for a in self.assets if not a.strip() or self.assets.count(a) > 1}):
            raise ParseError(f"asset names must be distinct and non-blank, got {bad}")
        dates = np.asarray([month_stamp(d) for d in self.dates], dtype=np.int64)
        if np.any(np.diff(dates // 100 * 12 + dates % 100) != 1):  # consecutive month indices
            raise ParseError("dates must be strictly increasing with monthly cadence")
        object.__setattr__(self, "dates", dates)
        if not np.all(np.isfinite(self.returns)):
            raise ParseError("returns must be finite")

    @property
    def n(self) -> int:
        return self.returns.shape[0]

    @property
    def p(self) -> int:
        return self.returns.shape[1]

    @property
    def n_missing(self) -> int:
        return int(self.missing_mask.sum())


@dataclass(frozen=True)
class DescriptiveStats:
    """Full-sample summary: dimensionality, correlation extremes, per-asset stats."""

    p: int
    n: int
    dim_ratio: float
    max_corr: float
    mean_abs_corr: float
    per_asset: list[dict[str, str | float]]  # one record per asset, keyed by DESCRIBE_COLUMNS


def parse_panel(source, date_range=None) -> ReturnsPanel:
    """Parse a header-bearing returns CSV into a panel.

    source may be a byte stream, text stream, bytes, or str content. The
    first column must hold YYYYMM integers; every other column is a numeric
    asset return. Cells equal to -99.99 or -999 (exact match after parse)
    are flagged in missing_mask and take the last preceding value in their
    column; one in the first kept row has no such value and raises
    UnfillableLeadingGapError, after any header or date error. date_range,
    when given, is an inclusive (start, end) pair of month_stamp months,
    either of which may be None; rows outside it are dropped before the
    fill, so they are never its source.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            row = source.count(b"\n", 0, exc.start) + 1
            raise ParseError("not UTF-8 text", row=row) from None
    elif isinstance(source, str):
        text = source
    else:
        raise ParseError(f"unsupported source type {type(source).__name__}")

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyPanelError("source is empty") from None
    header = [h.strip() for h in header]
    if len(header) < 3:
        raise ParseError("need a date column plus at least 2 asset columns", row=1)
    assets = header[1:]
    width = len(header)

    lo, hi = (None if end is None else month_stamp(end) for end in date_range or (None, None))

    dates: list[int] = []
    rows: list[list[float]] = []
    for lineno, fields in enumerate(reader, start=2):
        if not fields or all(not f.strip() for f in fields):
            continue
        if len(fields) != width:
            raise ParseError(f"expected {width} fields, got {len(fields)}", row=lineno)
        stamp_text = fields[0].strip()
        if not stamp_text.isdecimal() or len(stamp_text) != 6:  # isdigit() also takes '²'
            raise ParseError(f"date column must hold YYYYMM integers, got {stamp_text!r}", row=lineno)
        stamp = month_stamp(int(stamp_text), row=lineno)
        if (lo is not None and stamp < lo) or (hi is not None and stamp > hi):
            continue
        values: list[float] = []
        for col, cell in enumerate(fields[1:], start=2):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"unparseable numeric {cell!r} in column {col}", row=lineno) from None
            if not math.isfinite(value):  # both sentinels are finite
                raise ParseError(f"non-finite value {cell!r} in column {col}", row=lineno)
            values.append(value)
        dates.append(stamp)
        rows.append(values)

    if not rows:
        ranged = lo is not None or hi is not None
        raise EmptyPanelError("no rows within the requested date range" if ranged else "no data rows")
    returns = np.asarray(rows, dtype=float)
    missing = np.isin(returns, MISSING_SENTINELS)  # exact equality
    # each cell's source row: its own when present, else the last present row
    # above it. A leading gap has none and keeps its sentinel, so the panel's
    # header and date checks still run before the gap raises.
    source = np.where(missing, 0, np.arange(len(rows))[:, None])
    np.maximum.accumulate(source, axis=0, out=source)
    panel = ReturnsPanel(
        dates=np.asarray(dates, dtype=np.int64),
        assets=assets,
        returns=returns[source, np.arange(len(assets))],
        missing_mask=missing,
    )
    if missing[0].any():
        raise UnfillableLeadingGapError(assets[int(np.argmax(missing[0]))])
    return panel


def describe(panel: ReturnsPanel) -> DescriptiveStats:
    """Full-sample descriptive statistics of a panel.

    Correlations come from the n-1 sample covariance; the diagonal is
    excluded from the max / mean-absolute summaries. Per-asset Sharpe is
    mean over standard deviation with the risk-free rate taken as zero.
    """
    cov = sample_covariance(panel.returns)
    variances = np.diag(cov)
    if np.any(variances <= 0):
        raise DegenerateColumnError(
            f"zero-variance column {panel.assets[int(np.argmin(variances))]!r}"
        )
    std = np.sqrt(variances)
    corr = cov / np.outer(std, std)
    off = corr[~np.eye(panel.p, dtype=bool)]
    means = panel.returns.mean(axis=0)
    per_asset = [
        dict(zip(DESCRIBE_COLUMNS, (name, float(m), float(v), float(m / s))))
        for name, m, v, s in zip(panel.assets, means, variances, std)
    ]
    return DescriptiveStats(
        p=panel.p,
        n=panel.n,
        dim_ratio=panel.p / panel.n,
        max_corr=float(off.max()),
        mean_abs_corr=float(np.abs(off).mean()),
        per_asset=per_asset,
    )
