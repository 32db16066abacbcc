import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel, month_stamps, panel_csv, synth_returns
from precis import ReturnsPanel, describe, parse_panel
from precis.errors import (
    DegenerateColumnError,
    EmptyPanelError,
    ParseError,
    UnfillableLeadingGapError,
)


def csv_text(rows, header="date,Food,Mines,Oil"):
    return header + "\n" + "\n".join(",".join(str(v) for v in row) for row in rows)


BASIC = csv_text(
    [
        (197307, 1.5, -2.0, 0.3),
        (197308, -0.5, 1.0, 2.2),
        (197309, 3.25, 0.0, -1.1),
    ]
)


class TestParse:
    def test_basic_shape_and_order(self):
        panel = parse_panel(BASIC.encode())
        assert panel.assets == ["Food", "Mines", "Oil"]
        assert panel.returns.shape == (3, 3)
        assert list(panel.dates) == [197307, 197308, 197309]
        assert panel.returns[2, 0] == 3.25

    def test_sentinel_minus_999_flagged_once(self):
        text = csv_text(
            [(197307, 1.0, 2.0, 3.0), (197308, -999, 1.0, 1.0), (197309, 0.5, 0.5, 0.5)]
        )
        panel = parse_panel(text)
        assert panel.missing_mask.sum() == 1
        assert panel.missing_mask[1, 0]
        assert panel.returns[1, 0] == 1.0  # filled from the month before

    def test_sentinel_is_exact_not_threshold(self):
        # a legitimate extreme return near the sentinel must survive
        text = csv_text(
            [(197307, -99.98, 1.0, 1.0), (197308, -99.99, 1.0, 1.0), (197309, -100.0, 1.0, 1.0)]
        )
        panel = parse_panel(text)
        assert panel.missing_mask.sum() == 1
        assert panel.missing_mask[1, 0]
        assert panel.returns[0, 0] == -99.98
        assert panel.returns[1, 0] == -99.98  # filled from the month before
        assert panel.returns[2, 0] == -100.0

    def test_date_range_inclusive(self):
        panel = parse_panel(BASIC, date_range=("1973-08", "1973-09"))
        assert list(panel.dates) == [197308, 197309]

    def test_empty_range_rejected(self):
        with pytest.raises(EmptyPanelError):
            parse_panel(BASIC, date_range=(200001, 200012))

    @pytest.mark.parametrize(
        "date_range,message",
        [(None, "^no data rows$"), ((None, 197312), "^no rows within the requested date range$")],
    )
    def test_header_only_file_has_no_data_rows(self, date_range, message):
        with pytest.raises(EmptyPanelError, match=message):
            parse_panel("date,A,B\n", date_range=date_range)

    @pytest.mark.parametrize("header,bad", [("date,A,A", "['A']"), ("date, ,B", "['']")])
    def test_repeated_or_blank_asset_names_rejected(self, header, bad):
        with pytest.raises(ParseError, match=re.escape(bad)):
            parse_panel(header + "\n197307,1.0,2.0\n197308,0.5,1.5\n")
        with pytest.raises(ParseError, match=re.escape(bad)):
            ReturnsPanel(
                dates=[197307, 197308], assets=[a.strip() for a in header.split(",")[1:]],
                returns=np.ones((2, 2)), missing_mask=np.zeros((2, 2), dtype=bool),
            )

    def test_wrong_field_count_names_row(self):
        text = "date,A,B\n197307,1.0,2.0\n197308,1.0\n"
        with pytest.raises(ParseError) as err:
            parse_panel(text)
        assert err.value.row == 3

    def test_unparseable_numeric_names_row(self):
        text = "date,A,B\n197307,1.0,2.0\n197308,oops,2.0\n"
        with pytest.raises(ParseError) as err:
            parse_panel(text)
        assert err.value.row == 3

    def test_non_utf8_bytes_name_row(self):
        raw = b"date,A,B\n197307,1.0,2.0\n197308,\xff1.0,2.0\n"
        for source in (raw, io.BytesIO(raw)):
            with pytest.raises(ParseError, match="not UTF-8") as err:
                parse_panel(source)
            assert err.value.row == 3

    def test_non_yyyymm_dates_rejected(self):
        # -00088 passed a six-character test and read as month 12 of year -1;
        # 19900² passed isdigit() and then crashed int()
        for cell in ("1973-07-31", "-00088", "19900\u00b2"):
            with pytest.raises(ParseError) as err:
                parse_panel(f"date,A,B\n{cell},1.0,2.0\n")
            assert err.value.row == 2

    def test_first_in_range_sentinel_is_a_leading_gap(self):
        # the fill source must lie inside date_range: a value in a dropped
        # earlier row does not fill the first kept row
        text = csv_text([(197307, 1.0, 2.0, 3.0), (197308, 1.0, -99.99, 3.0), (197309, 1.0, 2.0, 3.0)])
        assert parse_panel(text).returns[1, 1] == 2.0
        with pytest.raises(UnfillableLeadingGapError) as err:
            parse_panel(text, date_range=("1973-08", None))
        assert err.value.column == "Mines"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("date,A,A\n197307,-999,2.0\n197308,0.5,1.5\n", "distinct"),
            ("date,A,B\n197307,-999,2.0\n197309,0.5,1.5\n", "monthly cadence"),
        ],
        ids=["header", "cadence"],
    )
    def test_parse_error_precedes_a_leading_gap(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_panel(text)

    def test_gap_in_months_rejected(self):
        text = csv_text([(197307, 1, 1, 1), (197309, 1, 1, 1), (197310, 1, 1, 1)])
        with pytest.raises(ParseError):
            parse_panel(text)

    def test_panel_dates_must_be_months(self):
        # month 13 and month 00 sit one month index from their neighbours,
        # so only a per-stamp month rule rejects them
        def panel(dates):
            return ReturnsPanel(
                dates=dates,
                assets=["A", "B"],
                returns=np.ones((2, 2)),
                missing_mask=np.zeros((2, 2), dtype=bool),
            )

        for dates in ([199012, 199013], [199100, 199101]):
            with pytest.raises(ParseError, match="month"):
                panel(dates)
        assert list(panel([199012, 199101]).dates) == [199012, 199101]

    def test_non_finite_return_rejected(self):
        # a panel holds filled values only, even where missing_mask is set
        for value in (np.nan, np.inf):
            returns = np.array([[1.0, 2.0], [value, 2.0]])
            with pytest.raises(ParseError, match="finite"):
                ReturnsPanel(
                    dates=[197307, 197308], assets=["A", "B"],
                    returns=returns, missing_mask=~np.isfinite(returns),
                )


def cell_by_cell(rows, assets):
    """The reference parse: each cell through float() in file order, sentinels
    by exact equality, each filled from the cell above it; (values, mask), or
    the error of the first bad cell or else of a first-row sentinel."""
    values, mask = [], []
    for lineno, row in enumerate(rows, start=2):
        for col, cell in enumerate(row, start=2):
            try:
                value = float(cell)
            except ValueError:
                return ParseError(f"unparseable numeric {cell!r} in column {col}", row=lineno)
            if value in (-99.99, -999.0):
                values.append(np.nan)
                mask.append(True)
            elif not np.isfinite(value):
                return ParseError(f"non-finite value {cell!r} in column {col}", row=lineno)
            else:
                values.append(value)
                mask.append(False)
    values, mask = np.reshape(values, (-1, len(assets))), np.reshape(mask, (-1, len(assets)))
    if mask[0].any():
        return UnfillableLeadingGapError(assets[int(np.argmax(mask[0]))])
    for i in range(1, len(values)):
        values[i, mask[i]] = values[i - 1, mask[i]]
    return values, mask


CELLS = ("1.5", "-2", " 3.25 ", "1_0", "-99.99", "-999", "-999.0", "-9.999e1", "-99.990",
         "-99.98", "-99.9900001", "-998.9999999", "-100", "nan", "inf", "-inf", "oops", "")


class TestParseParity:
    @given(cells=st.lists(st.sampled_from(CELLS), min_size=12, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_cell_by_cell_parse(self, cells):
        rows = [cells[k : k + 3] for k in range(0, 12, 3)]
        text = csv_text([(stamp, *row) for stamp, row in zip(month_stamps(4), rows)])
        expected = cell_by_cell(rows, ["Food", "Mines", "Oil"])
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as err:
                parse_panel(text)
            assert str(err.value) == str(expected)
        else:
            panel = parse_panel(text)
            assert np.array_equal(panel.returns, expected[0])
            assert np.array_equal(panel.missing_mask, expected[1])

    @pytest.mark.parametrize(
        "first,second,message",
        [
            ("inf", "oops", "row 2: non-finite value 'inf' in column 3"),
            ("oops", "inf", "row 2: unparseable numeric 'oops' in column 3"),
        ],
    )
    def test_first_bad_cell_in_file_order_is_reported(self, first, second, message):
        text = f"date,A,B\n197307,1.0,{first}\n197308,{second},2.0\n"
        with pytest.raises(ParseError, match="^" + message + "$") as err:
            parse_panel(text)
        assert err.value.row == 2

    @pytest.mark.parametrize("later", ["197309,1.0\n", "1973-09,1.0,2.0\n"], ids=["width", "date"])
    def test_bad_cell_precedes_a_later_bad_row(self, later):
        text = "date,A,B\n197307,1.0,2.0\n197308,1.0,nan\n" + later
        with pytest.raises(ParseError, match="^row 3: non-finite value 'nan' in column 3$"):
            parse_panel(text)

    def test_bad_cell_outside_the_date_range_is_skipped(self):
        text = "date,A,B\n197307,oops,2.0\n197308,1.0,2.0\n197309,3.0,4.0\n"
        panel = parse_panel(text, date_range=("1973-08", None))
        assert panel.returns.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_sentinels_match_by_exact_value(self):
        text = csv_text(
            [
                (197307, 1.0, 2.0, 3.0),
                (197308, "-99.990", "-9.999e1", "-999.0"),
                (197309, "-99.9900001", "-998.9999999", "-99.98"),
            ]
        )
        panel = parse_panel(text)
        assert panel.missing_mask.tolist() == [[False] * 3, [True] * 3, [False] * 3]
        assert panel.returns[1].tolist() == [1.0, 2.0, 3.0]
        assert panel.returns[2].tolist() == [-99.9900001, -998.9999999, -99.98]


class TestForwardFill:
    def test_fills_from_predecessor(self):
        text = csv_text(
            [(197307, 5.0, 1.0, 1.0), (197308, -99.99, 1.0, 1.0), (197309, 2.0, 1.0, 1.0)]
        )
        panel = parse_panel(text)
        assert panel.returns[1, 0] == 5.0
        assert panel.returns[2, 0] == 2.0
        assert panel.missing_mask[1, 0]  # audit mask preserved
        assert np.isfinite(panel.returns).all()

    def test_leading_gap_names_column(self):
        text = csv_text(
            [(197307, 1.0, -999, 1.0), (197308, 1.0, 1.0, 1.0), (197309, 1.0, 1.0, 1.0)]
        )
        with pytest.raises(UnfillableLeadingGapError) as err:
            parse_panel(text)
        assert err.value.column == "Mines"

    def test_consecutive_gaps_propagate(self):
        text = csv_text(
            [(197307, 7.0, 1.0, 1.0), (197308, -999, 1.0, 1.0), (197309, -99.99, 1.0, 1.0)]
        )
        panel = parse_panel(text)
        assert panel.returns[1, 0] == 7.0
        assert panel.returns[2, 0] == 7.0

    @given(data=st.data(), n=st.integers(10, 30), p=st.integers(4, 6))
    @settings(max_examples=50, deadline=None)
    def test_matches_cell_by_cell_reference(self, data, n, p):
        mask = np.zeros((n, p), dtype=bool)
        gaps = st.tuples(st.integers(1, n - 1), st.integers(0, p - 1), st.integers(1, 6))
        for start, col, length in data.draw(st.lists(gaps, max_size=10)):
            mask[start : start + length, col] = True  # row 0 stays complete
        returns = np.arange(n * p, dtype=float).reshape(n, p) + 0.25  # every value distinct
        expected = returns.copy()
        for i in range(1, n):
            for j in range(p):
                if mask[i, j]:
                    expected[i, j] = expected[i - 1, j]
        filled = parse_panel(panel_csv(np.where(mask, -99.99, returns)))
        assert np.array_equal(filled.returns, expected)
        assert np.array_equal(filled.missing_mask, mask)


class TestDescribe:
    def test_hand_computed_stats(self):
        returns = np.array([[1.0, 2.0], [3.0, 6.0], [2.0, 1.0]])
        stats = describe(make_panel(returns))
        assert stats.p == 2 and stats.n == 3
        assert stats.dim_ratio == 2 / 3
        assert stats.per_asset[0] == pytest.approx(
            {"asset": "A00", "mean": 2.0, "variance": 1.0, "sharpe": 2.0}
        )

    def test_duplicated_column_hits_max_corr_one(self, rng):
        base = rng.normal(size=12)
        returns = np.column_stack([base, base, rng.normal(size=12)])
        stats = describe(make_panel(returns))
        assert stats.max_corr == pytest.approx(1.0)

    def test_mean_abs_le_max_abs(self, rng):
        stats = describe(make_panel(synth_returns(60, 6, rng)))
        assert -1.0 <= stats.max_corr <= 1.0
        assert 0.0 <= stats.mean_abs_corr <= 1.0

    def test_zero_variance_column_rejected(self):
        returns = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(DegenerateColumnError):
            describe(make_panel(returns))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_permutation_equivariance(self, seed):
        gen = np.random.default_rng(seed)
        returns = synth_returns(30, 5, gen)
        perm = gen.permutation(5)
        stats = describe(make_panel(returns))
        permuted = describe(make_panel(returns[:, perm], assets=[f"A{j:02d}" for j in perm]))
        assert permuted.max_corr == pytest.approx(stats.max_corr, abs=1e-12)
        assert permuted.mean_abs_corr == pytest.approx(stats.mean_abs_corr, abs=1e-12)
        for k, j in enumerate(perm):
            assert permuted.per_asset[k] == pytest.approx(stats.per_asset[j])
