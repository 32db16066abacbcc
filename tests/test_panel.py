import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel, month_stamps, synth_returns
from precis import describe, forward_fill, parse_panel
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
        assert np.isnan(panel.returns[1, 0])

    def test_sentinel_is_exact_not_threshold(self):
        # a legitimate extreme return near the sentinel must survive
        text = csv_text(
            [(197307, -99.98, 1.0, 1.0), (197308, -99.99, 1.0, 1.0), (197309, -100.0, 1.0, 1.0)]
        )
        panel = parse_panel(text)
        assert panel.missing_mask.sum() == 1
        assert panel.missing_mask[1, 0]
        assert panel.returns[0, 0] == -99.98
        assert panel.returns[2, 0] == -100.0

    def test_date_range_inclusive(self):
        panel = parse_panel(BASIC, date_range=("1973-08", "1973-09"))
        assert list(panel.dates) == [197308, 197309]

    def test_empty_range_rejected(self):
        with pytest.raises(EmptyPanelError):
            parse_panel(BASIC, date_range=(200001, 200012))

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

    def test_gap_in_months_rejected(self):
        text = csv_text([(197307, 1, 1, 1), (197309, 1, 1, 1), (197310, 1, 1, 1)])
        with pytest.raises(ParseError):
            parse_panel(text)


class TestForwardFill:
    def test_fills_from_predecessor(self):
        text = csv_text(
            [(197307, 5.0, 1.0, 1.0), (197308, -99.99, 1.0, 1.0), (197309, 2.0, 1.0, 1.0)]
        )
        panel = forward_fill(parse_panel(text))
        assert panel.returns[1, 0] == 5.0
        assert panel.returns[2, 0] == 2.0
        assert panel.missing_mask[1, 0]  # audit mask preserved
        assert panel.is_sanitized

    def test_identity_on_complete_panel(self):
        panel = parse_panel(BASIC)
        assert forward_fill(panel) is panel

    def test_leading_gap_names_column(self):
        text = csv_text(
            [(197307, 1.0, -999, 1.0), (197308, 1.0, 1.0, 1.0), (197309, 1.0, 1.0, 1.0)]
        )
        with pytest.raises(UnfillableLeadingGapError) as err:
            forward_fill(parse_panel(text))
        assert err.value.column == "Mines"

    def test_consecutive_gaps_propagate(self):
        text = csv_text(
            [(197307, 7.0, 1.0, 1.0), (197308, -999, 1.0, 1.0), (197309, -99.99, 1.0, 1.0)]
        )
        panel = forward_fill(parse_panel(text))
        assert panel.returns[1, 0] == 7.0
        assert panel.returns[2, 0] == 7.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        gen = np.random.default_rng(seed)
        returns = np.round(gen.normal(size=(8, 3)) * 4, 2)
        mask = gen.random(size=(8, 3)) < 0.3
        mask[0] = False
        rows = []
        for t in range(8):
            row = [int(month_stamps(8)[t])]
            for j in range(3):
                row.append(-99.99 if mask[t, j] else returns[t, j])
            rows.append(tuple(row))
        panel = parse_panel(csv_text(rows, header="date,A,B,C"))
        once = forward_fill(panel)
        twice = forward_fill(once)
        assert np.array_equal(once.returns, twice.returns)
        assert np.array_equal(once.missing_mask, twice.missing_mask)


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

    def test_unsanitized_panel_rejected(self):
        text = csv_text(
            [(197307, 5.0, 1.0, 1.0), (197308, -99.99, 2.0, 1.5), (197309, 2.0, 3.0, 2.0)]
        )
        panel = parse_panel(text)
        with pytest.raises(Exception):
            describe(panel)

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
