import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast import metrics
from loadcast.metrics import (
    MetricError,
    ReportRow,
    assemble_report,
    average_quantile_score,
    mae,
    picp,
    pinball_grad,
    pinball_loss,
    report_to_csv,
    report_to_text,
    rmse,
)


def make_dist(q05, q50, q95):
    """The (n, 3) quantile array of three tracks, in ``QUANTILE_LEVELS`` order."""
    return np.column_stack([np.asarray(x, dtype=float) for x in (q05, q50, q95)])


class TestPointMetrics:
    def test_rmse_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_rmse_two_errors(self):
        assert rmse([3.0, 0.0], [0.0, 4.0]) == pytest.approx(math.sqrt(12.5))

    def test_rmse_single_point(self):
        assert rmse([10.0], [3.0]) == 7.0

    def test_mae_two_errors(self):
        assert mae([3.0, 0.0], [0.0, 4.0]) == 3.5

    def test_mae_perfect(self):
        assert mae([5.0], [5.0]) == 0.0

    def test_mae_constant_error(self):
        assert mae(np.zeros(9), np.full(9, -2.5)) == 2.5

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(MetricError):
            mae([], [])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
           st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=150, deadline=None)
    def test_rmse_dominates_mae(self, y, yhat):
        n = min(len(y), len(yhat))
        y, yhat = y[:n], yhat[:n]
        assert rmse(y, yhat) >= mae(y, yhat) - 1e-12


class TestPinball:
    def test_zero_residual(self):
        assert pinball_loss(5.0, 5.0, 0.5) == 0.0

    def test_under_prediction(self):
        assert pinball_loss(10.0, 8.0, 0.9) == pytest.approx(1.8)

    def test_over_prediction(self):
        assert pinball_loss(8.0, 10.0, 0.9) == pytest.approx(0.2)

    def test_grad_branches(self):
        assert pinball_grad(10.0, 8.0, 0.9) == pytest.approx(-0.9)
        assert pinball_grad(8.0, 10.0, 0.9) == pytest.approx(0.1)
        assert pinball_grad(5.0, 5.0, 0.9) == pytest.approx(0.1)  # tie takes 1 - tau

    def test_tau_out_of_range(self):
        with pytest.raises(MetricError):
            pinball_loss(1.0, 1.0, 1.0)

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_and_convex(self, y, a, b, tau):
        la = pinball_loss(y, a, tau)
        lb = pinball_loss(y, b, tau)
        lmid = pinball_loss(y, (a + b) / 2, tau)
        assert la >= 0.0
        assert lmid <= (la + lb) / 2 + 1e-9

    def test_zero_iff_zero_residual(self):
        assert pinball_loss(3.0, 3.0, 0.7) == 0.0
        assert pinball_loss(3.0, 3.0001, 0.7) > 0.0


class TestAqs:
    def test_perfect_forecast(self):
        y = np.array([1.0, 2.0, 3.0])
        assert average_quantile_score(y, make_dist(y, y, y)) == 0.0

    def test_single_point_example(self):
        dist = make_dist([8.0], [10.0], [12.0])
        # losses: 0.05*2, 0, 0.05*2 -> mean 0.2/3
        assert average_quantile_score([10.0], dist) == pytest.approx(0.2 / 3)

    def test_point_forecast_scores_half_mae(self):
        """Three tracks equal to one point forecast: the levels' pinball
        weights sum to 1.5 on either side, so AQS = 1.5 * MAE / 3."""
        rng = np.random.default_rng(11)
        y = rng.uniform(-100, 100, 500)
        yhat = rng.uniform(-100, 100, 500)
        aqs = average_quantile_score(y, make_dist(yhat, yhat, yhat))
        assert abs(aqs - mae(y, yhat) / 2) <= 1e-12

    def test_misalignment(self):
        """Quantiles must be one (n, 3) row per actual, for both scores."""
        shapes = [(1, 3), (3, 3), (2, 2), (2, 4), (6,)]
        for score in (average_quantile_score, picp):
            for shape in shapes:
                with pytest.raises(MetricError, match="align"):
                    score([1.0, 2.0], np.zeros(shape))

    @pytest.mark.parametrize("score", [average_quantile_score, picp])
    def test_empty_input(self, score):
        with pytest.raises(MetricError, match="empty"):
            score([], np.zeros((0, 3)))


class TestPicp:
    def test_nine_of_ten(self):
        y = np.arange(10.0)
        dist = make_dist(np.full(10, 0.0), np.full(10, 4.0), np.full(10, 8.0))
        assert picp(y, dist) == 90.0

    def test_boundary_counts_as_covered(self):
        dist = make_dist([0.0], [5.0], [10.0])
        assert picp([10.0], dist) == 100.0
        assert picp([0.0], dist) == 100.0

    def test_very_wide_intervals(self):
        y = np.random.default_rng(0).normal(0, 100, 50)
        dist = make_dist(np.full(50, -1e12), np.zeros(50), np.full(50, 1e12))
        assert picp(y, dist) == 100.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0, 1, 300)
        q05 = y - rng.uniform(0, 2, 300)
        q95 = y + rng.uniform(0, 2, 300) - 1.0
        q95 = np.maximum(q05, q95)
        q50 = (q05 + q95) / 2
        dist = make_dist(q05, q50, q95)
        before = picp(y, dist)
        transform = np.exp  # strictly monotone increasing
        dist_t = make_dist(transform(q05), transform(q50), transform(q95))
        assert picp(transform(y), dist_t) == before

    def test_calibration_on_known_distribution(self):
        rng = np.random.default_rng(42)
        y = rng.uniform(0, 1, 5000)
        n = len(y)
        dist = make_dist(np.full(n, 0.05), np.full(n, 0.5), np.full(n, 0.95))
        assert 87.0 <= picp(y, dist) <= 93.0

    def test_quantile_ordering_enforced(self):
        for score in (average_quantile_score, picp):
            for row in ([1.0, 0.5, 2.0], [0.0, 2.0, 1.0]):
                with pytest.raises(MetricError, match="q05 <= q50 <= q95"):
                    score([1.0], np.array([row]))


class TestReport:
    def test_table_one_format_fixture(self):
        report = assemble_report([
            ReportRow("LSTM (Prob.)", 517.4707, 295.8569, picp=88.81, aqs=84.0122),
        ])
        text = report_to_text(report)
        assert "517.4707" in text
        assert "295.8569" in text
        assert "88.81%" in text
        assert "84.0122" in text

    def test_point_model_renders_na(self):
        report = assemble_report([ReportRow("Seasonal Naive", 623.2680, 327.6460)])
        text = report_to_text(report)
        assert "N/A" in text
        csv_text = report_to_csv(report)
        assert csv_text.splitlines()[0] == "Model,RMSE,MAE,PICP,AQS"
        assert "N/A" in csv_text

    def test_empty_report_errors(self):
        with pytest.raises(MetricError):
            assemble_report([])

    def test_duplicate_model_names(self):
        with pytest.raises(MetricError, match="duplicate"):
            assemble_report([ReportRow("a", 1.0, 1.0), ReportRow("a", 2.0, 2.0)])

    def test_every_field_is_one_column_in_order(self):
        assert list(metrics._COLUMNS) == [f.name for f in fields(ReportRow)]

    def test_score_leaves_interval_columns_empty_without_quantiles(self):
        y = np.array([1.0, 2.0, 4.0])
        assert metrics.score("naive", y, y + 1.0) == ReportRow("naive", 1.0, 1.0)
        row = metrics.score("band", y, make_dist(y - 1.0, y, y + 1.0))
        assert row == ReportRow("band", 0.0, 0.0, picp=100.0, aqs=pytest.approx(0.1 / 3))

    def test_rows_keep_pipeline_order(self):
        report = assemble_report([ReportRow("b", 1.0, 1.0), ReportRow("a", 2.0, 2.0)])
        assert isinstance(report, tuple)
        lines = report_to_text(report).splitlines()
        assert lines[1].startswith("b")
        assert lines[2].startswith("a")
