"""Tests for encoders and time-series feature engineering."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.models.encoding import (
    THROUGHPUT_FEATURES,
    LabelEncoder,
    hourly_series,
    rolling_mean,
    rolling_median,
    shift,
    soft_sum,
    throughput_feature_row,
    throughput_feature_table,
    time_features,
)


class TestLabelEncoder:
    def test_roundtrip(self):
        enc = LabelEncoder().fit(["a", "b", "a", "c"])
        assert enc.transform(["a", "b", "c"]).tolist() == [0.0, 1.0, 2.0]
        assert len(enc) == 3

    def test_unknown_maps_to_dedicated_code(self):
        enc = LabelEncoder().fit(["a", "b"])
        assert enc.transform(["zzz"])[0] == enc.unknown_code

    def test_incremental_fit(self):
        enc = LabelEncoder().fit(["a"])
        enc.fit(["b"])
        assert enc.transform(["a", "b"]).tolist() == [0.0, 1.0]


class TestTimeFeatures:
    def test_hour_extraction(self):
        feats = time_features([0.0, 3600.0, 86_400.0 + 7200.0])
        assert feats["hour"].tolist() == [0.0, 1.0, 2.0]
        assert feats["day"].tolist() == [0.0, 0.0, 1.0]

    def test_dayofweek_cycles(self):
        feats = time_features([i * 86_400.0 for i in range(8)])
        dow = feats["dayofweek"]
        assert dow[0] == dow[7]
        assert len(set(dow[:7].tolist())) == 7


class TestRollingFeatures:
    def test_rolling_mean_causal(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        rolled = rolling_mean(values, window=2)
        # Index 2 sees values[0:2] only — never its own value.
        assert rolled[2] == pytest.approx(1.5)
        assert rolled[3] == pytest.approx(2.5)

    def test_rolling_median(self):
        values = np.array([1.0, 100.0, 2.0, 3.0])
        rolled = rolling_median(values, window=3)
        assert rolled[3] == pytest.approx(2.0)

    def test_shift(self):
        values = np.array([1.0, 2.0, 3.0])
        assert shift(values, 1).tolist() == [1.0, 1.0, 2.0]
        assert shift(values, 0).tolist() == [1.0, 2.0, 3.0]
        assert shift(values, 2, fill=0.0).tolist() == [0.0, 0.0, 1.0]

    def test_soft_sum_weights_recent_history_more(self):
        values = np.array([0.0, 10.0, 1.0, 0.0])
        soft = soft_sum(values, window=2, decay=0.5)
        # At t=3: 1*1 (t=2) + 10*0.5 (t=1) = 6
        assert soft[3] == pytest.approx(6.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            rolling_mean(np.ones(3), 0)
        with pytest.raises(ValueError):
            soft_sum(np.ones(3), 2, decay=0.0)
        with pytest.raises(ValueError):
            shift(np.ones(3), -1)


class TestThroughputTable:
    def test_feature_table_shape_and_names(self):
        series = np.arange(72, dtype=float)
        X, names = throughput_feature_table(series)
        assert X.shape == (72, len(names))
        for expected in ("hour", "shift_1h", "shift_1d", "roll_mean_1h",
                         "roll_median_1h", "soft_1h", "soft_3h", "soft_1d"):
            assert expected in names

    def test_features_are_causal(self):
        """Row t must not depend on series[t] (one-step-ahead protocol)."""
        rng = np.random.default_rng(0)
        series = rng.uniform(0, 10, 60)
        X1, names = throughput_feature_table(series)
        bumped = series.copy()
        bumped[30] += 100.0
        X2, _ = throughput_feature_table(bumped)
        assert np.allclose(X1[30], X2[30]), "row 30 saw its own value"
        assert not np.allclose(X1[31], X2[31])  # but the next row does


def _series(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "zeros":
        return np.zeros(n)
    if kind == "poisson":
        return rng.poisson(4.0, n).astype(float)
    return rng.uniform(0.0, 50.0, n)


def _assert_row_is_last_table_row(series, start_time, step=3600.0):
    row = throughput_feature_row(series, start_time, step)
    table, _ = throughput_feature_table(series, start_time, step)
    assert row.shape == (1, table.shape[1])
    assert row[0].tobytes() == table[-1].tobytes(), (len(series), start_time)


class TestThroughputRow:
    """``throughput_feature_row`` is the last table row, byte for byte."""

    @pytest.mark.parametrize("kind", ["zeros", "poisson", "uniform"])
    def test_matches_table_for_every_length(self, kind):
        # n <= 24 puts shift_1d in the head fill; 1 is the lone-row case.
        for n in range(1, 81):
            series = _series(kind, n, seed=n)
            for start_time in (0.0, 7 * 3600.0, 1234.5678, -98_765.4321):
                _assert_row_is_last_table_row(series, start_time)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80),
           st.floats(-1e7, 1e7),
           st.sampled_from([3600.0, 1800.0, 900.0, 7200.0]))
    def test_matches_table_on_random_series(self, values, start_time, step):
        _assert_row_is_last_table_row(np.array(values), start_time, step)

    def test_columns_come_from_one_definition(self):
        _, names = throughput_feature_table(np.ones(30))
        assert names == [name for name, _, _ in THROUGHPUT_FEATURES]

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            throughput_feature_row(np.zeros(0))


class TestHourlySeries:
    def test_counts_events(self):
        series, t0 = hourly_series([10.0, 20.0, 3700.0])
        assert t0 == 0.0
        assert series[0] == 2
        assert series[1] == 1

    def test_weights(self):
        series, _ = hourly_series([10.0, 20.0], weights=[4.0, 8.0])
        assert series[0] == pytest.approx(12.0)

    def test_empty(self):
        series, t0 = hourly_series([])
        assert series.tolist() == [0.0]

    def test_explicit_range(self):
        series, t0 = hourly_series([7200.0], start_time=0.0, end_time=10_800.0)
        assert t0 == 0.0
        assert len(series) >= 3
        assert series[2] == 1

    def test_weight_alignment_checked(self):
        with pytest.raises(ValueError):
            hourly_series([1.0, 2.0], weights=[1.0])
