"""Tests for the Throughput Predict Model (§3.5.2)."""

import numpy as np
import pytest

from repro.core.throughput import ThroughputPredictModel
from repro.models.metrics import mae


def diurnal_series(days=14, amplitude=40.0, base=50.0, noise=3.0, seed=0):
    rng = np.random.default_rng(seed)
    hours = np.arange(days * 24)
    hod = hours % 24
    signal = base + amplitude * np.exp(-((hod - 14.0) / 4.0) ** 2)
    return np.maximum(0.0, signal + rng.normal(0, noise, len(hours)))


@pytest.fixture(scope="module")
def fitted():
    return ThroughputPredictModel(random_state=0).fit_series(diurnal_series())


class TestFitting:
    def test_requires_a_day_of_history(self):
        with pytest.raises(ValueError):
            ThroughputPredictModel().fit_series(np.ones(10))

    def test_fit_events(self):
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0, 3 * 86_400, 2000))
        model = ThroughputPredictModel().fit_events(times)
        assert model.train_median > 0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ThroughputPredictModel().forecast_next(np.ones(48), 0.0)


class TestForecasting:
    def test_forecast_next_predicts_from_last_table_row(self, fitted):
        from repro.models.encoding import throughput_feature_table

        series = diurnal_series(days=3, seed=5)
        for hours in (1, 12, 24, 25, 48):
            recent = series[:hours]
            next_time = 86_400.0 + hours * 3600.0 + 0.25
            extended = np.append(recent, 0.0)
            start = next_time - hours * 3600.0
            table, _ = throughput_feature_table(extended, start_time=start)
            expected = max(0.0, fitted._model.predict(table[-1:])[0])
            assert fitted.forecast_next(recent, next_time) == expected

    def test_one_step_ahead_accuracy(self, fitted):
        series = diurnal_series(seed=9)
        preds = fitted.predict_series(series)
        # Skip the first day (warm-up of lag features).
        err = mae(series[24:], preds[24:])
        assert err < 10.0  # vs amplitude 40

    def test_beats_naive_mean(self, fitted):
        series = diurnal_series(seed=9)
        preds = fitted.predict_series(series)
        naive = np.full_like(series, series.mean())
        assert mae(series[24:], preds[24:]) < mae(series[24:], naive[24:])

    def test_forecast_next_tracks_diurnal_peak(self, fitted):
        series = diurnal_series(days=5)
        # Forecast 14:00 on day 3 (peak) vs 03:00 (trough).
        peak_t = (3 * 24 + 14) * 3600.0
        trough_t = (3 * 24 + 3) * 3600.0
        peak = fitted.forecast_next(series[: 3 * 24 + 14], peak_t)
        trough = fitted.forecast_next(series[: 3 * 24 + 3], trough_t)
        assert peak > trough + 15.0

    def test_forecast_non_negative(self, fitted):
        assert fitted.forecast_next(np.zeros(48), 48 * 3600.0) >= 0.0

    def test_load_level(self, fitted):
        assert fitted.load_level(fitted.train_median) == pytest.approx(1.0)
        assert fitted.load_level(0.0) == 0.0


class TestInterpretation:
    def test_global_explanation_has_hour(self, fitted):
        explanation = fitted.explain_global()
        assert "hour" in explanation.feature_names
        top = [name for name, _ in explanation.top_features(6)]
        # Figure 7a: hour and recent-history features dominate.
        assert any(n in top for n in
                   ("hour", "shift_1h", "soft_1h", "roll_mean_1h"))

    def test_hour_shape_is_diurnal(self, fitted):
        """Figure 7b: the hour shape peaks in the afternoon."""
        edges, values = fitted.hour_shape()
        bins = np.concatenate([[0], edges, [23]])
        # Find scores near hour 14 vs hour 3.
        idx_peak = np.digitize(14.0, edges)
        idx_trough = np.digitize(3.0, edges)
        assert values[idx_peak] > values[idx_trough]
