"""Throughput Predict Model (§3.5.2, Figures 7a/7b and 13a).

A GA²M time-series forecaster of cluster-wide job-submission throughput
(and optionally GPU-demand throughput).  Feature engineering follows the
paper: calendar encodings to capture diurnal/weekly seasonality plus
rolling means/medians, lags and weighted soft summations of the recent
series.  The forecast drives two scheduler mechanisms:

* the Binder's **Dynamic Strategy** — relax or disable packing when the
  cluster is, and will remain, lightly loaded (§3.3);
* the Profiler's **Time-aware Scaling** — borrow nodes and shrink the
  profiling time limit ahead of submission bursts (§3.2).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.models.encoding import (
    SECONDS_PER_HOUR,
    hourly_series,
    throughput_feature_row,
    throughput_feature_table,
)
from repro.models.gam import GA2MRegressor, GlobalExplanation


class ThroughputPredictModel:
    """One-step-ahead hourly throughput forecaster.

    Parameters
    ----------
    n_rounds, n_interactions:
        GA²M capacity.
    """

    def __init__(self, n_rounds: int = 100, n_interactions: int = 2,
                 max_bins: int = 12, smoothing: float = 6.0,
                 random_state: int = 0) -> None:
        # Coarse bins + strong per-bin smoothing: hourly count series are
        # short and bursty, and fine-grained shape functions memorize
        # training spikes instead of the diurnal structure.
        self.n_rounds = n_rounds
        self.n_interactions = n_interactions
        self.max_bins = max_bins
        self.smoothing = smoothing
        self.random_state = random_state
        self._model: Optional[GA2MRegressor] = None
        self._feature_names: Sequence[str] = ()
        self._train_median: float = 0.0
        self._start_time: float = 0.0

    # ------------------------------------------------------------------
    def fit_events(self, event_times: Sequence[float],
                   weights: Optional[Sequence[float]] = None
                   ) -> "ThroughputPredictModel":
        """Fit from raw submission timestamps (weights = GPU demand).

        Histories shorter than two days are left-padded with zero hours so
        the calendar features still span full diurnal cycles — a bench
        trace carved out of a few hours of activity must not crash the
        scheduler's training step.
        """
        series, start = hourly_series(event_times, weights=weights)
        min_hours = 48
        if series.size < min_hours:
            pad = min_hours - series.size
            series = np.concatenate([np.zeros(pad), series])
            start -= pad * SECONDS_PER_HOUR
        return self.fit_series(series, start_time=start)

    def fit_series(self, series: Sequence[float],
                   start_time: float = 0.0) -> "ThroughputPredictModel":
        """Fit from an already-aggregated hourly series."""
        series = np.asarray(series, dtype=float)
        if series.size < 24:
            raise ValueError("need at least one day of hourly history")
        self._start_time = start_time
        X, names = throughput_feature_table(series, start_time=start_time)
        self._feature_names = names
        self._train_median = float(np.median(series))
        self._model = GA2MRegressor(
            n_rounds=self.n_rounds, n_interactions=self.n_interactions,
            max_bins=self.max_bins, smoothing=self.smoothing,
            feature_names=list(names), random_state=self.random_state)
        self._model.fit(X, series)
        return self

    def _check_fitted(self) -> None:
        if self._model is None:
            raise RuntimeError("ThroughputPredictModel is not fitted")

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------
    def predict_series(self, series: Sequence[float],
                       start_time: Optional[float] = None) -> np.ndarray:
        """One-step-ahead predictions aligned with an observed series.

        ``out[t]`` is the forecast of ``series[t]`` from strictly earlier
        observations (every engineered feature is causal), which is the
        Figure-13a evaluation protocol.
        """
        self._check_fitted()
        t0 = self._start_time if start_time is None else start_time
        X, _ = throughput_feature_table(np.asarray(series, dtype=float),
                                        start_time=t0)
        return np.maximum(0.0, self._model.predict(X))

    def forecast_next(self, recent_series: Sequence[float],
                      next_time: float) -> float:
        """Forecast the next hour given the recent observed hours.

        ``next_time`` is the timestamp of the hour being forecast; the
        recent series must end with the hour immediately before it.  Only
        the feature row of that hour is built: every feature is causal, so
        it equals the last row of the full table.
        """
        self._check_fitted()
        extended = np.append(np.asarray(recent_series, dtype=float), 0.0)
        start = next_time - (len(extended) - 1) * SECONDS_PER_HOUR
        X = throughput_feature_row(extended, start_time=start)
        return float(max(0.0, self._model.predict(X)[0]))

    def load_level(self, forecast: float) -> float:
        """Forecast relative to the historical median (1.0 = typical)."""
        self._check_fitted()
        if self._train_median <= 0:
            return 1.0
        return forecast / self._train_median

    @property
    def train_median(self) -> float:
        return self._train_median

    # ------------------------------------------------------------------
    # Interpretation (Figure 7a/7b)
    # ------------------------------------------------------------------
    def explain_global(self) -> GlobalExplanation:
        self._check_fitted()
        return self._model.explain_global()

    def hour_shape(self) -> Tuple[np.ndarray, np.ndarray]:
        """The learned shape function of the hour feature (Figure 7b)."""
        self._check_fitted()
        idx = list(self._feature_names).index("hour")
        return self._model.shape_function(idx)
