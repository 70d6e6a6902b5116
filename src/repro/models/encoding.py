"""Feature encoders and time-series feature engineering.

Provides the categorical/temporal encodings the paper's models consume:
label encoding for users and clustered job names, calendar decomposition of
submission timestamps (§3.5.3), and the rolling/shift/soft-sum throughput
features of §3.5.2 (``roll_mean_1h``, ``shift_1d``, ``soft_3h``, ...).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86_400.0
#: Default decay of the weighted soft sums.
SOFT_DECAY = 0.7


class LabelEncoder:
    """Map hashable categories to dense integer codes.

    Unseen categories at transform time map to a dedicated ``unknown``
    code, so models keep working as new users/templates appear (the drift
    the Update Engine exists to absorb).
    """

    def __init__(self) -> None:
        self._codes: Dict[object, int] = {}

    def fit(self, values: Sequence) -> "LabelEncoder":
        for value in values:
            if value not in self._codes:
                self._codes[value] = len(self._codes)
        return self

    @property
    def unknown_code(self) -> int:
        return len(self._codes)

    def transform(self, values: Sequence) -> np.ndarray:
        unknown = self.unknown_code
        return np.array([self._codes.get(v, unknown) for v in values],
                        dtype=float)

    def fit_transform(self, values: Sequence) -> np.ndarray:
        return self.fit(values).transform(values)

    def __len__(self) -> int:
        return len(self._codes)


def time_features(timestamps: Sequence[float],
                  epoch_day_of_week: int = 2) -> Dict[str, np.ndarray]:
    """Decompose trace timestamps into calendar attributes.

    Trace time is seconds since the trace epoch; ``epoch_day_of_week``
    anchors weekday computation (default Wednesday, arbitrary but fixed).
    Returns hour-of-day, day-of-week, day index ("dayofyear" analogue) and
    a month index.
    """
    ts = np.asarray(timestamps, dtype=float)
    days = np.floor(ts / SECONDS_PER_DAY)
    return {
        "hour": np.floor((ts % SECONDS_PER_DAY) / SECONDS_PER_HOUR),
        "dayofweek": (days + epoch_day_of_week) % 7,
        "day": days,
        "month": np.floor(days / 30.0),
    }


def rolling_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over the previous ``window`` points (causal, excludes t)."""
    return _rolling(values, window, np.mean)


def rolling_median(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing median over the previous ``window`` points."""
    return _rolling(values, window, np.median)


def _rolling(values: np.ndarray, window: int, fn) -> np.ndarray:
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for i in range(len(values)):
        out[i] = _rolling_at(values, i, window, fn)
    return out


def _rolling_at(values: np.ndarray, i: int, window: int, fn) -> float:
    lo = max(0, i - window)
    return fn(values[lo:i]) if i > lo else (values[0] if i == 0 else values[i - 1])


def shift(values: np.ndarray, lag: int, fill: Optional[float] = None) -> np.ndarray:
    """Lag a series by ``lag`` steps, back-filling the head."""
    if lag < 0:
        raise ValueError("lag must be >= 0")
    values = np.asarray(values, dtype=float)
    if lag == 0:
        return values.copy()
    head_value = values[0] if fill is None else fill
    out = np.empty_like(values)
    out[:lag] = head_value
    out[lag:] = values[:-lag]
    return out


def _shift_at(values: np.ndarray, i: int, lag: int) -> float:
    """``shift(values, lag)[i]`` without building the lagged series."""
    return values[i - lag] if i >= lag else values[0]


def soft_sum(values: np.ndarray, window: int,
             decay: float = SOFT_DECAY) -> np.ndarray:
    """Exponentially weighted trailing sum ("weighted soft summation", §3.5.2).

    ``out[t] = sum_{k=1..window} decay^(k-1) * values[t-k]``; more recent
    history weighs more.
    """
    weights = _soft_weights(window, decay)
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for i in range(len(values)):
        out[i] = _soft_sum_at(values, i, weights)
    return out


def _soft_weights(window: int, decay: float) -> np.ndarray:
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 0 < decay <= 1:
        raise ValueError("decay must be in (0, 1]")
    return decay ** np.arange(window)


def _soft_sum_at(values: np.ndarray, i: int, weights: np.ndarray) -> float:
    past = values[max(0, i - weights.size):i][::-1]  # most recent first
    if past.size:
        return float(np.dot(past, weights[:past.size]))
    return values[0] * weights.sum()  # i == 0: no history yet


def _mean_at(values: np.ndarray, i: int, window: int) -> float:
    return _rolling_at(values, i, window, np.mean)


def _median_at(values: np.ndarray, i: int, window: int) -> float:
    return _rolling_at(values, i, window, np.median)


def _soft_at(values: np.ndarray, i: int, window: int) -> float:
    return _soft_sum_at(values, i, _soft_weights(window, SOFT_DECAY))


#: Feature family -> (whole-series builder, builder of the value at one
#: index).  The rolling and soft-sum builders loop over the same
#: per-index kernels, and ``_shift_at`` picks the element ``shift`` puts
#: at that index, so a table row and a single-row build agree bit for bit.
_FAMILIES = {
    "shift": (shift, _shift_at),
    "mean": (rolling_mean, _mean_at),
    "median": (rolling_median, _median_at),
    "soft": (soft_sum, _soft_at),
}

#: The Figure-7a feature columns in table order, as ``(name, family,
#: window)``.  ``window`` counts series steps; ``None`` means one day of
#: steps.  Absolute calendar indices ("day", "month") are deliberately
#: excluded: a forecaster trained on one window and applied to the next
#: would see them out of distribution and memorize per-day offsets.
#: Periodic encodings (hour, dayofweek) carry the generalizable signal.
THROUGHPUT_FEATURES: Tuple[Tuple[str, str, Optional[int]], ...] = (
    ("hour", "calendar", None),
    ("dayofweek", "calendar", None),
    ("shift_1h", "shift", 1),
    ("shift_1d", "shift", None),
    ("roll_mean_1h", "mean", 1),
    ("roll_mean_3h", "mean", 3),
    ("roll_median_1h", "median", 1),
    ("roll_median_6h", "median", 6),
    ("soft_1h", "soft", 1),
    ("soft_3h", "soft", 3),
    ("soft_1d", "soft", None),
)


def throughput_feature_table(series: np.ndarray,
                             start_time: float = 0.0,
                             step_seconds: float = SECONDS_PER_HOUR
                             ) -> Tuple[np.ndarray, List[str]]:
    """Build the Figure-7a feature matrix for an hourly throughput series.

    Features mirror the paper's list (:data:`THROUGHPUT_FEATURES`):
    calendar encodings (``hour``, ``dayofweek``), lags (``shift_1h``,
    ``shift_1d``), rolling statistics (``roll_mean_1h``,
    ``roll_median_1h`` ...) and weighted soft sums (``soft_1h``,
    ``soft_3h``, ``soft_1d``).

    Returns ``(X, feature_names)`` aligned with the input series, suitable
    for one-step-ahead forecasting (every feature is causal).
    """
    series = np.asarray(series, dtype=float)
    cal = time_features(start_time + np.arange(len(series)) * step_seconds)
    day = _steps_per_day(step_seconds)
    columns = [cal[name] if family == "calendar"
               else _FAMILIES[family][0](series,
                                         day if window is None else window)
               for name, family, window in THROUGHPUT_FEATURES]
    return np.column_stack(columns), [f[0] for f in THROUGHPUT_FEATURES]


def throughput_feature_row(series: np.ndarray,
                           start_time: float = 0.0,
                           step_seconds: float = SECONDS_PER_HOUR
                           ) -> np.ndarray:
    """The last row of :func:`throughput_feature_table`, as a 1-row matrix.

    Reads only the trailing windows that row needs, with the same
    arithmetic as the table, so the row is bit-identical to
    ``throughput_feature_table(series, ...)[0][-1:]``.  Forecasting the
    next step needs only this row.
    """
    series = np.asarray(series, dtype=float)
    n = len(series)
    if n == 0:
        raise ValueError("series must not be empty")
    i = n - 1
    cal = time_features(start_time + np.arange(i, n) * step_seconds)
    day = _steps_per_day(step_seconds)
    row = [cal[name][0] if family == "calendar"
           else _FAMILIES[family][1](series, i,
                                     day if window is None else window)
           for name, family, window in THROUGHPUT_FEATURES]
    return np.array([row], dtype=float)


def _steps_per_day(step_seconds: float) -> int:
    return max(1, int(round(SECONDS_PER_DAY / step_seconds)))


def hourly_series(event_times: Sequence[float],
                  weights: Optional[Sequence[float]] = None,
                  start_time: Optional[float] = None,
                  end_time: Optional[float] = None
                  ) -> Tuple[np.ndarray, float]:
    """Aggregate event timestamps into an hourly count/weight series.

    Returns ``(series, series_start_time)``.  ``weights`` turns the series
    into e.g. GPU-demand throughput instead of job counts.
    """
    times = np.asarray(event_times, dtype=float)
    if times.size == 0:
        return np.zeros(1), 0.0
    w = (np.ones_like(times) if weights is None
         else np.asarray(weights, dtype=float))
    if w.shape != times.shape:
        raise ValueError("weights must align with event_times")
    t0 = float(np.floor((start_time if start_time is not None else times.min())
                        / SECONDS_PER_HOUR) * SECONDS_PER_HOUR)
    t1 = float(end_time if end_time is not None else times.max())
    n_bins = max(1, int(np.ceil((t1 - t0) / SECONDS_PER_HOUR)) + 1)
    idx = np.clip(((times - t0) / SECONDS_PER_HOUR).astype(int), 0, n_bins - 1)
    series = np.bincount(idx, weights=w, minlength=n_bins)
    return series, t0
