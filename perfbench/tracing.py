"""Per-layer spans and counts, recorded from outside the program.

:class:`LayerTrace` wraps public functions of the ``repro`` package for
the duration of one traced pass and restores them afterwards.  Each
wrapped call is one span of its layer: the wrapper counts it, times it,
and bills its duration to the enclosing span, so a layer's self time is
its total minus the time of the spans nested inside it.  Everything is
kept in memory; :meth:`LayerTrace.metrics` condenses it at the end.

A re-entrant call of the same layer (``safe_predict`` calling
``predict``, ``generate_history`` calling ``generate``) is passed
through uncounted, so one outer call is one span.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median and third quartile of ``values``.

    The inclusive method interpolates between measured values, so every
    quartile lies within their range whatever their number.
    """
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def layer_targets() -> List[tuple]:
    """``(owner, attribute, layer, options)`` for every wrapped function.

    ``options`` may hold ``count_only`` (no timing, for very hot calls),
    ``samples`` (keep per-call durations for percentiles), ``hits``
    (count results that are not ``None``) and ``nbytes`` (a function of
    the result giving bytes moved).
    """
    import repro.core.throughput as throughput
    import repro.schedulers.base as sched_base
    from repro.cluster.cluster import Cluster
    from repro.core.binder import AffineJobpairBinder
    from repro.core.estimator import WorkloadEstimateModel
    from repro.core.lucid import LucidScheduler
    from repro.core.orchestrator import ResourceOrchestrator
    from repro.core.profiler import NonIntrusiveProfiler
    from repro.core.update_engine import UpdateEngine
    from repro.models.gam import GA2MRegressor
    from repro.schedulers import FIFOScheduler, TiresiasScheduler
    from repro.serve.core import SimCore
    from repro.serve.daemon import ServeDaemon
    from repro.serve.inbox import Inbox
    from repro.serve.store import Store
    from repro.serve.wal import WriteAheadLog
    from repro.sim.engine import Simulator
    from repro.sim.metrics import UtilizationTracker
    from repro.traces.generator import TraceGenerator
    from repro.workloads.colocation import InterferenceModel
    from repro.workloads.job import Job

    def wal_bytes(record: Any) -> int:
        return len((record.encode() + "\n").encode("utf-8"))

    return [
        (Simulator, "step_batch", "sim.step_batch", {}),
        (UtilizationTracker, "update", "sim.utilization_update", {}),
        (Cluster, "active_gpu_fraction", "cluster.fraction_scan", {}),
        (Cluster, "shared_gpu_fraction", "cluster.fraction_scan", {}),
        (Cluster, "memory_used_fraction", "cluster.fraction_scan", {}),
        (sched_base, "find_consolidated", "cluster.placement",
         {"hits": True}),
        (FIFOScheduler, "schedule", "sched.pass", {"samples": True}),
        (TiresiasScheduler, "schedule", "sched.pass", {"samples": True}),
        (LucidScheduler, "schedule", "sched.pass", {"samples": True}),
        (Job, "__eq__", "workloads.job_eq", {"count_only": True}),
        (InterferenceModel, "pair_speeds", "workloads.colocation", {}),
        (InterferenceModel, "k_way_speed", "workloads.colocation", {}),
        (throughput.ThroughputPredictModel, "forecast_next",
         "core.forecast", {}),
        (throughput, "throughput_feature_table", "models.feature_table", {}),
        (GA2MRegressor, "predict", "models.gam_predict", {}),
        (WorkloadEstimateModel, "predict", "core.estimator_predict", {}),
        (WorkloadEstimateModel, "safe_predict", "core.estimator_predict", {}),
        (WorkloadEstimateModel, "predict_batch", "core.estimator_predict",
         {}),
        (ResourceOrchestrator, "schedule", "core.orchestrate", {}),
        (AffineJobpairBinder, "find_mate", "core.binder.find_mate",
         {"hits": True}),
        (NonIntrusiveProfiler, "allocate", "core.profiler_allocate", {}),
        (UpdateEngine, "maybe_refit", "core.refit", {}),
        (TraceGenerator, "generate", "traces.generate", {}),
        (TraceGenerator, "generate_history", "traces.generate", {}),
        (LucidScheduler, "attach", "core.attach", {}),
        (SimCore, "digest", "serve.digest", {"samples": True}),
        (Inbox, "submit", "serve.inbox_submit", {"samples": True}),
        (Inbox, "poll", "serve.inbox_poll", {}),
        (WriteAheadLog, "append", "serve.wal_append", {"nbytes": wal_bytes}),
        (SimCore, "advance", "serve.advance", {}),
        (Store, "record_job", "serve.record_job", {}),
        (SimCore, "to_blob", "serve.snapshot_blob", {}),
        (Store, "put_snapshot", "serve.snapshot", {}),
        (ServeDaemon, "tick", "serve.tick", {"samples": True}),
    ]


class LayerTrace:
    """In-memory span aggregates for one traced pass.

    Use as a context manager: entering wraps every target of
    :func:`layer_targets`, leaving restores the originals.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.child: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.hits: Counter = Counter()
        self.nbytes: Counter = Counter()
        self._active: Counter = Counter()
        self._stack: List[List[float]] = []
        self._originals: List[tuple] = []

    # -- patching --------------------------------------------------------
    def __enter__(self) -> "LayerTrace":
        for owner, attr, layer, options in layer_targets():
            original = owner.__dict__.get(attr)
            if original is None:
                raise AttributeError(
                    f"{owner.__name__}.{attr} is not defined there; "
                    "the layer map is out of date")
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, **options))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, fn: Callable, layer: str, count_only: bool = False,
              samples: bool = False, hits: bool = False,
              nbytes: Optional[Callable[[Any], int]] = None) -> Callable:
        calls, active, stack = self.calls, self._active, self._stack

        if count_only:
            def counted(*args: Any, **kwargs: Any) -> Any:
                calls[layer] += 1
                return fn(*args, **kwargs)
            return counted

        total, child = self.total, self.child
        kept = self.samples[layer] if samples else None
        hit_count, byte_count = self.hits, self.nbytes
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            if active[layer]:
                return fn(*args, **kwargs)
            active[layer] += 1
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                active[layer] -= 1
                if stack:
                    stack[-1][0] += elapsed
                calls[layer] += 1
                total[layer] += elapsed
                child[layer] += frame[0]
                if kept is not None:
                    kept.append(elapsed)
            if hits and result is not None:
                hit_count[layer] += 1
            if nbytes is not None:
                byte_count[layer] += nbytes(result)
            return result
        return timed

    # -- condensing ------------------------------------------------------
    def _ms_p50(self, layer: str) -> float:
        values = self.samples.get(layer)
        return statistics.median(values) * 1e3 if values else 0.0

    def _ratio(self, layer: str) -> float:
        calls = self.calls[layer]
        return self.hits[layer] / calls if calls else 0.0

    def metrics(self) -> Dict[str, float]:
        """The metrics of every wrapped layer; unentered layers read 0."""
        c, t = self.calls, self.total
        return {
            "sim.step_batch.calls": c["sim.step_batch"],
            "sim.step_batch.self_s":
                t["sim.step_batch"] - self.child["sim.step_batch"],
            "sim.utilization_update.calls": c["sim.utilization_update"],
            "sim.utilization_update.s": t["sim.utilization_update"],
            "cluster.fraction_scan.calls": c["cluster.fraction_scan"],
            "cluster.fraction_scan.s": t["cluster.fraction_scan"],
            "cluster.placement.calls": c["cluster.placement"],
            "cluster.placement.s": t["cluster.placement"],
            "cluster.placement.hit_ratio": self._ratio("cluster.placement"),
            "sched.pass.calls": c["sched.pass"],
            "sched.pass.s": t["sched.pass"],
            "sched.pass.ms_p50": self._ms_p50("sched.pass"),
            "workloads.job_eq.calls": c["workloads.job_eq"],
            "workloads.colocation.calls": c["workloads.colocation"],
            "workloads.colocation.s": t["workloads.colocation"],
            "core.forecast.calls": c["core.forecast"],
            "core.forecast.s": t["core.forecast"],
            "models.feature_table.calls": c["models.feature_table"],
            "models.feature_table.s": t["models.feature_table"],
            "models.gam_predict.calls": c["models.gam_predict"],
            "models.gam_predict.s": t["models.gam_predict"],
            "core.estimator_predict.calls": c["core.estimator_predict"],
            "core.estimator_predict.s": t["core.estimator_predict"],
            "core.orchestrate.s": t["core.orchestrate"],
            "core.binder.find_mate.calls": c["core.binder.find_mate"],
            "core.binder.mate_ratio": self._ratio("core.binder.find_mate"),
            "core.profiler_allocate.s": t["core.profiler_allocate"],
            "core.refit.calls": c["core.refit"],
            "core.refit.s": t["core.refit"],
            "traces.generate.s": t["traces.generate"],
            "core.attach.s": t["core.attach"],
            "serve.digest.calls": c["serve.digest"],
            "serve.digest.ms_p50": self._ms_p50("serve.digest"),
            "serve.inbox_submit.ms_p50": self._ms_p50("serve.inbox_submit"),
            "serve.inbox_poll.s": t["serve.inbox_poll"],
            "serve.wal_append.calls": c["serve.wal_append"],
            "serve.wal_append.s": t["serve.wal_append"],
            "serve.wal_append.bytes": self.nbytes["serve.wal_append"],
            "serve.advance.s": t["serve.advance"],
            "serve.record_job.s": t["serve.record_job"],
            "serve.snapshot.calls": c["serve.snapshot"],
            "serve.snapshot.s":
                t["serve.snapshot_blob"] + t["serve.snapshot"],
            "serve.tick.ms_p50": self._ms_p50("serve.tick"),
            # Measured by the serve workload itself (Sample.bench_layers).
            "serve.admit.ms_p99": 0.0,
            "serve.inbox_full.count": 0,
            "serve.inbox_wait.ms_p50": 0.0,
            "serve.status.ms_p50": 0.0,
            "bench.gen_lag_ms_max": 0.0,
        }


def exact_counts(metrics: Dict[str, float]) -> Dict[str, float]:
    """The per-layer values that must repeat exactly between passes."""
    return {name: value for name, value in metrics.items()
            if name.endswith((".calls", ".count", ".bytes"))}
