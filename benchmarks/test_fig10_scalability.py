"""Figure 10 — scalability analysis.

(a) Scheduling-decision latency under 128..2048 queued jobs, including
    model inference: the paper reports <3 ms at 2048 jobs, versus minutes
    for LP solvers (Gavel) and a super-linear blow-up for Pollux.  Pure
    Python is slower than the authors' setup, so the assertion is the
    paper's *scaling claim*: latency grows roughly linearly in queue
    length and stays in the real-time regime (milliseconds per job, far
    below any round interval).
(b) Model training time on each cluster's history: seconds for throughput
    models, and bounded minutes for duration models (paper: 1.4-11 min on
    10^5-10^7 samples; our histories are proportionally smaller).
"""

import statistics
import time

import numpy as np

from repro.analysis import ascii_table
from repro.core import (
    LucidScheduler,
    PackingAnalyzeModel,
    ThroughputPredictModel,
    WorkloadEstimateModel,
)
from repro.sim import Simulator
from repro.traces import TraceGenerator, VENUS
from repro.workloads import InterferenceModel

from conftest import CLUSTERS


#: Fresh states timed per queue size; one first pass varies by tens of
#: percent from state to state and run to run on one host.
REPEATS = 5


def _scheduling_latency(n_jobs: int) -> float:
    """Wall time of one full scheduling decision over ``n_jobs`` queued,
    on a freshly built state."""
    spec = VENUS.with_jobs(n_jobs).with_seed(77)
    generator = TraceGenerator(spec)
    cluster = generator.build_cluster()
    history = generator.generate_history(0.5)
    jobs = generator.generate()
    scheduler = LucidScheduler(history)
    sim = Simulator(cluster, jobs, scheduler)
    scheduler.attach(sim)
    # Enqueue everything as already-profiled pending jobs.
    for job in jobs:
        job.measured_profile = job.profile
        scheduler._admit_to_main(job)
    started = time.perf_counter()
    scheduler.schedule(0.0)
    return time.perf_counter() - started


def _latencies(n_jobs: int) -> list:
    """``REPEATS`` first-pass latencies over fresh states, sorted."""
    return sorted(_scheduling_latency(n_jobs) for _ in range(REPEATS))


def test_fig10a_scheduling_latency(benchmark, record_result):
    sizes = (128, 256, 512, 1024, 2048)
    latencies = {}
    for n in sizes[:-1]:
        latencies[n] = _latencies(n)
    # The headline 2048-job decision is the benchmarked quantity.
    latencies[2048] = benchmark.pedantic(
        lambda: _latencies(2048), rounds=1, iterations=1)
    median = {n: statistics.median(values)
              for n, values in latencies.items()}

    rows = [[n, median[n] * 1e3,
             f"[{latencies[n][0] * 1e3:.2f}, {latencies[n][-1] * 1e3:.2f}]",
             median[n] / n * 1e6]
            for n in sizes]
    table = ascii_table(
        ["queued jobs", "decision latency (ms, median)", "[min, max] (ms)",
         "per-job latency (us)"],
        rows, title="Figure 10a: scheduling latency vs queue length")
    table += (f"\n(median of {REPEATS} first passes, each on a freshly "
              "built state)")
    table += ("\n(paper: <3 ms at 2048 jobs on their hardware; Gavel needs "
              "~30 min, Pollux minutes-hours)")
    record_result("fig10a_scheduling_latency", table)

    # Real-time regime: well under a 10 s scheduling tick even at 2048.
    assert median[2048] < 10.0
    # Sub-quadratic scaling: 16x jobs cost far less than 256x time.
    assert median[2048] / max(median[128], 1e-9) < 80.0


def test_fig10b_model_training_time(once, record_result):
    def measure():
        rows = []
        for cluster_name, spec in CLUSTERS.items():
            generator = TraceGenerator(spec)
            history = generator.generate_history()
            started = time.perf_counter()
            WorkloadEstimateModel(random_state=0).fit(history)
            estimate_time = time.perf_counter() - started
            started = time.perf_counter()
            ThroughputPredictModel().fit_events(
                [j.submit_time for j in history])
            throughput_time = time.perf_counter() - started
            rows.append([cluster_name, len(history), estimate_time,
                         throughput_time])
        started = time.perf_counter()
        PackingAnalyzeModel().fit(InterferenceModel())
        packing_time = time.perf_counter() - started
        return rows, packing_time

    rows, packing_time = once(measure)
    table = ascii_table(
        ["cluster", "history jobs", "estimate model (s)",
         "throughput model (s)"],
        rows, title="Figure 10b: model training time")
    table += (f"\nPacking Analyze Model training: {packing_time:.2f} s "
              "(paper: <1 s, cluster-agnostic)")
    record_result("fig10b_training_time", table)

    for row in rows:
        assert row[2] < 660.0, "duration model training exceeds 11 min"
        assert row[3] < 60.0, "throughput model should train in seconds"
