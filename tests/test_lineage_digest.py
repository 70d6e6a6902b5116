"""Golden digests of the causal lineage DAG and the run counters.

``tests/test_audit_digest.py`` pins why Lucid placed each job; this pins
what ``repro why`` explains a JCT with and what a traced run counts.  Of
a lineage-only replay it hashes every node of the live lineage DAG
(kind, causes and payload, in record order) and where each wait was
routed; of a traced replay, the deterministic values of
``Telemetry.metrics`` — everything but the wall-clock
``schedule_seconds`` histogram.  The matrix is fifo / tiresias / lucid
on venus@120 (seed 1) with faults off, node faults and crashes, and
profiler-cluster faults with no retries (every crash is terminal, also
on the profiling cluster); plus Tiresias and Lucid on a contended
6-node cluster, where Tiresias preempts and Lucid packs jobs.

Refresh a digest only when the DAG or the counters are meant to change,
and say why in CHANGES.md.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.factory import make_scheduler
from repro.faults import FaultSpec
from repro.obs import RingBufferTracer
from repro.obs.lineage import LineageCollector
from repro.sim import Simulator
from repro.traces import TraceGenerator, VENUS

#: Node failures and random crashes (the ``FAULTS`` of
#: ``tests/test_obs_lineage.py``).
NODE_FAULTS = "node_mtbf=43200,node_mttr=1800,crash_rate=0.3,seed=7"
#: Profiling-cluster failures and frequent crashes with no retry budget:
#: jobs fail permanently, some of them while profiling.
PROFILER_FAULTS = ("profiler_mtbf=2000,profiler_mttr=600,crash_rate=3.0,"
                   "retry_limit=0,seed=11")

#: 120 jobs over half a day on 6 nodes: queues form.
CONTENDED = {"n_nodes": 6, "n_vcs": 2, "span_days": 0.5}

#: workload -> (trace spec changes, fault spec).
WORKLOADS = {
    "none": ({}, None),
    "node": ({}, NODE_FAULTS),
    "profiler": ({}, PROFILER_FAULTS),
    "contended": (CONTENDED, None),
}

#: Wall-clock metrics: they differ between any two runs.
WALL_CLOCK = ("schedule_seconds",)


def run(scheduler, workload, **observers):
    spec_changes, faults = WORKLOADS[workload]
    generator = TraceGenerator(
        replace(VENUS.with_jobs(120).with_seed(1), **spec_changes))
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    return Simulator(cluster, jobs, make_scheduler(scheduler, history),
                     faults=FaultSpec.parse(faults) if faults else None,
                     **observers).run()


def lineage_digest(collector):
    h = hashlib.sha256()
    for event in collector.events:
        h.update(json.dumps(event.as_dict(), sort_keys=True).encode())
    # Where each submit/retry routed the job: decides whether its wait
    # is pending_profiling or pending_main.
    h.update(json.dumps([collector.route_of(event)
                         for event in collector.events]).encode())
    return h.hexdigest()


def metrics_digest(metrics):
    values = {name: value for name, value in metrics.items()
              if name not in WALL_CLOCK}
    return hashlib.sha256(
        json.dumps(values, sort_keys=True).encode()).hexdigest()


#: (scheduler, workload) -> (lineage digest, metrics digest).
CASES = {
    ("fifo", "none"): (
        "b0db6a7ade9bbe4d4a6d5a2f53314c2d"
        "e3336490d8f7c53d62c8ab2200072b25",
        "87fac1dedaef5896f426123d8e5b767a"
        "1943760fd9f8568011516bec5a1af9b7"),
    ("fifo", "node"): (
        "49ca6ad826c99b70e42533039d01115f"
        "88ae2580c7086f5831c5a4da6fe22149",
        "49a9c4b2eb1faa55d16d32b4d0fe62b4"
        "2ab6ea6936006a54517bfde777dc4a7f"),
    ("fifo", "profiler"): (
        "b3de1e9896f5f1ddb8e4cd54a016df1e"
        "7d42d0b160331879619ff33a25c53f60",
        "94cd7d458d83eca37ce5da63bda2aa3d"
        "1b7ee3118c27c3421e3f2f02ed8eff06"),
    ("tiresias", "none"): (
        "b0db6a7ade9bbe4d4a6d5a2f53314c2d"
        "e3336490d8f7c53d62c8ab2200072b25",
        "87fac1dedaef5896f426123d8e5b767a"
        "1943760fd9f8568011516bec5a1af9b7"),
    ("tiresias", "node"): (
        "a4dd9f032007a430abb4e0f3a6292292"
        "edb3b4a858f19657f939559eebc35b80",
        "49a9c4b2eb1faa55d16d32b4d0fe62b4"
        "2ab6ea6936006a54517bfde777dc4a7f"),
    ("tiresias", "profiler"): (
        "b3de1e9896f5f1ddb8e4cd54a016df1e"
        "7d42d0b160331879619ff33a25c53f60",
        "94cd7d458d83eca37ce5da63bda2aa3d"
        "1b7ee3118c27c3421e3f2f02ed8eff06"),
    ("lucid", "none"): (
        "73b79ae8368ce79b81035d2c5b282244"
        "67796b787dbd7381dd6aa8ab16b8bc11",
        "d6c922355c9eee74dfd7cbdc134490af"
        "981832fbb0a849713cfb543308aed19a"),
    ("lucid", "node"): (
        "43c13949c2e2d04085f5550d6cd44245"
        "0522a4514feea40531deafa38b4f79d7",
        "01f7471d96315f0d4a39b334009f48b2"
        "e339291e844baeae09f3eb37286f577d"),
    ("lucid", "profiler"): (
        "aabf94b13288193bde43dc233829da7c"
        "fad1e21b80313976ca85419333edd676",
        "2854a4137f6710cc392a9fcba6a4a673"
        "b20eef53d478de70d47a7f9ac361d550"),
    ("tiresias", "contended"): (
        "001980a3bbbc858aceeee64ad6e4ea2b"
        "038031a4344c09af1f57f5c918e4ea96",
        "876c4ca1631c15314944d80e0396aa6a"
        "dd520deb0a0d2bfd6dd4310d544091da"),
    ("lucid", "contended"): (
        "47edb0e3846f155b9d6f6b919e77effc"
        "779346aa435575af243e5542d01d9103",
        "01e76f4024f88168ee68d55ee0a60efb"
        "69e5f52219696cdea7aa75a69d951963"),
}

IDS = [f"{scheduler}-{workload}" for scheduler, workload in CASES]


@pytest.mark.parametrize("case", list(CASES), ids=IDS)
def test_lineage_digest(case):
    collector = LineageCollector()
    run(*case, lineage=collector)
    assert collector.n_dropped == 0
    assert lineage_digest(collector) == CASES[case][0]


@pytest.mark.parametrize("case", list(CASES), ids=IDS)
def test_metrics_digest(case):
    result = run(*case, tracer=RingBufferTracer())
    assert metrics_digest(result.telemetry.metrics) == CASES[case][1]
