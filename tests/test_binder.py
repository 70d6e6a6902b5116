"""Tests for the Affine-Jobpair Binder (§3.3)."""

import json
from typing import NamedTuple, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, find_consolidated, find_shared
from repro.core.binder import AffineJobpairBinder, PackingMode
from repro.obs.audit import BinderVerdict, DecisionAudit
from repro.schedulers.base import Scheduler
from repro.sim import Simulator
from repro.workloads import GPU_MEMORY_MB
from repro.workloads.job import JobStatus

from conftest import make_job


class _Harness(Scheduler):
    """Starts jobs exclusively as told; exposes the engine for the binder."""

    def schedule(self, now):
        pass


def engine_with_running(jobs, extra=()):
    """Build an engine with ``jobs`` started exclusively.

    ``extra`` jobs are registered with the engine (so they may be packed
    later by a test) but not started.
    """
    from repro.workloads.job import JobStatus

    cluster = Cluster.homogeneous(4, vc_name="vc1")
    sim = Simulator(cluster, list(jobs) + list(extra), _Harness())
    sim.scheduler.attach(sim)
    for job in jobs:
        job.status = JobStatus.PENDING
        gpus = find_consolidated(cluster, job.gpu_num, vc=job.vc)
        sim.start_job(job, gpus)
    return sim


def const_estimate(value=3600.0):
    return lambda job: value


@pytest.fixture
def binder():
    return AffineJobpairBinder()


class TestGSSBudget:
    def test_tiny_plus_jumbo_allowed(self, binder):
        mate = make_job(1, gpu_util=90.0)
        mate.sharing_score = 2
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is mate

    def test_medium_plus_jumbo_blocked(self, binder):
        mate = make_job(1, gpu_util=90.0)
        mate.sharing_score = 2
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=50.0)
        job.sharing_score = 1
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_apathetic_mode_tightens_budget(self, binder):
        mate = make_job(1, gpu_util=50.0)
        mate.sharing_score = 1
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=50.0)
        job.sharing_score = 1
        # M+M is allowed in Default mode (sum == GSS capacity 2) ...
        binder.set_mode(PackingMode.DEFAULT)
        assert binder.find_mate(sim, job, const_estimate()) is mate
        # ... but not in Apathetic mode (capacity 1).
        binder.set_mode(PackingMode.APATHETIC)
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_disabled_mode(self, binder):
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        binder.set_mode(PackingMode.DISABLED)
        assert binder.find_mate(sim, job, const_estimate()) is None


class TestPackingRules:
    def test_rule2_different_gpu_demand_blocked(self, binder):
        mate = make_job(1, gpu_num=2, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_num=1, gpu_util=10.0)
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_rule3_no_third_resident(self, binder):
        mate = make_job(1, gpu_util=5.0)
        mate.sharing_score = 0
        first = make_job(2, gpu_util=5.0)
        first.sharing_score = 0
        sim = engine_with_running([mate], extra=[first])
        sim.start_job(first, sim.gpus_of(mate))  # pack a pair
        job = make_job(3, gpu_util=5.0)
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_rule1_memory_limit(self, binder):
        mate = make_job(1, gpu_util=10.0, mem_mb=GPU_MEMORY_MB * 0.7)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0, mem_mb=GPU_MEMORY_MB * 0.5)
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_rule5_distributed_not_packed(self, binder):
        mate = make_job(1, gpu_num=16, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_num=16, gpu_util=10.0)
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_unprofiled_job_not_packed(self, binder):
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = None
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_vc_isolation(self, binder):
        mate = make_job(1, gpu_util=10.0, vc="vc1")
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0, vc="vc2")
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is None


class TestTimeAwareness:
    def test_nearly_finished_mate_rejected(self, binder):
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        estimates = {1: 60.0, 2: 3600.0}  # mate almost done
        assert binder.find_mate(sim, job,
                                lambda j: estimates[j.job_id]) is None

    def test_short_job_rides_long_mate(self, binder):
        """A short job packing onto a long-running light mate is exactly
        the profitable case Indolent Packing wants (no imbalance veto)."""
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        estimates = {1: 100 * 3600.0, 2: 120.0}
        assert binder.find_mate(sim, job,
                                lambda j: estimates[j.job_id]) is mate


class TestMateSelection:
    def test_prefers_lowest_interference_mate(self, binder):
        tiny = make_job(1, gpu_util=8.0)
        tiny.sharing_score = 0
        medium = make_job(2, gpu_util=50.0)
        medium.sharing_score = 1
        sim = engine_with_running([tiny, medium])
        job = make_job(3, gpu_util=30.0)
        job.sharing_score = 1
        assert binder.find_mate(sim, job, const_estimate()) is tiny

    def test_pass_index_consistency(self, binder):
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        sim = engine_with_running([mate], extra=[job])
        binder.audit = DecisionAudit()
        binder.begin_pass(sim, const_estimate())
        assert binder.find_mate(sim, job, const_estimate()) is mate
        # After the mate gets packed, its stale table entry is re-checked.
        sim.start_job(job, sim.gpus_of(mate))
        other = make_job(3, gpu_util=10.0)
        other.sharing_score = 0
        assert binder.find_mate(sim, other, const_estimate()) is None
        assert binder.audit.take_binder(3).rejections == {"has_mate": 1}
        binder.end_pass()


class TestDynamicStrategy:
    def test_mode_transitions(self, binder):
        assert binder.update_mode(0.1, 0.1, queue_pressure=0) \
            is PackingMode.DISABLED
        assert binder.update_mode(0.5, 0.4, queue_pressure=2) \
            is PackingMode.APATHETIC
        assert binder.update_mode(1.2, 1.5, queue_pressure=30) \
            is PackingMode.DEFAULT

    def test_burst_forecast_keeps_sharing_on(self, binder):
        """No queue now, but a burst is coming: stay ready to pack."""
        mode = binder.update_mode(0.2, 2.0, queue_pressure=0)
        assert mode is not PackingMode.DISABLED

    def test_validation(self):
        with pytest.raises(ValueError):
            AffineJobpairBinder(gss_capacity=3)


class TestInstability:
    def test_unstable_pairs_detected(self, binder, rng):
        a = make_job(1, gpu_util=10.0)
        a.sharing_score = 0
        b = make_job(2, gpu_util=10.0)
        b.sharing_score = 0
        sim = engine_with_running([a], extra=[b])
        sim.start_job(b, sim.gpus_of(a))
        evicted = binder.unstable_pairs(sim, rng, instability_rate=1.0)
        assert [j.job_id for j in evicted] == [2]  # later arrival evicted

    def test_zero_rate_no_evictions(self, binder, rng):
        a = make_job(1, gpu_util=10.0)
        sim = engine_with_running([a])
        assert binder.unstable_pairs(sim, rng, instability_rate=0.0) == []


# ----------------------------------------------------------------------
# Differential: the per-pass mate table against the full scan it replaced
# ----------------------------------------------------------------------
VCS = {"vc1": 3, "vc2": 2}
#: Remaining-time estimates straddling ``min_mate_remaining`` (300 s).
REMAINING = (120.0, 299.0, 300.0, 301.0, 3600.0, 3600.0)
MEMORY = (GPU_MEMORY_MB * 0.2, GPU_MEMORY_MB * 0.45, GPU_MEMORY_MB * 0.6)


class Running(NamedTuple):
    vc: str
    gpu_num: int
    score: Optional[int]
    gpu_util: float
    mem_mb: float
    remaining: float
    #: Pack onto the previous running job when the pair fits.
    packed: bool


class Queued(NamedTuple):
    vc: str
    gpu_num: int
    score: Optional[int]
    gpu_util: float
    mem_mb: float
    #: Queued since time 0 (starving when multi-node) or just submitted.
    old: bool
    priority: int


class PassPlan(NamedTuple):
    running: Tuple[Running, ...]
    queue: Tuple[Queued, ...]
    mode: PackingMode
    draining_node: Optional[int]
    slow_node: Optional[int]
    #: Nodes whose GPUs have half the device memory.
    small_nodes: Tuple[int, ...]


_vc = st.sampled_from(sorted(VCS))
_gpu_num = st.sampled_from((1, 1, 1, 1, 2, 2, 4, 8, 16))
_score = st.sampled_from((None, 0, 1, 1, 2))
_util = st.sampled_from((10.0, 10.0, 10.0, 50.0))
_memory = st.sampled_from(MEMORY)
_node = st.one_of(st.none(), st.integers(0, sum(VCS.values()) - 1))

pass_plans = st.builds(
    PassPlan,
    running=st.lists(st.builds(Running, _vc, _gpu_num, _score, _util,
                               _memory, st.sampled_from(REMAINING),
                               st.booleans()),
                     max_size=20).map(tuple),
    queue=st.lists(st.builds(Queued, _vc, _gpu_num, _score, _util, _memory,
                             st.booleans(), st.integers(0, 3)),
                   max_size=14).map(tuple),
    mode=st.sampled_from((PackingMode.DEFAULT, PackingMode.DEFAULT,
                          PackingMode.APATHETIC, PackingMode.DISABLED)),
    draining_node=_node, slow_node=_node,
    small_nodes=st.lists(st.integers(0, sum(VCS.values()) - 1),
                         max_size=2, unique=True).map(tuple))

#: Scheduling time of a planned pass: old queued jobs have waited past
#: the orchestrator's 8 h starvation threshold.
PASS_NOW = 9 * 3600.0


def build_pass_state(plan):
    """Engine, queue and remaining-time estimate of a planned pass.

    Running jobs start exclusively (or packed onto the previous one, as
    planned) before the pass; those that do not fit are left out.  Equal
    plans build equal states, so two engines can run the same pass.
    """
    cluster = Cluster(dict(VCS))
    for node_id in plan.small_nodes:
        for gpu in cluster.node(node_id).gpus:
            gpu.memory_mb = GPU_MEMORY_MB / 2
    running = []
    for i, r in enumerate(plan.running):
        job = make_job(i + 1, gpu_num=r.gpu_num, vc=r.vc,
                       gpu_util=r.gpu_util, mem_mb=r.mem_mb)
        job.sharing_score = r.score
        running.append(job)
    queue = []
    for i, q in enumerate(plan.queue):
        job = make_job(100 + i, gpu_num=q.gpu_num, vc=q.vc,
                       gpu_util=q.gpu_util, mem_mb=q.mem_mb,
                       submit_time=0.0 if q.old else PASS_NOW - 60.0)
        job.sharing_score = q.score
        queue.append(job)
    sim = Simulator(cluster, running + queue, _Harness())
    sim.scheduler.attach(sim)
    previous = None
    for job, r in zip(running, plan.running):
        job.status = JobStatus.PENDING
        gpus = None
        if (r.packed and previous is not None
                and previous.gpu_num == job.gpu_num
                and not sim.has_mates(previous)):
            gpus = find_shared(cluster, sim.gpus_of(previous),
                               job.profile.gpu_mem_mb)
        if gpus is None:
            gpus = find_consolidated(cluster, job.gpu_num, vc=job.vc,
                                     min_memory_mb=job.profile.gpu_mem_mb)
        if gpus is None:
            continue
        sim.start_job(job, gpus)
        previous = job
    for node_id, attr, value in ((plan.draining_node, "healthy", False),
                                 (plan.slow_node, "fault_slow", 0.5)):
        if node_id is not None:
            for gpu in cluster.node(node_id).gpus:
                setattr(gpu, attr, value)
    remaining = {job.job_id: r.remaining
                 for job, r in zip(running, plan.running)}
    priority = {job.job_id: q.priority for job, q in zip(queue, plan.queue)}
    return (sim, queue, lambda job: remaining[job.job_id],
            lambda job: priority[job.job_id])


def reference_index(binder, engine):
    """The pass index the binder kept before its mate table."""
    index = {}
    if binder.sharing_enabled:
        for mate in engine.running_jobs():
            if (mate.status is JobStatus.RUNNING
                    and mate.sharing_score is not None
                    and mate.gpu_num <= engine.cluster.gpus_per_node
                    and not engine.has_mates(mate)):
                index.setdefault((mate.vc, mate.gpu_num), []).append(mate)
    return index


def reference_reject_reason(binder, engine, job, mate, remaining_estimate):
    """Every rule, for every candidate, in the original order."""
    if engine.has_mates(mate):
        return "has_mate"
    if mate.sharing_score + job.sharing_score > binder.gss_capacity:
        return "gss_budget"
    if remaining_estimate(mate) < binder.min_mate_remaining:
        return "mate_finishing"
    mate_gpus = engine.gpus_of(mate)
    if any(not g.healthy or g.fault_slow < 1.0 for g in mate_gpus):
        return "node_draining"
    gpus = find_shared(engine.cluster, mate_gpus, job.profile.gpu_mem_mb)
    return None if gpus is not None else "memory"


def reference_find_mate(binder, engine, job, index, remaining_estimate):
    """The full scan: the chosen mate and the verdict it leaves."""
    def verdict(mate, rejections, candidates=0):
        return mate, BinderVerdict(
            job_id=job.job_id,
            mate_id=mate.job_id if mate is not None else None,
            mode=binder.mode.name, gss_capacity=binder.gss_capacity,
            job_score=job.sharing_score,
            mate_score=mate.sharing_score if mate is not None else None,
            candidates=candidates, rejections=rejections)

    if not binder.sharing_enabled:
        return verdict(None, {"sharing_disabled": 1})
    if job.gpu_num > engine.cluster.gpus_per_node:
        return verdict(None, {"job_distributed": 1})
    if job.sharing_score is None:
        return verdict(None, {"job_unprofiled": 1})
    best = best_key = None
    rejections = {}
    candidates = index.get((job.vc, job.gpu_num), [])
    for mate in candidates:
        reason = reference_reject_reason(binder, engine, job, mate,
                                         remaining_estimate)
        if reason is not None:
            rejections[reason] = rejections.get(reason, 0) + 1
            continue
        key = (mate.sharing_score, binder._cpu_overload(engine, job, mate),
               mate.profile.gpu_util)
        if best_key is None or key < best_key:
            best, best_key = mate, key
    return verdict(best, rejections, len(candidates))


class TestPassTable:
    @settings(max_examples=150, deadline=None)
    @given(plan=pass_plans)
    def test_matches_full_scan(self, plan):
        """Inside a pass, with and without an audit, every search picks
        the full scan's mate and leaves its verdict byte for byte; mates
        packed during the pass drop out."""
        sim, queue, remaining, _ = build_pass_state(plan)
        fast, audited = AffineJobpairBinder(), AffineJobpairBinder()
        audited.audit = DecisionAudit()
        for binder in (fast, audited):
            binder.set_mode(plan.mode)
            binder.begin_pass(sim, remaining)
        index = reference_index(fast, sim)
        for job in queue:
            want, verdict = reference_find_mate(fast, sim, job, index,
                                                remaining)
            assert fast.find_mate(sim, job, remaining) is want
            assert audited.find_mate(sim, job, remaining) is want
            got = audited.audit.take_binder(job.job_id)
            assert json.dumps(got.to_dict()) == json.dumps(verdict.to_dict())
            if want is not None:
                sim.start_job(job, sim.gpus_of(want))

    def test_equal_keys_go_to_the_earlier_mate(self, binder):
        """Ties on every ranking key go to the mate that started first,
        as in the full scan: the table's score order is stable."""
        mates = [make_job(i, gpu_util=10.0) for i in (1, 2, 3)]
        for mate, score in zip(mates, (1, 0, 0)):
            mate.sharing_score = score
        job = make_job(4)
        job.sharing_score = 0
        sim = engine_with_running(mates, extra=[job])
        binder.begin_pass(sim, const_estimate())
        assert binder.find_mate(sim, job, const_estimate()) is mates[1]
        binder.end_pass()
