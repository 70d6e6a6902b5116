"""The four benchmark workloads, their seeded inputs and their oracles.

Every workload drives the program only through public APIs and returns
one :class:`Sample` per unit of work.  A sample carries its own set-up
time, the time spent inside the program, the measurements its metrics
are made from, and a fingerprint of its outputs that the oracle checks.

Inputs: each workload starts from one fixed synthetic venus trace
(``TRACE_SEED``, or ``PASS_TRACE_SEED`` for Fig. 10a) and the ``--seed``
perturbs it: every job's submission time moves by up to
``SUBMIT_JITTER_S`` and its duration by up to ``DURATION_JITTER``; the
seed also seeds Lucid.  Different trace seeds change a replay's cost by
up to 3.5x (Tiresias at 2000 jobs replayed in 4.8 s under one trace seed
and in 17 s under another), because the load of a synthetic trace
depends on its heavy-tailed draws.  A perturbed trace gives each seed
different arrivals, durations, decisions and outputs while the offered
load stays the same, so run-to-run spread reflects the program and the
host, not the draw.  The perturbation is small for the same reason: over
eight seeds the Tiresias replay cost spread by 0.06 (interquartile range
over median) with submissions moved by up to 300 s and durations by 5%,
and by 0.03 with the 30 s and 1% used here; every seed still gave
different outputs.

Times are reported in reference seconds (see ``hostspeed``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from hostspeed import HostSpeed
from repro.core.factory import make_scheduler
from repro.core.lucid import LucidConfig, LucidScheduler
from repro.serve.config import ServeConfig
from repro.serve.daemon import ServeDaemon
from repro.serve.inbox import InboxFullError
from repro.serve.jobspec import JobSpecError, job_from_spec, job_to_spec
from repro.sim.engine import Simulator
from repro.traces.generator import TraceGenerator
from repro.traces.spec import get_spec

TRACE_SEED = 7
PASS_TRACE_SEED = 77
SUBMIT_JITTER_S = 30.0
DURATION_JITTER = 0.01

#: Open-loop submission rate of ``serve-fifo``: under a third of the
#: closed-loop admission rate even when the host runs slow (135-260
#: specs/s on a 2-vCPU KVM guest).  At 100 specs/s a slow spell brought
#: the daemon near saturation and its median admission latency spread
#: by 0.36 across ten runs; at 60 specs/s by 0.12-0.15 over five or six
#: seeds, at 40 by 0.07-0.09.
SERVE_RATE = 40.0
#: Share of ``--seconds`` the open-loop phase lasts (533 specs at 20 s).
SERVE_OPEN_SHARE = 2.0 / 3.0
#: Closed-loop specs per second of ``--seconds`` (1,600 at 20 s).  A phase
#: of 500 specs lasted 2-3 s, short enough for one slow spell of the host
#: to set its rate (spread 0.47 across ten runs, against 0.09-0.14 with
#: 1000).
SERVE_CLOSED_PER_S = 80
#: One ``status()`` read every this many open-loop specs (6 per second).
SERVE_STATUS_EVERY = 10
#: Genesis start-ups before, between and after the two phases of a serve
#: sample; ``setup_s`` is the median of all of them.  Start-ups done back
#: to back all fell in one speed regime of the host (0.28-0.30 s in one
#: run, 0.56-0.63 s in another), so they are spread over the run.
SERVE_SETUPS_PER_STAGE = 3
#: Daemon ticks between two host-speed probes.  In the open loop a probe
#: waits for a tick after which no spec is pending, so that no admission
#: latency includes one.
TICKS_PER_PROBE = 5

#: Passes on the full cluster per ``pass-2048`` sample.
FULL_PASSES = 5

#: ``step_batch`` calls between two host-speed probes (about 40 ms).
STEPS_PER_PROBE = 25
#: Probes taken back to back before a set-up or a pass, where the next
#: probe would otherwise be far away.
PROBES_PER_GAP = 3


@dataclass
class Sample:
    """One unit of measured work.

    ``setup_s`` and ``busy_s`` are in reference seconds (``hostspeed``),
    except ``busy_s`` of serve, which is raw.
    """

    setup_s: List[float]
    busy_s: float
    attempted: int
    failed: int = 0
    #: Exact digest of the outputs; equal seeds must give equal ones.
    fingerprint: str = ""
    #: Why the outputs are wrong, or ``None``.
    mismatch: Optional[str] = None
    values: Dict[str, List[float]] = field(default_factory=dict)
    #: Serve operations of the open loop, replayed by traced passes.
    plan: Optional[List[str]] = None
    #: Per-layer metrics the benchmark measures itself, not by tracing.
    bench_layers: Dict[str, float] = field(default_factory=dict)
    layers: Optional[Dict[str, float]] = None


def failed_sample(attempted: int, exc: Exception) -> Sample:
    """The sample of a run the program aborted by raising ``exc``.

    A program failure is a wrong output: the run reports
    ``correct: false`` and counts its operations failed.
    """
    traceback.print_exception(type(exc), exc, exc.__traceback__,
                              file=sys.stderr)
    return Sample(setup_s=[], busy_s=0.0, attempted=attempted,
                  failed=attempted,
                  mismatch=f"the program raised {type(exc).__name__}: {exc}")


def _sha(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def perturbed_trace(n_jobs: int, trace_seed: int, seed: int):
    """The fixed venus trace of ``trace_seed``, perturbed by ``seed``.

    Jobs are round-tripped through the public job-spec format, so the
    program receives them exactly as a client would submit them.
    """
    generator = TraceGenerator(
        get_spec("venus").with_jobs(n_jobs).with_seed(trace_seed))
    rng = random.Random(seed)
    jobs = []
    for job in generator.generate():
        spec = job_to_spec(job)
        spec["submit_time"] += rng.uniform(0.0, SUBMIT_JITTER_S)
        spec["duration"] *= rng.uniform(1.0 - DURATION_JITTER,
                                        1.0 + DURATION_JITTER)
        jobs.append(job_from_spec(spec, job_id=spec["job_id"]))
    return generator, jobs


# ----------------------------------------------------------------------
# sim-lucid / sim-tiresias: whole trace replays
# ----------------------------------------------------------------------
def _records_fingerprint(result, jobs) -> tuple:
    """Digest of every ``JobRecord`` plus what is wrong with them."""
    rows = []
    problems = []
    for rec in sorted(result.records, key=lambda r: r.job_id):
        rows.append([rec.job_id, rec.submit_time.hex(),
                     rec.duration.hex(), rec.gpu_num, rec.jct.hex(),
                     rec.queue_delay.hex(), rec.preemptions,
                     rec.finished_in_profiler, rec.restarts, rec.failed])
        if rec.failed or not rec.jct > 0 or rec.queue_delay < -1e-6 \
                or rec.queue_delay > rec.jct + 1e-6:
            problems.append(rec.job_id)
    ids = [row[0] for row in rows]
    if ids != sorted(job.job_id for job in jobs):
        return "", "records do not cover every job exactly once"
    if problems:
        return "", f"{len(problems)} inconsistent records, first " \
                   f"{problems[0]}"
    return _sha({"makespan": result.makespan.hex(), "records": rows}), None



def sim_sample(scheduler: str, n_jobs: int, seed: int) -> Sample:
    speed = HostSpeed()
    try:
        speed.probe(PROBES_PER_GAP)
        started = time.perf_counter()
        generator, jobs = perturbed_trace(n_jobs, TRACE_SEED, seed)
        options = {"config": LucidConfig(seed=seed)} \
            if scheduler == "lucid" else {}
        sim = Simulator(generator.build_cluster(), jobs,
                        make_scheduler(scheduler,
                                       generator.generate_history(),
                                       **options))
        sim.begin()
        setup_end = time.perf_counter()
        speed.probe()
        segments = []
        more = True
        while more:
            segment_start = time.perf_counter()
            steps = 0
            while steps < STEPS_PER_PROBE:
                more = sim.step_batch()
                if not more:
                    break
                steps += 1
            segments.append((segment_start, time.perf_counter(), steps))
            speed.probe()
        result = sim.finalize()
    except Exception as exc:
        return failed_sample(n_jobs, exc)
    fingerprint, mismatch = _records_fingerprint(result, jobs)
    replay = 0.0
    step_ms = []
    for start, end, steps in segments:
        ref = speed.ref_s(start, end)
        replay += ref
        if steps:
            step_ms.append(ref / steps * 1e3)
    return Sample(setup_s=[speed.ref_s(started, setup_end)],
                  busy_s=replay, attempted=len(jobs),
                  fingerprint=fingerprint, mismatch=mismatch,
                  values={"jobs": [len(result.records)],
                          "step_ms": step_ms,
                          "raw_replay_s": [sum(e - s for s, e, _ in
                                               segments)],
                          "raw_setup_s": [setup_end - started]})


def sim_metrics(samples: Sequence[Sample]) -> Dict[str, float]:
    """Jobs finished over the run's total replay time, and the typical
    ``step_batch`` call (one timestamp of events and the scheduling pass
    after it): the median over every stretch of ``STEPS_PER_PROBE`` calls
    of their mean.  Times are in reference seconds (``hostspeed``).
    """
    jobs = sum(v for s in samples for v in s.values["jobs"])
    return {"jobs_per_s": jobs / sum(s.busy_s for s in samples),
            "latency_ms": statistics.median(
                v for s in samples for v in s.values["step_ms"])}


# ----------------------------------------------------------------------
# pass-2048: one Lucid decision over 2048 queued jobs (Fig. 10a)
# ----------------------------------------------------------------------
def _pass(scheduler: LucidScheduler, sim: Simulator,
          speed: HostSpeed) -> tuple:
    """One scheduling pass: its start, its end and the ids it started."""
    before = {job.job_id for job in sim.running_jobs()}
    speed.probe(PROBES_PER_GAP)
    started = time.perf_counter()
    scheduler.schedule(0.0)
    ended = time.perf_counter()
    after = {job.job_id for job in sim.running_jobs()}
    return started, ended, sorted(after - before)


def pass_sample(seed: int) -> Sample:
    """Build the Fig. 10a state and run the passes over it.

    Every job is submitted at time 0 through the scheduler's public
    submit callback.  The profiler is disabled so that every job goes
    straight to the main queue, as in the Fig. 10a setup.  The seed also
    seeds Lucid itself (its models and measurement noise): perturbed
    submission times and durations alone barely change the decisions,
    because duration estimates come from the history.
    """
    speed = HostSpeed()
    try:
        speed.probe(PROBES_PER_GAP)
        started = time.perf_counter()
        generator, jobs = perturbed_trace(2048, PASS_TRACE_SEED, seed)
        scheduler = LucidScheduler(
            generator.generate_history(0.5),
            config=LucidConfig(enable_profiler=False, seed=seed))
        sim = Simulator(generator.build_cluster(), jobs, scheduler)
        scheduler.attach(sim)
        for job in jobs:
            scheduler.on_job_submit(job, 0.0)
        setup_end = time.perf_counter()

        first = _pass(scheduler, sim, speed)
        second = _pass(scheduler, sim, speed)
        full = []
        mismatch = None
        queued = len(scheduler.queue)
        for _ in range(FULL_PASSES):
            full.append(_pass(scheduler, sim, speed))
            if full[-1][2] or len(scheduler.queue) != queued:
                mismatch = "a pass on the full cluster started a job"
        speed.probe(PROBES_PER_GAP)
    except Exception as exc:
        return failed_sample(2 + FULL_PASSES, exc)
    if not first[2]:
        mismatch = "the first pass placed nothing"
    if queued + len(sim.running_jobs()) != len(jobs):
        mismatch = "queued plus running jobs do not add up to 2048"
    passes = [speed.ref_s(start, end) for start, end, _ in
              [first, second] + full]
    return Sample(setup_s=[speed.ref_s(started, setup_end)],
                  busy_s=sum(passes), attempted=2 + FULL_PASSES,
                  fingerprint=_sha([first[2], second[2]]),
                  mismatch=mismatch,
                  values={"place_pass_s": [passes[0]],
                          "placed": [len(first[2])],
                          "full_pass_ms": [v * 1e3 for v in passes[2:]]})


def pass_metrics(samples: Sequence[Sample]) -> Dict[str, float]:
    """Jobs a first pass places per second of its median time, and the
    median pass on the full cluster; reference seconds (``hostspeed``).

    Every state of a run is the same, so every first pass places the same
    jobs, and its time still varies by about 10% from state to state.
    """
    placed = statistics.median(v for s in samples for v in s.values["placed"])
    first_s = statistics.median(
        v for s in samples for v in s.values["place_pass_s"])
    return {"jobs_per_s": placed / first_s,
            "latency_ms": statistics.median(
                v for s in samples for v in s.values["full_pass_ms"])}


# ----------------------------------------------------------------------
# serve-fifo: in-process ServeDaemon, open loop then closed loop
# ----------------------------------------------------------------------
def serve_specs(seed: int, n_open: int,
                n_closed: int) -> List[Dict[str, Any]]:
    """Job specs of the two serve phases, set by ``seed``.

    Each phase submits the same specs of the fixed venus trace on every
    seed: the first ``n_open`` in an order shuffled by ``seed``, then the
    next ``n_closed`` in trace order; ``seed`` also jitters every
    duration.  The offered load stays the same while the arrivals differ.
    With the closed phase shuffled as well, its admission rate spread by
    0.12 over six seeds, against 0.04 for five of six seeds in trace order.
    """
    generator = TraceGenerator(get_spec("venus").with_jobs(n_open + n_closed)
                               .with_seed(TRACE_SEED))
    specs = []
    for job in generator.generate():
        spec = job_to_spec(job)
        del spec["job_id"], spec["submit_time"]
        specs.append(spec)
    rng = random.Random(seed)
    opening = specs[:n_open]
    rng.shuffle(opening)
    specs[:n_open] = opening
    for spec in specs:
        spec["duration"] *= rng.uniform(1.0 - DURATION_JITTER,
                                        1.0 + DURATION_JITTER)
    return specs


SERVE_CONFIG = ServeConfig(trace="venus", scheduler="fifo", seed=TRACE_SEED)


def _daemon(state_dir: str) -> ServeDaemon:
    return ServeDaemon(state_dir, SERVE_CONFIG, durable=True,
                       telemetry=False)


def _final_jobs(daemon: ServeDaemon) -> List[Dict[str, Any]]:
    return daemon.status()["jobs"]


class _Client:
    """Plays the clients and the service loop of one daemon.

    Each spec is billed from its due time to the commit of the tick that
    admitted it.  Each executed operation is appended to ``ops``: ``s``
    submits the next spec, ``t`` ticks, ``r`` reads ``status()``.
    Replaying the ops of a run repeats its exact call sequence, which is
    what makes the counts of two traced passes comparable.
    """

    def __init__(self, daemon: ServeDaemon, specs: List[Dict[str, Any]],
                 n_open: int, speed: HostSpeed) -> None:
        self.daemon = daemon
        self.speed = speed
        self.specs = specs
        self.n_open = n_open
        self.next_spec = 0
        self.batch = SERVE_CONFIG.batch
        self.ops: List[str] = []
        self.pending: List[float] = []  # due times of unpolled specs
        #: (due, commit) of every open-loop spec
        self.admitted: List[tuple] = []
        self.wait_s: List[float] = []
        self.status_ms: List[float] = []
        self.failed = 0
        self.refused = 0
        self.lag = 0.0
        self.busy = 0.0  # seconds spent inside daemon calls
        self.record = True

    def submit(self, due: float) -> bool:
        """Submit the next spec.

        In the open loop (``record``) a refused spec is dropped and
        counted as failed.  In the closed loop a refusal returns
        ``False``, so that the caller ticks and submits it again.
        """
        started = time.perf_counter()
        if self.record:
            self.lag = max(self.lag, started - due)
        self.ops.append("s")
        try:
            self.daemon.submit(self.specs[self.next_spec])
        except InboxFullError:
            self.busy += time.perf_counter() - started
            if self.record:
                self.failed += 1
                self.next_spec += 1
                return True
            self.refused += 1
            return False
        except JobSpecError:
            self.busy += time.perf_counter() - started
            self.failed += 1
            self.next_spec += 1
            return True
        self.busy += time.perf_counter() - started
        self.next_spec += 1
        self.pending.append(due)
        return True

    def tick(self) -> bool:
        self.ops.append("t")
        started = time.perf_counter()
        progressed = self.daemon.tick()
        ended = time.perf_counter()
        self.busy += ended - started
        if self.pending and not progressed:
            raise RuntimeError("the daemon stopped admitting specs")
        taken = self.pending[:self.batch]
        del self.pending[:self.batch]
        if self.record:
            self.wait_s.extend(started - due for due in taken)
            self.admitted.extend((due, ended) for due in taken)
        return progressed

    def status(self) -> None:
        self.ops.append("r")
        started = time.perf_counter()
        self.daemon.status()
        elapsed = time.perf_counter() - started
        self.busy += elapsed
        self.status_ms.append(elapsed * 1e3)

    def open_loop(self, plan: Optional[List[str]]) -> None:
        """Spec i is due at ``origin + i / SERVE_RATE`` whether or not
        the daemon keeps up; in between, the daemon ticks back to back
        as its service loop would, and idles only when it has no work.
        A replayed ``plan`` takes no host-speed probes.
        """
        count = self.n_open
        origin = time.perf_counter() + 0.05
        status_every = SERVE_STATUS_EVERY / SERVE_RATE
        reads = 0
        ticks = 0

        def due_spec() -> float:
            return origin + self.next_spec / SERVE_RATE

        def due_read() -> float:
            return origin + reads * status_every

        def wait_until(when: float) -> None:
            delay = when - time.perf_counter()
            if delay > 0:
                time.sleep(delay)

        if plan is not None:
            for op in plan:
                if op == "s":
                    wait_until(due_spec())
                    self.submit(due_spec())
                elif op == "r":
                    wait_until(due_read())
                    self.status()
                    reads += 1
                else:
                    self.tick()
            return
        progressed = True
        while self.next_spec < count or self.pending:
            now = time.perf_counter()
            while self.next_spec < count and due_spec() <= now:
                self.submit(due_spec())
            if reads < count // SERVE_STATUS_EVERY and due_read() <= now:
                self.status()
                reads += 1
            if self.pending or progressed:
                progressed = self.tick()
                ticks += 1
                if ticks % TICKS_PER_PROBE == 0 and not self.pending:
                    self.speed.probe()
            elif self.next_spec < count:
                wait_until(min(due_spec(), due_read()))
                progressed = True

    def closed_loop(self) -> float:
        """Submit until the inbox refuses, then tick; specs per reference
        second.  The host's speed is probed every ``TICKS_PER_PROBE``
        ticks, outside the timed stretches."""
        self.record = False
        stretches = []
        ticks = 0

        def tick() -> None:
            nonlocal ticks, started
            self.tick()
            ticks += 1
            if ticks % TICKS_PER_PROBE == 0:
                stretches.append((started, time.perf_counter()))
                self.speed.probe()
                started = time.perf_counter()

        self.speed.probe(PROBES_PER_GAP)
        started = time.perf_counter()
        while self.next_spec < len(self.specs):
            if not self.submit(0.0):
                tick()
        while self.pending:
            tick()
        stretches.append((started, time.perf_counter()))
        self.speed.probe(PROBES_PER_GAP)
        return (len(self.specs) - self.n_open) / \
            sum(self.speed.ref_s(*stretch) for stretch in stretches)



def serve_sample(seed: int, seconds: float, scratch: str,
                 plan: Optional[List[str]] = None) -> Sample:
    n_open = max(1, round(SERVE_RATE * SERVE_OPEN_SHARE * seconds))
    n_closed = max(1, round(SERVE_CLOSED_PER_S * seconds))
    specs = serve_specs(seed, n_open, n_closed)
    root = tempfile.mkdtemp(prefix="serve-", dir=scratch)
    opened: List[ServeDaemon] = []
    try:
        return _serve_run(specs, n_open, root, plan, opened)
    except Exception as exc:
        return failed_sample(len(specs), exc)
    finally:
        for daemon in opened:
            try:
                daemon.close()  # a no-op unless a failure left it open
            except Exception:
                pass
        shutil.rmtree(root, ignore_errors=True)


def _serve_run(specs: List[Dict[str, Any]], n_open: int, root: str,
               plan: Optional[List[str]],
               opened: List[ServeDaemon]) -> Sample:
    """One serve sample; every daemon it starts is added to ``opened``."""

    def start(state_dir: str) -> tuple:
        daemon = _daemon(state_dir)
        opened.append(daemon)
        return daemon, daemon.start()

    speed = HostSpeed()
    setups: List[tuple] = []

    def genesis(stage: str) -> tuple:
        """Time genesis start-ups; the last one stays open."""
        for attempt in range(SERVE_SETUPS_PER_STAGE):
            if attempt:
                daemon.close()
            state_dir = os.path.join(root, f"{stage}{attempt}")
            speed.probe(PROBES_PER_GAP)
            started = time.perf_counter()
            daemon, _ = start(state_dir)
            setups.append((started, time.perf_counter()))
        speed.probe(PROBES_PER_GAP)
        return daemon, state_dir

    daemon, state_dir = genesis("live")
    client = _Client(daemon, specs, n_open, speed)
    client.open_loop(plan)
    open_ops = len(client.ops)
    genesis("mid")[0].close()
    rate = client.closed_loop()
    while client.tick():
        pass
    final = _final_jobs(daemon)
    daemon.close()
    genesis("end")[0].close()
    mismatch = None
    if len(final) != len(specs) - client.failed:
        mismatch = f"{len(final)} jobs admitted of {len(specs)} specs"
    elif any(row["status"] != "finished" for row in final):
        mismatch = "not every admitted job finished"
    # Reopen: recovery replays the journal and verifies its digests; a
    # digest mismatch raises, which fails the sample.
    reopened, report = start(state_dir)
    if report.genesis or not report.clean:
        mismatch = f"reopen did not recover cleanly: {report.describe()}"
    elif _final_jobs(reopened) != final:
        mismatch = "the reopened daemon reports different jobs"
    reopened.close()

    admit_ms = [speed.ref_s(due, ended) * 1e3
                for due, ended in client.admitted]
    raw_admit_ms = [(ended - due) * 1e3 for due, ended in client.admitted]
    return Sample(setup_s=[speed.ref_s(*setup) for setup in setups],
                  busy_s=client.busy, attempted=len(specs),
                  failed=client.failed, fingerprint=_sha(final),
                  mismatch=mismatch, plan=client.ops[:open_ops],
                  values={"admit_ms": admit_ms,
                          "admit_jobs_per_s": [rate],
                          "raw_admit_ms_p50": [statistics.median(
                              raw_admit_ms)],
                          "raw_setup_s": [b - a for a, b in setups]},
                  bench_layers={
                      "serve.admit.ms_p99":
                          statistics.quantiles(raw_admit_ms, n=100,
                                               method="inclusive")[-1],
                      "serve.inbox_full.count": client.refused,
                      "serve.inbox_wait.ms_p50":
                          statistics.median(client.wait_s) * 1e3,
                      "serve.status.ms_p50":
                          statistics.median(client.status_ms),
                      "bench.gen_lag_ms_max": client.lag * 1e3})


def serve_metrics(samples: Sequence[Sample]) -> Dict[str, float]:
    """The closed loop's admission rate, and the open loop's median
    admission latency."""
    return {
        "jobs_per_s": statistics.median(
            v for s in samples for v in s.values["admit_jobs_per_s"]),
        "latency_ms": statistics.median(
            v for s in samples for v in s.values["admit_ms"]),
    }


#: Fewest samples of repeated identical work in one untraced run.  The
#: count depends on ``--seconds`` alone, so each statistic is taken over
#: the same number of values on every run and host.
MIN_SAMPLES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(seed=, seconds=, scratch=, plan=) -> Sample``
    sample: Callable[..., Sample]
    metrics: Callable[[Sequence[Sample]], Dict[str, float]]
    #: Nominal seconds of one sample, set-up included, on a 2-vCPU host.
    #: An untraced run takes a number of samples fixed by ``--seconds``
    #: alone (see :meth:`samples`).  ``None``: one sample, sized by
    #: ``--seconds`` itself (``serve-fifo``).
    sample_s: Optional[float]
    #: Whether the committed oracle holds a fingerprint per seed.
    golden: bool

    def samples(self, seconds: float) -> int:
        """Samples of an untraced run of ``seconds``."""
        if self.sample_s is None:
            return 1
        return max(MIN_SAMPLES, int(seconds // self.sample_s))


WORKLOADS: Dict[str, Workload] = {
    "sim-lucid": Workload(
        "sim-lucid", lambda seed, **_: sim_sample("lucid", 480, seed),
        sim_metrics, sample_s=6.0, golden=True),
    "sim-tiresias": Workload(
        "sim-tiresias", lambda seed, **_: sim_sample("tiresias", 2000, seed),
        sim_metrics, sample_s=6.0, golden=True),
    "pass-2048": Workload(
        "pass-2048", lambda seed, **_: pass_sample(seed),
        pass_metrics, sample_s=2.0, golden=True),
    "serve-fifo": Workload(
        "serve-fifo", serve_sample, serve_metrics, sample_s=None,
        golden=False),
}
