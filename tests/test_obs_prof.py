"""Tests for the simulator self-profiler (``Simulator(profile=...)``)."""

import json

import pytest

from repro.obs import NULL_SPAN, SeriesCollector, SimProfiler, peak_rss_mb
from repro.sim import Simulator
from repro.traces import TraceGenerator


def _build(tiny_spec, scheduler="fifo", **kwargs):
    from repro import make_scheduler

    generator = TraceGenerator(tiny_spec)
    return Simulator(generator.build_cluster(), generator.generate(),
                     make_scheduler(scheduler,
                                    generator.generate_history()),
                     **kwargs)


class TestProfilerUnit:
    def test_event_and_pass_accounting(self):
        profiler = SimProfiler()
        profiler.start_run()
        profiler.enter()
        profiler.exit_event("submit")
        profiler.enter()
        profiler.exit_event("submit")
        profiler.enter()
        profiler.exit_event("finish")
        profiler.add_pass(0.25)
        profiler.count("binder_attempts")
        profiler.count("binder_attempts", 2)
        with profiler.span("lucid.control"):
            pass
        profiler.finish_run(events_processed=3, sim_seconds=7200.0)

        assert profiler.event_counts == {"submit": 2, "finish": 1}
        assert profiler.event_seconds["submit"] >= 0.0
        assert profiler.pass_count == 1
        assert profiler.pass_seconds == 0.25
        assert profiler.counters == {"binder_attempts": 3}
        assert profiler.span_counts == {"lucid.control": 1}
        assert profiler.events_processed == 3
        assert profiler.events_per_sec > 0
        assert profiler.sim_speedup > 0

    def test_to_dict_and_reports(self):
        profiler = SimProfiler()
        profiler.start_run()
        profiler.enter()
        profiler.exit_event("submit")
        profiler.finish_run(events_processed=1, sim_seconds=10.0)

        data = profiler.to_dict()
        for key in ("wall_seconds", "sim_seconds", "sim_speedup",
                    "events_processed", "events_per_sec", "peak_rss_mb",
                    "event_kinds", "schedule_passes", "spans", "counters"):
            assert key in data
        assert data["events_processed"] == 1
        assert data["event_kinds"]["submit"]["count"] == 1
        # report_json round-trips; report() mentions the headline numbers.
        assert json.loads(profiler.report_json()) == data
        text = profiler.report()
        assert "events/s" in text
        assert "submit" in text

    def test_null_span_is_reusable_noop(self):
        with NULL_SPAN:
            with NULL_SPAN:
                pass

    def test_peak_rss_positive_on_linux(self):
        rss = peak_rss_mb()
        assert rss is None or rss > 0


class TestProfilerWiring:
    def test_off_by_default(self, tiny_spec):
        sim = _build(tiny_spec)
        assert sim.profiler is None
        sim.run()
        assert sim.profiler is None

    def test_profile_true_builds_one(self, tiny_spec):
        sim = _build(tiny_spec, profile=True)
        assert isinstance(sim.profiler, SimProfiler)

    def test_counts_cover_the_run(self, tiny_spec):
        profiler = SimProfiler()
        sim = _build(tiny_spec, profile=profiler)
        result = sim.run()
        assert profiler.events_processed == sim._events_processed
        assert sum(profiler.event_counts.values()) == \
            profiler.events_processed
        assert profiler.pass_count > 0
        assert profiler.wall_seconds > 0
        assert profiler.sim_seconds == result.makespan
        assert profiler.counters.get("speed_refreshes", 0) > 0

    def test_sanitizer_sweeps_counted(self, tiny_spec):
        profiler = SimProfiler()
        sim = _build(tiny_spec, profile=profiler, sanitize=True)
        sim.run()
        # One sweep per dispatched event plus one per scheduler pass.
        assert profiler.counters["sanitizer_sweeps"] == \
            profiler.events_processed + profiler.pass_count

    def test_lucid_hot_path_counters_and_spans(self, tiny_spec):
        profiler = SimProfiler()
        sim = _build(tiny_spec, scheduler="lucid", profile=profiler)
        sim.run()
        assert profiler.counters.get("estimator_predictions", 0) > 0
        assert profiler.span_counts.get("lucid.control", 0) > 0
        assert profiler.span_counts.get("lucid.orchestrate", 0) > 0
        # Every control pass forecasts once and offers the Update Engine
        # one refit, each inside its own sub-span of ``lucid.control``.
        control = profiler.span_counts["lucid.control"]
        assert profiler.span_counts.get("lucid.forecast") == control
        assert profiler.span_counts.get("lucid.refit") == control
        assert profiler.span_seconds["lucid.forecast"] + \
            profiler.span_seconds["lucid.refit"] <= \
            profiler.span_seconds["lucid.control"]


class TestBitIdentity:
    """The zero-overhead contract: profiling and series collection must
    never perturb simulated outcomes, for every scheduler archetype."""

    @pytest.mark.parametrize("scheduler", ["fifo", "tiresias", "lucid"])
    def test_profiled_run_bit_identical(self, tiny_spec, scheduler):
        plain = _build(tiny_spec, scheduler=scheduler).run()
        instrumented = _build(tiny_spec, scheduler=scheduler,
                              profile=SimProfiler(),
                              series=SeriesCollector(interval=600.0)).run()
        assert instrumented.summary() == plain.summary()
        assert [(r.job_id, r.jct, r.queue_delay, r.preemptions)
                for r in instrumented.records] == \
               [(r.job_id, r.jct, r.queue_delay, r.preemptions)
                for r in plain.records]
