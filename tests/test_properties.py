"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.models.isotonic import is_monotonic, isotonic_fit
from repro.models.metrics import mae, r2_score
from repro.models.text import levenshtein
from repro.schedulers import FIFOScheduler, SJFScheduler
from repro.sim import Simulator
from repro.workloads import ResourceProfile
from repro.workloads.colocation import InterferenceModel, fitted_curve

from conftest import make_job


# ---------------------------------------------------------------------------
# Isotonic regression
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
def test_isotonic_output_is_monotone(values):
    assert is_monotonic(isotonic_fit(values))


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
def test_isotonic_idempotent(values):
    once = isotonic_fit(values)
    twice = isotonic_fit(once)
    assert np.allclose(once, twice)


@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40))
def test_isotonic_preserves_mean(values):
    fitted = isotonic_fit(values)
    assert np.mean(fitted) == np.float64(np.mean(values)).item() \
        or abs(np.mean(fitted) - np.mean(values)) < 1e-6


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
def test_isotonic_monotone_input_is_fixed_point(values):
    ordered = sorted(values)
    assert np.allclose(isotonic_fit(ordered), ordered)


# ---------------------------------------------------------------------------
# Levenshtein distance
# ---------------------------------------------------------------------------
_names = st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                 max_size=25)


@given(_names, _names)
def test_levenshtein_symmetric(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(_names, _names)
def test_levenshtein_bounds(a, b):
    d = levenshtein(a, b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


@given(_names)
def test_levenshtein_identity(a):
    assert levenshtein(a, a) == 0


@given(_names, _names, _names)
@settings(max_examples=40)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# ---------------------------------------------------------------------------
# Interference model
# ---------------------------------------------------------------------------
@given(st.floats(0, 200))
def test_fitted_curve_bounded(load):
    assert 0.2 <= fitted_curve(load) <= 1.0


@given(st.floats(1, 100), st.floats(1, 100), st.floats(1, 100),
       st.floats(1, 100))
@settings(max_examples=60)
def test_pair_speeds_bounded_and_symmetric_on_average(u1, m1, u2, m2):
    model = InterferenceModel()
    a = ResourceProfile(u1, m1, 1000.0)
    b = ResourceProfile(u2, m2, 1000.0)
    ab = model.pair_speeds(a, b, pair_key=("x", "y"))
    ba = model.pair_speeds(b, a, pair_key=("x", "y"))
    assert 0.2 <= ab.first <= 1.0
    assert 0.2 <= ab.second <= 1.0
    assert ab.average == ba.average


@given(st.integers(1, 5))
def test_kway_speed_decreases_with_width(k):
    model = InterferenceModel()
    profile = ResourceProfile(40.0, 20.0, 1000.0)
    speeds = [model.k_way_speed([profile] * n) for n in range(1, k + 1)]
    assert all(s1 >= s2 for s1, s2 in zip(speeds, speeds[1:]))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=50))
def test_r2_of_truth_is_one(values):
    assert r2_score(values, values) == 1.0


@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=50),
       st.floats(-10, 10))
def test_mae_shift_invariance(values, shift):
    arr = np.array(values)
    assert abs(mae(arr, arr + shift) - abs(shift)) < 1e-6


# ---------------------------------------------------------------------------
# Simulator invariants under random workloads
# ---------------------------------------------------------------------------
@st.composite
def job_list(draw):
    n = draw(st.integers(1, 12))
    jobs = []
    for i in range(n):
        jobs.append(make_job(
            job_id=i + 1,
            duration=draw(st.floats(10.0, 5000.0)),
            gpu_num=draw(st.sampled_from([1, 2, 4, 8])),
            submit_time=draw(st.floats(0.0, 2000.0)),
        ))
    return jobs


@given(job_list())
@settings(max_examples=25, deadline=None)
def test_simulation_conservation_fifo(jobs):
    """Every job finishes exactly once; JCT >= duration; queue >= 0."""
    cluster = Cluster.homogeneous(2, vc_name="vc1")
    result = Simulator(cluster, jobs, FIFOScheduler()).run()
    assert result.n_jobs == len(jobs)
    for record in result.records:
        assert record.jct >= record.duration - 1e-6
        assert record.queue_delay >= -1e-6


@given(job_list())
@settings(max_examples=25, deadline=None)
def test_sjf_never_loses_to_fifo_by_much(jobs):
    """SJF's average JCT is never dramatically worse than FIFO's."""
    def run(scheduler_cls):
        cluster = Cluster.homogeneous(2, vc_name="vc1")
        cloned = [make_job(j.job_id, duration=j.duration, gpu_num=j.gpu_num,
                           submit_time=j.submit_time) for j in jobs]
        return Simulator(cluster, cloned, scheduler_cls()).run()

    sjf = run(SJFScheduler)
    fifo = run(FIFOScheduler)
    assert sjf.avg_jct <= fifo.avg_jct * 1.5 + 60.0


# ---------------------------------------------------------------------------
# Job identity: equal fields, distinct jobs
# ---------------------------------------------------------------------------
_queue_ops = st.lists(
    st.tuples(st.sampled_from(["append", "remove", "remove_jobs", "in"]),
              st.integers(0, 3)),
    max_size=40)


@given(_queue_ops)
def test_queue_operations_follow_job_identity(ops):
    """Twins with equal fields stay distinct jobs in a queue: removing one
    removes that object, never its equal twin."""
    from repro.workloads.job import remove_jobs

    twins = [make_job(job_id=7) for _ in range(4)]
    assert twins[0] != twins[1] and twins[0] == twins[0]
    queue, model = [], []  # model holds the ids of queued jobs, in order
    for op, index in ops:
        job = twins[index]
        if op == "append":
            queue.append(job)
            model.append(id(job))
        elif op == "in":
            assert (job in queue) == (id(job) in model)
        elif op == "remove_jobs":
            remove_jobs(queue, [job])
            model = [i for i in model if i != id(job)]
        elif id(job) in model:
            queue.remove(job)
            model.remove(id(job))
        else:
            with pytest.raises(ValueError):
                queue.remove(job)
        assert [id(j) for j in queue] == model
    assert len({hash(j) for j in twins}) == len(twins)
