"""Tests of the benchmark's own helpers (the program is not run).

    python3 -m pytest perfbench -q
"""

import threading
import types

import pytest

import calibrate
from spans import BoundaryMissing, Span, Tracer, patched, self_times, union_length
from stats import Tally, tail


# ---------------------------------------------------------------------------
# tail percentile


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # 1..100, unordered input
    pct, value = tail(samples)
    assert pct == 90.0
    assert value == 90
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    pct, value = tail([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0
    assert pct == pytest.approx(100.0 / 11.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


# ---------------------------------------------------------------------------
# self time


def _span(sid, parent, thread, start, end, leaf=0.0):
    s = Span(f"s{sid}", sid, parent, thread, 0)
    s.start, s.end = start, end
    if leaf:
        s.leaves["leaf"] = [leaf, 1, 1]
    return s


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_nested_and_cross_thread():
    spans = [
        _span(0, None, 1, 0.0, 10.0),  # root on the main thread
        _span(1, 0, 1, 1.0, 4.0, leaf=0.5),  # child, same thread, with leaf time
        _span(2, 1, 1, 2.0, 3.0),  # grandchild
        _span(3, 0, 2, 2.0, 6.0),  # child on a worker thread, overlaps span 1
        _span(4, 0, 3, 5.0, 7.0),  # child on another worker, overlaps span 3
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 6.0)  # children cover [1, 7] once
    assert st[1] == pytest.approx(3.0 - 1.0 - 0.5)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(4.0)
    assert st[4] == pytest.approx(2.0)


def test_tracer_parents_worker_spans_to_the_dispatching_span():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass

        def work():
            with tracer.span("worker"):
                with tracer.span("worker.child"):
                    pass

        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert inner.parent == outer.sid
    assert by_name["worker"].parent == outer.sid
    assert by_name["worker"].thread != outer.thread
    assert by_name["worker.child"].parent == by_name["worker"].sid
    assert outer.parent is None
    st = self_times(tracer.spans)
    assert all(v >= -1e-9 for v in st.values())


def test_leaf_time_goes_to_the_enclosing_span():
    tracer = Tracer()
    square = tracer.leaf(lambda x: x * x, "sq", lambda x: 1)
    with tracer.span("solve") as solve:
        assert [square(i) for i in range(5)] == [0, 1, 4, 9, 16]
    assert solve.leaves["sq"][1:] == [5, 5]
    assert square(3) == 9  # no span open: recorded apart
    assert tracer.orphan_leaves["sq"][1] == 1


def test_patched_restores_and_names_missing_boundaries():
    mod = types.ModuleType("fake")
    mod.f = lambda: 1
    with patched([(mod, "f", lambda orig: lambda: orig() + 1)]):
        assert mod.f() == 2
    assert mod.f() == 1
    with pytest.raises(BoundaryMissing, match="fake.g"):
        with patched([(mod, "f", lambda orig: lambda: 0), (mod, "g", lambda orig: orig)]):
            pass
    assert mod.f() == 1


# ---------------------------------------------------------------------------
# failed accounting


def test_converge_run_accounting():
    tally = Tally()
    tally.converge_run(512, aborted=0)
    tally.converge_run(512, aborted=3)
    tally.converge_run(256, aborted=1, problems=["exit code 3"])  # the whole run fails
    assert (tally.attempted, tally.failed) == (1280, 3 + 256)
    assert tally.problems == ["exit code 3"]


def test_session_accounting():
    tally = Tally()
    tally.session(6, first_bad=None)
    tally.session(6, first_bad=4, problems=["norm_2 above bound"])  # calls 4 and 5 fail
    tally.session(6, first_bad=0, problems=["pair raised"])
    assert (tally.attempted, tally.failed) == (18, 2 + 6)


def test_accounting_rejects_impossible_counts():
    with pytest.raises(ValueError):
        Tally().unit(4, 5)


# ---------------------------------------------------------------------------
# calibration


def test_calibration_scales_each_unit_by_the_kernels_around_it(monkeypatch):
    times = iter([0.04, 0.06, 0.025, 0.1])
    monkeypatch.setattr(calibrate, "kernel_s", lambda: next(times))
    cal = calibrate.Calibration()
    ref = calibrate.REF_KERNEL_S
    # factor = reference kernel time / mean of the kernel times around the unit
    assert cal.next() == pytest.approx(ref / 0.05)
    assert cal.next() == pytest.approx(ref / 0.0425)
    assert cal.next() == pytest.approx(ref / 0.0625)
    assert cal.kernel_times == [0.04, 0.06, 0.025, 0.1]


def test_calibration_kernel_runs():
    assert 0.0 < calibrate.kernel_s() < 10.0
