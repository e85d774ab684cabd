"""Tests of the benchmark harness itself.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import run as bench_run  # noqa: E402
from tracing import EntryPoint, SpanRecorder, traced  # noqa: E402
from workloads import Cell, Workload, count_failures, reference_pass, reference_trial  # noqa: E402


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_only_direct_children():
    rec = SpanRecorder(clock=scripted_clock(0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0))

    leaf = rec.wrap("leaf", lambda: None)
    inner = rec.wrap("inner", lambda: leaf())

    def outer_body():
        inner()  # 1.0 .. 3.0, with leaf at 2.0 .. 2.5
        inner_no_leaf()  # 4.0 .. 6.0

    inner_no_leaf = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", outer_body)
    outer()  # 0.0 .. 10.0

    assert rec.calls() == {"leaf": 1, "inner": 2, "outer": 1}
    assert rec.self_times() == {"leaf": 0.5, "inner": 3.5, "outer": 6.0}
    assert list(rec.parent) == [-1, 0, 1, 0]


def test_span_closes_when_the_call_raises():
    rec = SpanRecorder(clock=scripted_clock(0.0, 1.0, 5.0, 7.0))

    def boom():
        raise ValueError("boom")

    failing = rec.wrap("failing", boom)
    try:
        failing()
    except ValueError:
        pass
    rec.wrap("after", lambda: None)()
    assert list(rec.parent) == [-1, -1]
    assert rec.self_times() == {"failing": 1.0, "after": 2.0}


def test_missing_entry_points_are_reported_not_raised():
    import vanetim.netsim as netsim

    original_run = netsim.Engine.run
    rec = SpanRecorder()
    points = (
        EntryPoint("gone.helper", "vanetim.netsim", "no_such_helper"),
        EntryPoint("gone.module", "vanetim.no_such_module", "anything"),
        EntryPoint("gone.class", "vanetim.netsim:NoSuchEngine", "run"),
        EntryPoint("netsim.run", "vanetim.netsim:Engine", "run"),
    )
    with traced(rec, points) as missing:
        assert netsim.Engine.run is not original_run
    assert missing == ["gone.helper", "gone.module", "gone.class"]
    assert netsim.Engine.run is original_run


def test_count_that_no_longer_fits_the_result_is_skipped():
    from tracing import AFTER

    rec = SpanRecorder()
    broadcast = rec.wrap("netsim.broadcast", lambda: None, AFTER["netsim.broadcast"])
    assert broadcast() is None
    assert rec.counters == {"netsim.broadcast.uncounted": 1}
    assert rec.calls() == {"netsim.broadcast": 1}


def test_yardstick_is_fixed_work_and_rescales_by_its_mean():
    from yardstick import REFERENCE_S, kernel, rescale

    assert kernel(200) == kernel(200) > 0
    assert rescale(3.0, REFERENCE_S, REFERENCE_S) == 3.0
    assert rescale(3.0, 2 * REFERENCE_S, 4 * REFERENCE_S) == 1.0


TINY = Workload(name="tiny", kind="sweep",
                scenarios=("accident",), densities=(19,), policies=("hop4",))


def test_traced_and_untraced_digests_agree():
    reference = reference_pass(TINY, seed=3)
    assert [r.ok for r in reference] == [True]
    tally = bench_run.Tally()
    rec = SpanRecorder()
    bench_run.timed_pass(TINY, 3, reference, tally)
    _, missing = bench_run.traced_pass(TINY, 3, reference, tally, rec)
    assert tally.problems == []
    assert tally.attempted == 2
    assert missing == []
    calls = rec.calls()
    assert calls["netsim.run"] == 1
    assert calls["metrics.count"] == reference[0].transmissions
    assert rec.counters["broadcast.deliveries"] == reference[0].deliveries


def test_failures_are_counted_not_raised():
    bad = reference_trial(Cell("tiny", "no-such-scenario", "hop4", 19, 0, 1))
    assert not bad.ok and "KeyError" in bad.problem

    good = reference_pass(TINY, seed=3)
    key = ("accident", "hop4", 19)
    right = {key: {"transmissions": good[0].transmissions}}
    wrong = {key: {"transmissions": good[0].transmissions + 1}}
    assert count_failures(right, good) == []
    assert len(count_failures(wrong, good)) == 1
    assert len(count_failures({}, good)) == 1
    assert len(count_failures(right, good, error="RuntimeError: x")) == 1
    assert len(count_failures(right, [bad])) == 1
