"""Tests for the perf subsystem: timers, profiler, reporter."""

import pytest

from repro.perf import (
    StageTimer,
    ThroughputReporter,
    active_timer,
    profiled,
    use_timer,
)


class TestStageTimer:
    def test_records_and_accumulates(self):
        timer = StageTimer()
        timer.record("shred", 0.010)
        timer.record("shred", 0.020)
        timer.record("embed", 0.005)
        assert timer.total_ms("shred") == pytest.approx(30.0)
        assert timer.stages["shred"].calls == 2
        assert timer.stages["shred"].mean_ms == pytest.approx(15.0)
        assert timer.total_ms("embed") == pytest.approx(5.0)

    def test_absent_stage_is_zero(self):
        assert StageTimer().total_ms("nope") == 0.0

    def test_stage_context_manager_uses_clock(self):
        ticks = iter([0.0, 1.5])
        timer = StageTimer(clock=lambda: next(ticks))
        with timer.stage("work"):
            pass
        assert timer.total_ms("work") == pytest.approx(1500.0)

    def test_measure_returns_result(self):
        timer = StageTimer()
        assert timer.measure("calc", lambda a, b: a + b, 2, 3) == 5
        assert timer.stages["calc"].calls == 1

    def test_records_even_when_block_raises(self):
        timer = StageTimer()
        with pytest.raises(ValueError):
            with timer.stage("boom"):
                raise ValueError("x")
        assert timer.stages["boom"].calls == 1

    def test_render_and_as_dict(self):
        timer = StageTimer()
        timer.record("alpha", 0.001)
        text = timer.render("title")
        assert "title" in text and "alpha" in text
        assert timer.as_dict() == {"alpha": pytest.approx(1.0)}


class TestProfiler:
    def test_no_active_timer_is_passthrough(self):
        @profiled("stage")
        def work():
            return 42

        assert active_timer() is None
        assert work() == 42

    def test_active_timer_records_calls(self):
        @profiled("inner")
        def work():
            return "ok"

        timer = StageTimer()
        with use_timer(timer) as active:
            assert active is timer
            assert active_timer() is timer
            work()
            work()
        assert active_timer() is None
        assert timer.stages["inner"].calls == 2

    def test_default_stage_name_is_qualname(self):
        @profiled()
        def named_function():
            return 1

        timer = StageTimer()
        with use_timer(timer):
            named_function()
        assert any("named_function" in name for name in timer.stages)

    def test_nested_timers_record_into_innermost(self):
        @profiled("x")
        def work():
            pass

        outer, inner = StageTimer(), StageTimer()
        with use_timer(outer):
            with use_timer(inner):
                work()
        assert "x" in inner.stages
        assert "x" not in outer.stages


class TestThroughputReporter:
    def test_rate(self):
        reporter = ThroughputReporter()
        line = reporter.add("embed", 500, 0.25, unit="elements")
        assert line.rate == pytest.approx(2000.0)
        assert "elements/s" in line.render()
        assert "embed" in reporter.render()

    def test_zero_seconds_rate_is_zero(self):
        assert ThroughputReporter().add("x", 10, 0.0).rate == 0.0

    def test_add_from_timer(self):
        timer = StageTimer()
        timer.record("detect", 0.5)
        reporter = ThroughputReporter()
        line = reporter.add_from_timer(timer, "detect", 100, unit="queries")
        assert line is not None and line.rate == pytest.approx(200.0)
        assert reporter.add_from_timer(timer, "absent", 100) is None

