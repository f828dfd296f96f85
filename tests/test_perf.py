"""Tests for the perf module: the stage timer and the profiler seam."""

import threading

import pytest

from repro.perf import StageTimer, profiled, use_timer


class TestStageTimer:
    def test_records_and_accumulates(self):
        timer = StageTimer()
        timer.record("shred", 0.010)
        timer.record("shred", 0.020)
        timer.record("embed", 0.005)
        assert timer.stages["shred"].total_ms == pytest.approx(30.0)
        assert timer.stages["shred"].calls == 2
        assert timer.stages["shred"].mean_ms == pytest.approx(15.0)
        assert timer.stages["embed"].total_ms == pytest.approx(5.0)

    def test_stage_context_manager_uses_clock(self):
        ticks = iter([0.0, 1.5])
        timer = StageTimer(clock=lambda: next(ticks))
        with timer.stage("work"):
            pass
        assert timer.stages["work"].total_ms == pytest.approx(1500.0)

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


class TestProfiler:
    def test_no_timer_is_passthrough(self):
        @profiled("stage")
        def work():
            return 42

        assert work() == 42

    def test_used_timer_records_calls(self):
        @profiled("inner")
        def work():
            return "ok"

        timer = StageTimer()
        with use_timer(timer) as active:
            assert active is timer
            work()
            work()
        work()
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

    def test_threads_record_only_into_their_own_timer(self):
        barrier = threading.Barrier(2, timeout=10)

        @profiled("a")
        def work_a():
            pass

        @profiled("b")
        def work_b():
            pass

        timers = {"a": StageTimer(), "b": StageTimer()}

        def run(name, work):
            with use_timer(timers[name]):
                barrier.wait()  # both timers are active at once
                work()
                barrier.wait()  # both have recorded before either leaves

        threads = [threading.Thread(target=run, args=("a", work_a)),
                   threading.Thread(target=run, args=("b", work_b))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert list(timers["a"].stages) == ["a"]
        assert list(timers["b"].stages) == ["b"]
