"""repro.faults — the fault-injection machinery itself.

Before any seam is hardened, the injector has to be trustworthy:
deterministic (same spec, same firing pattern), self-disarming
(``times=N``), refusing typos (unregistered points), armable from the
environment exactly the way ``benchmarks/chaos_smoke.py`` arms a daemon
subprocess, and **zero-overhead disarmed** — the hot paths pay one
falsy dict check.
"""

import os
import sqlite3

import pytest

from repro import faults
from repro.faults import (
    FaultInjectedError,
    FaultSpec,
    arm,
    arm_from_env,
    armed,
    disarm,
    fault_point,
    injected,
)

POINT = "service.dispatch"


@pytest.fixture(autouse=True)
def clean_slate():
    disarm()
    yield
    disarm()


class TestDisarmedPath:
    def test_disarmed_is_identity(self):
        assert fault_point(POINT) is None
        assert fault_point(POINT, value="v") == "v"

    def test_unarmed_point_passes_through_while_another_is_armed(self):
        arm("pool.chunk")
        assert fault_point(POINT, value=7) == 7

    def test_registry_lists_every_seam(self):
        points = faults.fault_points()
        for name in ("service.dispatch", "service.response",
                     "pool.chunk", "registry.sqlite.commit",
                     "registry.sqlite.read", "registry.append.torn",
                     "ledger.seal"):
            assert name in points
            assert points[name]


class TestArming:
    def test_unregistered_point_is_refused(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            arm("no.such.seam")

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            arm(POINT, "explode")

    def test_raise_default_error(self):
        arm(POINT)
        with pytest.raises(FaultInjectedError) as excinfo:
            fault_point(POINT)
        assert excinfo.value.code == "fault-injected"
        assert POINT in str(excinfo.value)

    def test_raise_named_error_kinds(self):
        arm(POINT, error="sqlite")
        with pytest.raises(sqlite3.OperationalError):
            fault_point(POINT)
        arm(POINT, error="os")
        with pytest.raises(OSError):
            fault_point(POINT)

    def test_raise_exception_instance(self):
        boom = RuntimeError("custom")
        arm(POINT, error=boom)
        with pytest.raises(RuntimeError) as excinfo:
            fault_point(POINT)
        assert excinfo.value is boom

    def test_unknown_error_kind_is_refused(self):
        arm(POINT, error="nope")
        with pytest.raises(ValueError, match="unknown fault error kind"):
            fault_point(POINT)

    def test_injected_context_manager_disarms_on_exit(self):
        with injected(POINT):
            assert POINT in armed()
            with pytest.raises(FaultInjectedError):
                fault_point(POINT)
        assert POINT not in armed()
        assert fault_point(POINT) is None

    def test_disarm_single_point(self):
        arm(POINT)
        arm("pool.chunk")
        disarm(POINT)
        assert POINT not in armed()
        assert "pool.chunk" in armed()


class TestDeterminism:
    def test_times_caps_firings(self):
        arm(POINT, times=2)
        for _ in range(2):
            with pytest.raises(FaultInjectedError):
                fault_point(POINT)
        # third and later hits pass through — the spec disarmed itself
        assert fault_point(POINT, value=1) == 1
        assert fault_point(POINT, value=2) == 2

    def test_after_skips_leading_hits(self):
        arm(POINT, after=2, times=1)
        assert fault_point(POINT, value="a") == "a"
        assert fault_point(POINT, value="b") == "b"
        with pytest.raises(FaultInjectedError):
            fault_point(POINT)
        assert fault_point(POINT, value="c") == "c"

    def test_probabilistic_firing_replays_identically(self):
        def pattern():
            spec = FaultSpec(point=POINT, p=0.5, seed=99)
            return [spec.should_fire() for _ in range(50)]

        first, second = pattern(), pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_corrupt_mode_flips_value_deterministically(self):
        arm(POINT, "corrupt")
        assert fault_point(POINT, value="abc0") == "abc1"
        arm(POINT, "corrupt")
        assert fault_point(POINT, value=b"\x00\x02") == b"\x00\x03"

    def test_corrupt_custom_corruptor(self):
        arm(POINT, "corrupt", corrupt=lambda v: v.upper())
        assert fault_point(POINT, value="seal") == "SEAL"

    def test_delay_mode_returns_value(self):
        arm(POINT, "delay", ms=1)
        assert fault_point(POINT, value="kept") == "kept"


class TestWorkerScope:
    def test_worker_scope_never_fires_in_owner_process(self):
        arm(POINT, scope="worker", times=1)
        for _ in range(3):
            assert fault_point(POINT, value="ok") == "ok"

    def test_worker_scope_fires_in_a_forked_child(self):
        spec = arm(POINT, scope="worker")
        # simulate the fork: the child sees a different pid than the
        # spec's owner
        spec._owner_pid = os.getpid() + 1
        with pytest.raises(FaultInjectedError):
            fault_point(POINT)

    def test_unknown_scope_is_refused(self):
        with pytest.raises(ValueError, match="unknown fault scope"):
            arm(POINT, scope="everywhere")


class TestEnvArming:
    def test_single_clause(self):
        [spec] = arm_from_env(f"{POINT}=raise:times=1:error=os")
        assert spec.point == POINT
        assert spec.times == 1 and spec.error == "os"
        with pytest.raises(OSError):
            fault_point(POINT)

    def test_multiple_clauses(self):
        specs = arm_from_env(
            "pool.chunk=exit:times=1:scope=worker,"
            "service.dispatch=delay:ms=5")
        assert {s.point for s in specs} == {"pool.chunk",
                                            "service.dispatch"}
        assert armed()["pool.chunk"].mode == "exit"
        assert armed()["pool.chunk"].scope == "worker"
        assert armed()["service.dispatch"].ms == 5.0

    def test_empty_and_missing_env(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert arm_from_env() == []
        assert arm_from_env("") == []
        assert arm_from_env(" , ") == []

    def test_reads_environment_variable(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "ledger.seal=corrupt")
        [spec] = arm_from_env()
        assert spec.point == "ledger.seal" and spec.mode == "corrupt"

    def test_malformed_clause_is_refused(self):
        with pytest.raises(ValueError, match="malformed"):
            arm_from_env("pool.chunk")
        with pytest.raises(ValueError, match="malformed fault option"):
            arm_from_env("pool.chunk=raise:times")
        with pytest.raises(ValueError, match="unknown fault option"):
            arm_from_env("pool.chunk=raise:bogus=1")
