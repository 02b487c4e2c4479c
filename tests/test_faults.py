"""Tests for the deterministic fault-injection layer and the hardenings.

Covers the registry itself (schedule parsing, trigger semantics, action
behaviour, determinism), the corruption-safe result cache with its disk
circuit breaker, the per-compile watchdog, the fleet's poison-job
quarantine (fast, with monkeypatched worker clients), the ``free_port``
bind-race rebind, and the loadgen poison accounting.  Everything here is
tier-1 fast; the end-to-end chaos runs live in ``tests/test_fleet.py``
(slow) and the CI ``chaos-smoke`` step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.pipeline.cache import DiskCircuitBreaker, ResultCache, result_checksum
from repro.pipeline.jobs import BatchJob, PendingJournal
from repro.service.batcher import MicroBatcher
from repro.service.client import ServiceError
from repro.service.fleet import (
    HEALTHY,
    RESTARTING,
    FleetSupervisor,
    PoisonedJobError,
)
from repro.service.loadgen import run_loadgen
from repro.utils.faults import (
    CRASH_EXIT_CODE,
    FAULT_POINTS,
    FaultInjected,
    FaultPoint,
    FaultRegistry,
    FaultRule,
    FaultSchedule,
    get_registry,
    install_schedule,
    reset_registry,
)


@pytest.fixture(autouse=True)
def _clean_registry(monkeypatch):
    """Isolate every test from ambient schedules and leftover registries."""
    monkeypatch.delenv("REPRO_FAULT_SCHEDULE", raising=False)
    reset_registry()
    yield
    reset_registry()


def _schedule(*rules: dict, seed: int = 0) -> FaultSchedule:
    return FaultSchedule.from_dict({"seed": seed, "rules": list(rules)})


# --------------------------------------------------------------------------- #
# Schedule parsing
# --------------------------------------------------------------------------- #


class TestScheduleParsing:
    def test_round_trip_from_json(self):
        schedule = FaultSchedule.from_json(
            '{"seed": 7, "rules": [{"point": "compile.step", "action": "raise",'
            ' "nth": 3, "match": "#666"}]}'
        )
        assert schedule.seed == 7
        assert schedule.rules[0].point == "compile.step"
        assert schedule.rules[0].nth == 3
        assert schedule.rules[0].match == "#666"

    def test_env_value_inline_json_or_file(self, tmp_path):
        inline = FaultSchedule.from_env_value(
            ' {"rules": [{"point": "journal.fsync", "action": "raise"}]}'
        )
        assert len(inline.rules) == 1
        path = tmp_path / "schedule.json"
        path.write_text('{"rules": []}', encoding="utf-8")
        assert FaultSchedule.from_env_value(str(path)).rules == ()

    def test_unknown_point_and_action_are_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultRule(point="nope", action="raise")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(point="compile.step", action="explode")

    def test_unknown_rule_and_schedule_keys_are_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultRule.from_dict({"point": "compile.step", "action": "raise", "when": 1})
        with pytest.raises(ValueError, match="unknown fault schedule keys"):
            FaultSchedule.from_dict({"rules": [], "extra": True})

    def test_at_most_one_trigger(self):
        with pytest.raises(ValueError, match="at most one"):
            FaultRule(point="compile.step", action="raise", nth=1, every=2)

    def test_trigger_bounds(self):
        with pytest.raises(ValueError):
            FaultRule(point="compile.step", action="raise", nth=0)
        with pytest.raises(ValueError):
            FaultRule(point="compile.step", action="raise", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(point="compile.step", action="sleep", seconds=-1.0)

    def test_unsupported_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            FaultSchedule.from_dict({"schema_version": 99, "rules": []})

    def test_fault_point_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            FaultPoint("not.a.point")
        for name in FAULT_POINTS:
            assert FaultPoint(name).name == name


# --------------------------------------------------------------------------- #
# Trigger semantics and determinism
# --------------------------------------------------------------------------- #


def _fire_pattern(registry: FaultRegistry, hits: int, context: str = "") -> list[bool]:
    pattern = []
    for _ in range(hits):
        try:
            registry.hit("compile.step", context=context)
            pattern.append(False)
        except FaultInjected:
            pattern.append(True)
    return pattern


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        registry = FaultRegistry(
            _schedule({"point": "compile.step", "action": "raise", "nth": 3})
        )
        assert _fire_pattern(registry, 5) == [False, False, True, False, False]

    def test_every_fires_periodically(self):
        registry = FaultRegistry(
            _schedule({"point": "compile.step", "action": "raise", "every": 2})
        )
        assert _fire_pattern(registry, 6) == [False, True, False, True, False, True]

    def test_times_caps_total_fires(self):
        registry = FaultRegistry(
            _schedule({"point": "compile.step", "action": "raise", "times": 2})
        )
        assert _fire_pattern(registry, 4) == [True, True, False, False]

    def test_probability_is_deterministic_across_registries(self):
        schedule = _schedule(
            {"point": "compile.step", "action": "raise", "probability": 0.5},
            seed=42,
        )
        first = _fire_pattern(FaultRegistry(schedule), 40)
        second = _fire_pattern(FaultRegistry(schedule), 40)
        assert first == second
        assert True in first and False in first

    def test_match_filters_on_context_substring(self):
        registry = FaultRegistry(
            _schedule({"point": "compile.step", "action": "raise", "match": "#666"})
        )
        registry.hit("compile.step", context="compile:ghz-4@1.5x#11")
        with pytest.raises(FaultInjected):
            registry.hit("compile.step", context="compile:ghz-4@1.5x#666")

    def test_other_points_are_untouched(self):
        registry = FaultRegistry(
            _schedule({"point": "disk_cache.write", "action": "raise"})
        )
        registry.hit("compile.step")
        assert registry.snapshot()["fired_total"] == 0

    def test_snapshot_counts_fires_by_point(self):
        registry = FaultRegistry(
            _schedule({"point": "compile.step", "action": "sleep", "seconds": 0.0})
        )
        registry.hit("compile.step")
        registry.hit("compile.step")
        snap = registry.snapshot()
        assert snap["active"] is True
        assert snap["fired_total"] == 2
        assert snap["fired_by_point"] == {"compile.step": 2}


# --------------------------------------------------------------------------- #
# Actions
# --------------------------------------------------------------------------- #


class TestActions:
    def test_raise_is_an_oserror(self):
        registry = FaultRegistry(
            _schedule({"point": "journal.fsync", "action": "raise"})
        )
        with pytest.raises(OSError):
            registry.hit("journal.fsync")

    def test_sleep_blocks_for_the_configured_time(self):
        registry = FaultRegistry(
            _schedule({"point": "compile.step", "action": "sleep", "seconds": 0.05})
        )
        started = time.perf_counter()
        registry.hit("compile.step")
        assert time.perf_counter() - started >= 0.04

    def test_corrupt_changes_bytes_deterministically(self):
        schedule = _schedule(
            {"point": "disk_cache.read", "action": "corrupt"}, seed=9
        )
        data = b'{"key": "abc", "result": 1}'
        first = FaultRegistry(schedule).hit("disk_cache.read", data=data)
        second = FaultRegistry(schedule).hit("disk_cache.read", data=data)
        assert first != data
        assert first == second

    def test_corrupt_handles_empty_and_none_data(self):
        registry = FaultRegistry(
            _schedule({"point": "disk_cache.read", "action": "corrupt"})
        )
        assert registry.hit("disk_cache.read", data=b"") not in (b"", None)
        assert registry.hit("disk_cache.read", data=None) is None

    def test_crash_exits_the_process_with_the_marker_code(self):
        schedule = json.dumps(
            {"rules": [{"point": "compile.step", "action": "crash"}]}
        )
        env = os.environ.copy()
        env["REPRO_FAULT_SCHEDULE"] = schedule
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "from repro.utils.faults import FaultPoint; "
            "FaultPoint('compile.step').hit(context='x'); "
            "print('survived')"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == CRASH_EXIT_CODE
        assert "survived" not in proc.stdout


# --------------------------------------------------------------------------- #
# Process-wide registry lifecycle
# --------------------------------------------------------------------------- #


class TestRegistryLifecycle:
    def test_no_schedule_means_hits_are_noops(self):
        assert get_registry() is None
        assert FaultPoint("compile.step").hit(context="x", data=b"ok") == b"ok"

    def test_env_inline_schedule_loads_lazily(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_SCHEDULE",
            '{"rules": [{"point": "compile.step", "action": "raise"}]}',
        )
        reset_registry()
        with pytest.raises(FaultInjected):
            FaultPoint("compile.step").hit()

    def test_env_is_read_once_until_reset(self, monkeypatch):
        assert get_registry() is None
        monkeypatch.setenv(
            "REPRO_FAULT_SCHEDULE",
            '{"rules": [{"point": "compile.step", "action": "raise"}]}',
        )
        # Already checked: the env change is invisible until a reset.
        assert get_registry() is None
        reset_registry()
        assert get_registry() is not None

    def test_install_schedule_overrides_and_clears(self):
        install_schedule(
            _schedule({"point": "compile.step", "action": "raise"})
        )
        with pytest.raises(FaultInjected):
            FaultPoint("compile.step").hit()
        install_schedule(None)
        FaultPoint("compile.step").hit()


# --------------------------------------------------------------------------- #
# Corruption-safe result cache + disk circuit breaker
# --------------------------------------------------------------------------- #


class TestDiskCircuitBreaker:
    def test_opens_after_threshold_then_half_open_probe(self):
        breaker = DiskCircuitBreaker(threshold=2, cooldown_seconds=0.05)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        time.sleep(0.06)
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # no second probe while one is in flight
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()
        assert breaker.opens == 1

    def test_half_open_failure_reopens(self):
        breaker = DiskCircuitBreaker(threshold=1, cooldown_seconds=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2

    def test_snapshot_shape(self):
        snap = DiskCircuitBreaker(threshold=3, cooldown_seconds=1.0).snapshot()
        assert snap["state"] == "closed"
        assert snap["open"] is False
        assert snap["threshold"] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskCircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            DiskCircuitBreaker(cooldown_seconds=0.0)


class TestResultCacheHardening:
    def test_checksummed_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k1", {"answer": 42})
        assert cache.get("k1") == {"answer": 42}
        assert cache.hits == 1 and cache.corrupt_entries == 0
        entry = json.loads((tmp_path / "cache" / "k1.json").read_text())
        assert entry["sha256"] == result_checksum({"answer": 42})

    def test_corrupt_entry_is_quarantined_not_served(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k1", {"answer": 42})
        path = tmp_path / "cache" / "k1.json"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert cache.get("k1") is None
        assert cache.corrupt_entries == 1
        assert not path.exists()
        assert (tmp_path / "cache" / "corrupt" / "k1.json").exists()
        # The quarantine directory does not count as entries.
        assert len(cache) == 0
        # And the slot is reusable: a fresh write serves again.
        cache.put("k1", {"answer": 43})
        assert cache.get("k1") == {"answer": 43}

    def test_legacy_unchecksummed_entry_is_quarantined(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "old.json").write_text(json.dumps({"result": {"x": 1}}))
        cache = ResultCache(cache_dir)
        assert cache.get("old") is None
        assert cache.corrupt_entries == 1

    def test_key_mismatch_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k1", {"answer": 42})
        os.replace(tmp_path / "cache" / "k1.json", tmp_path / "cache" / "k2.json")
        assert cache.get("k2") is None
        assert cache.corrupt_entries == 1

    def test_injected_read_corruption_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k1", {"answer": 42})
        install_schedule(
            _schedule({"point": "disk_cache.read", "action": "corrupt"})
        )
        assert cache.get("k1") is None
        assert cache.corrupt_entries == 1
        assert (tmp_path / "cache" / "corrupt" / "k1.json").exists()

    def test_write_faults_are_swallowed_and_open_the_breaker(self, tmp_path):
        cache = ResultCache(
            tmp_path / "cache", breaker_threshold=2, breaker_cooldown_seconds=0.05
        )
        install_schedule(
            _schedule({"point": "disk_cache.write", "action": "raise"})
        )
        cache.put("k1", {"answer": 1})  # swallowed, not raised
        cache.put("k2", {"answer": 2})
        assert cache.disk_errors == 2
        assert cache.breaker.state == "open"
        # While open the disk is bypassed entirely: no new errors accrue.
        cache.put("k3", {"answer": 3})
        assert cache.disk_errors == 2
        assert cache.get("k1") is None
        # Heal the disk; the half-open probe closes the breaker again.
        install_schedule(None)
        time.sleep(0.06)
        cache.put("k4", {"answer": 4})
        assert cache.breaker.state == "closed"
        assert cache.get("k4") == {"answer": 4}

    def test_read_io_faults_count_against_the_breaker(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", breaker_threshold=1)
        cache.put("k1", {"answer": 1})
        install_schedule(
            _schedule({"point": "disk_cache.read", "action": "raise"})
        )
        assert cache.get("k1") is None
        assert cache.disk_errors == 1
        assert cache.breaker.state == "open"

    def test_missing_entry_is_a_plain_miss_not_a_disk_error(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("absent") is None
        assert cache.misses == 1 and cache.disk_errors == 0
        assert cache.breaker.state == "closed"


# --------------------------------------------------------------------------- #
# Journal fsync faults
# --------------------------------------------------------------------------- #


class TestJournalFaults:
    def test_fsync_fault_propagates_to_the_writer(self, tmp_path):
        install_schedule(_schedule({"point": "journal.fsync", "action": "raise"}))
        journal = PendingJournal(tmp_path / "journal.jsonl")
        with pytest.raises(FaultInjected):
            journal.record_pending("r1", {"family": "ghz", "size": 4}, "h1")
        install_schedule(None)
        journal.close()

    def test_fsync_fault_can_target_one_op(self, tmp_path):
        install_schedule(
            _schedule(
                {"point": "journal.fsync", "action": "raise", "match": "poisoned"}
            )
        )
        journal = PendingJournal(tmp_path / "journal.jsonl")
        journal.record_pending("r1", {"family": "ghz", "size": 4}, "h1")
        with pytest.raises(FaultInjected):
            journal.record_poisoned("r1", 3, "boom")
        install_schedule(None)
        journal.close()


# --------------------------------------------------------------------------- #
# Per-compile watchdog
# --------------------------------------------------------------------------- #


class _SlowRunner:
    """A stand-in runner whose batches take a fixed wall-clock time."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def run(self, jobs):
        from repro.pipeline.runner import BatchReport, JobOutcome

        time.sleep(self.seconds)
        return BatchReport(
            outcomes=[JobOutcome(job=job, result={"ok": 1}) for job in jobs]
        )


class TestCompileWatchdog:
    def test_batcher_submit_times_out_with_structured_outcome(self):
        batcher = MicroBatcher(_SlowRunner(0.3), window_seconds=0.0)
        job = BatchJob.from_dict({"family": "ghz", "size": 4, "kind": "compile"})
        try:
            outcome = batcher.submit(job, timeout_seconds=0.05)
            assert outcome.ok is False
            assert outcome.error_kind == "timeout"
            assert "watchdog" in outcome.error
        finally:
            batcher.close()

    def test_submit_without_timeout_blocks_to_completion(self):
        batcher = MicroBatcher(_SlowRunner(0.05), window_seconds=0.0)
        job = BatchJob.from_dict({"family": "ghz", "size": 4, "kind": "compile"})
        try:
            outcome = batcher.submit(job)
            assert outcome.ok is True
        finally:
            batcher.close()

    def test_service_watchdog_answers_504_shaped_timeouts(self, sample_value):
        from repro.service.server import CompileService

        install_schedule(
            _schedule({"point": "compile.step", "action": "sleep", "seconds": 0.5})
        )
        service = CompileService(
            batch_window_seconds=0.0, compile_timeout_s=0.05
        )
        try:
            body = service.compile({"family": "ghz", "size": 4, "kind": "compile"})
            assert body["ok"] is False
            assert body["error_kind"] == "timeout"
            assert service.compile_timeout_s == 0.05
            text = service.render_metrics()
            assert sample_value(text, "repro_worker_compile_timeouts_total") == 1
        finally:
            install_schedule(None)
            service.close()

    def test_per_request_timeout_field_overrides_the_default(self):
        from repro.service.server import CompileService

        install_schedule(
            _schedule({"point": "compile.step", "action": "sleep", "seconds": 0.5})
        )
        service = CompileService(batch_window_seconds=0.0)  # no default watchdog
        try:
            body = service.compile(
                {
                    "family": "ghz",
                    "size": 4,
                    "kind": "compile",
                    "compile_timeout_s": 0.05,
                }
            )
            assert body["error_kind"] == "timeout"
        finally:
            install_schedule(None)
            service.close()

    def test_compile_timeout_s_is_part_of_the_wire_schema(self):
        with_timeout = BatchJob.from_dict(
            {"family": "ghz", "size": 4, "kind": "compile", "compile_timeout_s": 2.0}
        )
        without = BatchJob.from_dict({"family": "ghz", "size": 4, "kind": "compile"})
        assert with_timeout.content_hash != without.content_hash
        with pytest.raises(ValueError):
            BatchJob.from_dict(
                {"family": "ghz", "size": 4, "kind": "compile",
                 "compile_timeout_s": -1.0}
            )


# --------------------------------------------------------------------------- #
# Fleet poison-job quarantine (fast: no worker processes are spawned)
# --------------------------------------------------------------------------- #


def _bare_supervisor(tmp_path, **kwargs) -> FleetSupervisor:
    """A supervisor whose workers are never spawned (fast tests)."""
    supervisor = FleetSupervisor(
        2, journal_path=str(tmp_path / "journal.jsonl"), **kwargs
    )
    for worker in supervisor.workers:
        worker.state = HEALTHY
    return supervisor


class TestPoisonQuarantineFast:
    def test_connection_crashes_reach_the_threshold(self, tmp_path, monkeypatch):
        supervisor = _bare_supervisor(tmp_path, max_job_attempts=2)
        calls = []
        for worker in supervisor.workers:
            monkeypatch.setattr(
                worker.client,
                "compile_payload",
                lambda payload, headers=None, _w=worker: (_ for _ in ()).throw(
                    ServiceError(0, f"connection refused (worker {_w.index})")
                ),
            )
            calls.append(worker)
        payload = {"family": "ghz", "size": 4, "kind": "compile"}
        with pytest.raises(PoisonedJobError) as excinfo:
            supervisor.dispatch(payload, request_id="toxic")
        err = excinfo.value
        assert err.attempts == 2
        assert err.max_job_attempts == 2
        assert len(err.attempt_history) == 2
        assert {h["worker"] for h in err.attempt_history} == {0, 1}
        assert supervisor.healthz()["poisoned_total"] == 1
        assert supervisor._instruments["repro_fleet_poisoned_total"].value() == 1
        supervisor.journal.close()
        assert PendingJournal.load_unfinished(tmp_path / "journal.jsonl") == []

    def test_prior_attempts_poison_without_any_dispatch(self, tmp_path, monkeypatch):
        supervisor = _bare_supervisor(tmp_path, max_job_attempts=3)
        forwarded = []
        for worker in supervisor.workers:
            monkeypatch.setattr(
                worker.client,
                "compile_payload",
                lambda payload, headers=None: forwarded.append(payload)
                or {"ok": True},
            )
        with pytest.raises(PoisonedJobError) as excinfo:
            supervisor.dispatch(
                {"family": "ghz", "size": 4, "kind": "compile"},
                request_id="burned",
                prior_attempts=3,
            )
        assert excinfo.value.attempts == 3
        assert forwarded == []
        supervisor.journal.close()

    def test_http_errors_do_not_count_as_crashes(self, tmp_path, monkeypatch):
        supervisor = _bare_supervisor(tmp_path, max_job_attempts=1)
        for worker in supervisor.workers:
            monkeypatch.setattr(
                worker.client,
                "compile_payload",
                lambda payload, headers=None: (_ for _ in ()).throw(
                    ServiceError(400, "bad job", body={"error": "bad job"})
                ),
            )
        with pytest.raises(ServiceError) as excinfo:
            supervisor.dispatch(
                {"family": "ghz", "size": 4, "kind": "compile"}, request_id="r1"
            )
        assert excinfo.value.status == 400
        assert supervisor.healthz()["poisoned_total"] == 0
        supervisor.journal.close()

    def test_forward_fault_point_counts_like_a_crash(self, tmp_path, monkeypatch):
        install_schedule(
            _schedule({"point": "dispatch.forward", "action": "raise"})
        )
        supervisor = _bare_supervisor(tmp_path, max_job_attempts=2)
        forwarded = []
        for worker in supervisor.workers:
            monkeypatch.setattr(
                worker.client,
                "compile_payload",
                lambda payload, headers=None: forwarded.append(payload)
                or {"ok": True},
            )
        with pytest.raises(PoisonedJobError):
            supervisor.dispatch(
                {"family": "ghz", "size": 4, "kind": "compile"}, request_id="r1"
            )
        # The injected fault fired before any worker was reached.
        assert forwarded == []
        supervisor.journal.close()

    def test_max_job_attempts_validation(self):
        with pytest.raises(ValueError):
            FleetSupervisor(1, max_job_attempts=0)
        with pytest.raises(ValueError):
            FleetSupervisor(1, compile_timeout_s=0.0)


# --------------------------------------------------------------------------- #
# free_port bind-race rebind
# --------------------------------------------------------------------------- #


class TestPortRebind:
    def test_never_healthy_worker_rebinds_once(self, monkeypatch):
        supervisor = FleetSupervisor(1)
        worker = supervisor.workers[0]
        spawns = []
        monkeypatch.setattr(worker, "spawn", lambda: spawns.append(worker.port))
        worker.state = RESTARTING
        worker.next_restart_at = 0.0

        supervisor._check_worker(worker)
        assert worker.port_rebinds == 1
        assert str(worker.port) in worker.command
        assert str(worker.port) in worker.client.base_url
        assert spawns == [worker.port]

        # A second never-healthy restart keeps the port: the retry is
        # deliberately one-shot (a real spawn failure is not a bind race).
        worker.state = RESTARTING
        worker.next_restart_at = 0.0
        supervisor._check_worker(worker)
        assert worker.port_rebinds == 1
        assert len(spawns) == 2

    def test_healthy_workers_never_rebind(self, monkeypatch):
        supervisor = FleetSupervisor(1)
        worker = supervisor.workers[0]
        worker.ever_healthy = True
        old_port = worker.port
        monkeypatch.setattr(worker, "spawn", lambda: None)
        worker.state = RESTARTING
        worker.next_restart_at = 0.0
        supervisor._check_worker(worker)
        assert worker.port == old_port
        assert worker.port_rebinds == 0


# --------------------------------------------------------------------------- #
# Loadgen poison accounting
# --------------------------------------------------------------------------- #


class TestLoadgenPoisonMode:
    def test_422_poison_answers_count_separately(self, monkeypatch):
        class FakeClient:
            def __init__(self, url, timeout=120.0, retries=0):
                pass

            def compile_payload(self, payload, headers=None):
                if payload.get("seed") == 666:
                    raise ServiceError(
                        422, "quarantined", body={"poisoned": True, "attempts": 3}
                    )
                return {"ok": True, "cache_hit": False, "coalesced": False,
                        "result": {}}

        monkeypatch.setattr("repro.service.loadgen.ServiceClient", FakeClient)
        report = run_loadgen(
            "http://127.0.0.1:1",
            [{"family": "ghz", "size": 4, "seed": 1, "kind": "compile"}],
            requests=5,
            concurrency=2,
            poison_payload={"family": "ghz", "size": 4, "seed": 666,
                            "kind": "compile"},
        )
        assert report.requests == 5
        assert report.poisoned == 1
        assert report.errors == 0
        assert report.ok is True
        assert report.summary()["poisoned"] == 1
        assert "poisoned" in report.to_text()

    def test_plain_422_without_poison_marker_is_an_error(self, monkeypatch):
        class FakeClient:
            def __init__(self, url, timeout=120.0, retries=0):
                pass

            def compile_payload(self, payload, headers=None):
                raise ServiceError(422, "nope", body={"error": "nope"})

        monkeypatch.setattr("repro.service.loadgen.ServiceClient", FakeClient)
        report = run_loadgen(
            "http://127.0.0.1:1",
            [{"family": "ghz", "size": 4, "kind": "compile"}],
            requests=2,
            concurrency=1,
        )
        assert report.errors == 2
        assert report.poisoned == 0


# --------------------------------------------------------------------------- #
# The committed CI chaos schedule stays loadable
# --------------------------------------------------------------------------- #


class TestCommittedChaosSchedule:
    def test_chaos_schedule_parses(self):
        path = Path(__file__).parent / "data" / "chaos_schedule.json"
        schedule = FaultSchedule.from_file(path)
        points = {rule.point for rule in schedule.rules}
        assert "disk_cache.write" in points
        assert "compile.step" in points
        crash = next(r for r in schedule.rules if r.action == "crash")
        assert crash.match == "#666"
