"""Tests for the HA front-end pair and tail-robust dispatch.

Fast (tier-1): the client's multi-address failover rotation, the worker
epoch fence (``note_epoch`` / stale 409s), hedged-dispatch thresholds and
win accounting, the dispatch circuit breaker's ring exclusion, and the
standby coordinator's promotion guard.  The full in-process failover
drill (primary dies mid-stream, standby promotes, a fenced stale-epoch
write is observed and rejected) is marked ``slow``; the subprocess
SIGKILL version lives in the CI ``ha-smoke`` step.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.fleet import (
    HEALTHY,
    FleetServer,
    FleetSupervisor,
    WorkerProcess,
    free_port,
)
from repro.service.ha import StandbyCoordinator
from repro.service.replication import Lease, ReplicationFencedError, ReplicationLink
from repro.service.server import CompileService


@pytest.fixture(autouse=True)
def reap_worker_processes(monkeypatch):
    """Stop every fleet a test started and kill its ``repro serve`` workers.

    Runs even when the test fails before its own clean-up: a supervisor
    left running would respawn the workers it loses.
    """
    supervisors, processes = [], []
    start, spawn = FleetSupervisor.start, WorkerProcess.spawn

    def tracked_start(self, *args, **kwargs):
        supervisors.append(self)
        start(self, *args, **kwargs)

    def tracked_spawn(self):
        spawn(self)
        processes.append(self.process)

    monkeypatch.setattr(FleetSupervisor, "start", tracked_start)
    monkeypatch.setattr(WorkerProcess, "spawn", tracked_spawn)
    yield
    for supervisor in supervisors:
        if not supervisor._stop.is_set():
            supervisor.stop(grace_seconds=2.0)
    for process in processes:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)


# --------------------------------------------------------------------- #
# Client failover rotation
# --------------------------------------------------------------------- #


class TestClientFailover:
    def test_multi_address_parsing(self):
        client = ServiceClient("http://a:1, http://b:2/")
        assert client.base_urls == ["http://a:1", "http://b:2"]
        client = ServiceClient(["http://a:1", "http://b:2"])
        assert client.base_urls == ["http://a:1", "http://b:2"]
        with pytest.raises(ValueError):
            ServiceClient([])

    def test_rotates_to_standby_on_retryable_failure(self):
        client = ServiceClient(
            ["http://primary", "http://standby"],
            retries=2,
            retry_backoff_seconds=0.0,
        )
        calls = []

        def fake_once(method, path, payload, extra_headers=None):
            calls.append(client.base_url)
            if client.base_url == "http://primary":
                raise ServiceError(0, "connection refused")
            return {"served_by": client.base_url}

        client._request_once = fake_once
        body = client.request("POST", "/compile", {"family": "lattice"})
        assert body["served_by"] == "http://standby"
        assert calls == ["http://primary", "http://standby"]
        # The client stays on the promoted standby for subsequent requests.
        assert client.base_url == "http://standby"

    def test_no_rotation_on_client_error(self):
        client = ServiceClient(
            ["http://primary", "http://standby"], retries=2,
            retry_backoff_seconds=0.0,
        )

        def fake_once(method, path, payload, extra_headers=None):
            raise ServiceError(400, "bad payload")

        client._request_once = fake_once
        with pytest.raises(ServiceError):
            client.request("POST", "/compile", {})
        assert client.base_url == "http://primary"


# --------------------------------------------------------------------- #
# Worker epoch fence
# --------------------------------------------------------------------- #


class TestWorkerEpochFence:
    def test_note_epoch_is_a_monotonic_watermark(self, sample_value):
        service = CompileService()
        try:
            assert service.note_epoch(2)
            assert service.note_epoch(2)  # equal is fine (same primary)
            assert service.note_epoch(5)
            assert not service.note_epoch(3)  # deposed primary's dispatch
            assert service.healthz()["epoch"] == 5
            text = service.render_metrics()
            assert sample_value(text, "repro_worker_fenced_requests_total") == 1
        finally:
            service.close()


# --------------------------------------------------------------------- #
# Hedged dispatch and the dispatch circuit breaker
# --------------------------------------------------------------------- #


def _unstarted_fleet(num_workers: int, **kwargs) -> FleetSupervisor:
    """A supervisor with its workers forced healthy but never spawned."""
    supervisor = FleetSupervisor(num_workers, **kwargs)
    for worker in supervisor.workers:
        worker.state = HEALTHY
    return supervisor


class TestHedgedDispatch:
    def test_quantile_validation(self):
        with pytest.raises(ValueError, match="hedge_quantile"):
            FleetSupervisor(1, hedge_quantile=1.5)

    def test_threshold_floor_without_samples(self):
        supervisor = _unstarted_fleet(
            2, hedge_quantile=0.95, hedge_after_seconds=0.07
        )
        assert supervisor._hedge_threshold_seconds() == pytest.approx(0.07)

    def test_backup_wins_a_slow_primary(self):
        supervisor = _unstarted_fleet(
            2, hedge_quantile=0.5, hedge_after_seconds=0.05
        )
        primary, backup = supervisor.workers

        def fake_forward(worker, payload, content_hash):
            if worker is primary:
                time.sleep(0.5)
                return {"worker": primary.index}
            return {"worker": backup.index}

        supervisor._forward = fake_forward
        tried = {primary.index}
        body, served_by = supervisor._forward_hedged(
            primary,
            list(supervisor.workers),
            tried,
            {"family": "lattice"},
            "hash",
            "r1",
            hedge_allowed=True,
        )
        assert served_by is backup
        assert body["worker"] == backup.index
        assert backup.index in tried
        assert supervisor._instruments["repro_fleet_hedged_requests_total"].value() == 1
        assert supervisor._instruments["repro_fleet_hedge_wins_total"].value() == 1

    def test_fast_primary_needs_no_hedge(self):
        supervisor = _unstarted_fleet(
            2, hedge_quantile=0.5, hedge_after_seconds=0.2
        )
        primary = supervisor.workers[0]
        supervisor._forward = lambda worker, payload, content_hash: {
            "worker": worker.index
        }
        body, served_by = supervisor._forward_hedged(
            primary,
            list(supervisor.workers),
            {primary.index},
            {},
            "hash",
            "r1",
            hedge_allowed=True,
        )
        assert served_by is primary
        assert supervisor._instruments["repro_fleet_hedged_requests_total"].value() == 0


class TestDispatchBreaker:
    def test_flapping_worker_excluded_from_ring(self):
        supervisor = _unstarted_fleet(3, dispatch_breaker_threshold=2)
        flapper = supervisor.workers[0]
        for _ in range(2):
            flapper.breaker.record_failure()
        assert flapper.breaker.state == "open"
        ranked = list(supervisor.workers)
        picked = supervisor._pick_worker(ranked, set(), time.monotonic() + 1.0)
        assert picked is not flapper
        assert flapper.snapshot()["dispatch_breaker"] == "open"

    def test_open_breakers_do_not_starve_dispatch(self):
        """Availability wins: with every breaker open, dispatch still picks."""
        supervisor = _unstarted_fleet(2, dispatch_breaker_threshold=1)
        for worker in supervisor.workers:
            worker.breaker.record_failure()
        picked = supervisor._pick_worker(
            list(supervisor.workers), set(), time.monotonic() + 1.0
        )
        assert picked is not None


# --------------------------------------------------------------------- #
# Standby promotion guard
# --------------------------------------------------------------------- #


class TestStandbyCoordinator:
    def test_no_promotion_before_a_primary_ever_existed(self, tmp_path):
        coordinator = StandbyCoordinator(
            1,
            ("127.0.0.1", free_port()),
            ("127.0.0.1", 0),
            journal_path=str(tmp_path / "standby-journal.jsonl"),
            lease_path=str(tmp_path / "lease.json"),
            failover_after_seconds=0.1,
            poll_seconds=0.02,
        )
        coordinator.start()
        thread = threading.Thread(target=coordinator.watch, daemon=True)
        thread.start()
        time.sleep(0.4)
        assert not coordinator.promoted.is_set()
        coordinator.stop()
        thread.join(timeout=2.0)
        assert not thread.is_alive()

    def test_promotes_once_lease_expires_and_channel_is_quiet(self, tmp_path):
        lease_path = tmp_path / "lease.json"
        # A primary existed: it acquired the lease, then died silently.
        Lease(lease_path, holder="primary").acquire()
        coordinator = StandbyCoordinator(
            1,
            ("127.0.0.1", free_port()),
            ("127.0.0.1", 0),
            journal_path=str(tmp_path / "standby-journal.jsonl"),
            lease_path=str(lease_path),
            failover_after_seconds=0.1,
            poll_seconds=0.02,
        )
        coordinator.lease.ttl_seconds = 0.2
        promoted = []
        coordinator.promote = lambda: promoted.append(True)  # no real fleet
        coordinator.start()
        try:
            assert coordinator.watch() is True
            assert promoted == [True]
        finally:
            coordinator.stop()


# --------------------------------------------------------------------- #
# End-to-end failover drill (slow)
# --------------------------------------------------------------------- #


@pytest.mark.slow
class TestFailoverEndToEnd:
    def test_primary_death_promotes_standby_and_fences_zombie(self, tmp_path):
        frontend_port = free_port()
        cache_dir = str(tmp_path / "cache")
        lease_path = str(tmp_path / "lease.json")

        # Standby first, so the primary's replication connects immediately.
        standby = StandbyCoordinator(
            1,
            ("127.0.0.1", frontend_port),
            ("127.0.0.1", 0),
            journal_path=str(tmp_path / "standby-journal.jsonl"),
            lease_path=lease_path,
            failover_after_seconds=0.5,
            poll_seconds=0.05,
            supervisor_kwargs={"cache_dir": cache_dir},
        )
        standby.lease.ttl_seconds = 0.5
        standby.start()
        standby_thread = threading.Thread(
            target=standby.serve_forever, daemon=True
        )
        standby_thread.start()

        lease = Lease(lease_path, ttl_seconds=0.5, holder="primary")
        epoch = lease.acquire()
        assert epoch == 1
        link = ReplicationLink(standby.acceptor.address, epoch=epoch)
        primary = FleetSupervisor(
            1,
            cache_dir=cache_dir,
            journal_path=str(tmp_path / "primary-journal.jsonl"),
            heartbeat_seconds=0.1,
            epoch=epoch,
            replication=link,
            lease=lease,
        )
        primary.start(wait_ready=True)
        server = FleetServer(("127.0.0.1", frontend_port), primary)
        server_thread = threading.Thread(target=server.serve_forever, daemon=True)
        server_thread.start()

        url = f"http://127.0.0.1:{frontend_port}"
        client = ServiceClient(url, timeout=120.0, retries=30)
        try:
            body = client.compile(family="lattice", size=8, kind="compile")
            assert body["result"]["ours"]["num_emitters"] >= 1
            # The ack was synchronous: the replica journal already holds
            # the pending/done pair for that request.
            assert standby.acceptor.records_total >= 2

            # Primary dies abruptly: stop serving, renewing, heartbeating.
            server.shutdown()
            server.server_close()
            primary.stop()

            assert standby.promoted.wait(timeout=30.0), "standby never promoted"
            assert standby.supervisor is not None
            assert standby.supervisor.epoch == 2

            # A zombie primary at the old epoch is fenced, not applied.
            zombie = ReplicationLink(standby.acceptor.address, epoch=1)
            with pytest.raises(ReplicationFencedError):
                zombie.send_record({"op": "pending", "request_id": "zombie"})
            zombie.close()
            assert standby.acceptor.fenced_total >= 1

            # The promoted standby serves the same address; the second
            # compile is a shared-cache hit of the first.
            body = client.compile(family="lattice", size=8, kind="compile")
            assert body["cache_hit"] is True
            health = client.healthz()
            assert health["ha"]["epoch"] == 2
            assert health["ha"]["failovers"] == 1
            metrics = standby.supervisor.render_metrics()
            assert "repro_fleet_epoch 2" in metrics
            assert "repro_fleet_role 1" in metrics
            assert "repro_fleet_failovers_total 1" in metrics
            assert "repro_fleet_fenced_writes_total" in metrics
        finally:
            standby.stop()
            standby_thread.join(timeout=10.0)
