"""Tests for the multi-worker compile fleet: routing, journal, metrics, ops.

The fast half exercises the pure building blocks (rendezvous hashing, the
pending-queue journal, the metrics registry and exposition validator, the
client retry loop) and runs in tier-1.  The multi-process half — real worker
subprocesses, SIGKILL fault injection, journal replay, drain under load —
is marked ``slow`` and deselected by default; CI's ``fleet-smoke`` job runs
it with ``pytest tests/test_fleet.py -m slow``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.pipeline.jobs import BatchJob, PendingJournal
from repro.service.client import RETRYABLE_STATUSES, ServiceClient, ServiceError
from repro.service.fleet import (
    HEALTHY,
    FleetDrainingError,
    FleetSupervisor,
    rendezvous_order,
    start_fleet,
)
from repro.service.loadgen import run_loadgen
from repro.service.metrics import (
    FLEET_METRICS,
    WORKER_METRICS,
    MetricsRegistry,
    parse_exposition,
    relabel_expositions,
    validate_exposition,
)
from repro.service.server import CompileService
from repro.cli import EXIT_VALIDATE_METRICS
from repro.cli import main as cli_main

# --------------------------------------------------------------------------- #
# Rendezvous routing (fast)
# --------------------------------------------------------------------------- #


class TestRendezvousOrder:
    def test_is_a_permutation_and_deterministic(self):
        indices = [0, 1, 2, 3, 4]
        order = rendezvous_order("deadbeef", indices)
        assert sorted(order) == indices
        assert order == rendezvous_order("deadbeef", indices)

    def test_different_hashes_spread_across_workers(self):
        indices = list(range(4))
        first_choices = {
            rendezvous_order(f"hash-{i}", indices)[0] for i in range(200)
        }
        assert first_choices == set(indices)

    def test_consistent_hashing_property(self):
        # Removing one worker must not reshuffle the relative order of the
        # survivors: jobs that did not prefer the removed worker keep their
        # placement.
        indices = [0, 1, 2, 3]
        for i in range(50):
            content_hash = f"job-{i}"
            full = rendezvous_order(content_hash, indices)
            without = rendezvous_order(content_hash, [0, 1, 3])
            assert [index for index in full if index != 2] == without

    def test_identical_jobs_share_a_worker(self):
        job = BatchJob.from_dict({"family": "lattice", "size": 9, "kind": "compile"})
        same = BatchJob.from_dict({"family": "lattice", "size": 9, "kind": "compile"})
        indices = [0, 1, 2]
        assert (
            rendezvous_order(job.content_hash, indices)
            == rendezvous_order(same.content_hash, indices)
        )


# --------------------------------------------------------------------------- #
# Pending-queue journal (fast)
# --------------------------------------------------------------------------- #


class TestPendingJournal:
    def test_done_entries_are_not_replayed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = PendingJournal(path)
        journal.record_pending("r1", {"family": "ghz", "size": 4}, "h1")
        journal.record_attempt("r1", 0)
        journal.record_done("r1")
        journal.record_pending("r2", {"family": "ghz", "size": 5}, "h2")
        journal.record_attempt("r2", 1)
        journal.close()

        unfinished = PendingJournal.load_unfinished(path)
        assert [entry.request_id for entry in unfinished] == ["r2"]
        assert unfinished[0].payload == {"family": "ghz", "size": 5}
        assert unfinished[0].attempts == 1

    def test_failed_entries_are_terminal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = PendingJournal(path)
        journal.record_pending("bad", {"family": "nope"}, "invalid")
        journal.record_failed("bad", "unknown family")
        journal.close()
        assert PendingJournal.load_unfinished(path) == []

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = PendingJournal(path)
        journal.record_pending("r1", {"family": "ghz", "size": 4}, "h1")
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "pending", "request_id": "r2", "pa')
        unfinished = PendingJournal.load_unfinished(path)
        assert [entry.request_id for entry in unfinished] == ["r1"]

    def test_compact_drops_finished_entries(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = PendingJournal(path)
        for i in range(5):
            journal.record_pending(f"r{i}", {"family": "ghz", "size": 4 + i}, f"h{i}")
            if i != 3:
                journal.record_done(f"r{i}")
        kept = journal.compact()
        journal.close()
        assert kept == 1
        unfinished = PendingJournal.load_unfinished(path)
        assert [entry.request_id for entry in unfinished] == ["r3"]

    def test_missing_file_means_empty_backlog(self, tmp_path):
        assert PendingJournal.load_unfinished(tmp_path / "absent.jsonl") == []

    def test_poisoned_entries_are_terminal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = PendingJournal(path)
        journal.record_pending("toxic", {"family": "ghz", "size": 4}, "h1")
        journal.record_attempt("toxic", 0)
        journal.record_attempt("toxic", 1)
        journal.record_poisoned("toxic", 3, "worker crashed")
        journal.record_pending("fine", {"family": "ghz", "size": 5}, "h2")
        journal.close()
        unfinished = PendingJournal.load_unfinished(path)
        assert [entry.request_id for entry in unfinished] == ["fine"]

    def test_attempt_counts_survive_a_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = PendingJournal(path)
        journal.record_pending(
            "r1", {"family": "ghz", "size": 4}, "h1", attempts=2
        )
        journal.record_attempt("r1", 0)
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "attempt", "request_id": "r1", "wor')
        unfinished = PendingJournal.load_unfinished(path)
        assert [entry.request_id for entry in unfinished] == ["r1"]
        # 2 carried forward + 1 complete attempt line; the torn line is dropped.
        assert unfinished[0].attempts == 3

    def test_compaction_preserves_attempt_counts(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = PendingJournal(path)
        journal.record_pending("keep", {"family": "ghz", "size": 4}, "h1")
        journal.record_attempt("keep", 0)
        journal.record_attempt("keep", 1)
        journal.record_pending("done", {"family": "ghz", "size": 5}, "h2")
        journal.record_done("done")
        kept = journal.compact()
        journal.close()
        assert kept == 1
        unfinished = PendingJournal.load_unfinished(path)
        assert [entry.request_id for entry in unfinished] == ["keep"]
        assert unfinished[0].attempts == 2


# --------------------------------------------------------------------------- #
# Metrics registry and exposition validator (fast)
# --------------------------------------------------------------------------- #


def _full_exposition() -> str:
    """A front-end scrape: its own families plus one relayed worker."""
    front_end, worker = MetricsRegistry(), MetricsRegistry()
    front_end.declare(FLEET_METRICS)
    worker.declare(WORKER_METRICS)
    return front_end.render() + relabel_expositions({"0": worker.render()})


class TestMetrics:
    def test_full_fleet_exposition_validates(self):
        assert validate_exposition(_full_exposition()) == []

    def test_missing_metric_is_reported(self):
        text = _full_exposition().replace("repro_fleet_uptime_seconds", "repro_other")
        problems = validate_exposition(text)
        assert any("repro_fleet_uptime_seconds" in p for p in problems)

    def test_non_numeric_sample_is_reported(self):
        text = _full_exposition() + "\nrepro_fleet_workers_total NaNish\n"
        assert validate_exposition(text) != []

    def test_counter_labels_and_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("demo_total", "demo")
        counter.inc(worker="0")
        counter.inc(2, worker="0")
        counter.inc(worker='ba"d\\label')
        assert counter.value(worker="0") == 3
        rendered = registry.render()
        assert 'demo_total{worker="0"} 3' in rendered
        assert '\\"' in rendered and "\\\\" in rendered

    def test_summary_quantiles_count_and_sum(self):
        registry = MetricsRegistry()
        summary = registry.summary("lat_seconds", "latency")
        for value in [0.1, 0.2, 0.3, 0.4]:
            summary.observe(value)
        rendered = registry.render()
        assert 'lat_seconds{quantile="0.5"}' in rendered
        assert "lat_seconds_count 4" in rendered
        assert summary.count == 4

    def test_labelled_family_renders_no_stray_unlabelled_sample(self):
        registry = MetricsRegistry()
        up = registry.gauge("demo_up", "demo")
        hits = registry.counter("demo_hits_total", "demo")
        idle = registry.counter("demo_idle_total", "demo")
        up.set(1, worker="0")
        hits.inc(worker="1")
        samples = {
            name: family.samples for name, family in parse_exposition(registry.render())[0].items()
        }
        assert samples["demo_up"] == [("demo_up", 'worker="0"', "1")]
        assert samples["demo_hits_total"] == [("demo_hits_total", 'worker="1"', "1")]
        # A family with no child at all still renders, as one zero.
        assert samples["demo_idle_total"] == [("demo_idle_total", "", "0")]
        assert idle.value() == 0

    def test_parse_groups_summary_children_under_their_family(self):
        registry = MetricsRegistry()
        registry.summary("lat_seconds", "latency").observe(0.25)
        families, problems = parse_exposition(registry.render() + "bad line here\n")
        assert problems and "unparseable" in problems[0]
        family = families["lat_seconds"]
        assert family.kind == "summary" and family.help_text == "latency"
        assert [name for name, _, _ in family.samples][-2:] == [
            "lat_seconds_count", "lat_seconds_sum"
        ]

    @pytest.mark.parametrize(
        "heading, declared",
        [("**Fleet front-end families**", FLEET_METRICS), ("**Worker families**", WORKER_METRICS)],
    )
    def test_operations_doc_tables_match_the_declared_families(self, heading, declared):
        # Each table under "## Metrics" in docs/operations.md must list
        # exactly its declared families, by name and kind.
        doc = Path(__file__).resolve().parents[1] / "docs" / "operations.md"
        section = doc.read_text(encoding="utf-8").split("\n## Metrics\n", 1)[1]
        table = section.split(heading, 1)[1].split("\n|---", 1)[1]
        rows = {}
        for line in table.splitlines()[1:]:
            if not line.startswith("|"):
                break
            name, kind = re.match(r"\| `(\w+)` \| (\w+) \|", line).groups()
            rows[name] = kind
        assert rows == {name: kind for name, (kind, _help) in declared.items()}

    def test_cli_gate_exit_codes(self, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text(_full_exposition(), encoding="utf-8")
        assert cli_main(["validate-metrics", str(good)]) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("nope 1\n", encoding="utf-8")
        assert cli_main(["validate-metrics", str(bad)]) == EXIT_VALIDATE_METRICS
        absent = str(tmp_path / "absent.txt")
        assert cli_main(["validate-metrics", absent]) == EXIT_VALIDATE_METRICS


# --------------------------------------------------------------------------- #
# Worker exposition relay (fast: stub expositions, no worker processes)
# --------------------------------------------------------------------------- #


def _worker_scrape(**totals: int) -> str:
    """A worker exposition with ``repro_worker_<key>_total`` set per keyword."""
    registry = MetricsRegistry()
    instruments = registry.declare(WORKER_METRICS)
    for key, value in totals.items():
        instruments[f"repro_worker_{key}_total"].set_total(value)
    return registry.render()


class TestWorkerRelay:
    def test_fleet_families_name_no_worker_counter(self):
        assert not set(FLEET_METRICS) & set(WORKER_METRICS)
        assert all(name.startswith("repro_fleet_") for name in FLEET_METRICS)
        assert all(name.startswith("repro_worker_") for name in WORKER_METRICS)

    def test_restarted_worker_series_restart_on_their_own(self, sample_value):
        supervisor = FleetSupervisor(3)
        scrapes = [
            _worker_scrape(requests_served=7, result_cache_misses=5),
            _worker_scrape(requests_served=4, result_cache_misses=3),
            "",  # never answered a probe: contributes no series
        ]
        for worker, scrape in zip(supervisor.workers, scrapes):
            worker.last_exposition = scrape
        before = supervisor.render_metrics()
        assert validate_exposition(before) == []
        # Worker 1 restarts: its new process counts from zero.
        supervisor.workers[1].last_exposition = _worker_scrape(requests_served=1)
        after = supervisor.render_metrics()
        served = "repro_worker_requests_served_total"
        assert sample_value(before, served, 'worker="0"') == 7
        assert sample_value(after, served, 'worker="0"') == 7
        assert sample_value(before, served, 'worker="1"') == 4
        assert sample_value(after, served, 'worker="1"') == 1
        assert sample_value(after, "repro_worker_result_cache_misses_total", 'worker="1"') == 0
        assert sample_value(after, "repro_worker_result_cache_misses_total", 'worker="0"') == 5
        with pytest.raises(KeyError):
            sample_value(after, served, 'worker="2"')

    def test_no_front_end_sample_sums_across_workers(self):
        supervisor = FleetSupervisor(2)
        for worker, served in zip(supervisor.workers, (3, 9)):
            worker.last_exposition = _worker_scrape(requests_served=served)
        families, problems = parse_exposition(supervisor.render_metrics())
        assert problems == []
        for name in WORKER_METRICS:
            labels = sorted(labels for _, labels, _ in families[name].samples)
            assert labels == ['worker="0"', 'worker="1"'], name
        served = families["repro_worker_requests_served_total"].samples
        assert sorted(value for _, _, value in served) == ["3", "9"]

    def test_a_family_added_to_a_worker_registry_is_relayed(self, sample_value):
        service = CompileService(background_refine=False)
        try:
            service.metrics.counter("repro_worker_demo_total", "A new family.").inc(2)
            supervisor = FleetSupervisor(1)
            supervisor.workers[0].last_exposition = service.render_metrics()
            text = supervisor.render_metrics()
        finally:
            service.close()
        assert sample_value(text, "repro_worker_demo_total", 'worker="0"') == 2
        assert "# TYPE repro_worker_demo_total counter" in text


# --------------------------------------------------------------------------- #
# Client retry loop (fast)
# --------------------------------------------------------------------------- #


class TestClientRetries:
    def _client_with_script(self, monkeypatch, outcomes: list) -> tuple[ServiceClient, list]:
        client = ServiceClient("http://127.0.0.1:1", retries=2, retry_backoff_seconds=0.0)
        calls = []

        def fake_once(method, path, payload):
            calls.append((method, path))
            outcome = outcomes[min(len(calls), len(outcomes)) - 1]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(client, "_request_once", fake_once)
        return client, calls

    def test_retries_connection_failures_then_succeeds(self, monkeypatch):
        client, calls = self._client_with_script(
            monkeypatch, [ServiceError(0, "refused"), {"ok": True}]
        )
        assert client.request("POST", "/compile", {})["ok"] is True
        assert len(calls) == 2

    def test_retries_503_then_succeeds(self, monkeypatch):
        client, calls = self._client_with_script(
            monkeypatch, [ServiceError(503, "draining"), {"ok": True}]
        )
        assert client.request("POST", "/compile", {})["ok"] is True
        assert len(calls) == 2

    def test_does_not_retry_terminal_http_errors(self, monkeypatch):
        client, calls = self._client_with_script(
            monkeypatch, [ServiceError(400, "bad job")]
        )
        with pytest.raises(ServiceError):
            client.request("POST", "/compile", {})
        assert len(calls) == 1

    def test_raises_after_retries_exhausted(self, monkeypatch):
        failure = ServiceError(0, "refused")
        client, calls = self._client_with_script(monkeypatch, [failure])
        with pytest.raises(ServiceError):
            client.request("GET", "/healthz")
        assert len(calls) == 3  # 1 try + 2 retries

    def test_retryable_statuses_are_connection_and_503(self):
        assert set(RETRYABLE_STATUSES) == {0, 503}


# --------------------------------------------------------------------------- #
# Multi-process fleet (slow; CI fleet-smoke territory)
# --------------------------------------------------------------------------- #


def _get_text(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode("utf-8")


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A real 2-worker fleet shared by the read-mostly slow tests."""
    base = tmp_path_factory.mktemp("fleet")
    server, supervisor, _ = start_fleet(
        2,
        cache_dir=str(base / "cache"),
        journal_path=str(base / "journal.jsonl"),
        heartbeat_seconds=0.2,
    )
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    client = ServiceClient(url, timeout=120.0, retries=1)
    yield {"server": server, "supervisor": supervisor, "url": url, "client": client}
    supervisor.stop()
    server.shutdown()
    server.server_close()


def _wait_for(predicate, timeout: float = 20.0, period: float = 0.1) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(period)
    return predicate()


@pytest.mark.slow
class TestFleetEndToEnd:
    def test_compile_routes_consistently(self, fleet):
        payload = {"family": "lattice", "size": 8, "seed": 2, "kind": "compile"}
        first = fleet["client"].compile_payload(payload)
        second = fleet["client"].compile_payload(payload)
        assert first["ok"] and second["ok"]
        assert first["worker"] == second["worker"]
        assert first["request_id"] and second["request_id"]
        expected = rendezvous_order(
            BatchJob.from_dict(payload).content_hash, [0, 1]
        )[0]
        assert first["worker"] == expected

    def test_healthz_rolls_up_workers(self, fleet):
        body = fleet["client"].healthz()
        assert body["role"] == "fleet"
        assert body["num_workers"] == 2
        states = {w["index"]: w for w in body["workers"]}
        assert set(states) == {0, 1}
        assert all(w["pid"] for w in body["workers"])
        assert body["journal"]["enabled"] is True

    def test_metrics_exposition_is_complete(self, fleet):
        text = _get_text(fleet["url"] + "/metrics")
        assert validate_exposition(text) == []
        assert "repro_fleet_workers_total 2" in text

    def test_batch_forwarding_and_status_routing(self, fleet):
        job_id = fleet["client"].submit_batch(
            [{"family": "ghz", "size": 5, "kind": "compile"}]
        )
        assert "-" in job_id  # worker-index prefix
        body = fleet["client"].wait_for_batch(job_id, timeout=120.0)
        assert body["status"] == "done"
        assert body["job_id"] == job_id

    def test_worker_crash_reroutes_and_restarts(self, fleet):
        supervisor = fleet["supervisor"]
        payload = {"family": "lattice", "size": 8, "seed": 7, "kind": "compile"}
        first = fleet["client"].compile_payload(payload)
        victim = next(w for w in supervisor.workers if w.index == first["worker"])
        old_pid = victim.pid
        os.kill(old_pid, signal.SIGKILL)

        # The very next identical request must still succeed (re-routed to
        # the survivor or served after the restart) with zero client errors.
        second = fleet["client"].compile_payload(payload)
        assert second["ok"] is True

        assert _wait_for(lambda: victim.state == HEALTHY and victim.pid != old_pid)
        assert victim.restarts >= 1

        # Routing is stable across the restart: identity is the index.
        third = fleet["client"].compile_payload(payload)
        assert third["worker"] == first["worker"]


@pytest.mark.slow
class TestJournalReplay:
    def test_unfinished_entries_replay_into_the_cache(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        payload = {"family": "ghz", "size": 6, "seed": 3, "kind": "compile"}
        content_hash = BatchJob.from_dict(payload).content_hash
        journal = PendingJournal(journal_path)
        journal.record_pending("replay-me", payload, content_hash)
        journal.record_attempt("replay-me", 0)
        journal.close()

        server, supervisor, _ = start_fleet(
            2,
            cache_dir=str(tmp_path / "cache"),
            journal_path=str(journal_path),
            heartbeat_seconds=0.2,
        )
        try:
            assert _wait_for(
                lambda: PendingJournal.load_unfinished(journal_path) == [],
                timeout=120.0,
            )
            text = _get_text(
                f"http://{server.server_address[0]}:{server.server_address[1]}/metrics"
            )
            assert "repro_fleet_journal_replayed_total 1" in text
            # The replayed result landed in the shared cache: re-asking is a hit.
            host, port = server.server_address[:2]
            body = ServiceClient(f"http://{host}:{port}").compile_payload(payload)
            assert body["ok"] is True
            assert body["cache_hit"] is True
        finally:
            supervisor.stop()
            server.shutdown()
            server.server_close()


@pytest.mark.slow
class TestDrain:
    def test_drain_under_load_finishes_inflight_then_rejects(self, tmp_path):
        server, supervisor, _ = start_fleet(
            2,
            journal_path=str(tmp_path / "journal.jsonl"),
            heartbeat_seconds=0.2,
        )
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        results: list[dict] = []
        errors: list[Exception] = []

        def one_request(seed: int) -> None:
            try:
                results.append(
                    ServiceClient(url, timeout=120.0).compile_payload(
                        {"family": "lattice", "size": 10, "seed": seed,
                         "kind": "compile"}
                    )
                )
            except ServiceError as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=one_request, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        # Let every request reach the front end, then drain mid-flight (a
        # drain racing ahead of acceptance would 503 the stragglers, which
        # is correct behaviour but not what this test is about).
        assert _wait_for(lambda: supervisor.inflight == 4, timeout=10.0, period=0.01)
        clean = server.drain_and_shutdown(timeout=120.0)
        for thread in threads:
            thread.join(timeout=120.0)
        try:
            assert clean is True
            assert not errors
            assert len(results) == 4 and all(r["ok"] for r in results)
            assert supervisor.inflight == 0
            with pytest.raises(FleetDrainingError):
                supervisor.dispatch(
                    {"family": "ghz", "size": 4, "kind": "compile"}
                )
            # The journal was compacted on the clean drain: nothing pending.
            assert PendingJournal.load_unfinished(tmp_path / "journal.jsonl") == []
        finally:
            server.server_close()


@pytest.mark.slow
class TestPoisonQuarantine:
    def test_crashing_request_is_quarantined_as_422(self, tmp_path, monkeypatch):
        from repro.utils.faults import reset_registry

        schedule = json.dumps(
            {"rules": [{"point": "compile.step", "action": "crash", "match": "#666"}]}
        )
        monkeypatch.setenv("REPRO_FAULT_SCHEDULE", schedule)
        reset_registry()
        journal_path = tmp_path / "journal.jsonl"
        server, supervisor, _ = start_fleet(
            2,
            journal_path=str(journal_path),
            heartbeat_seconds=0.2,
            max_job_attempts=2,
        )
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=120.0)
        try:
            # An innocent request (seed != 666) compiles normally.
            ok = client.compile_payload(
                {"family": "lattice", "size": 6, "seed": 1, "kind": "compile"}
            )
            assert ok["ok"] is True

            with pytest.raises(ServiceError) as excinfo:
                client.compile_payload(
                    {"family": "lattice", "size": 6, "seed": 666, "kind": "compile"}
                )
            assert excinfo.value.status == 422
            body = excinfo.value.body
            assert body["poisoned"] is True
            assert body["attempts"] == 2
            assert len(body["attempt_history"]) == 2
            assert body["max_job_attempts"] == 2

            healthz = client.healthz()
            assert healthz["poisoned_total"] == 1
            assert healthz["max_job_attempts"] == 2
            text = _get_text(f"http://{host}:{port}/metrics")
            assert "repro_fleet_poisoned_total 1" in text

            # The quarantine is terminal in the journal: nothing to replay.
            assert PendingJournal.load_unfinished(journal_path) == []
        finally:
            supervisor.stop()
            server.shutdown()
            server.server_close()
            reset_registry()

    def test_replay_poisons_entries_that_burned_their_attempts(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        payload = {"family": "ghz", "size": 5, "seed": 9, "kind": "compile"}
        content_hash = BatchJob.from_dict(payload).content_hash
        journal = PendingJournal(journal_path)
        journal.record_pending("burned", payload, content_hash, attempts=2)
        journal.close()

        server, supervisor, _ = start_fleet(
            2,
            journal_path=str(journal_path),
            heartbeat_seconds=0.2,
            max_job_attempts=2,
        )
        host, port = server.server_address[:2]
        try:
            # Replay quarantines the entry (attempts already >= max) without
            # dispatching it to any worker.
            assert _wait_for(
                lambda: supervisor.healthz()["poisoned_total"] == 1, timeout=60.0
            )
            assert PendingJournal.load_unfinished(journal_path) == []
            text = _get_text(f"http://{host}:{port}/metrics")
            assert "repro_fleet_poisoned_total 1" in text
        finally:
            supervisor.stop()
            server.shutdown()
            server.server_close()


@pytest.mark.slow
class TestLoadgenFaultInjection:
    def test_kill_worker_mid_load_loses_no_requests(self, tmp_path):
        server, supervisor, _ = start_fleet(
            3,
            journal_path=str(tmp_path / "journal.jsonl"),
            heartbeat_seconds=0.2,
        )
        host, port = server.server_address[:2]
        try:
            payloads = [
                {"family": "lattice", "size": 8, "seed": seed, "kind": "compile"}
                for seed in range(6)
            ]
            report = run_loadgen(
                f"http://{host}:{port}",
                payloads,
                requests=18,
                concurrency=4,
                retries=2,
                kill_worker_after=4,
            )
            assert report.killed_worker_pid is not None
            assert report.errors == 0
            assert report.requests == 18
        finally:
            supervisor.stop()
            server.shutdown()
            server.server_close()

    def test_kill_worker_requires_a_fleet(self, tmp_path):
        from repro.service.server import start_server

        server, _ = start_server(batch_window_seconds=0.01)
        host, port = server.server_address[:2]
        try:
            report = run_loadgen(
                f"http://{host}:{port}",
                [{"family": "ghz", "size": 4, "kind": "compile"}],
                requests=3,
                concurrency=1,
                kill_worker_after=0,
            )
            assert report.errors >= 1
            assert any("fleet front end" in e for e in report.first_errors)
        finally:
            server.shutdown()
            server.server_close()


# --------------------------------------------------------------------------- #
# Concurrent health probes (fast)
# --------------------------------------------------------------------------- #


class TestConcurrentProbes:
    def test_workers_are_probed_concurrently(self):
        """One hung worker must not serialise the /healthz roll-up.

        Three probes meet at a barrier: if the supervision tick probed
        workers sequentially, the first probe would block the tick and the
        barrier could never fill.
        """
        from repro.service.fleet import FleetSupervisor

        supervisor = FleetSupervisor(3, heartbeat_seconds=0.05)
        barrier = threading.Barrier(3, timeout=5.0)
        all_concurrent = threading.Event()

        def meeting_probe(worker):
            barrier.wait()
            all_concurrent.set()

        supervisor._check_worker = meeting_probe
        thread = threading.Thread(target=supervisor._supervise, daemon=True)
        thread.start()
        try:
            assert all_concurrent.wait(timeout=3.0)
        finally:
            supervisor._stop.set()
            thread.join(timeout=2.0)
            supervisor._probe_pool.shutdown(wait=False)

    def test_inflight_probe_is_not_stacked(self):
        """A slow probe must not get a duplicate queued behind it."""
        from repro.service.fleet import FleetSupervisor

        supervisor = FleetSupervisor(1, heartbeat_seconds=0.02)
        release = threading.Event()
        entered = []

        def hanging_probe(worker):
            entered.append(worker.index)
            release.wait(timeout=5.0)

        supervisor._check_worker = hanging_probe
        thread = threading.Thread(target=supervisor._supervise, daemon=True)
        thread.start()
        try:
            time.sleep(0.3)  # many ticks elapse while the probe hangs
            assert len(entered) == 1
        finally:
            release.set()
            supervisor._stop.set()
            thread.join(timeout=2.0)
            supervisor._probe_pool.shutdown(wait=False)


# --------------------------------------------------------------------------- #
# Loadgen front-end kill plumbing (fast; the live drill is CI ha-smoke)
# --------------------------------------------------------------------------- #


class TestLoadgenFrontEndKill:
    def test_kill_front_end_after_validation(self):
        with pytest.raises(ValueError, match="kill_front_end_after"):
            run_loadgen(
                "http://127.0.0.1:1",
                [{"family": "ghz", "size": 4}],
                requests=3,
                kill_front_end_after=3,
            )

    def test_duplicate_accepts_fail_the_run(self):
        from repro.service.loadgen import LoadReport

        report = LoadReport(requests=2)
        assert report.ok
        report.duplicate_accepts = 1
        assert not report.ok
        assert "duplicate_accepts" not in report.summary()  # only after a kill
        report.killed_front_end_pid = 1234
        report.killed_front_end_after = 1
        report.orphan_worker_pids = [111, 222]
        assert report.summary()["duplicate_accepts"] == 1
        assert report.summary()["orphan_worker_pids"] == [111, 222]
        assert "duplicate accepts: 1" in report.to_text()
