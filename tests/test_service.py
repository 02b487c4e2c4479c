"""Tests for the compilation service: HTTP endpoints, micro-batching, loadgen."""

from __future__ import annotations

import threading
import time

import pytest

from repro.pipeline.jobs import BatchJob, GraphSpec
from repro.pipeline.runner import BatchRunner
from repro.service.batcher import MicroBatcher
from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import (
    LoadReport,
    percentile,
    run_loadgen,
    workload_payloads,
)
from repro.service.metrics import WORKER_METRICS, validate_exposition
from repro.service.server import CompileService, start_server


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One cached server shared by the module, plus a client bound to it."""
    cache_dir = tmp_path_factory.mktemp("service-cache")
    server, _ = start_server(cache_dir=str(cache_dir), batch_window_seconds=0.01)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=120.0)
    client.wait_until_ready()
    yield client
    server.shutdown()
    server.server_close()


class TestHealthz:
    def test_reports_ok_and_counters(self, served, sample_value):
        body = served.healthz()
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0
        assert set(body) == {"status", "version", "pid", "uptime_seconds", "epoch"}
        # The counters live on /metrics: the result cache is enabled (a
        # repeat is a hit) and the micro-batcher families are exported.
        payload = {"family": "ring", "size": 5, "seed": 11, "kind": "compile"}
        served.compile_payload(payload)
        assert served.compile_payload(payload)["cache_hit"] is True
        text = served.metrics()
        assert sample_value(text, "repro_worker_result_cache_hits_total") >= 1
        assert sample_value(text, "repro_worker_microbatches_total") >= 1
        assert sample_value(text, "repro_worker_microbatched_requests_total") >= 2


class TestMetricsEndpoint:
    def test_single_server_exposition_validates_against_worker_metrics(self, served):
        text = served.metrics()
        assert validate_exposition(text, WORKER_METRICS) == []

    def test_counts_requests_served(self, served, sample_value):
        before = sample_value(served.metrics(), "repro_worker_requests_served_total")
        served.compile(family="linear", size=4, kind="compile")
        after = sample_value(served.metrics(), "repro_worker_requests_served_total")
        assert after == before + 1


class TestCompileEndpoint:
    def test_end_to_end_compile_over_http(self, served):
        body = served.compile(family="lattice", size=9, seed=3, kind="compile")
        assert body["ok"] is True
        assert body["error"] is None
        record = body["result"]
        assert record["num_qubits"] == 9
        assert record["ours"]["num_emitters"] >= 1
        assert record["ours"]["num_emitter_emitter_cnots"] >= 0

    def test_cache_hit_on_repeated_request(self, served):
        payload = {"family": "tree", "size": 8, "seed": 5, "kind": "compile"}
        first = served.compile_payload(payload)
        second = served.compile_payload(payload)
        assert first["ok"] and second["ok"]
        assert second["cache_hit"] is True
        assert second["result"] == first["result"]

    def test_comparison_kind_carries_baseline(self, served):
        body = served.compile(family="ring", size=6, kind="comparison")
        assert body["ok"] is True
        assert "baseline" in body["result"]

    def test_unknown_family_is_a_400(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.compile(family="moebius", size=5)
        assert excinfo.value.status == 400

    def test_unknown_job_key_is_a_400(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.compile_payload({"family": "lattice", "size": 6, "sizee": 1})
        assert excinfo.value.status == 400

    def test_unknown_config_override_is_a_400(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.compile_payload(
                {
                    "family": "lattice",
                    "size": 6,
                    "kind": "compile",
                    "config_overrides": {"use_twn_rule": False},
                }
            )
        assert excinfo.value.status == 400

    def test_unknown_path_is_a_404(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.request("POST", "/compyle", {"family": "lattice", "size": 6})
        assert excinfo.value.status == 404

    def test_keep_alive_connection_survives_an_unknown_path_post(self, served):
        import http.client
        import json

        host, port = served.base_url[len("http://"):].rsplit(":", 1)
        connection = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            body = json.dumps({"family": "lattice", "size": 6}).encode()
            connection.request(
                "POST", "/nope", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            # Same (kept-alive) connection: the body above must have been
            # drained, or this request desyncs into a 400.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_concurrent_clients_all_get_their_own_result(self, served):
        sizes = [5, 6, 7, 8, 9, 10]
        results: dict[int, dict] = {}

        def fetch(size: int) -> None:
            results[size] = served.compile(family="linear", size=size, kind="compile")

        threads = [threading.Thread(target=fetch, args=(size,)) for size in sizes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(results) == set(sizes)
        for size, body in results.items():
            assert body["ok"] is True
            assert body["result"]["num_qubits"] == size


class TestBatchEndpoint:
    def test_submit_poll_and_collect(self, served):
        jobs = [
            {"family": "ghz", "size": size, "kind": "compile"} for size in (4, 6, 8)
        ]
        job_id = served.submit_batch(jobs)
        body = served.wait_for_batch(job_id, timeout=120.0)
        assert body["status"] == "done"
        assert body["summary"]["num_jobs"] == 3
        assert body["summary"]["num_errors"] == 0
        assert [o["result"]["num_qubits"] for o in body["outcomes"]] == [4, 6, 8]

    def test_unknown_job_id_is_a_404(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.status("not-a-job")
        assert excinfo.value.status == 404

    def test_empty_batch_is_a_400(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.request("POST", "/batch", {"jobs": []})
        assert excinfo.value.status == 400

    def test_full_pending_queue_is_backpressured(self):
        from repro.service.server import ServiceBusyError

        service = CompileService()
        service.max_pending_batches = 0
        try:
            with pytest.raises(ServiceBusyError):
                service.submit_batch(
                    {"jobs": [{"family": "linear", "size": 4, "kind": "compile"}]}
                )
        finally:
            service.close()

    def test_finished_batches_are_evicted_beyond_the_cap(self):
        service = CompileService()
        service.max_tracked_batches = 2
        payload = {"jobs": [{"family": "linear", "size": 4, "kind": "compile"}]}
        try:

            def wait_done(job_id: str) -> None:
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    body = service.status(job_id)
                    if body is None or body["status"] in ("done", "error"):
                        return
                    time.sleep(0.02)
                raise TimeoutError(f"batch {job_id} never finished")

            job_ids = [service.submit_batch(payload)["job_id"] for _ in range(4)]
            for job_id in job_ids:
                wait_done(job_id)
            service.submit_batch(payload)
            # Eviction at submit time keeps only the cap's worth of finished
            # batches (plus the batch just submitted).
            assert len(service._batches) <= 3
        finally:
            service.close()


class TestMicroBatcher:
    def test_concurrent_submissions_share_a_batch(self):
        batcher = MicroBatcher(
            BatchRunner(max_workers=1), window_seconds=0.5, max_batch=16
        )
        try:
            outcomes = {}
            barrier = threading.Barrier(4)

            def submit(size: int) -> None:
                job = BatchJob(graph=GraphSpec("linear", size), kind="compile")
                barrier.wait()
                outcomes[size] = batcher.submit(job)

            threads = [
                threading.Thread(target=submit, args=(size,)) for size in (3, 4, 5, 6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(outcome.ok for outcome in outcomes.values())
            # Everyone got the result of their own job, not a neighbour's.
            for size, outcome in outcomes.items():
                assert outcome.result["num_qubits"] == size
            # The generous window must have coalesced at least one batch.
            assert batcher.stats.largest_batch >= 2
            assert batcher.stats.requests == 4
        finally:
            batcher.close()

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(BatchRunner(max_workers=1))
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(BatchJob(graph=GraphSpec("linear", 3)))

    def test_full_batch_dispatches_without_waiting_for_the_window(self):
        batcher = MicroBatcher(
            BatchRunner(max_workers=1), window_seconds=30.0, max_batch=1
        )
        try:
            outcome = batcher.submit(
                BatchJob(graph=GraphSpec("linear", 3), kind="compile")
            )
            assert outcome.ok
        finally:
            batcher.close()


class TestLoadgen:
    def test_percentile_interpolates(self):
        assert percentile([1.0], 95) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_workload_payloads_cross_product(self):
        payloads = workload_payloads(["lattice", "ghz"], [8, 10], seeds=[1, 2])
        assert len(payloads) == 8
        assert payloads[0] == {
            "family": "lattice",
            "size": 8,
            "seed": 1,
            "kind": "compile",
            "emitter_limit_factor": 1.5,
        }

    def test_report_aggregates(self):
        report = LoadReport(
            requests=4,
            errors=0,
            cache_hits=3,
            wall_seconds=2.0,
            latencies_seconds=[0.1, 0.2, 0.3, 0.4],
        )
        assert report.ok
        assert report.throughput_rps == pytest.approx(2.0)
        assert report.cache_hit_rate == pytest.approx(0.75)
        assert report.latency_ms(50) == pytest.approx(250.0)
        text = report.to_text()
        assert "latency p50" in text and "latency p95" in text

    def test_second_identical_run_is_mostly_cache_hits(self, served):
        payloads = workload_payloads(["linear", "star"], [6, 9], seeds=[21])
        first = run_loadgen(
            served.base_url, payloads, requests=8, concurrency=3, timeout=120.0
        )
        second = run_loadgen(
            served.base_url, payloads, requests=8, concurrency=3, timeout=120.0
        )
        assert first.ok and second.ok
        assert second.cache_hit_rate >= 0.9
        assert second.latency_ms(50) > 0.0
        assert second.latency_ms(95) >= second.latency_ms(50)
