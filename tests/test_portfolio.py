"""Differential test harness for the anytime portfolio compiler.

The portfolio races cheap strategies first and keeps the verified best
result, so the properties that must hold for *any* instance are sharp:

* the winning circuit must generate the requested graph state on the
  stabilizer oracle, for every zoo family and any budget;
* the quality can never be worse than the natural-order baseline (rung 0 is
  always run);
* growing the budget can only improve (never degrade) the quality on a
  fixed seed, and the same budget must reproduce the identical winning
  circuit across runs and across the packed/dense GF(2) backends.

The service- and pipeline-level tests then pin the wiring: deadline routing
through ``run_job``, admission control, healthz counters, background
refinement, and the loadgen deadline report.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.validation import validate_circuit_constraints, verify_circuit_generates
from repro.core.compiler import EmitterCompiler
from repro.core.config import CompilerConfig
from repro.core.portfolio import (
    BackgroundRefiner,
    InstanceFeatures,
    PortfolioCompiler,
    compile_anytime,
    get_background_refiner,
    plan_portfolio,
    quality_key,
    refinement_stats,
    reset_refinement_stats,
)
from repro.pipeline.jobs import BatchJob, GraphSpec, run_job
from repro.service.loadgen import LoadReport, workload_payloads

#: All seven zoo families with a valid small size each (steane is fixed at 7,
#: surface is parameterised by odd code distance). Random families stay at 8
#: vertices: small enough that every rung compiles quickly, large enough
#: that every rung is admitted and the strategies actually diverge.
ZOO = (
    ("regular", 8),
    ("smallworld", 8),
    ("erdos", 8),
    ("percolated", 8),
    ("ghz", 10),
    ("steane", 7),
    ("surface", 3),
)


def small_config(**overrides) -> CompilerConfig:
    base = CompilerConfig(
        max_subgraph_size=7,
        lc_budget=15,
        max_order_candidates=24,
        exhaustive_order_threshold=4,
        seed=7,
    )
    return base.with_overrides(**overrides) if overrides else base


def zoo_graph(family: str, size: int, seed: int):
    return GraphSpec(family=family, size=size, seed=seed).build()


class TestPortfolioProperties:
    """Hypothesis differential harness across the whole scenario zoo."""

    @given(st.sampled_from(ZOO), st.integers(0, 40), st.integers(1, 5))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_winner_verifies_on_stabilizer_oracle(self, famsize, seed, budget):
        family, size = famsize
        graph = zoo_graph(family, size, seed)
        anytime = compile_anytime(
            graph, config=small_config(), budget=budget, family=family
        )
        result = anytime.result
        validate_circuit_constraints(result.circuit)
        assert verify_circuit_generates(
            result.circuit, graph, photon_of_vertex=result.sequence.photon_of_vertex
        )
        assert anytime.quality == quality_key(result)

    @given(st.sampled_from(ZOO), st.integers(0, 40), st.integers(1, 5))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_never_worse_than_natural_baseline(self, famsize, seed, budget):
        family, size = famsize
        graph = zoo_graph(family, size, seed)
        config = small_config()
        anytime = compile_anytime(graph, config=config, budget=budget, family=family)
        plan = plan_portfolio(InstanceFeatures.from_graph(graph, family), config)
        natural = EmitterCompiler(plan.rungs[0].config(config)).compile(graph)
        assert anytime.quality <= quality_key(natural)

    @given(st.sampled_from(ZOO), st.integers(0, 40))
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_quality_monotone_in_budget(self, famsize, seed):
        self.check_quality_monotone_in_budget(famsize, seed)

    @pytest.mark.slow
    @given(st.sampled_from(ZOO), st.integers(0, 40))
    @settings(max_examples=8, deadline=None)
    def test_quality_monotone_in_budget_eight_examples(self, famsize, seed):
        self.check_quality_monotone_in_budget(famsize, seed)

    @staticmethod
    def check_quality_monotone_in_budget(famsize, seed):
        """Each example compiles the graph once per budget, which makes it
        slow: tier-1 draws 3 examples, the slow suite the full 8."""
        family, size = famsize
        graph = zoo_graph(family, size, seed)
        config = small_config()
        plan = plan_portfolio(InstanceFeatures.from_graph(graph, family), config)
        qualities = [
            compile_anytime(graph, config=config, budget=b, family=family).quality
            for b in range(1, len(plan.rungs) + 1)
        ]
        for tighter, looser in zip(qualities, qualities[1:]):
            assert looser <= tighter, (
                f"{family}: quality degraded with a larger budget: "
                f"{tighter} -> {looser}"
            )


class TestSeededDeterminism:
    def test_identical_winner_across_runs_and_backends(self):
        graph = zoo_graph("smallworld", 12, seed=23)
        runs = []
        for backend in ("packed", "dense", "packed"):
            anytime = compile_anytime(
                graph,
                config=small_config(gf2_backend=backend),
                budget=3,
                family="smallworld",
            )
            runs.append(anytime)
        first = runs[0]
        for other in runs[1:]:
            assert other.winner == first.winner
            assert other.quality == first.quality
            assert other.result.circuit.gates == first.result.circuit.gates
        assert all(o.status == "ran" for o in first.outcomes[:3])

    def test_budget_runs_exactly_the_first_n_rungs(self):
        graph = zoo_graph("regular", 10, seed=5)
        config = small_config()
        plan = plan_portfolio(InstanceFeatures.from_graph(graph, "regular"), config)
        anytime = compile_anytime(graph, config=config, budget=2, family="regular")
        statuses = [o.status for o in anytime.outcomes]
        assert statuses[:2] == ["ran", "ran"]
        assert all(s == "pending" for s in statuses[2:])
        assert [o.spec.name for o in anytime.outcomes] == [
            r.name for r in plan.rungs
        ]


class TestSelector:
    def test_plan_records_features_and_rung_reasons(self):
        graph = zoo_graph("regular", 12, seed=3)
        config = small_config()
        plan = plan_portfolio(InstanceFeatures.from_graph(graph, "regular"), config)
        decisions = {entry["decision"] for entry in plan.decision_trace}
        assert "features" in decisions
        assert "rung" in decisions
        assert plan.rungs[0].name == "natural"
        assert all(rung.reason for rung in plan.rungs)

    @pytest.mark.parametrize("family,size", [("erdos", 8), ("regular", 10)])
    def test_small_graph_rung_list(self, family, size):
        # The default partitioner already runs the exact MIP up to 10
        # vertices, so no rung repeats ``natural`` with an exact partition.
        graph = zoo_graph(family, size, seed=3)
        plan = plan_portfolio(InstanceFeatures.from_graph(graph, family), small_config())
        assert [r.name for r in plan.rungs] == [
            "natural",
            "greedy",
            "anneal",
            "alt-partition",
        ]

    def test_anneal_iterations_halved_for_star_like_families(self):
        config = small_config()
        base = InstanceFeatures.from_graph(zoo_graph("regular", 10, 3), "regular")
        star = InstanceFeatures.from_graph(zoo_graph("ghz", 10, 3), "ghz")
        regular_plan = plan_portfolio(base, config)
        ghz_plan = plan_portfolio(star, config)

        def anneal_iters(plan):
            for rung in plan.rungs:
                if rung.name == "anneal":
                    return dict(rung.overrides)["ordering_iterations"]
            return None

        regular_iters = anneal_iters(regular_plan)
        ghz_iters = anneal_iters(ghz_plan)
        assert regular_iters is not None and ghz_iters is not None
        assert ghz_iters < regular_iters

    def test_tiny_graphs_get_a_single_rung(self):
        graph = zoo_graph("erdos", 6, seed=1)
        config = small_config()
        two_vertex = GraphSpec(family="linear", size=2, seed=1).build()
        plan = plan_portfolio(InstanceFeatures.from_graph(two_vertex, "linear"), config)
        assert [r.name for r in plan.rungs][0] == "natural"
        bigger = plan_portfolio(InstanceFeatures.from_graph(graph, "erdos"), config)
        assert len(bigger.rungs) > len(plan.rungs)


class TestRefinement:
    def test_refine_converges_to_the_full_portfolio(self):
        reset_refinement_stats()
        graph = zoo_graph("regular", 10, seed=11)
        config = small_config()
        compiler = PortfolioCompiler(config)
        partial = compiler.compile(graph, budget=1, family="regular")
        full = compiler.compile(graph, family="regular")
        assert partial.pending
        refined = compiler.refine(graph, partial)
        assert refined.quality == full.quality
        assert not refined.pending
        stats = refinement_stats().as_dict()
        assert stats["refinement_rungs"] >= len(partial.pending)
        reset_refinement_stats()

    def test_background_refiner_processes_submitted_jobs(self):
        reset_refinement_stats()
        refiner = BackgroundRefiner()
        job = BatchJob(
            graph=GraphSpec("regular", 10, seed=11),
            kind="compile",
            config_overrides=(("portfolio_budget", 1),),
        )
        record = run_job(job)
        pending = record["portfolio"]["pending_rungs"]
        assert pending
        assert refiner.submit_job(job, pending, record["portfolio"]["quality"])
        assert refiner.drain(timeout=60.0)
        stats = refinement_stats().as_dict()
        assert stats["refinement_submitted"] == 1
        assert stats["refinement_rungs"] >= 1
        refiner.stop()
        reset_refinement_stats()

    def test_process_singleton_is_reused(self):
        assert get_background_refiner() is get_background_refiner()


class TestConfigAndJobValidation:
    def test_config_rejects_bad_deadline_and_budget(self):
        with pytest.raises(ValueError):
            CompilerConfig(deadline_ms=0)
        with pytest.raises(ValueError):
            CompilerConfig(deadline_ms=-5.0)
        with pytest.raises(ValueError):
            CompilerConfig(portfolio_budget=0)
        assert CompilerConfig(deadline_ms=100.0).deadline_ms == 100.0

    def test_job_rejects_bad_priority_and_deadline(self):
        spec = GraphSpec("lattice", 9, seed=3)
        with pytest.raises(ValueError):
            BatchJob(graph=spec, kind="compile", priority="urgent")
        with pytest.raises(ValueError):
            BatchJob(graph=spec, kind="compile", deadline_ms=0)
        with pytest.raises(ValueError):
            BatchJob(graph=spec, kind="ordering", deadline_ms=100.0)

    def test_job_label_and_wire_roundtrip_carry_deadline(self):
        job = BatchJob(
            graph=GraphSpec("lattice", 9, seed=3),
            kind="compile",
            deadline_ms=250.0,
            priority="high",
        )
        assert "~250ms" in job.label
        assert "!high" in job.label
        clone = BatchJob.from_dict(job.as_dict())
        assert clone.deadline_ms == 250.0
        assert clone.priority == "high"
        assert clone.content_hash == job.content_hash

    def test_run_job_routes_portfolio_and_records_trace(self):
        job = BatchJob(
            graph=GraphSpec("regular", 10, seed=11),
            kind="compile",
            deadline_ms=60_000.0,
        )
        record = run_job(job)
        portfolio = record["portfolio"]
        assert portfolio["winner"]
        assert portfolio["deadline_ms"] == 60_000.0
        assert portfolio["deadline_missed"] is False
        assert any(
            entry["decision"] == "features" for entry in portfolio["decision_trace"]
        )
        assert record["ours"]["num_emitter_emitter_cnots"] == (
            portfolio["quality"]["num_emitter_emitter_cnots"]
        )

    def test_run_job_without_deadline_has_no_portfolio_section(self):
        record = run_job(BatchJob(graph=GraphSpec("regular", 10, seed=11), kind="compile"))
        assert "portfolio" not in record


class TestServiceDeadlines:
    def test_compile_with_deadline_updates_healthz_counters(self, sample_value):
        from repro.service.server import CompileService

        service = CompileService(background_refine=False)
        try:
            body = service.compile(
                {
                    "kind": "compile",
                    "family": "regular",
                    "size": 10,
                    "seed": 11,
                    "deadline_ms": 60_000,
                }
            )
            assert body["ok"]
            text = service.render_metrics()
            assert sample_value(text, "repro_worker_deadline_requests_total") == 1
            assert sample_value(text, "repro_worker_deadline_misses_total") == 0
            assert sample_value(text, "repro_worker_admission_rejections_total") == 0
            assert service._ewma_compile_seconds > 0.0
        finally:
            service.close()

    def test_admission_control_rejects_overloaded_low_priority(self, sample_value):
        from repro.service.server import CompileService, ServiceDeadlineError

        service = CompileService(background_refine=False)
        try:
            # Simulate a deep queue: recent compiles took ~2s each and ten
            # are in flight, so a 100 ms deadline cannot be met.
            service._ewma_compile_seconds = 2.0
            service._inflight_compiles = 10
            job = BatchJob(
                graph=GraphSpec("regular", 10, seed=11),
                kind="compile",
                deadline_ms=100.0,
            )
            with pytest.raises(ServiceDeadlineError):
                service._admit_or_reject(job)
            # High priority bypasses the check entirely.
            rush = BatchJob(
                graph=GraphSpec("regular", 10, seed=11),
                kind="compile",
                deadline_ms=100.0,
                priority="high",
            )
            service._admit_or_reject(rush)
            text = service.render_metrics()
            assert sample_value(text, "repro_worker_admission_rejections_total") == 1
        finally:
            service.close()

    def test_deadline_rejection_maps_to_http_429(self):
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.server import start_server

        server, _thread = start_server(background_refine=False)
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}", timeout=30.0, retries=0)
            server.service._ewma_compile_seconds = 5.0
            server.service._inflight_compiles = 10
            with pytest.raises(ServiceError) as excinfo:
                client.compile_payload(
                    {
                        "kind": "compile",
                        "family": "regular",
                        "size": 10,
                        "seed": 11,
                        "deadline_ms": 50,
                        "priority": "low",
                    }
                )
            assert excinfo.value.status == 429
        finally:
            server.shutdown()
            server.server_close()


class TestLoadgenDeadlines:
    def test_workload_payloads_carry_deadline_and_priority(self):
        payloads = workload_payloads(
            ["regular"], [10], deadline_ms=500.0, priority="low"
        )
        assert all(p["deadline_ms"] == 500.0 for p in payloads)
        assert all(p["priority"] == "low" for p in payloads)
        plain = workload_payloads(["regular"], [10])
        assert all("deadline_ms" not in p and "priority" not in p for p in plain)

    def test_report_miss_rate_and_summary(self):
        report = LoadReport(
            requests=10,
            deadline_requests=8,
            deadline_misses=2,
            admission_rejections=1,
            quality_cnots=[4.0, 6.0],
            quality_durations=[5.0, 7.0],
            latencies_seconds=[0.01],
        )
        assert report.deadline_miss_rate == pytest.approx(0.25)
        summary = report.summary()
        assert summary["deadline_misses"] == 2
        assert summary["deadline_miss_rate"] == pytest.approx(0.25)
        assert summary["admission_rejections"] == 1
        assert summary["mean_emitter_cnots"] == pytest.approx(5.0)
        text = report.to_text()
        assert "deadlines:" in text
        assert "quality:" in text

    def test_empty_report_has_no_deadline_lines(self):
        report = LoadReport(requests=2, latencies_seconds=[0.01, 0.02])
        assert report.deadline_miss_rate == 0.0
        assert "deadline_requests" not in report.summary()
        assert "deadlines:" not in report.to_text()


class TestCliDeadlineGate:
    def test_max_deadline_miss_rate_requires_deadline(self, capsys):
        from repro.cli import EXIT_LOADGEN, main

        code = main(
            ["loadgen", "--self-serve", "--max-deadline-miss-rate", "0.1"]
        )
        assert code == EXIT_LOADGEN
        assert "requires --deadline-ms" in capsys.readouterr().err

    def test_gate_trips_on_missed_deadlines(self, monkeypatch, capsys):
        from repro import cli

        report = LoadReport(
            requests=4,
            deadline_requests=4,
            deadline_misses=3,
            latencies_seconds=[0.01] * 4,
        )
        monkeypatch.setattr(
            "repro.service.loadgen.run_loadgen",
            lambda *args, **kwargs: report,
        )
        monkeypatch.setattr(
            "repro.service.client.ServiceClient.wait_until_ready",
            lambda self, timeout=10.0: None,
        )
        code = cli.main(
            [
                "loadgen",
                "--url",
                "http://127.0.0.1:1",
                "--deadline-ms",
                "100",
                "--max-deadline-miss-rate",
                "0.5",
            ]
        )
        assert code == cli.EXIT_LOADGEN
        assert "deadline-miss rate" in capsys.readouterr().err

    def test_gate_passes_when_misses_are_allowed(self, monkeypatch):
        from repro import cli

        report = LoadReport(
            requests=4,
            deadline_requests=4,
            deadline_misses=1,
            latencies_seconds=[0.01] * 4,
        )
        monkeypatch.setattr(
            "repro.service.loadgen.run_loadgen",
            lambda *args, **kwargs: report,
        )
        monkeypatch.setattr(
            "repro.service.client.ServiceClient.wait_until_ready",
            lambda self, timeout=10.0: None,
        )
        code = cli.main(
            [
                "loadgen",
                "--url",
                "http://127.0.0.1:1",
                "--deadline-ms",
                "100",
                "--max-deadline-miss-rate",
                "0.5",
            ]
        )
        assert code == cli.EXIT_OK
