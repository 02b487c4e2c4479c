"""Tests for the streaming partition-compile pipeline.

The contract under test: ``compile_stream(spec)`` emits the exact same
operation sequence as ``greedy_reduce(spec.materialize())`` — same rule
engine, same processing order, same emitter count — while holding at most
two regions plus the emitter pool in memory.  Every family/chunking
combination must be bit-identical, the window statistics must respect the
declared capacity, and the ``BatchJob`` wire format must round-trip the
new ``stream``/``stream_chunk`` fields.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import greedy_reduce
from repro.core.streaming import (
    StreamingReductionState,
    _window_capacity,
    compile_stream,
)
from repro.graphs.lazy import (
    GHZStreamSpec,
    LatticeStreamSpec,
    PercolatedLatticeStreamSpec,
    STREAM_FAMILIES,
    make_stream_spec,
)
from repro.pipeline.jobs import (
    BatchJob,
    GraphSpec,
    JOB_SCHEMA_VERSION,
    run_job,
)


def assert_stream_matches_materialized(spec):
    """The streamed ops/emitters equal the whole-graph greedy reduction."""
    streamed = compile_stream(spec, collect_operations=True)
    reference = greedy_reduce(spec.materialize())
    assert streamed.operations == reference.operations
    assert streamed.num_emitters == max(reference.num_emitters, 1)
    return streamed, reference


class TestSpecs:
    def test_stream_families_frozen(self):
        assert STREAM_FAMILIES == ("lattice", "percolated", "ghz")

    def test_make_stream_spec_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            make_stream_spec("tree", 100)

    def test_lattice_regions_partition_vertices(self):
        spec = LatticeStreamSpec(7, 5, chunk_rows=3)
        seen = []
        for j in range(spec.num_regions):
            seen.extend(spec.region(j))
        assert sorted(seen) == sorted(spec.materialize().vertices())
        assert len(seen) == spec.num_vertices == 35

    def test_ghz_hub_is_pinned(self):
        spec = GHZStreamSpec(50, chunk=16)
        assert tuple(spec.pinned()) == (0,)
        for j in range(spec.num_regions):
            assert 0 not in list(spec.region(j))

    def test_window_capacity_bounded_by_two_regions(self):
        spec = LatticeStreamSpec(100, 6, chunk_rows=2)
        capacity = _window_capacity(spec)
        # Two chunk_rows=2 regions of a 6-wide lattice, no pinned hubs.
        assert capacity == 24
        assert capacity < spec.num_vertices


class TestBitIdentity:
    @pytest.mark.parametrize(
        "spec",
        [
            LatticeStreamSpec(6, 6, chunk_rows=1),
            LatticeStreamSpec(6, 6, chunk_rows=2),
            LatticeStreamSpec(7, 4, chunk_rows=3),
            LatticeStreamSpec(3, 5, chunk_rows=10),  # single region
            PercolatedLatticeStreamSpec(6, 6, survival=0.8, seed=3, chunk_rows=2),
            PercolatedLatticeStreamSpec(5, 7, survival=0.6, seed=9, chunk_rows=1),
            GHZStreamSpec(40, chunk=8),
            GHZStreamSpec(17, chunk=5),
        ],
        ids=lambda s: f"{s.family}-{s.num_vertices}",
    )
    def test_streamed_ops_equal_materialized(self, spec):
        assert_stream_matches_materialized(spec)

    @pytest.mark.parametrize("family", STREAM_FAMILIES)
    def test_make_stream_spec_builds_verifiable_specs(self, family):
        spec = make_stream_spec(family, 60, seed=5, chunk=2 if family != "ghz" else 16)
        streamed, _ = assert_stream_matches_materialized(spec)
        assert streamed.family == family

    @given(
        rows=st.integers(2, 6),
        cols=st.integers(2, 6),
        chunk=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_lattice_identity_any_chunking(self, rows, cols, chunk):
        assert_stream_matches_materialized(LatticeStreamSpec(rows, cols, chunk))

    @given(
        rows=st.integers(3, 6),
        cols=st.integers(3, 6),
        seed=st.integers(0, 50),
        chunk=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_percolated_identity_any_seed(self, rows, cols, seed, chunk):
        spec = PercolatedLatticeStreamSpec(
            rows, cols, survival=0.75, seed=seed, chunk_rows=chunk
        )
        assert_stream_matches_materialized(spec)

    def test_tags_propagate_to_every_op(self):
        spec = LatticeStreamSpec(4, 4, chunk_rows=1)
        streamed = compile_stream(spec, tag="windowed", collect_operations=True)
        assert streamed.operations
        assert all(op.tag == "windowed" for op in streamed.operations)


class TestWindowStatistics:
    def test_peak_respects_capacity(self):
        spec = LatticeStreamSpec(30, 5, chunk_rows=1)
        result = compile_stream(spec)
        assert result.peak_window_photons <= result.window_capacity
        assert result.window_capacity == _window_capacity(spec)
        assert result.window_capacity < spec.num_vertices

    def test_edge_count_matches_materialized_graph(self):
        spec = PercolatedLatticeStreamSpec(8, 8, survival=0.7, seed=13)
        result = compile_stream(spec)
        assert result.num_edges == spec.materialize().num_edges

    def test_operations_not_collected_by_default(self):
        result = compile_stream(LatticeStreamSpec(4, 4))
        assert result.operations is None
        assert result.num_operations == sum(result.op_counts.values())
        assert result.num_operations >= result.num_emissions > 0

    def test_finish_refuses_resident_photons(self):
        state = StreamingReductionState(window_capacity=4)
        state.admit_photon(0)
        with pytest.raises(RuntimeError, match="photons remain"):
            state.finish()

    def test_window_overflow_raises(self):
        state = StreamingReductionState(window_capacity=2)
        state.admit_photon(0)
        state.admit_photon(1)
        with pytest.raises(RuntimeError):
            state.admit_photon(2)


class TestStreamJobs:
    def test_schema_version_bumped_for_stream_fields(self):
        # v7 added the stream fields; v8 dropped a portfolio rung.
        assert JOB_SCHEMA_VERSION == 8

    def test_round_trip_and_label(self):
        job = BatchJob(
            graph=GraphSpec("percolated", 64, seed=3),
            kind="compile",
            stream=True,
            stream_chunk=2,
        )
        assert "&stream" in job.label
        rebuilt = BatchJob.from_dict(job.as_dict())
        assert rebuilt == job
        assert rebuilt.content_hash == job.content_hash

    def test_stream_flag_changes_content_hash(self):
        plain = BatchJob(graph=GraphSpec("lattice", 64), kind="compile")
        streamed = plain.with_overrides(stream=True)
        assert plain.content_hash != streamed.content_hash

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(graph=GraphSpec("tree", 64), stream=True), "streamable family"),
            (
                dict(graph=GraphSpec("lattice", 64), kind="comparison", stream=True),
                "only applies to 'compile'",
            ),
            (dict(graph=GraphSpec("lattice", 64), stream_chunk=2), "requires stream"),
            (
                dict(graph=GraphSpec("lattice", 64), stream=True, stream_chunk=0),
                "stream_chunk must be",
            ),
            (
                dict(graph=GraphSpec("ghz", 64), stream=True, deadline_ms=100.0),
                "do not support deadline_ms",
            ),
        ],
    )
    def test_validation_rejections(self, kwargs, match):
        kwargs.setdefault("kind", "compile")
        with pytest.raises(ValueError, match=match):
            BatchJob(**kwargs)

    def test_run_job_streams_and_matches_materialized(self):
        job = BatchJob(
            graph=GraphSpec("lattice", 64, seed=7),
            kind="compile",
            stream=True,
            stream_chunk=2,
        )
        record = run_job(job)
        assert record["label"] == job.label
        assert record["num_qubits"] == 64
        stream = record["stream"]
        assert stream["peak_window_photons"] <= stream["window_capacity"]
        # Emitter count equals the whole-graph compile of the same spec.
        spec = make_stream_spec("lattice", 64, seed=7, chunk=2)
        reference = greedy_reduce(spec.materialize())
        assert stream["num_emitters"] == max(reference.num_emitters, 1)
        assert record["num_edges"] == spec.materialize().num_edges

    def test_run_job_ghz_uses_family_default_chunk(self):
        job = BatchJob(graph=GraphSpec("ghz", 200), kind="compile", stream=True)
        record = run_job(job)
        assert record["stream"]["num_emitters"] == 1
        assert record["num_edges"] == 199
