"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import statistics

import pytest

from perfbench import run
from perfbench.stats import covered_length, quantile, relative_iqr, tail_level
from perfbench.tracing import Span, Tracer, child_coverage, layer_metrics, self_times
from perfbench.workloads import WORKLOADS, Tally, Workload, quality_of


# -- tail percentile --------------------------------------------------------- #


@pytest.mark.parametrize(
    "samples, level",
    [(20, 0.5), (39, 0.5), (40, 0.75), (99, 0.75), (100, 0.9), (199, 0.9), (200, 0.95),
     (1000, 0.99), (10_000, 0.999)],
)
def test_tail_level_is_highest_with_ten_beyond(samples, level):
    assert tail_level(samples) == level
    assert samples * (1 - level) >= 10 - 1e-9


def test_tail_level_needs_twenty_samples():
    with pytest.raises(ValueError):
        tail_level(19)


def test_quantile_interpolates_like_numpy():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert quantile(values, 0.5) == 3.0
    assert quantile(values, 0.75) == 4.0
    assert quantile(values, 0.9) == pytest.approx(4.6)
    assert quantile([7.0], 0.95) == 7.0


def test_relative_iqr_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.5, 8.9, 10.1]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_iqr(values) == pytest.approx((q3 - q1) / q2)


# -- self time ------------------------------------------------------------- #


def _span(sid, name, start, end, parent=None, epoch=1, rid=None, **attrs):
    span = Span(sid, name, start, parent, rid, epoch)
    span.end = end
    span.attrs.update(attrs)
    return span


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length(0, 10, []) == 0
    assert covered_length(0, 10, [(1, 3), (2, 5)]) == 4  # overlapping
    assert covered_length(0, 10, [(1, 5), (2, 3)]) == 4  # nested
    assert covered_length(0, 10, [(-5, 2), (9, 20)]) == 3  # sticking out
    assert covered_length(0, 10, [(1, 2), (4, 6)]) == 3  # disjoint


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=1),  # overlaps a (other thread)
        _span(4, "a.inner", 2.0, 3.0, parent=2),  # grandchild: not root's child
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert child_coverage(spans, "root") == [pytest.approx(0.5)]


def test_tracer_records_parents_and_request_ids():
    tracer = Tracer()
    outer = tracer.begin("outer", rid="r1")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert inner.parent == outer.sid and inner.rid == "r1"
    assert outer.parent is None
    assert [s.name for s in tracer.spans] == ["inner", "outer"]


def test_tracer_wraps_and_restores_a_class_method():
    class Layer:
        def work(self, x):
            return x * 2

    tracer = Tracer()
    tracer.wrap(Layer, "work", "layer.work", observe=lambda span, args, r: span.attrs.update(r=r))
    assert Layer().work(21) == 42
    tracer.uninstall()
    assert "work" in Layer.__dict__ and not hasattr(Layer.work, "__wrapped__")
    assert [(s.name, s.attrs["r"]) for s in tracer.spans] == [("layer.work", 42)]


def test_layer_metrics_counts_first_epoch_and_averages_time():
    spans = [
        _span(1, "core.compiler", 0.0, 2.0, epoch=1),
        _span(2, "core.subgraph_compiler", 0.0, 1.5, parent=1, epoch=1),
        _span(3, "core.compile_cache", 0.1, 0.2, parent=2, epoch=1, hit=True),
        _span(4, "core.compile_cache", 0.3, 0.4, parent=2, epoch=1, hit=False),
        _span(5, "core.compiler", 5.0, 6.0, epoch=2),
        _span(6, "core.compile_cache", 5.1, 5.2, parent=5, epoch=2, hit=True),
    ]
    m = layer_metrics(spans, items=2, count_epoch=1)
    assert m["core.compiler.calls"] == 1
    assert m["core.compiler.s"] == pytest.approx(1.5)  # (2 + 1) s over 2 items
    assert m["core.compiler.self_s"] == pytest.approx((0.5 + 0.9) / 2)
    assert (m["core.compile_cache.hits"], m["core.compile_cache.misses"]) == (1, 1)
    assert m["core.compile_cache.hit_ratio"] == 0.5


def test_batcher_wait_and_front_end_split_request_latency():
    spans = [
        _span(1, "service.client", 0.0, 1.0, rid="r"),
        _span(2, "service.server", 0.1, 0.9, rid="r"),
        _span(3, "service.batcher", 0.15, 0.85, parent=2, rid="r"),
        _span(4, "pipeline.runner", 0.5, 0.8, members=["r", "other"], batch_size=2),
    ]
    m = layer_metrics(spans, items=1, count_epoch=1)
    assert m["service.front_end.s"] == pytest.approx(0.2)
    assert m["service.batcher.wait_s"] == pytest.approx(0.7 - 0.3)
    assert m["service.batcher.batch_size_mean"] == 2


# -- failure counting -------------------------------------------------------- #


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert tally.record(True) is True
    assert tally.record(False, "boom") is False
    tally.record(True)
    assert (tally.attempted, tally.failed, tally.errors) == (3, 1, ["boom"])
    assert tally.failed_frac == pytest.approx(1 / 3)


def test_a_changed_answer_to_a_repeated_input_is_a_failure():
    workload = object.__new__(Workload)
    workload.first = {}
    tally = Tally()
    workload.remember((1, 0), 5, int.__eq__, tally, "item")
    workload.remember((1, 0), 5, int.__eq__, tally, "item")
    workload.remember((1, 0), 6, int.__eq__, tally, "item")
    assert (tally.attempted, tally.failed) == (3, 1)


class _FailingWorkload(Workload):
    name = "failing"
    min_samples = 20

    def items(self, block):
        return list(range(5))

    def run_pass(self, block, tally):
        for _ in self.items(block):
            tally.record(True)
            self.busy_s += 0.001
            yield 0.001, 1

    def check(self, tally):
        tally.record(False, "oracle mismatch")

    def quality(self):
        return quality_of([(1, 2.0, 3.0, 4)])


def test_a_failed_check_makes_the_command_fail(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(WORKLOADS, "failing", _FailingWorkload)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "failing", "--seed", "1", "--seconds", "0.01"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert result["attempted"] >= 21
    spec = json.loads(run.SPEC_FILE.read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


class _BrokenWorkload(_FailingWorkload):
    name = "broken"

    def run_pass(self, block, tally):
        for item in self.items(block):
            tally.record(False, f"item {item} raised")
        yield from ()


def test_a_run_where_nothing_succeeds_fails_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(WORKLOADS, "broken", _BrokenWorkload)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    with pytest.raises(SystemExit, match="no item succeeded"):
        run.main(["--workload", "broken", "--seed", "1", "--seconds", "0.01"])
    assert capsys.readouterr().out == ""


def test_a_nondeterministic_rerun_is_flagged(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = run.parse_args(["--workload", "w", "--seed", "3", "--seconds", "1"])
    info = {"source_sha256": "a" * 64, "bench_sha256": "b" * 64}
    first, second = Tally(), Tally()
    assert run.check_determinism(args, info, {"ee_cnots": 10, "calls": 4}, first) == []
    assert run.check_determinism(args, info, {"ee_cnots": 10, "calls": 5}, second) == ["calls"]
    assert (first.failed, second.failed) == (0, 1)


# -- seeded inputs ----------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    cls = WORKLOADS[name]
    assert cls(7, tmp_path).items(1) == cls(7, tmp_path).items(1)
    assert cls(7, tmp_path).items(1) != cls(8, tmp_path).items(1)
    if cls.fresh_blocks:
        assert cls(7, tmp_path).items(2) != cls(7, tmp_path).items(1)
        assert cls(7, tmp_path).items(2) == cls(7, tmp_path).items(2)


def test_service_repeats_only_jobs_their_client_already_sent(tmp_path):
    for plan in WORKLOADS["service_mix"](5, tmp_path).items(1):
        sent = []
        for job, first in plan:
            assert (job in sent) != first
            if first:
                sent.append(job)
