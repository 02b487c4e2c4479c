"""Spans recorded from outside the program, around calls into its layers.

The traced run replaces layer entry points (module functions and class
methods of ``repro``) with wrappers that record one :class:`Span` per call:
name, start, end, parent span and request id.  Spans stay in memory and are
written out when the run ends.  Nothing under ``src/`` is modified; the
wrappers are removed again by :meth:`Tracer.uninstall`.

Timing runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

from perfbench.stats import covered_length

#: The span whose children must cover the compile (see the coverage check).
COMPILE_SPAN = "core.compiler"


class Span:
    """One call into a layer."""

    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "epoch", "attrs")

    def __init__(self, sid, name, start, parent, rid, epoch):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.epoch = epoch
        self.attrs = {}

    @property
    def duration(self) -> float:
        """Wall seconds between entry and exit."""
        return self.end - self.start

    def as_dict(self) -> dict:
        """JSON view, as written to the span file."""
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rid": self.rid,
            "epoch": self.epoch,
            **self.attrs,
        }


class Tracer:
    """Record spans in memory; patch and restore layer entry points."""

    def __init__(self):
        self.spans: list[Span] = []
        #: Stamped on every span; ``run.py`` sets it to the traced pass number.
        self.epoch = 0
        #: ``id(job) -> request id``, so spans on the batcher's thread can be
        #: tied to the request that submitted the job.
        self.job_rids: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------ #

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid=None) -> Span:
        """Open a span on this thread; its parent is the innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent.sid if parent is not None else None,
            rid,
            self.epoch,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` (the innermost open span of this thread)."""
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- patching --------------------------------------------------------- #

    def wrap(self, owner, attr: str, name: str, enter=None, observe=None, rid_of=None):
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` is a class (the method is replaced on the class) or a
        module name (the function is replaced in every loaded ``repro``
        module that bound it by name).  ``rid_of(args)`` gives the span a request
        id, ``enter(span, args)`` runs when it opens and
        ``observe(span, args, result)`` when the call returns.  A missing
        attribute is reported on stderr and skipped, so a renamed layer
        shows up as a gap in the trace rather than a crash.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = getattr(owner, attr, None)
        if original is None:
            print(f"perfbench: trace point {name} ({attr}) not found; skipped",
                  file=sys.stderr)
            return
        tracer = self

        def note(hook, *hook_args):
            # A hook that no longer fits the program marks the span; it must
            # never change what the traced call returns or raises.
            try:
                hook(*hook_args)
            except Exception as exc:  # noqa: BLE001 - instrumentation boundary
                hook_args[0].attrs["trace_error"] = f"{type(exc).__name__}: {exc}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name, rid_of(args) if rid_of is not None else None)
            try:
                if enter is not None:
                    note(enter, span, args)
                result = original(*args, **kwargs)
                if observe is not None:
                    note(observe, span, args, result)
                return result
            finally:
                tracer.end(span)

        if isinstance(owner, type):
            self._patches.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "repro":
                continue
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # the class inherited it
            else:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every measured layer."""
    from repro.core.compile_cache import SubgraphCompileCache
    from repro.core.compiler import EmitterCompiler
    from repro.core.partition import GraphPartitioner
    from repro.core.scheduler import SubgraphScheduler
    from repro.core.subgraph_compiler import SubgraphCompiler
    from repro.graphs.graph_state import GraphState
    from repro.pipeline.cache import ResultCache
    from repro.pipeline.runner import BatchRunner
    from repro.service.batcher import MicroBatcher
    from repro.service.server import CompileService, _Handler

    def set_attrs(**extract):
        def observe(span, args, result):
            for key, get in extract.items():
                span.attrs[key] = get(result)
        return observe

    def hit(span, args, result):
        span.attrs["hit"] = result is not None

    def remember_job(span, args):
        tracer.job_rids[id(args[1])] = span.rid

    def batch_members(span, args):
        span.attrs["members"] = [tracer.job_rids.get(id(job)) for job in args[1]]

    # Compile path.
    tracer.wrap(EmitterCompiler, "compile", COMPILE_SPAN)
    tracer.wrap(GraphPartitioner, "partition", "core.partition", observe=set_attrs(
        stem_edges=lambda r: r.num_stem_edges,
        lc_ops=lambda r: len(r.lc_operations),
        blocks=lambda r: r.num_blocks,
    ))
    tracer.wrap("repro.graphs.entanglement", "minimum_emitters", "graphs.entanglement")
    tracer.wrap(GraphState, "induced_subgraph", "graphs.graph_state.induced_subgraph")
    tracer.wrap(SubgraphCompiler, "compile_flexible", "core.subgraph_compiler")
    tracer.wrap("repro.core.strategies", "greedy_reduce", "core.strategies.greedy_reduce")
    tracer.wrap("repro.core.plan_scoring", "score_sequence",
                "core.plan_scoring.score_sequence")
    tracer.wrap("repro.graphs.canonical_form", "canonical_form", "graphs.canonical_form")
    tracer.wrap(SubgraphCompileCache, "get", "core.compile_cache", observe=hit)
    tracer.wrap(SubgraphScheduler, "schedule", "core.scheduler")
    # Recombination, global reduction and LC correction have no public entry
    # point; these private stage methods are their boundaries in the compile.
    tracer.wrap(EmitterCompiler, "_candidate_processing_plans", "core.compiler.recombination")
    tracer.wrap(EmitterCompiler, "_best_global_reduction", "core.compiler.global_reduction")
    tracer.wrap(EmitterCompiler, "_append_lc_corrections", "core.compiler.lc_correction")
    tracer.wrap("repro.circuit.timing", "schedule_circuit", "circuit.timing")
    tracer.wrap("repro.circuit.metrics", "compute_metrics", "circuit.metrics")
    tracer.wrap("repro.circuit.validation", "verify_circuit_generates", "circuit.validation")
    # Streaming.
    tracer.wrap("repro.core.streaming", "compile_stream", "core.streaming",
                observe=set_attrs(
                    regions=lambda r: r.num_regions,
                    peak_window_photons=lambda r: r.peak_window_photons,
                    emitters=lambda r: r.num_emitters,
                ))
    # Service and pipeline.
    tracer.wrap(_Handler, "do_POST", "service.http",
                rid_of=lambda args: args[0].headers.get("X-Request-Id"))
    tracer.wrap(CompileService, "compile", "service.server")
    tracer.wrap(MicroBatcher, "submit", "service.batcher", enter=remember_job)
    tracer.wrap(BatchRunner, "run", "pipeline.runner", enter=batch_members,
                observe=set_attrs(batch_size=lambda r: r.num_jobs))
    tracer.wrap("repro.pipeline.jobs", "run_job", "pipeline.jobs.run_job",
                rid_of=lambda args: tracer.job_rids.get(id(args[0])))
    tracer.wrap(ResultCache, "get", "pipeline.cache.get", observe=hit)
    tracer.wrap(ResultCache, "put", "pipeline.cache.put")


# --------------------------------------------------------------------------- #
# From spans to per-layer metrics
# --------------------------------------------------------------------------- #


def self_times(spans) -> dict[int, float]:
    """``span id -> duration minus the part of it its child spans cover``."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - covered_length(span.start, span.end, children[span.sid])
        for span in spans
    }


def child_coverage(spans, name: str = COMPILE_SPAN) -> list[float]:
    """Share of each ``name`` span covered by its children."""
    own = self_times(spans)
    return [1.0 - own[s.sid] / s.duration for s in spans if s.name == name and s.duration > 0]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, items: int, count_epoch: int) -> dict[str, float]:
    """Per-layer metrics from the traced passes.

    Times (``*.s``, ``*.self_s``, ``*_s``) are seconds per workload item,
    averaged over every traced pass.  Counts come from the pass stamped
    ``count_epoch`` alone, so they are exact and repeat run to run.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    first = {name: [s for s in group if s.epoch == count_epoch] for name, group in by_name.items()}

    def total(name):
        return sum(s.duration for s in by_name[name]) / items

    def self_total(name):
        return sum(own[s.sid] for s in by_name[name]) / items

    def calls(name):
        return len(first.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in first.get(name, ()))

    def hits_misses(name):
        hits = sum(1 for s in first.get(name, ()) if s.attrs.get("hit"))
        return hits, calls(name) - hits

    m: dict[str, float] = {}
    m["core.compiler.s"] = total(COMPILE_SPAN)
    m["core.compiler.self_s"] = self_total(COMPILE_SPAN)
    m["core.compiler.calls"] = calls(COMPILE_SPAN)
    m["core.compiler.global_reduction.s"] = total("core.compiler.global_reduction")
    m["core.compiler.global_reduction.self_s"] = self_total("core.compiler.global_reduction")
    m["core.compiler.lc_correction.s"] = total("core.compiler.lc_correction")
    m["core.compiler.recombination.s"] = total("core.compiler.recombination")
    m["graphs.graph_state.induced_subgraph.s"] = total("graphs.graph_state.induced_subgraph")
    m["core.partition.s"] = total("core.partition")
    m["core.partition.self_s"] = self_total("core.partition")
    m["core.partition.stem_edges"] = attr_sum("core.partition", "stem_edges")
    m["core.partition.lc_ops"] = attr_sum("core.partition", "lc_ops")
    m["core.partition.blocks"] = attr_sum("core.partition", "blocks")
    m["graphs.entanglement.s"] = total("graphs.entanglement")
    m["core.subgraph_compiler.s"] = total("core.subgraph_compiler")
    m["core.subgraph_compiler.self_s"] = self_total("core.subgraph_compiler")
    m["core.subgraph_compiler.leaves"] = calls("core.subgraph_compiler")
    m["core.strategies.greedy_reduce.calls"] = calls("core.strategies.greedy_reduce")
    m["core.strategies.greedy_reduce.s"] = total("core.strategies.greedy_reduce")
    m["core.plan_scoring.score_sequence.calls"] = calls("core.plan_scoring.score_sequence")
    m["core.plan_scoring.score_sequence.s"] = total("core.plan_scoring.score_sequence")
    m["graphs.canonical_form.s"] = total("graphs.canonical_form")
    m["graphs.canonical_form.calls"] = calls("graphs.canonical_form")
    hits, misses = hits_misses("core.compile_cache")
    m["core.compile_cache.hits"] = hits
    m["core.compile_cache.misses"] = misses
    m["core.compile_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["core.scheduler.s"] = total("core.scheduler")
    m["circuit.timing.s"] = total("circuit.timing")
    m["circuit.metrics.s"] = total("circuit.metrics")
    m["circuit.metrics.self_s"] = self_total("circuit.metrics")
    m["circuit.validation.s"] = total("circuit.validation")
    m["core.streaming.s"] = total("core.streaming")
    m["core.streaming.regions"] = attr_sum("core.streaming", "regions")
    m["core.streaming.peak_window_photons"] = max(
        (s.attrs["peak_window_photons"] for s in first.get("core.streaming", ())), default=0
    )
    m["core.streaming.emitters"] = attr_sum("core.streaming", "emitters")
    m["pipeline.jobs.run_job.calls"] = calls("pipeline.jobs.run_job")
    m["pipeline.jobs.run_job.s"] = total("pipeline.jobs.run_job")
    m["pipeline.jobs.run_job.self_s"] = self_total("pipeline.jobs.run_job")
    m["pipeline.cache.get_s"] = total("pipeline.cache.get")
    m["pipeline.cache.put_s"] = total("pipeline.cache.put")
    hits, misses = hits_misses("pipeline.cache.get")
    m["pipeline.cache.hits"] = hits
    m["pipeline.cache.misses"] = misses
    m["pipeline.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["service.server.s"] = total("service.server")
    m["service.batcher.wait_s"] = _batcher_wait(by_name) / items
    m["service.batcher.batch_size_mean"] = _mean(
        s.attrs.get("batch_size", 0) for s in by_name["pipeline.runner"]
    )
    m["service.front_end.s"] = _front_end(by_name) / items
    return m


def _batcher_wait(by_name) -> float:
    """Total ``MicroBatcher.submit`` time minus the runner span of each job's batch."""
    runs = by_name["pipeline.runner"]
    total = 0.0
    for submit in by_name["service.batcher"]:
        total += submit.duration
        for run in runs:
            if (submit.rid in run.attrs.get("members", ())
                    and submit.start <= run.start and run.end <= submit.end):
                total -= run.duration
                break
    return total


def _front_end(by_name) -> float:
    """Total client latency minus the ``CompileService.compile`` span, per request."""
    server = {s.rid: s.duration for s in by_name["service.server"] if s.rid is not None}
    return sum(
        client.duration - server[client.rid]
        for client in by_name["service.client"]
        if client.rid in server
    )
