"""The benchmark's four workloads, their seeded inputs and correctness checks.

A workload runs *passes*.  Each pass works through one *block* of inputs
drawn from the seed and yields one ``(latency_s, vertices)`` sample per
compile, request or stream.  ``compile_warm`` repeats block 1 in every
pass; ``compile_cold`` draws new graphs for every block, ``stream_large``
new percolated specs next to its fixed lattice and GHZ specs, and
``service_mix`` sends its jobs in a new order.  The first answer to every
input is kept; a repeated input must reproduce it exactly.  Why each
workload exists is written in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from pathlib import Path

from repro import compile_graph, start_server, verify_circuit_generates
from repro.core import streaming
from repro.core.compile_cache import reset_process_cache
from repro.core.plan_scoring import score_sequence
from repro.core.reduction import ReductionSequence
from repro.core.strategies import greedy_reduce
from repro.graphs.lazy import make_stream_spec
from repro.pipeline.jobs import GraphSpec
from repro.service.client import ServiceClient, ServiceError

from perfbench.stats import tail_level


class Tally:
    """Operations attempted and failed; failures keep a short message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str = "") -> bool:
        """Count one operation; ``ok=False`` counts it as failed with ``what``."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.errors.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        """Failed over attempted (0 before anything was attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0


def seed_rng(*parts) -> random.Random:
    """A generator determined by ``parts`` alone (workload name, seed, block)."""
    return random.Random(":".join(str(part) for part in parts))


class Workload:
    """What ``run.py`` drives; subclasses define the inputs and one pass."""

    name = ""
    #: Samples a run takes at least.  The reported tail level is the highest
    #: that leaves ten of them beyond it; it is fixed per workload, so it
    #: never moves when the program gets faster or slower.
    min_samples = 40
    #: Timed passes draw a fresh block each instead of repeating block 1.
    fresh_blocks = False
    #: Blocks whose first answers make up the quality metrics.
    quality_blocks = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        #: Busy seconds measured by the passes run so far.
        self.busy_s = 0.0
        #: First answer per ``(block, input index)``.
        self.first: dict[tuple[int, int], object] = {}

    @property
    def tail(self) -> float:
        """The reported tail percentile, as a fraction."""
        return tail_level(self.min_samples)

    def items(self, block: int) -> list:
        """The seeded inputs of ``block`` (pure: same seed and block, same list)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Set-up before measuring; may run several times."""

    def run_pass(self, block: int, tally: Tally):
        """Run the inputs of ``block``, yielding ``(latency_s, vertices)`` per item."""
        raise NotImplementedError

    def trace_items(self, tracer) -> None:
        """Record a span around each item of this workload."""

    def check(self, tally: Tally) -> None:
        """Untimed correctness checks, after the measured passes."""

    def quality(self) -> dict[str, float]:
        """Paper quality metrics over the first answers of the quality blocks."""
        raise NotImplementedError

    def counts(self) -> dict[str, int]:
        """Deterministic counts (for the determinism check)."""
        return {}

    def remember(self, key, answer, same, tally: Tally, label: str) -> None:
        """Keep the first answer to ``key``; a later one must be ``same`` as it."""
        if key not in self.first:
            self.first[key] = answer
            tally.record(True)
        else:
            tally.record(same(self.first[key], answer), f"{label}: differs from its first answer")

    def quality_answers(self) -> list:
        """First answers of the quality blocks, in input order."""
        return [self.first[key] for key in sorted(self.first) if key[0] <= self.quality_blocks]


def quality_of(records) -> dict[str, float]:
    """Sum and mean of the paper's metrics over ``(ee, duration, loss, emitters)`` records."""
    records = list(records)
    return {
        "ee_cnots": sum(r[0] for r in records),
        "duration_total": sum(r[1] for r in records),
        "loss_duration_mean": sum(r[2] for r in records) / max(len(records), 1),
        "emitters_total": sum(r[3] for r in records),
    }


def same_compile(a, b) -> bool:
    """Bit-identical circuits and equal summaries, compile time aside."""
    summary_a = {k: v for k, v in a.summary().items() if k != "compile_time_seconds"}
    summary_b = {k: v for k, v in b.summary().items() if k != "compile_time_seconds"}
    return a.circuit.gates == b.circuit.gates and summary_a == summary_b


class _CompileWorkload(Workload):
    """``compile_graph`` over lists of graphs, one graph at a time."""

    verify = False
    #: ``(family, size)`` of the small graph checked against the dense oracle.
    oracle_graph = ("erdos", 24)

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.graphs: dict[int, list] = {}
        #: :meth:`record_of` the first answers of the quality blocks.
        self.records: dict[tuple[int, int], tuple] = {}

    @staticmethod
    def record_of(result) -> tuple:
        """The numbers the quality metrics and counts take from a result."""
        m = result.metrics
        return (m.num_emitter_emitter_cnots, m.duration, m.average_photon_loss_duration,
                m.num_emitters, result.num_stem_edges,
                int(result.subgraph_cache_stats["hits"]),
                int(result.subgraph_cache_stats["misses"]))

    def graphs_of(self, block: int) -> list:
        """The built graphs of ``block`` (built once, untimed)."""
        if block not in self.graphs:
            self.graphs[block] = [GraphSpec(f, n, s).build() for f, n, s in self.items(block)]
        return self.graphs[block]

    def prepare(self) -> None:
        family, size = self.oracle_graph
        compile_graph(GraphSpec(family, size, self.seed).build())  # warm-up
        reset_process_cache()
        self.graphs.clear()
        self.graphs_of(1)

    def compile_item(self, graph, rid: str):
        """Compile one input (the timed call); ``rid`` names it in the trace."""
        return compile_graph(graph, verify=self.verify)

    def before_item(self) -> None:
        """Untimed preparation before each compile."""

    def trace_items(self, tracer) -> None:
        tracer.wrap(type(self), "compile_item", "bench.item", rid_of=lambda args: args[2])

    def run_pass(self, block: int, tally: Tally):
        labels = self.items(block)
        for index, graph in enumerate(self.graphs_of(block)):
            label = f"compile {labels[index]}"
            self.before_item()
            started = time.perf_counter()
            try:
                result = self.compile_item(graph, f"b{block}-{index}")
            except Exception as exc:  # noqa: BLE001 - a failed compile is counted
                tally.record(False, f"{label}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - started
            self.busy_s += elapsed
            self.remember((block, index), result, same_compile, tally, label)
            if block <= self.quality_blocks:
                self.records.setdefault((block, index), self.record_of(result))
            yield elapsed, graph.num_vertices

    def check(self, tally: Tally) -> None:
        family, size = self.oracle_graph
        graph = GraphSpec(family, size, self.seed).build()
        self.before_item()
        fast = compile_graph(graph, verify=self.verify)
        dense = compile_graph(graph, gf2_backend="dense", subgraph_cache=False)
        tally.record(same_compile(fast, dense), f"{family}-{size} differs from the dense oracle")

    def quality(self) -> dict[str, float]:
        return quality_of(record[:4] for _, record in sorted(self.records.items()))

    def counts(self) -> dict[str, int]:
        records = self.records.values()
        return {
            "stem_edges": sum(r[4] for r in records),
            "subgraph_cache_hits": sum(r[5] for r in records),
            "subgraph_cache_misses": sum(r[6] for r in records),
        }


class CompileCold(_CompileWorkload):
    """Fresh-process compiles of dense random zoo graphs (leaf search bound).

    A block holds one graph per family and size band, its size drawn within
    the band; every timed pass draws a new block, so a run averages over
    many instances and its latencies spread smoothly over 64-108 vertices.
    """

    name = "compile_cold"
    fresh_blocks = True
    quality_blocks = 5
    families = ("random", "erdos", "smallworld", "regular")
    size_bands = ((64, 76), (96, 108))

    def items(self, block: int) -> list:
        rng = seed_rng(self.name, self.seed, block)
        items = [
            (family, rng.randint(low, high), rng.randrange(1, 2**31))
            for family in self.families
            for low, high in self.size_bands
        ]
        rng.shuffle(items)
        return items

    def before_item(self) -> None:
        reset_process_cache()

    def run_pass(self, block: int, tally: Tally):
        yield from super().run_pass(block, tally)
        # Verify each pass as it ends and then drop its graphs and circuits, so
        # peak memory does not grow with the number of passes.  Block 1 stays:
        # a traced run repeats it.
        labels = self.items(block)
        for index, graph in enumerate(self.graphs[block]):
            result = self.first.get((block, index))
            if result is None:
                continue  # the compile failed and was counted
            ok = verify_circuit_generates(
                result.circuit, graph, photon_of_vertex=result.sequence.photon_of_vertex
            )
            tally.record(ok, f"compile {labels[index]}: circuit fails verification")
        if block > 1:
            del self.graphs[block]
            for key in [key for key in self.first if key[0] == block]:
                del self.first[key]


class CompileWarm(_CompileWorkload):
    """Large repeated-leaf graphs on a filled subgraph cache, verified."""

    name = "compile_warm"
    verify = True
    oracle_graph = ("lattice", 30)
    shapes = (("lattice", 324), ("surface", 13), ("tree", 320), ("percolated", 324),
              ("regular", 320))

    def items(self, block: int) -> list:
        rng = seed_rng(self.name, self.seed)
        items = [(f, n, rng.randrange(1, 2**31)) for f, n in self.shapes]
        rng.shuffle(items)
        return items

    def prepare(self) -> None:
        super().prepare()
        for graph in self.graphs_of(1):
            compile_graph(graph)


def without_timing(record: dict, deep: bool = False) -> dict:
    """``record`` without ``seconds_*`` fields (and, ``deep``, nested compile times)."""
    out = {}
    for key, value in record.items():
        if key.startswith("seconds_") or (deep and key == "compile_time_seconds"):
            continue
        out[key] = without_timing(value, deep) if deep and isinstance(value, dict) else value
    return out


class ServiceMix(Workload):
    """Two closed-loop clients against an in-process ``start_server``.

    Each client sends first-time jobs (result-cache misses) and repeats of
    its own earlier jobs (disk-cache hits).  Every pass starts a fresh
    server on a fresh cache directory with an empty subgraph cache, so all
    passes do the same work.
    """

    name = "service_mix"
    min_samples = 200
    #: Every pass sends the same jobs in a new order, so a run averages over
    #: several interleavings of hits with the misses they may batch with.
    fresh_blocks = True
    clients = 2
    #: First-time jobs of each client: one per ``(family, size)``.
    slots = (("lattice", 36), ("lattice", 64), ("tree", 32), ("tree", 48), ("random", 24),
             ("random", 32), ("surface", 5), ("surface", 7), ("erdos", 33),
             ("smallworld", 41), ("regular", 32), ("percolated", 49))
    repeats_per_client = 18

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        #: Result-cache hits of the first pass; every pass must repeat it.
        self.first_hits: int | None = None

    def items(self, block: int) -> list:
        jobs_rng = seed_rng(self.name, self.seed)
        order_rng = seed_rng(self.name, self.seed, block)
        plans = []
        for _ in range(self.clients):
            jobs = [
                {"family": f, "size": n, "seed": jobs_rng.randrange(1, 2**31), "kind": "compile"}
                for f, n in self.slots
            ]
            order_rng.shuffle(jobs)
            kinds = [True] * (len(jobs) - 1) + [False] * self.repeats_per_client
            order_rng.shuffle(kinds)
            sequence, issued = [], 0
            for first in [True] + kinds:
                if first:
                    sequence.append((jobs[issued], True))
                    issued += 1
                else:
                    sequence.append((jobs[order_rng.randrange(issued)], False))
            plans.append(sequence)
        return plans

    def _start(self, tag: str):
        cache_dir = self.work_dir / f"service-{tag}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        reset_process_cache()
        server, thread = start_server(cache_dir=str(cache_dir), background_refine=False)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        ServiceClient(url).wait_until_ready()
        return server, thread, url, cache_dir

    @staticmethod
    def _stop(server, thread, cache_dir) -> None:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        shutil.rmtree(cache_dir, ignore_errors=True)

    def prepare(self) -> None:
        server, thread, url, cache_dir = self._start("setup")
        try:
            family, size = self.slots[0]
            ServiceClient(url).compile(family=family, size=size, kind="compile")  # warm-up
        finally:
            self._stop(server, thread, cache_dir)

    def request(self, client: ServiceClient, job: dict, rid: str) -> dict:
        """One ``POST /compile`` (the timed call)."""
        return client.compile_payload(job, headers={"X-Request-Id": rid})

    def trace_items(self, tracer) -> None:
        tracer.wrap(type(self), "request", "service.client", rid_of=lambda args: args[3])

    def run_pass(self, block: int, tally: Tally):
        plans = self.items(block)
        server, thread, url, cache_dir = self._start(f"block{block}")
        answers: list[list] = [[] for _ in plans]

        def client_loop(index: int) -> None:
            client = ServiceClient(url, timeout=120.0)
            for i, (job, first) in enumerate(plans[index]):
                started = time.perf_counter()
                try:
                    body = self.request(client, job, f"b{block}-c{index}-{i}")
                except ServiceError as exc:
                    body = {"ok": False, "error": f"HTTP {exc.status}: {exc}"}
                answers[index].append((job, first, time.perf_counter() - started, body))

        threads = [
            threading.Thread(target=client_loop, args=(i,), name=f"perfbench-client-{i}")
            for i in range(len(plans))
        ]
        started = time.perf_counter()
        try:
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join()
            self.busy_s += time.perf_counter() - started
        finally:
            self._stop(server, thread, cache_dir)

        def key_of(job):
            return job["family"], job["size"], job["seed"]

        firsts = {
            key_of(job): body["result"]
            for per_client in answers
            for job, first, _, body in per_client
            if first and body.get("ok")
        }
        hits = 0
        samples = []
        for per_client in answers:
            for job, first, elapsed, body in per_client:
                key = key_of(job)
                if not tally.record(bool(body.get("ok")), f"{key}: {body.get('error')}"):
                    continue
                hits += bool(body.get("cache_hit"))
                if first:
                    self.remember((1, key), body["result"],
                                  lambda a, b: without_timing(a, True) == without_timing(b, True),
                                  tally, f"job {key}")
                else:
                    tally.record(
                        key in firsts
                        and without_timing(body["result"]) == without_timing(firsts[key]),
                        f"job {key}: repeat differs from the first answer",
                    )
                samples.append((elapsed, body["result"]["num_qubits"]))
        if self.first_hits is None:
            self.first_hits = hits
        tally.record(hits == self.first_hits,
                     f"{hits} result-cache hits, the first pass had {self.first_hits}")
        yield from samples

    def quality(self) -> dict[str, float]:
        return quality_of(
            (r["num_emitter_emitter_cnots"], r["duration"], r["average_photon_loss_duration"],
             r["num_emitters"])
            for r in (answer["ours"] for answer in self.quality_answers())
        )

    def counts(self) -> dict[str, int]:
        return {"result_cache_hits": self.first_hits,
                "first_time_jobs": len(self.quality_answers())}


class StreamLarge(Workload):
    """``compile_stream`` on lazy lattice, GHZ and percolated specs.

    The lattice and GHZ specs do not depend on the seed and repeat in every
    pass.  Every pass draws new percolated instances with sizes inside a
    band, so a run averages over many of them: the time of one instance
    varies by up to a third from seed to seed, and the median and tail
    latencies fall inside the percolated band, not between two fixed sizes.
    Specs stay at a few thousand vertices: on a shared host whose speed
    drifts, streams of 5,000-10,000 vertices swung about twice as much from
    run to run as streams of 1,600 vertices or small compiles.
    """

    name = "stream_large"
    fresh_blocks = True
    #: ``(family, size)`` of the specs every pass repeats.
    fixed = (("lattice", 4900), ("ghz", 10000))
    percolated_band = (1600, 2500)
    percolated_per_block = 6
    #: Sizes of the specs checked against ``greedy_reduce`` on the materialised graph.
    oracle_sizes = {"lattice": 144, "percolated": 196, "ghz": 300}

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.specs: dict[int, list] = {}
        self._quality: dict[str, float] = {}

    def items(self, block: int) -> list:
        rng = seed_rng(self.name, self.seed, block)
        low, high = self.percolated_band
        return [(f, n, self.seed) for f, n in self.fixed] + [
            ("percolated", rng.randint(low, high), rng.randrange(1, 2**31))
            for _ in range(self.percolated_per_block)
        ]

    def specs_of(self, block: int) -> list:
        """The lazy specs of ``block`` (built once, untimed)."""
        if block not in self.specs:
            self.specs[block] = [make_stream_spec(f, n, seed=s) for f, n, s in self.items(block)]
        return self.specs[block]

    def key_of(self, block: int, index: int) -> tuple[int, int]:
        """Where the first answer to an input is kept: block 0 for the repeated specs."""
        return (0, index) if index < len(self.fixed) else (block, index)

    def prepare(self) -> None:
        streaming.compile_stream(make_stream_spec("percolated", 400))  # warm-up
        self.specs.clear()
        self.specs_of(1)

    def stream_item(self, spec, rid: str):
        """Stream-compile one spec (the timed call); ``rid`` names it in the trace."""
        return streaming.compile_stream(spec)

    def trace_items(self, tracer) -> None:
        tracer.wrap(type(self), "stream_item", "bench.item", rid_of=lambda args: args[2])

    @staticmethod
    def signature(result) -> tuple:
        """Everything a streamed result reports apart from its timing."""
        return (result.num_operations, result.num_emitter_emitter_gates, result.num_emitters,
                result.peak_window_photons, tuple(sorted(result.op_counts.items())))

    def run_pass(self, block: int, tally: Tally):
        labels = self.items(block)
        for index, spec in enumerate(self.specs_of(block)):
            label = f"stream {labels[index]}"
            started = time.perf_counter()
            try:
                result = self.stream_item(spec, f"b{block}-{index}")
            except Exception as exc:  # noqa: BLE001 - a failed stream is counted
                tally.record(False, f"{label}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - started
            self.busy_s += elapsed
            self.remember(self.key_of(block, index), result,
                          lambda a, b: self.signature(a) == self.signature(b), tally, label)
            yield elapsed, spec.num_vertices

    def check(self, tally: Tally) -> None:
        for family, size in self.oracle_sizes.items():
            spec = make_stream_spec(family, size, seed=self.seed)
            streamed = streaming.compile_stream(spec, collect_operations=True)
            oracle = greedy_reduce(spec.materialize())
            tally.record(streamed.operations == oracle.operations,
                         f"stream {family}-{size}: ops differ from greedy_reduce")
        # The quality metrics need the op sequence, which timed passes drop.
        records = []
        for index, spec in enumerate(self.specs_of(1)):
            streamed = streaming.compile_stream(spec, collect_operations=True)
            first = self.first.get(self.key_of(1, index))
            tally.record(first is not None and self.signature(streamed) == self.signature(first),
                         f"stream {self.items(1)[index]}: collected run differs")
            sequence = ReductionSequence(
                operations=streamed.operations,
                num_photons=streamed.num_vertices,
                num_emitters=streamed.num_emitters,
                photon_of_vertex={},
            )
            cnots, loss, duration = score_sequence(sequence)
            records.append((cnots, duration, loss, streamed.num_emitters))
        self._quality = quality_of(records)

    def quality(self) -> dict[str, float]:
        return self._quality

    def counts(self) -> dict[str, int]:
        return {"stream_operations": sum(r.num_operations for r in self.quality_answers())}


WORKLOADS = {cls.name: cls for cls in (CompileCold, CompileWarm, ServiceMix, StreamLarge)}
