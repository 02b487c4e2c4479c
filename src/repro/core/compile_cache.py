"""The isomorphism-memoized subgraph compile cache.

The partitioner emits the same small leaf graph over and over up to vertex
relabeling; :class:`SubgraphCompileCache` memoizes the per-leaf ordering
search so every isomorphic copy after the first is answered by remapping a
cached result instead of re-searching.  Three tiers:

1. **per-process LRU** (:func:`get_process_cache`) — shared by every
   :class:`repro.core.subgraph_compiler.SubgraphCompiler` in the process, so
   batch-pipeline workers reuse results *across jobs* for free;
2. **optional disk tier** — a :class:`repro.pipeline.cache.ResultCache`
   directory (``REPRO_SUBGRAPH_CACHE_DIR`` or ``repro serve
   --subgraph-cache-dir``) that persists entries across processes and
   restarts, which is what keeps ``repro serve`` warm after a redeploy;
3. **the content-hash job cache** (unchanged, one level up) — whole job
   records; the subgraph tier accelerates the misses of that tier.

Entries are stored *in canonical labels* (see
:mod:`repro.graphs.canonical_form`): the winning processing order, the
reduction op sequence, and the scored metrics.  The compiler remaps them
through the canonical permutation on every hit; remapped circuits are
bit-identical to a fresh compile modulo the relabeling, because the search
itself runs in canonical space (cache on or off).

Cache keys are ``(canonical key, emitter budget, seeded order,
config fingerprint)`` where the fingerprint covers exactly the
:class:`repro.core.config.CompilerConfig` fields that influence the search
and the reported metrics — and deliberately *not* the GF(2) backend (packed
and dense produce bit-identical sequences) or the cache switch itself.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.circuit.circuit import Circuit
from repro.circuit.metrics import CircuitMetrics
from repro.core.reduction import ReductionOp, ReductionOpType, ReductionSequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.config import CompilerConfig

__all__ = [
    "CacheStats",
    "CachedCompilation",
    "SubgraphCompileCache",
    "config_fingerprint",
    "get_process_cache",
    "peek_process_cache",
    "reset_process_cache",
]

#: Bump when the entry layout or the search semantics change; stale disk
#: entries with another version are ignored (treated as misses).
CACHE_SCHEMA_VERSION = 2

#: Environment variable naming the persistent disk-tier directory.  Read at
#: process-cache creation time so ``ProcessPoolExecutor`` workers (which
#: inherit the environment) pick the tier up without extra plumbing.
CACHE_DIR_ENV = "REPRO_SUBGRAPH_CACHE_DIR"

DEFAULT_CAPACITY = 4096


@dataclass
class CacheStats:
    """Counters of one :class:`SubgraphCompileCache`.

    ``hits``/``misses`` count logical lookups; ``disk_hits`` is the subset of
    hits answered by the persistent tier (also counted in ``hits``).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for ``/metrics``, benches and result objects."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
        }

    def delta(self, since: "CacheStats") -> dict[str, float]:
        """Counter difference ``self - since`` (for per-compile reporting)."""
        hits = self.hits - since.hits
        misses = self.misses - since.misses
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": self.evictions - since.evictions,
            "disk_hits": self.disk_hits - since.disk_hits,
            "stores": self.stores - since.stores,
            "hit_rate": hits / lookups if lookups else 0.0,
        }

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            disk_hits=self.disk_hits,
            stores=self.stores,
        )


@dataclass
class CachedCompilation:
    """One memoized leaf compilation, in canonical labels.

    ``search_max_emitters`` is ``min(largest emitter pool any candidate of
    the search allocated, emitter budget)``; when it is strictly below the
    budget the search never felt budget pressure, so the identical result is
    provably optimal for every larger budget too (the flexible-constraint
    skip).  It is capped at the budget because the search stops looking at
    allocations once one candidate reaches the budget (schema version 2; a
    version-1 entry stored the uncapped maximum).
    """

    processing_order: tuple[int, ...]
    operations: tuple[ReductionOp, ...]
    num_photons: int
    num_emitters: int
    emitters_over_budget: int
    metrics: CircuitMetrics
    orders_evaluated: int
    search_max_emitters: int
    _circuit: Circuit | None = field(default=None, repr=False, compare=False)

    def circuit(self) -> Circuit:
        """The forward circuit in canonical labels (built once, then shared)."""
        if self._circuit is None:
            self._circuit = self.canonical_sequence().to_circuit()
        return self._circuit

    def canonical_sequence(self) -> ReductionSequence:
        """The op sequence with the identity canonical-label photon map."""
        return ReductionSequence(
            operations=list(self.operations),
            num_photons=self.num_photons,
            num_emitters=self.num_emitters,
            photon_of_vertex={i: i for i in range(self.num_photons)},
            emitters_over_budget=self.emitters_over_budget,
        )

    # ------------------------------------------------------------------ #
    # Disk-tier (de)serialisation
    # ------------------------------------------------------------------ #

    def as_dict(self) -> dict:
        """JSON-serialisable form for the persistent tier."""
        return {
            "schema_version": CACHE_SCHEMA_VERSION,
            "processing_order": list(self.processing_order),
            "operations": [
                [op.op_type.value, op.emitter, op.emitter_b, op.photon, op.tag]
                for op in self.operations
            ],
            "num_photons": self.num_photons,
            "num_emitters": self.num_emitters,
            "emitters_over_budget": self.emitters_over_budget,
            "metrics": self.metrics.as_dict(),
            "orders_evaluated": self.orders_evaluated,
            "search_max_emitters": self.search_max_emitters,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CachedCompilation":
        """Rebuild an entry; raises on any shape/version mismatch."""
        if data.get("schema_version") != CACHE_SCHEMA_VERSION:
            raise ValueError("stale subgraph-cache schema version")
        operations = tuple(
            ReductionOp(
                op_type=ReductionOpType(op_type),
                emitter=emitter,
                emitter_b=emitter_b,
                photon=photon,
                tag=tag,
            )
            for op_type, emitter, emitter_b, photon, tag in data["operations"]
        )
        return cls(
            processing_order=tuple(int(v) for v in data["processing_order"]),
            operations=operations,
            num_photons=int(data["num_photons"]),
            num_emitters=int(data["num_emitters"]),
            emitters_over_budget=int(data["emitters_over_budget"]),
            metrics=CircuitMetrics(**data["metrics"]),
            orders_evaluated=int(data["orders_evaluated"]),
            search_max_emitters=int(data["search_max_emitters"]),
        )


def config_fingerprint(config: "CompilerConfig") -> tuple:
    """The search-relevant fingerprint of a :class:`CompilerConfig`.

    Covers every field that changes the canonical-space ordering search or
    the reported metrics.  Deliberately excluded: the GF(2) backend (packed
    and dense are bit-identical by construction), the partitioning knobs
    (leaves are compiled as given) and the ``subgraph_cache`` switch itself
    (it must never change results).
    """
    durations = config.hardware.durations
    return (
        config.max_order_candidates,
        config.exhaustive_order_threshold,
        config.ordering_strategy,
        config.ordering_iterations,
        config.seed,
        durations.emitter_emitter_gate,
        durations.emission,
        durations.emitter_single_qubit,
        durations.photon_single_qubit,
        durations.measurement,
        durations.reset,
    )


def _key_digest(key: tuple) -> str:
    """Filename-safe digest of a full cache key (disk-tier file name)."""
    return "sg-" + hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class SubgraphCompileCache:
    """A bounded LRU of :class:`CachedCompilation` entries, optionally disk-backed.

    Parameters
    ----------
    capacity : int, optional
        Maximum in-memory entries; the least recently used entry is evicted
        beyond it.
    disk_dir : str | None, optional
        Directory for the persistent tier (a
        :class:`repro.pipeline.cache.ResultCache`); ``None`` keeps the cache
        memory-only.

    Notes
    -----
    Thread-safe: the compile service looks entries up from several request
    threads at once.  Keys never map to two different values (the search is
    a pure function of the key), so races at worst duplicate work.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, disk_dir: str | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, CachedCompilation] = OrderedDict()
        self._lock = threading.Lock()
        self._disk = None
        if disk_dir is not None:
            from repro.pipeline.cache import ResultCache

            self._disk = ResultCache(disk_dir)

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def disk_enabled(self) -> bool:
        return self._disk is not None

    def disk_stats(self) -> dict | None:
        """Disk-tier counters and breaker state (``None`` when memory-only).

        Surfaces the corruption-quarantine and circuit-breaker counters of
        the underlying :class:`repro.pipeline.cache.ResultCache`, so
        ``/metrics`` can report a degraded (memory-only) subgraph tier.
        """
        disk = self._disk
        return disk.stats() if disk is not None else None

    def attach_disk(self, disk_dir: str) -> None:
        """Attach (or replace) the persistent tier on a live cache.

        Existing in-memory entries are not backfilled; future stores write
        through and future misses consult the new directory.  This is what
        lets a service configure its disk tier even when earlier compiles in
        the process already created the shared cache memory-only.
        """
        from repro.pipeline.cache import ResultCache

        with self._lock:
            self._disk = ResultCache(disk_dir)

    def get(self, key: tuple) -> CachedCompilation | None:
        """Look ``key`` up in the memory tier, then the disk tier."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
        entry = self._load_from_disk(key)
        with self._lock:
            if entry is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._store(key, entry)
        return entry

    def put(self, key: tuple, entry: CachedCompilation) -> None:
        """Insert ``entry`` (write-through to the disk tier when enabled)."""
        with self._lock:
            self.stats.stores += 1
            self._store(key, entry)
        if self._disk is not None:
            self._disk.put(_key_digest(key), entry.as_dict())

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters (tests/benches)."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    # ------------------------------------------------------------------ #

    def _store(self, key: tuple, entry: CachedCompilation) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _load_from_disk(self, key: tuple) -> CachedCompilation | None:
        if self._disk is None:
            return None
        data = self._disk.get(_key_digest(key))
        if data is None:
            return None
        try:
            return CachedCompilation.from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None


# --------------------------------------------------------------------------- #
# The process-wide cache (tier 1)
# --------------------------------------------------------------------------- #

_process_cache: SubgraphCompileCache | None = None
_process_lock = threading.Lock()


def get_process_cache(disk_dir: str | None = None) -> SubgraphCompileCache:
    """The shared per-process cache of ``DEFAULT_CAPACITY`` entries, made on first use.

    Parameters
    ----------
    disk_dir : str | None, optional
        Persistent-tier directory; defaults to the ``REPRO_SUBGRAPH_CACHE_DIR``
        environment variable (read only when the cache is first created).
        Passing it explicitly for an already-created cache attaches the tier
        via :meth:`SubgraphCompileCache.attach_disk`.
    """
    global _process_cache
    with _process_lock:
        if _process_cache is None:
            import os

            directory = disk_dir if disk_dir is not None else os.environ.get(CACHE_DIR_ENV)
            _process_cache = SubgraphCompileCache(disk_dir=directory or None)
        elif disk_dir is not None:
            _process_cache.attach_disk(disk_dir)
        return _process_cache


def peek_process_cache() -> SubgraphCompileCache | None:
    """The shared cache if one exists, without creating it (``/metrics``)."""
    return _process_cache


def reset_process_cache() -> None:
    """Forget the shared cache (tests and cold-vs-warm benchmarks)."""
    global _process_cache
    with _process_lock:
        _process_cache = None
