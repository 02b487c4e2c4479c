"""Content-addressed JSON result cache for batch jobs.

Each cached entry is one JSON file named after the job's SHA-256 content
hash.  The cache is deliberately dumb — no locking, no eviction — because
entries are immutable (a key never maps to two different results, by
construction of the content hash) and writes are atomic (``os.replace`` of a
temp file), so concurrent workers can only ever race to write identical
bytes.

Two hardening layers sit on top of that simplicity:

* **Corruption safety** — every entry carries a SHA-256 checksum of its
  result payload, verified on read.  An entry that fails to parse or to
  verify is *quarantined* (moved to ``<cache>/corrupt/``) with a
  structured log event and counted in :meth:`ResultCache.stats`, so a
  bit-flipped file can neither be served as a circuit nor silently miss
  forever.
* **A disk circuit breaker** — after ``breaker_threshold`` *consecutive*
  I/O failures the cache stops touching the disk entirely (reads miss,
  writes are skipped) until ``breaker_cooldown_seconds`` elapse, then
  lets a single half-open probe through.  A dying disk degrades the
  service to memory-only instead of adding one error per request.

Disk I/O is wrapped in the ``disk_cache.read`` / ``disk_cache.write``
fault points (:mod:`repro.utils.faults`), so every failure mode above is
deterministically injectable in tests and CI.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path

from repro.utils.faults import FaultPoint

__all__ = ["DiskCircuitBreaker", "ResultCache"]

_FAULT_READ = FaultPoint("disk_cache.read")
_FAULT_WRITE = FaultPoint("disk_cache.write")


def _log_event(event: str, **fields) -> None:
    # Lazy import: the pipeline layer must not hard-depend on the service
    # layer at import time (metrics itself is stdlib-only).
    from repro.service.metrics import log_event

    log_event(event, **fields)


def result_checksum(result: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a result payload."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class DiskCircuitBreaker:
    """Consecutive-failure breaker with a half-open probe.

    States: ``closed`` (normal), ``open`` (disk bypassed until the
    cooldown expires), ``half_open`` (exactly one probe in flight; its
    outcome closes or re-opens the breaker).

    Parameters
    ----------
    threshold : int
        Consecutive failures that trip the breaker open.
    cooldown_seconds : float
        How long the breaker stays open before allowing a probe.
    """

    def __init__(self, threshold: int = 5, cooldown_seconds: float = 30.0):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if cooldown_seconds <= 0:
            raise ValueError("breaker cooldown must be > 0")
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._open_until = 0.0
        self.opens = 0

    @property
    def state(self) -> str:
        """Current state: ``closed``, ``open`` or ``half_open``."""
        with self._lock:
            return self._state

    @property
    def is_open(self) -> bool:
        """Whether disk traffic is currently being bypassed."""
        return self.state != "closed"

    def allow(self) -> bool:
        """Whether the caller may touch the disk right now."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open" and time.monotonic() >= self._open_until:
                # One probe: further calls see half_open and are refused
                # until the probe reports success or failure.
                self._state = "half_open"
                return True
            return False

    def record_success(self) -> None:
        """Note a successful disk operation: close the breaker."""
        with self._lock:
            self._consecutive_failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        """Note a failed disk operation; may trip the breaker open."""
        with self._lock:
            self._consecutive_failures += 1
            tripped = (
                self._state == "half_open"
                or self._consecutive_failures >= self.threshold
            )
            if tripped and self._state != "open":
                self._state = "open"
                self._open_until = time.monotonic() + self.cooldown_seconds
                self.opens += 1

    def snapshot(self) -> dict:
        """Observability view for ``/metrics``."""
        with self._lock:
            return {
                "state": self._state,
                "open": self._state != "closed",
                "opens": self.opens,
                "consecutive_failures": self._consecutive_failures,
                "threshold": self.threshold,
                "cooldown_seconds": self.cooldown_seconds,
            }


class ResultCache:
    """A directory of checksummed ``<content-hash>.json`` job results.

    Parameters
    ----------
    cache_dir : str | Path
        Directory to store entries in (created on first write).
    breaker_threshold : int
        Consecutive disk failures before the circuit breaker opens.
    breaker_cooldown_seconds : float
        How long the breaker bypasses the disk before a half-open probe.

    Attributes
    ----------
    hits : int
        Number of successful :meth:`get` lookups.
    misses : int
        Number of :meth:`get` lookups that found nothing.
    corrupt_entries : int
        Entries that failed checksum/shape validation and were quarantined.
    disk_errors : int
        I/O failures (reads and writes) observed by the breaker.
    """

    CORRUPT_DIR = "corrupt"

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        breaker_threshold: int = 5,
        breaker_cooldown_seconds: float = 30.0,
    ):
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0
        self.corrupt_entries = 0
        self.disk_errors = 0
        self.breaker = DiskCircuitBreaker(
            threshold=breaker_threshold, cooldown_seconds=breaker_cooldown_seconds
        )

    def _path(self, key: str) -> Path:
        if not key or any(ch in key for ch in "/\\"):
            raise ValueError(f"invalid cache key {key!r}")
        return self.cache_dir / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Return the cached result for ``key``, or ``None``.

        A missing entry is a plain miss.  An I/O failure counts against
        the circuit breaker.  A corrupt entry (unparseable JSON, missing
        fields, key or checksum mismatch) is quarantined to
        ``<cache>/corrupt/`` with a structured log event — it will never
        be served, and never silently miss again.
        """
        path = self._path(key)
        if not self.breaker.allow():
            self.misses += 1
            return None
        try:
            raw = path.read_bytes()
            raw = _FAULT_READ.hit(context=key, data=raw)
        except FileNotFoundError:
            # A missing file is a miss, not a disk failure.
            self.misses += 1
            return None
        except OSError as exc:
            self._record_disk_error("read", key, exc)
            self.misses += 1
            return None
        self.breaker.record_success()
        result = self._validate(key, path, raw)
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _validate(self, key: str, path: Path, raw: bytes) -> dict | None:
        """Parse and checksum-verify an entry; quarantine it on failure."""
        reason = None
        result = None
        try:
            entry = json.loads(raw)
            result = entry["result"]
            if entry["key"] != key:
                reason = "key mismatch"
            elif entry["sha256"] != result_checksum(result):
                reason = "checksum mismatch"
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unparseable entry: {exc}"
        if reason is None:
            return result
        self._quarantine(path, key, reason)
        return None

    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        self.corrupt_entries += 1
        destination = self.cache_dir / self.CORRUPT_DIR / path.name
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
            moved = str(destination)
        except OSError:
            # Quarantine is best effort: fall back to deleting the entry so
            # it at least cannot be re-read.
            try:
                path.unlink()
            except OSError:
                pass
            moved = None
        _log_event(
            "cache_corrupt_entry",
            level="warning",
            key=key,
            reason=reason,
            quarantined_to=moved,
        )

    def put(self, key: str, result: dict) -> None:
        """Store ``result`` under ``key`` atomically, with a checksum.

        Disk failures are swallowed (logged, counted, fed to the circuit
        breaker): a cache-write failure must never fail the compilation
        whose result it was trying to persist.
        """
        if not self.breaker.allow():
            return
        path = self._path(key)
        payload = json.dumps(
            {"key": key, "sha256": result_checksum(result), "result": result},
            sort_keys=True,
        )
        temp_name = None
        try:
            _FAULT_WRITE.hit(context=key)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(
                dir=self.cache_dir, prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(temp_name, path)
        except OSError as exc:
            if temp_name is not None:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
            self._record_disk_error("write", key, exc)
            return
        self.breaker.record_success()

    def _record_disk_error(self, op: str, key: str, exc: OSError) -> None:
        self.disk_errors += 1
        self.breaker.record_failure()
        _log_event(
            "cache_disk_error",
            level="warning",
            op=op,
            key=key,
            error=str(exc),
            breaker_state=self.breaker.state,
        )

    def stats(self) -> dict:
        """Counters and breaker state for ``/metrics``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_entries": self.corrupt_entries,
            "disk_errors": self.disk_errors,
            "breaker": self.breaker.snapshot(),
        }

    def __len__(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        # "[!.]*" keeps orphaned ".tmp-*" files (from killed writers) out of
        # the count; pathlib's glob, unlike the shell's, matches dotfiles.
        # The glob is non-recursive, so the corrupt/ quarantine is excluded.
        return sum(1 for _ in self.cache_dir.glob("[!.]*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(dir={str(self.cache_dir)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"corrupt={self.corrupt_entries}, breaker={self.breaker.state})"
        )
