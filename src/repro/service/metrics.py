"""Prometheus-style metrics and structured JSON logs for the ops surface.

Every compile service (:mod:`repro.service.server`) and the fleet front end
(:mod:`repro.service.fleet`) expose ``GET /metrics`` in the Prometheus text
exposition format.  A worker's families are declared once in
:data:`WORKER_METRICS`; the front end declares its own in
:data:`FLEET_METRICS` and relays every worker sample with a ``worker`` label
added (:func:`relabel_expositions`), so it names no worker family itself.
This module provides the three instrument kinds, a tiny thread-safe
registry, and — because a metrics endpoint nobody validates rots silently —
an exposition *validator* that CI runs against a live scrape:

* :class:`Counter` — monotonically increasing totals (requests, retries,
  restarts), optionally split by labels (``counter.labels(worker="0")``);
* :class:`Gauge` — point-in-time values (queue depth, worker up/down);
* :class:`Summary` — a sliding-window latency reservoir that renders
  ``{quantile="0.5|0.95|0.99"}`` samples plus ``_count``/``_sum``;
* :class:`MetricsRegistry` — owns the instruments and renders the exposition;
* :func:`parse_exposition` — the one sample parser, behind both
  :func:`validate_exposition` (every declared family present with numeric
  samples; ``python -m repro.service.metrics scrape.txt`` is the CI entry
  point) and :func:`relabel_expositions`;
* :func:`log_event` — one structured JSON log line (request ids, worker
  lifecycle events) on stderr.

Everything is stdlib-only, matching the rest of the service layer.
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
import time
from collections import deque

__all__ = [
    "Counter",
    "Gauge",
    "Summary",
    "MetricsRegistry",
    "FLEET_METRICS",
    "WORKER_METRICS",
    "ExpositionFamily",
    "parse_exposition",
    "relabel_expositions",
    "validate_exposition",
    "log_event",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: One exposition sample line: ``name{labels} value`` (labels optional).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>\S+)\s*$"
)

#: Metric families the fleet front end owns, with their types.  CI scrapes
#: ``/metrics`` and fails if any of these (or of :data:`WORKER_METRICS`,
#: relayed from the workers) is missing or non-numeric
#: (:func:`validate_exposition`), locking the exposition format.
FLEET_METRICS: dict[str, tuple[str, str]] = {
    "repro_fleet_uptime_seconds": (
        "gauge", "Seconds since the fleet front end started."
    ),
    "repro_fleet_draining": (
        "gauge", "1 while a SIGTERM graceful drain is in progress."
    ),
    "repro_fleet_workers_total": ("gauge", "Number of configured compile workers."),
    "repro_fleet_workers_healthy": ("gauge", "Workers currently passing heartbeat checks."),
    "repro_fleet_worker_up": ("gauge", "Per-worker liveness (1 healthy, 0 otherwise)."),
    "repro_fleet_worker_restarts_total": (
        "counter", "Worker restarts performed by the supervisor."
    ),
    "repro_fleet_requests_total": ("counter", "Requests accepted by the front end."),
    "repro_fleet_request_failures_total": (
        "counter", "Requests that exhausted every dispatch attempt."
    ),
    "repro_fleet_retries_total": ("counter", "Dispatch attempts re-routed after a worker failure."),
    "repro_fleet_inflight_requests": (
        "gauge", "Requests currently being dispatched (queue depth)."
    ),
    "repro_fleet_request_latency_seconds": (
        "summary", "Front-end request latency (sliding window)."
    ),
    "repro_fleet_journal_pending": ("gauge", "Unfinished entries in the pending-queue journal."),
    "repro_fleet_journal_replayed_total": ("counter", "Journal entries replayed after a restart."),
    "repro_fleet_poisoned_total": (
        "counter", "Requests quarantined as poisoned after crashing max_job_attempts workers."
    ),
    "repro_fleet_role": (
        "gauge", "1 while this front end is the serving primary, 0 otherwise."
    ),
    "repro_fleet_epoch": (
        "gauge", "Leadership epoch of this front end's lease."
    ),
    "repro_fleet_failovers_total": (
        "counter", "Standby promotions performed by this front end."
    ),
    "repro_fleet_replication_connected": (
        "gauge", "1 while the journal replication link to the standby is up."
    ),
    "repro_fleet_replication_records_total": (
        "counter", "Journal records replicated (sent and acked, or received)."
    ),
    "repro_fleet_replication_failures_total": (
        "counter", "Journal records the standby failed to ack (degraded sends)."
    ),
    "repro_fleet_fenced_writes_total": (
        "counter", "Stale-epoch replication frames rejected by the fence."
    ),
    "repro_fleet_fenced_dispatches_total": (
        "counter", "Worker dispatches rejected because this front end's epoch is stale."
    ),
    "repro_fleet_hedged_requests_total": (
        "counter", "Requests that fired a hedged second dispatch attempt."
    ),
    "repro_fleet_hedge_wins_total": (
        "counter", "Hedged attempts that answered before the primary attempt."
    ),
    "repro_fleet_dispatch_breaker_open": (
        "gauge", "Workers currently excluded from dispatch by an open circuit breaker."
    ),
    "repro_fleet_dispatch_breaker_opens_total": (
        "counter", "Per-worker dispatch circuit-breaker open transitions."
    ),
}

#: Metric families every compile service exports on its own ``/metrics``.
#: The fleet front end relays them with a ``worker="<index>"`` label, so a
#: worker restart restarts that worker's series only.
WORKER_METRICS: dict[str, tuple[str, str]] = {
    "repro_worker_requests_served_total": (
        "counter", "Requests answered (compiles, timeouts and batch jobs)."
    ),
    "repro_worker_microbatches_total": ("counter", "Micro-batches the request batcher ran."),
    "repro_worker_microbatched_requests_total": (
        "counter", "Compile requests that went through the micro-batcher."
    ),
    "repro_worker_result_cache_hits_total": ("counter", "Result-cache hits."),
    "repro_worker_result_cache_misses_total": ("counter", "Result-cache misses."),
    "repro_worker_subgraph_cache_hits_total": ("counter", "Subgraph compile-cache hits."),
    "repro_worker_subgraph_cache_misses_total": ("counter", "Subgraph compile-cache misses."),
    "repro_worker_subgraph_cache_stores_total": (
        "counter", "Subgraph compilations stored in the compile cache."
    ),
    "repro_worker_deadline_requests_total": ("counter", "Deadline-bounded compile requests."),
    "repro_worker_deadline_misses_total": (
        "counter", "Deadline-bounded requests that returned past their deadline."
    ),
    "repro_worker_admission_rejections_total": (
        "counter", "Requests rejected by deadline admission control."
    ),
    "repro_worker_refinement_improvements_total": (
        "counter", "Background portfolio refinements that beat the served result."
    ),
    "repro_worker_cache_corrupt_entries_total": (
        "counter", "Corrupt disk-cache entries quarantined, both cache tiers."
    ),
    "repro_worker_cache_disk_errors_total": ("counter", "Disk-cache I/O errors, both cache tiers."),
    "repro_worker_disk_breaker_opens_total": (
        "counter", "Disk-tier circuit-breaker open transitions, both cache tiers."
    ),
    "repro_worker_disk_breaker_open": (
        "gauge", "1 while a disk-tier circuit breaker is open (memory-only serving)."
    ),
    "repro_worker_compile_timeouts_total": (
        "counter", "Compiles cut off by the per-request watchdog."
    ),
    "repro_worker_fenced_requests_total": (
        "counter", "Dispatches rejected because their leadership epoch was stale."
    ),
}


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict[str, str]) -> str:
    """Render a label set as ``{key="value",...}`` (empty string when none)."""
    if not labels:
        return ""
    # json.dumps produces exactly the quoting/escaping Prometheus expects
    # for label values (backslash, double quote, newline).
    body = ",".join(
        f"{key}={json.dumps(str(value))}" for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


class _Instrument:
    """Shared plumbing: a name, help text and a lock."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()

    def samples(self) -> list[tuple[str, dict[str, str], float]]:
        """``(suffix, labels, value)`` triples to render."""
        raise NotImplementedError


class _LabelledInstrument(_Instrument):
    """A value per label set, for :class:`Counter` and :class:`Gauge`.

    A family with no child yet renders one unlabelled ``0`` sample, so it is
    present from the first scrape; once any child exists only the children
    render (a labelled family gets no stray unlabelled sample).
    """

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    @staticmethod
    def _key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _set(self, value: float, labels: dict[str, str]) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: str) -> float:
        """Current value of the child identified by ``labels``."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[tuple[str, dict[str, str], float]]:
        """One sample per label child (one unlabelled zero before any)."""
        with self._lock:
            children = sorted(self._values.items()) or [((), 0.0)]
        return [("", dict(key), value) for key, value in children]


class Counter(_LabelledInstrument):
    """A monotonically increasing total, optionally split by labels.

    Parameters
    ----------
    name : str
        Metric family name (``*_total`` by convention).
    help_text : str
        One-line description rendered as ``# HELP``.
    """

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (default 1) to the child identified by ``labels``."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: str) -> None:
        """Overwrite a child total with a monotone total owned elsewhere.

        For totals another object keeps (a cache's hit count, a replication
        link's record count), read at render time instead of mirrored by
        every increment.
        """
        self._set(value, labels)


class Gauge(_LabelledInstrument):
    """A point-in-time value, optionally split by labels."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Set the child identified by ``labels`` to ``value``."""
        self._set(value, labels)


class Summary(_Instrument):
    """Latency quantiles over a sliding window of recent observations.

    Renders the Prometheus summary convention: ``name{quantile="0.5"}`` (and
    0.95/0.99) from the window, plus cumulative ``name_count``/``name_sum``
    over *all* observations.

    Parameters
    ----------
    name, help_text : str
        Family name and ``# HELP`` text.
    window : int, optional
        Number of recent observations the quantiles are computed over.
    quantiles : tuple[float, ...], optional
        Quantiles to expose (fractions in ``(0, 1)``).
    """

    kind = "summary"

    def __init__(
        self,
        name: str,
        help_text: str,
        window: int = 2048,
        quantiles: tuple[float, ...] = (0.5, 0.95, 0.99),
    ):
        super().__init__(name, help_text)
        self._window: deque[float] = deque(maxlen=int(window))
        self.quantiles = tuple(quantiles)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._window.append(float(value))
            self._count += 1
            self._sum += float(value)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (fraction) of the current window (0 if empty)."""
        with self._lock:
            window = sorted(self._window)
        if not window:
            return 0.0
        position = q * (len(window) - 1)
        low = int(position)
        high = min(low + 1, len(window) - 1)
        fraction = position - low
        return window[low] * (1.0 - fraction) + window[high] * fraction

    @property
    def count(self) -> int:
        """Total observations ever recorded."""
        with self._lock:
            return self._count

    def samples(self) -> list[tuple[str, dict[str, str], float]]:
        """Quantile samples plus ``_count`` and ``_sum``."""
        rows = [("", {"quantile": str(q)}, self.quantile(q)) for q in self.quantiles]
        with self._lock:
            rows.append(("_count", {}, float(self._count)))
            rows.append(("_sum", {}, self._sum))
        return rows


class MetricsRegistry:
    """A named collection of instruments that renders one exposition.

    Instruments are created through :meth:`counter` / :meth:`gauge` /
    :meth:`summary`; asking for an existing name returns the existing
    instrument (so call sites need no registration dance).
    """

    def __init__(self):
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, help_text, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(Gauge, name, help_text)

    def summary(self, name: str, help_text: str = "", **kwargs) -> Summary:
        """Get or create the summary ``name``."""
        return self._get_or_create(Summary, name, help_text, **kwargs)

    def declare(self, families: dict[str, tuple[str, str]]) -> dict[str, _Instrument]:
        """Create every family of a ``{name: (kind, help)}`` table up front.

        The exposition is then complete from the first scrape.  Returns the
        instruments by name.
        """
        factories = {"counter": self.counter, "gauge": self.gauge, "summary": self.summary}
        return {
            name: factories[kind](name, help_text)
            for name, (kind, help_text) in families.items()
        }

    def render(self) -> str:
        """The full Prometheus text exposition (``text/plain; version=0.0.4``)."""
        lines: list[str] = []
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            if instrument.help_text:
                lines.append(f"# HELP {instrument.name} {instrument.help_text}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            for suffix, labels, value in instrument.samples():
                lines.append(
                    f"{instrument.name}{suffix}{_format_labels(labels)} "
                    f"{_format_value(value)}"
                )
        return "\n".join(lines) + "\n"


class ExpositionFamily:
    """One metric family of a parsed exposition.

    ``samples`` holds ``(sample name, label body, value text)`` triples: the
    label body is the text between the braces (empty when unlabelled) and
    the value is kept as written, so a relay re-emits it unchanged.
    """

    def __init__(self, kind: str | None = None, help_text: str = ""):
        self.kind = kind
        self.help_text = help_text
        self.samples: list[tuple[str, str, str]] = []


def parse_exposition(text: str) -> tuple[dict[str, ExpositionFamily], list[str]]:
    """Parse a text exposition into its families.

    A sample belongs to the family of the ``# HELP``/``# TYPE`` block it
    follows when its name is that family's name or a summary/histogram
    child of it (``_count``, ``_sum``, ``_bucket``); any other sample forms
    an untyped family of its own name.

    Returns
    -------
    tuple[dict[str, ExpositionFamily], list[str]]
        The families in order of appearance, and human-readable problems
        (unparseable lines, non-numeric or NaN values — such samples are
        left out of their family).
    """
    families: dict[str, ExpositionFamily] = {}
    problems: list[str] = []
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                current = parts[2]
                family = families.setdefault(current, ExpositionFamily())
                rest = parts[3] if len(parts) > 3 else ""
                if parts[1] == "TYPE":
                    family.kind = rest
                else:
                    family.help_text = rest
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name, value = match.group("name"), match.group("value")
        try:
            number = float(value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value {value!r} for {name}")
            continue
        if math.isnan(number):
            problems.append(f"line {lineno}: NaN value for {name}")
            continue
        owner = name
        if current is not None and name in (
            current, f"{current}_count", f"{current}_sum", f"{current}_bucket"
        ):
            owner = current
        labels = (match.group("labels") or "{}")[1:-1]
        families.setdefault(owner, ExpositionFamily()).samples.append((name, labels, value))
    return families, problems


def validate_exposition(
    text: str, required: dict[str, tuple[str, str]] | None = None
) -> list[str]:
    """Check a scraped exposition against declared metric families.

    Parameters
    ----------
    text : str
        The body of a ``GET /metrics`` response.
    required : dict | None, optional
        Mapping of required family names to ``(type, help)`` pairs
        (default: :data:`FLEET_METRICS` plus :data:`WORKER_METRICS`, the
        fleet front end's full set; validate a single ``repro serve``
        scrape with ``required=WORKER_METRICS``).

    Returns
    -------
    list[str]
        Human-readable problems; empty when the exposition is valid.  A
        family counts as present when at least one sample line for it (or
        its ``_count``/``_sum`` children for summaries) parses to a finite
        number.
    """
    if required is None:
        required = {**FLEET_METRICS, **WORKER_METRICS}
    families, problems = parse_exposition(text)
    for name, (kind, _help) in required.items():
        names = [name, f"{name}_count", f"{name}_sum"] if kind == "summary" else [name]
        if not any(families.get(sample) and families[sample].samples for sample in names):
            problems.append(f"missing required {kind} metric {name!r}")
            continue
        declared = families[name].kind if name in families else None
        if declared not in (None, kind):
            problems.append(f"metric {name!r} declared as {declared!r}, expected {kind!r}")
    return problems


def relabel_expositions(expositions: dict[str, str]) -> str:
    """Merge per-worker expositions into one, adding ``worker="<key>"`` to every sample.

    Each family's ``# HELP``/``# TYPE`` lines are emitted once, followed by
    the samples of every worker in the order given, so per-worker series stay
    separate: nothing is summed across workers, and a restarted worker
    restarts only its own series.
    """
    merged: dict[str, ExpositionFamily] = {}
    for key, text in expositions.items():
        prefix = f"worker={json.dumps(str(key))}"
        for name, family in parse_exposition(text)[0].items():
            target = merged.setdefault(name, ExpositionFamily(family.kind, family.help_text))
            target.samples.extend(
                (sample, f"{prefix},{labels}" if labels else prefix, value)
                for sample, labels, value in family.samples
            )
    lines: list[str] = []
    for name, family in merged.items():
        if family.help_text:
            lines.append(f"# HELP {name} {family.help_text}")
        if family.kind:
            lines.append(f"# TYPE {name} {family.kind}")
        lines.extend(f"{sample}{{{labels}}} {value}" for sample, labels, value in family.samples)
    return "\n".join(lines) + "\n" if lines else ""


_LOG_LOCK = threading.Lock()


def log_event(event: str, *, level: str = "info", stream=None, **fields) -> None:
    """Emit one structured JSON log line (the fleet's logging format).

    Parameters
    ----------
    event : str
        Short machine-matchable event name, e.g. ``"worker_restart"``.
    level : str, optional
        ``"info"``, ``"warning"`` or ``"error"``.
    stream : file-like | None, optional
        Destination (default ``sys.stderr``).
    **fields
        Extra JSON-serialisable fields (``request_id``, ``worker``, ...).
    """
    record = {"ts": round(time.time(), 6), "level": level, "event": event}
    record.update(fields)
    line = json.dumps(record, sort_keys=True, default=str)
    target = stream if stream is not None else sys.stderr
    with _LOG_LOCK:
        print(line, file=target, flush=True)


def _main(argv: list[str]) -> int:
    """CI entry point: validate a scraped exposition file.

    ``python -m repro.service.metrics scrape.txt`` exits 0 when every
    declared fleet and worker metric is present and numeric, 1 otherwise
    (printing one problem per line).
    """
    if len(argv) != 1:
        print("usage: python -m repro.service.metrics <scrape-file>", file=sys.stderr)
        return 2
    try:
        with open(argv[0], "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"metrics: cannot read scrape file: {exc}", file=sys.stderr)
        return 2
    problems = validate_exposition(text)
    if problems:
        for problem in problems:
            print(f"metrics: {problem}", file=sys.stderr)
        return 1
    print(f"metrics: ok ({len(FLEET_METRICS) + len(WORKER_METRICS)} declared families present)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(_main(sys.argv[1:]))
