"""Deterministic, process-wide fault injection for chaos testing.

The fleet's robustness claims ("survives worker crashes, torn journals,
corrupt caches, hung compiles") are only as good as our ability to
*reproduce* those failures on demand.  This module provides named
injection points threaded through the hot paths of the pipeline and the
service layer:

========================  ====================================================
Point                     Fires
========================  ====================================================
``journal.fsync``         before the pending journal fsyncs an appended record
``disk_cache.read``       after a disk-cache entry's bytes are read
``disk_cache.write``      before a disk-cache entry is atomically published
``worker.spawn``          before the supervisor spawns a worker process
``dispatch.forward``      before the front end forwards a request to a worker
``compile.step``          at the start of every batch-job execution
``heartbeat.probe``       before the supervisor probes a worker's ``/metrics``
``replication.send``      before the primary sends a frame to the standby
``lease.renew``           before the primary rewrites its leadership lease
========================  ====================================================

Faults are configured by a declarative *schedule* — a JSON document loaded
from the ``REPRO_FAULT_SCHEDULE`` environment variable (a file path, or the
inline JSON itself) or installed programmatically with
:func:`install_schedule`.  Each rule names a point, a trigger and an action:

.. code-block:: json

    {"seed": 7, "rules": [
        {"point": "disk_cache.write", "action": "raise", "every": 1},
        {"point": "compile.step", "action": "crash", "match": "#666"},
        {"point": "compile.step", "action": "sleep", "seconds": 2.0, "nth": 3},
        {"point": "disk_cache.read", "action": "corrupt", "probability": 0.5}
    ]}

Triggers (at most one per rule; default fires on every hit):

* ``nth`` — fire exactly once, on the Nth matching hit;
* ``every`` — fire on every Kth matching hit;
* ``probability`` — fire with probability *p*, drawn from a ``Random``
  seeded from the schedule seed and the rule index, so a given schedule
  replays bit-identically across runs;
* ``times`` caps the total number of fires of any trigger.

Actions: ``raise`` (raise :class:`FaultInjected`, an ``OSError``),
``crash`` (``os._exit(CRASH_EXIT_CODE)``), ``sleep`` (block for
``seconds``), ``corrupt`` (deterministically flip bits of the bytes
passing through the point).  Rules with ``match`` only consider hits
whose *context* string (a job label, a journal op, a worker index)
contains the substring.

The fast path is a single attribute check when no schedule is installed,
so production code pays nothing for carrying the hooks.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_ACTIONS",
    "FAULT_POINTS",
    "FAULT_SCHEDULE_ENV",
    "FaultInjected",
    "FaultPoint",
    "FaultRegistry",
    "FaultRule",
    "FaultSchedule",
    "get_registry",
    "install_schedule",
    "reset_registry",
]

FAULT_SCHEDULE_ENV = "REPRO_FAULT_SCHEDULE"

#: Exit code used by the ``crash`` action, distinct from Python tracebacks
#: (1) and SIGKILL (-9) so tests can assert the crash was injected.
CRASH_EXIT_CODE = 70

FAULT_POINTS = (
    "journal.fsync",
    "disk_cache.read",
    "disk_cache.write",
    "worker.spawn",
    "dispatch.forward",
    "compile.step",
    "heartbeat.probe",
    "replication.send",
    "lease.renew",
)

FAULT_ACTIONS = ("raise", "crash", "sleep", "corrupt")

SCHEDULE_SCHEMA_VERSION = 1

_RULE_KEYS = {
    "point",
    "action",
    "nth",
    "every",
    "probability",
    "times",
    "seconds",
    "match",
    "message",
}


class FaultInjected(OSError):
    """Raised by the ``raise`` action so injected faults are distinguishable."""


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: a point, a trigger and an action."""

    point: str
    action: str
    nth: int | None = None
    every: int | None = None
    probability: float | None = None
    times: int | None = None
    seconds: float = 0.05
    match: str | None = None
    message: str = "injected fault"

    def __post_init__(self) -> None:
        """Validate the rule shape eagerly, so bad schedules fail at load."""
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; expected one of {FAULT_POINTS}"
            )
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        triggers = [t for t in (self.nth, self.every, self.probability) if t is not None]
        if len(triggers) > 1:
            raise ValueError("at most one of nth/every/probability per rule")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth must be >= 1")
        if self.every is not None and self.every < 1:
            raise ValueError("every must be >= 1")
        if self.probability is not None and not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        """Build a rule from a schedule-file dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ValueError(f"fault rule must be an object, got {type(data).__name__}")
        unknown = set(data) - _RULE_KEYS
        if unknown:
            raise ValueError(f"unknown fault rule keys: {sorted(unknown)}")
        if "point" not in data or "action" not in data:
            raise ValueError("fault rule requires 'point' and 'action'")
        return cls(**data)


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable set of fault rules plus the seed that replays them."""

    rules: tuple[FaultRule, ...]
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        """Parse the JSON-document form (``{"seed": ..., "rules": [...]}``)."""
        if not isinstance(data, dict):
            raise ValueError(f"fault schedule must be an object, got {type(data).__name__}")
        unknown = set(data) - {"schema_version", "seed", "rules"}
        if unknown:
            raise ValueError(f"unknown fault schedule keys: {sorted(unknown)}")
        version = data.get("schema_version", SCHEDULE_SCHEMA_VERSION)
        if version != SCHEDULE_SCHEMA_VERSION:
            raise ValueError(f"unsupported fault schedule schema_version {version!r}")
        rules = data.get("rules", [])
        if not isinstance(rules, list):
            raise ValueError("'rules' must be a list")
        return cls(
            rules=tuple(FaultRule.from_dict(rule) for rule in rules),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse a schedule from its JSON text."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultSchedule":
        """Load a schedule from a JSON file."""
        return cls.from_json(Path(path).read_text())

    @classmethod
    def from_env_value(cls, value: str) -> "FaultSchedule":
        """Interpret an env-var value as inline JSON or as a file path."""
        stripped = value.strip()
        if stripped.startswith("{"):
            return cls.from_json(stripped)
        return cls.from_file(stripped)


class _RuleState:
    """Mutable per-rule hit/fire counters plus the seeded trigger RNG."""

    __slots__ = ("rule", "index", "hits", "fires", "rng")

    def __init__(self, rule: FaultRule, index: int, seed: int) -> None:
        self.rule = rule
        self.index = index
        self.hits = 0
        self.fires = 0
        # One independent, deterministic stream per rule: the same schedule
        # produces the same fire pattern in every run.
        self.rng = Random(f"{seed}:{index}")

    def should_fire(self) -> bool:
        """Record one matching hit and decide whether the rule fires on it."""
        self.hits += 1
        rule = self.rule
        if rule.times is not None and self.fires >= rule.times:
            return False
        if rule.nth is not None:
            fire = self.hits == rule.nth
        elif rule.every is not None:
            fire = self.hits % rule.every == 0
        elif rule.probability is not None:
            fire = self.rng.random() < rule.probability
        else:
            fire = True
        if fire:
            self.fires += 1
        return fire


class FaultRegistry:
    """Process-wide dispatcher: routes point hits to scheduled actions."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._states = [
            _RuleState(rule, index, schedule.seed)
            for index, rule in enumerate(schedule.rules)
        ]
        self._lock = threading.Lock()
        self.fired_total = 0
        self.fired_by_point: dict[str, int] = {}

    @property
    def active(self) -> bool:
        """Whether any rules are installed at all."""
        return bool(self._states)

    def snapshot(self) -> dict:
        """Observability view: fire counts per point."""
        with self._lock:
            return {
                "active": self.active,
                "fired_total": self.fired_total,
                "fired_by_point": dict(self.fired_by_point),
            }

    def hit(self, point: str, context: str = "", data: bytes | None = None) -> bytes | None:
        """Record one hit of *point*; apply any scheduled actions.

        Returns *data*, possibly corrupted by a ``corrupt`` rule.  A
        ``raise`` rule raises :class:`FaultInjected`; ``crash`` exits the
        process; ``sleep`` blocks.  Trigger bookkeeping happens under a
        lock, the actions themselves outside it.
        """
        pending: list[_RuleState] = []
        with self._lock:
            for state in self._states:
                rule = state.rule
                if rule.point != point:
                    continue
                if rule.match is not None and rule.match not in context:
                    continue
                if state.should_fire():
                    pending.append(state)
                    self.fired_total += 1
                    self.fired_by_point[point] = self.fired_by_point.get(point, 0) + 1
        for state in pending:
            data = self._apply(state, point, context, data)
        return data

    def _apply(
        self, state: _RuleState, point: str, context: str, data: bytes | None
    ) -> bytes | None:
        rule = state.rule
        self._log(point, context, rule, state.fires)
        if rule.action == "raise":
            raise FaultInjected(f"{rule.message} at {point} ({context or 'no context'})")
        if rule.action == "crash":
            os._exit(CRASH_EXIT_CODE)
        if rule.action == "sleep":
            time.sleep(rule.seconds)
            return data
        # corrupt: flip a few bytes deterministically (seeded per-fire).
        if data is None:
            return data
        return _corrupt_bytes(
            data, Random(f"{self.schedule.seed}:{state.index}:{state.fires}")
        )

    @staticmethod
    def _log(point: str, context: str, rule: FaultRule, fire_count: int) -> None:
        # Imported lazily: utils must not depend on the service layer at
        # import time (metrics is stdlib-only, but keep the layering soft).
        from repro.service.metrics import log_event

        log_event(
            "fault_injected",
            level="warning",
            point=point,
            action=rule.action,
            context=context,
            fire_count=fire_count,
        )


def _corrupt_bytes(data: bytes, rng: Random) -> bytes:
    """Flip bits at a few seeded positions; never returns the input bytes."""
    if not data:
        return b"\xde\xad"
    mutated = bytearray(data)
    for _ in range(min(4, len(mutated))):
        position = rng.randrange(len(mutated))
        mutated[position] ^= 0xFF
    if bytes(mutated) == data:
        # An even number of flips at the same position cancels out.
        mutated[0] ^= 0x01
    return bytes(mutated)


_registry: FaultRegistry | None = None
_env_checked = False
_install_lock = threading.Lock()


def install_schedule(schedule: FaultSchedule | None) -> FaultRegistry | None:
    """Install *schedule* process-wide (``None`` clears injection)."""
    global _registry, _env_checked
    with _install_lock:
        _registry = FaultRegistry(schedule) if schedule is not None else None
        _env_checked = True
        return _registry


def reset_registry() -> None:
    """Clear the registry and re-arm env loading (test isolation hook)."""
    global _registry, _env_checked
    with _install_lock:
        _registry = None
        _env_checked = False


def get_registry() -> FaultRegistry | None:
    """Return the active registry, loading ``REPRO_FAULT_SCHEDULE`` once."""
    global _registry, _env_checked
    if _env_checked:
        return _registry
    with _install_lock:
        if not _env_checked:
            value = os.environ.get(FAULT_SCHEDULE_ENV)
            if value:
                _registry = FaultRegistry(FaultSchedule.from_env_value(value))
            _env_checked = True
    return _registry


class FaultPoint:
    """A named injection point; module-level singletons in the host code.

    ``FaultPoint("journal.fsync").hit()`` is a no-op attribute check when
    no schedule is installed, so the hooks are free in production.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if name not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {name!r}")
        self.name = name

    def hit(self, context: str = "", data: bytes | None = None) -> bytes | None:
        """Record one hit; returns *data* (possibly corrupted by a rule)."""
        registry = get_registry()
        if registry is None or not registry.active:
            return data
        return registry.hit(self.name, context=context, data=data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPoint({self.name!r})"
