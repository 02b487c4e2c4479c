"""Selection of the GF(2) compute backend.

Two backends implement the exact binary-field kernels that the compiler's
hot paths (cut rank, stabilizer canonicalisation, circuit verification) run
on:

* ``"dense"`` — the original ``uint8`` implementation in
  :mod:`repro.utils.gf2`.  Simple, thoroughly tested, and kept as the oracle
  that the fast path is checked against.
* ``"packed"`` — the word-packed implementation in
  :mod:`repro.utils.gf2_packed`: rows live as arbitrary-precision Python
  integers (or ``np.uint64`` words at the array boundary), row elimination is
  XOR of machine words and ranks come out of popcounts.  Bit-exact with the
  dense backend and several times faster from a few hundred columns on.

The process-wide default is ``"packed"`` and can be pinned with the
``REPRO_GF2_BACKEND`` environment variable or :func:`set_default_backend`.
The :func:`use_backend` context manager overrides it temporarily for the
current thread or asyncio task only (the override lives in a
:class:`contextvars.ContextVar`), so concurrent compiles on different
threads cannot leak their backend into each other or into the process
default.  Every public function that consumes a backend also accepts an
explicit ``backend=`` argument which takes precedence over the default.  The environment variable
is validated lazily, at the first resolve, so importing this module never
emits warnings on its own.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = [
    "BACKENDS",
    "DENSE",
    "PACKED",
    "get_default_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]

DENSE = "dense"
PACKED = "packed"

#: All recognised backend names.
BACKENDS = (DENSE, PACKED)

#: Sentinel meaning "the environment has not been consulted yet".
_UNRESOLVED = object()

_default_backend: str | object = _UNRESOLVED

#: Per-thread / per-task override installed by :func:`use_backend`.
_override: ContextVar[str | None] = ContextVar("repro_gf2_backend", default=None)


def _backend_from_env() -> str:
    """Read ``REPRO_GF2_BACKEND`` once, warning on unrecognised values."""
    raw = os.environ.get("REPRO_GF2_BACKEND")
    if raw is None:
        return PACKED
    value = raw.strip().lower()
    if value not in BACKENDS:
        import warnings

        warnings.warn(
            f"ignoring unrecognised REPRO_GF2_BACKEND={raw!r}; "
            f"expected one of {BACKENDS}, using {PACKED!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        return PACKED
    return value


def _process_default() -> str:
    global _default_backend
    if _default_backend is _UNRESOLVED:
        _default_backend = _backend_from_env()
    return _default_backend  # type: ignore[return-value]


def _current_default() -> str:
    return _override.get() or _process_default()


def get_default_backend() -> str:
    """Return the backend in effect: the :func:`use_backend` override of the
    current thread or task, else the process-wide default."""
    return _current_default()


def set_default_backend(backend: str) -> str:
    """Set the process-wide default backend; returns the previous default.

    An active :func:`use_backend` override still wins inside its block.

    Raises:
        ValueError: if ``backend`` is not a recognised backend name.
    """
    global _default_backend
    previous = _process_default()
    _default_backend = resolve_backend(backend)
    return previous


def resolve_backend(backend: str | None) -> str:
    """Normalise a ``backend=`` argument: ``None`` means the current default.

    Raises:
        ValueError: if ``backend`` is neither ``None`` nor a recognised name.
    """
    if backend is None:
        return _current_default()
    name = str(backend).strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown GF(2) backend {backend!r}; expected one of {BACKENDS}"
        )
    return name


@contextmanager
def use_backend(backend: str | None) -> Iterator[str]:
    """Override the default backend within a ``with`` block.

    The override is visible only to the current thread or asyncio task (and
    to contexts copied from it); the process-wide default is untouched.
    ``None`` keeps the current default (the context manager is then a no-op),
    which lets callers write ``with use_backend(config.gf2_backend): ...``
    without special-casing unset configuration.
    """
    if backend is None:
        yield _current_default()
        return
    token = _override.set(resolve_backend(backend))
    try:
        yield _current_default()
    finally:
        _override.reset(token)
