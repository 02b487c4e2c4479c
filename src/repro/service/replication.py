"""Synchronous journal replication between an HA front-end pair.

The primary front end streams every :class:`repro.pipeline.jobs.PendingJournal`
record to its standby over a small length-prefixed, checksummed TCP protocol
and waits for the standby's ack before the client sees a 200 — an
acknowledged request is therefore durable on two processes.  Every frame
carries the primary's leadership *epoch*; the standby rejects frames whose
epoch is below its own fence, so a deposed primary (one that lost its lease
to a promoted standby) can never corrupt the replica journal.

Wire format (all integers big-endian)::

    MAGIC(4) | length(4) | crc32(4) | payload (UTF-8 JSON, ``length`` bytes)

Messages, primary -> standby::

    {"type": "hello",     "epoch": E, "seq": N}
    {"type": "append",    "epoch": E, "seq": N, "record": {...}}
    {"type": "heartbeat", "epoch": E, "seq": N}

Messages, standby -> primary::

    {"type": "ack",    "seq": N, "epoch": E}
    {"type": "reject", "seq": N, "epoch": E, "reason": "stale_epoch"}

The ``replication.send`` fault point fires on every outbound frame, so a
deterministic schedule can sever the link (``raise``), delay it (``sleep``)
or corrupt frames on the wire (``corrupt`` — the standby detects the bad
checksum and drops the connection rather than applying garbage).
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
import time
import zlib

from pathlib import Path

from repro.pipeline.jobs import StaleEpochError, fsync_dir
from repro.service.metrics import log_event
from repro.utils.faults import FaultInjected, FaultPoint

__all__ = [
    "MAGIC",
    "MAX_FRAME_BYTES",
    "FrameCorruptError",
    "ReplicationFencedError",
    "LeaseLostError",
    "Lease",
    "encode_frame",
    "FrameDecoder",
    "ReplicationAcceptor",
    "ReplicationLink",
]

#: Frame preamble; a stream that does not start with it is garbage.
MAGIC = b"RJR1"

#: Upper bound on a single frame payload (a journal record is small; this
#: guards the decoder against reading a corrupted length as "allocate 4GB").
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct(">4sII")

_FAULT_SEND = FaultPoint("replication.send")
_FAULT_LEASE = FaultPoint("lease.renew")


class LeaseLostError(RuntimeError):
    """The lease file records a higher epoch than ours: we were deposed."""


class Lease:
    """An epoch-numbered leadership lease backed by an atomic JSON file.

    The lease file is the tie-breaker both peers can see (a path on the
    shared filesystem).  Epochs only ever go up: the primary *acquires*
    the lease (``stored epoch + 1``) on startup, *renews* it on every
    supervision tick, and a promoting standby *bumps* it past the dead
    primary's epoch.  A renew that discovers a higher stored epoch raises
    :class:`LeaseLostError` — someone promoted past us and we must stand
    down rather than split-brain.

    Parameters
    ----------
    path : str | Path
        Lease file location (shared between the peers).
    ttl_seconds : float, optional
        Age after which the lease is considered expired (a standby only
        promotes once the lease is stale *and* the replication channel has
        gone quiet).
    holder : str, optional
        Free-form holder identity written into the file (diagnostics).
    """

    def __init__(self, path: str | Path, ttl_seconds: float = 3.0,
                 holder: str = ""):
        self.path = Path(path)
        self.ttl_seconds = float(ttl_seconds)
        self.holder = holder or f"pid-{os.getpid()}"
        self.epoch = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #

    @staticmethod
    def read(path: str | Path) -> dict:
        """The stored lease record (empty dict when missing/corrupt)."""
        try:
            with Path(path).open("r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return {}
        return record if isinstance(record, dict) else {}

    def _write(self, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_suffix(self.path.suffix + ".tmp")
        with temp.open("w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)
        fsync_dir(self.path.parent)

    def acquire(self) -> int:
        """Take the lease at ``stored epoch + 1``; returns the new epoch."""
        with self._lock:
            stored = int(Lease.read(self.path).get("epoch", 0))
            self.epoch = stored + 1
            self._write({
                "epoch": self.epoch,
                "holder": self.holder,
                "renewed_at": time.time(),
            })
            log_event("lease_acquired", epoch=self.epoch, holder=self.holder)
            return self.epoch

    #: Promotion is an acquire under a different name — the standby takes
    #: the lease one epoch past whatever the dead primary held.
    bump = acquire

    def renew(self) -> None:
        """Refresh the lease timestamp; raises if a higher epoch took it."""
        _FAULT_LEASE.hit(context=str(self.epoch))
        with self._lock:
            stored = int(Lease.read(self.path).get("epoch", 0))
            if stored > self.epoch:
                raise LeaseLostError(
                    f"lease at epoch {stored} > ours ({self.epoch}); deposed"
                )
            self._write({
                "epoch": self.epoch,
                "holder": self.holder,
                "renewed_at": time.time(),
            })

    def expired(self) -> bool:
        """True when the stored lease is missing or older than the TTL."""
        record = Lease.read(self.path)
        if not record:
            return True
        try:
            renewed_at = float(record.get("renewed_at", 0.0))
        except (TypeError, ValueError):
            return True
        return (time.time() - renewed_at) > self.ttl_seconds


class FrameCorruptError(ValueError):
    """A frame failed magic, length, or checksum validation."""


class ReplicationFencedError(RuntimeError):
    """The standby rejected a frame because its epoch is stale."""

    def __init__(self, epoch: int, fence_epoch: int):
        super().__init__(
            f"replication fenced: epoch {epoch} < standby epoch {fence_epoch}"
        )
        self.epoch = epoch
        self.fence_epoch = fence_epoch


def encode_frame(message: dict) -> bytes:
    """Serialise one protocol message to its on-wire frame."""
    payload = json.dumps(message, sort_keys=True, default=str).encode("utf-8")
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


class FrameDecoder:
    """Incremental frame decoder tolerant of arbitrary chunking.

    Feed it bytes as they arrive; it yields complete messages and holds any
    incomplete tail until the next :meth:`feed`.  Torn or truncated frames
    therefore never produce a message — they just stay pending — while a
    bad magic, oversized length, or checksum mismatch raises
    :class:`FrameCorruptError` (the connection is unrecoverable from that
    point: framing is lost).
    """

    def __init__(self):
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict]:
        """Consume ``data`` and return every complete message it finishes."""
        self._buffer.extend(data)
        messages: list[dict] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            magic, length, checksum = _HEADER.unpack_from(self._buffer, 0)
            if magic != MAGIC:
                raise FrameCorruptError("bad frame magic")
            if length > MAX_FRAME_BYTES:
                raise FrameCorruptError(f"frame length {length} exceeds cap")
            if len(self._buffer) < _HEADER.size + length:
                return messages
            payload = bytes(self._buffer[_HEADER.size : _HEADER.size + length])
            del self._buffer[: _HEADER.size + length]
            if zlib.crc32(payload) != checksum:
                raise FrameCorruptError("frame checksum mismatch")
            try:
                message = json.loads(payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise FrameCorruptError(f"frame payload not JSON: {exc}") from exc
            if not isinstance(message, dict):
                raise FrameCorruptError("frame payload is not an object")
            messages.append(message)


def _recv_message(
    sock: socket.socket, decoder: FrameDecoder, pending: list[dict]
) -> dict | None:
    """Block until one message decodes, or return None on clean EOF.

    ``pending`` buffers extra messages when one recv() completes several
    frames at once (e.g. a burst of duplicated acks).
    """
    if pending:
        return pending.pop(0)
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return None
        messages = decoder.feed(chunk)
        if messages:
            pending.extend(messages[1:])
            return messages[0]


class ReplicationAcceptor:
    """Standby-side replication listener.

    Accepts one (or more, serially meaningful) primary connection, applies
    every ``append`` record through ``apply`` (typically
    ``PendingJournal.append_replica``) and acks it.  Frames whose epoch is
    below :attr:`epoch` are rejected with ``stale_epoch`` — the fence that
    makes split brain safe.  Corrupt frames drop the connection (framing is
    lost) and count toward :attr:`corrupt_frames`.

    Parameters
    ----------
    host, port : str, int
        Listen address.  Port 0 picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    apply : callable
        Called with each replicated record dict; exceptions other than
        :class:`StaleEpochError` are logged and nack'd as ``apply_error``.
    epoch : int, optional
        Initial fence epoch; frames below it are rejected.
    """

    def __init__(self, host: str, port: int, apply, epoch: int = 0):
        self._host = host
        self._port = port
        self._apply = apply
        self._lock = threading.Lock()
        self._epoch = int(epoch)
        self._server: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self.last_contact = 0.0
        self.frames_total = 0
        self.records_total = 0
        self.heartbeats_total = 0
        self.fenced_total = 0
        self.corrupt_frames = 0

    # ------------------------------------------------------------------ #

    @property
    def address(self) -> tuple[str, int]:
        """The bound listen address (resolves port 0 after start)."""
        if self._server is None:
            return (self._host, self._port)
        return self._server.getsockname()[:2]

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def set_epoch(self, epoch: int) -> None:
        """Raise the fence; frames below ``epoch`` are rejected."""
        with self._lock:
            self._epoch = max(self._epoch, int(epoch))

    def last_contact_age(self) -> float:
        """Seconds since the primary last sent any frame (inf if never)."""
        if not self.last_contact:
            return float("inf")
        return time.monotonic() - self.last_contact

    def snapshot(self) -> dict:
        """Counters for the fleet ``/healthz`` and ``/metrics``."""
        return {
            "epoch": self.epoch,
            "frames_total": self.frames_total,
            "records_total": self.records_total,
            "heartbeats_total": self.heartbeats_total,
            "fenced_total": self.fenced_total,
            "corrupt_frames": self.corrupt_frames,
            "last_contact_age_s": (
                None
                if not self.last_contact
                else round(self.last_contact_age(), 3)
            ),
        }

    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Bind the listen socket and start the accept thread."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self._host, self._port))
        server.listen(4)
        server.settimeout(0.2)
        self._server = server
        thread = threading.Thread(
            target=self._accept_loop, name="repl-accept", daemon=True
        )
        thread.start()
        self._threads.append(thread)

    def stop(self) -> None:
        """Stop accepting and close the listen socket (idempotent)."""
        self._stop.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            server = self._server
            if server is None:
                return
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        decoder = FrameDecoder()
        conn.settimeout(0.5)
        try:
            while not self._stop.is_set():
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not chunk:
                    return
                try:
                    messages = decoder.feed(chunk)
                except FrameCorruptError as exc:
                    self.corrupt_frames += 1
                    log_event(
                        "replication_corrupt_frame", level="warning", error=str(exc)
                    )
                    return
                for message in messages:
                    self._handle_message(conn, message)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle_message(self, conn: socket.socket, message: dict) -> None:
        self.frames_total += 1
        self.last_contact = time.monotonic()
        kind = message.get("type")
        seq = int(message.get("seq", 0))
        epoch = int(message.get("epoch", 0))
        if epoch < self.epoch:
            self.fenced_total += 1
            log_event(
                "replication_fenced_frame",
                level="warning",
                frame_type=str(kind),
                epoch=epoch,
                fence_epoch=self.epoch,
            )
            self._send(conn, {"type": "reject", "seq": seq,
                              "epoch": self.epoch, "reason": "stale_epoch"})
            return
        if kind in ("hello", "heartbeat"):
            if kind == "heartbeat":
                self.heartbeats_total += 1
            self._send(conn, {"type": "ack", "seq": seq, "epoch": self.epoch})
            return
        if kind == "append":
            record = message.get("record")
            if not isinstance(record, dict):
                self._send(conn, {"type": "reject", "seq": seq,
                                  "epoch": self.epoch, "reason": "bad_record"})
                return
            try:
                self._apply(record)
            except StaleEpochError:
                self.fenced_total += 1
                self._send(conn, {"type": "reject", "seq": seq,
                                  "epoch": self.epoch, "reason": "stale_epoch"})
                return
            except Exception as exc:  # noqa: BLE001 - nack'd, never fatal
                log_event(
                    "replication_apply_error", level="error", error=str(exc)
                )
                self._send(conn, {"type": "reject", "seq": seq,
                                  "epoch": self.epoch, "reason": "apply_error"})
                return
            self.records_total += 1
            self._send(conn, {"type": "ack", "seq": seq, "epoch": self.epoch})
            return
        # Unknown frame type: ack it so old primaries aren't wedged by a
        # newer peer, but log for the operator.
        log_event("replication_unknown_frame", level="warning",
                  frame_type=str(kind))
        self._send(conn, {"type": "ack", "seq": seq, "epoch": self.epoch})

    @staticmethod
    def _send(conn: socket.socket, message: dict) -> None:
        try:
            conn.sendall(encode_frame(message))
        except OSError:
            pass


class ReplicationLink:
    """Primary-side synchronous replication client.

    Lazily connects to the standby, sends a ``hello`` carrying the current
    epoch, and then ships every journal record as an ``append`` frame,
    blocking until the standby acks it.  Transient failures (connection
    refused/reset, timeouts, injected ``replication.send`` faults) degrade
    the link: :meth:`send_record` returns ``False`` and a reconnect is
    attempted with backoff — the primary keeps serving (availability over
    replication) and counts the miss.  A ``stale_epoch`` reject is *not*
    transient: it means a standby promoted past us, and
    :class:`ReplicationFencedError` is raised so the caller can stand down.

    Parameters
    ----------
    address : tuple[str, int]
        Standby replication address.
    epoch : int
        Leadership epoch stamped on every frame.
    timeout : float, optional
        Per-frame connect/ack deadline in seconds.
    reconnect_backoff_seconds : float, optional
        Minimum wait between reconnect attempts after a link failure.
    on_connect : callable, optional
        Called with this link after each successful hello handshake —
        the fleet uses it to stream catch-up records (the journal's
        unfinished entries) to a standby that attached late.
    """

    def __init__(
        self,
        address: tuple[str, int],
        epoch: int = 0,
        timeout: float = 5.0,
        reconnect_backoff_seconds: float = 0.5,
        on_connect=None,
    ):
        self.address = (address[0], int(address[1]))
        self._epoch = int(epoch)
        self._timeout = float(timeout)
        self._backoff = float(reconnect_backoff_seconds)
        self.on_connect = on_connect
        self._lock = threading.RLock()
        self._sock: socket.socket | None = None
        self._decoder = FrameDecoder()
        self._inbox: list[dict] = []
        self._seq = 0
        self._down_until = 0.0
        self.connected = False
        self.records_total = 0
        self.failures_total = 0

    # ------------------------------------------------------------------ #

    @property
    def epoch(self) -> int:
        return self._epoch

    def set_epoch(self, epoch: int) -> None:
        """Update the epoch stamped on subsequent frames."""
        self._epoch = int(epoch)

    def snapshot(self) -> dict:
        return {
            "address": f"{self.address[0]}:{self.address[1]}",
            "connected": self.connected,
            "epoch": self._epoch,
            "records_total": self.records_total,
            "failures_total": self.failures_total,
        }

    def close(self) -> None:
        with self._lock:
            self._teardown()

    # ------------------------------------------------------------------ #

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._decoder = FrameDecoder()
        self._inbox = []
        self.connected = False

    def _ensure_connected(self) -> bool:
        if self._sock is not None:
            return True
        if time.monotonic() < self._down_until:
            return False
        try:
            sock = socket.create_connection(self.address, timeout=self._timeout)
            sock.settimeout(self._timeout)
        except OSError:
            self._down_until = time.monotonic() + self._backoff
            return False
        self._sock = sock
        self._decoder = FrameDecoder()
        self._inbox = []
        self.connected = True
        try:
            self._exchange({"type": "hello"})
        except ReplicationFencedError:
            raise
        except (OSError, FrameCorruptError):
            self._teardown()
            self._down_until = time.monotonic() + self._backoff
            return False
        log_event("replication_connected",
                  standby=f"{self.address[0]}:{self.address[1]}",
                  epoch=self._epoch)
        if self.on_connect is not None:
            try:
                self.on_connect(self)
            except ReplicationFencedError:
                raise
            except Exception as exc:  # noqa: BLE001 - catch-up best effort
                log_event("replication_catchup_error", level="warning",
                          error=str(exc))
        return True

    def _exchange(self, message: dict) -> dict:
        """Send one frame and block for its (>= seq) ack.

        Duplicated or reordered acks with a lower seq are ignored; the
        first ack at or past our seq completes the exchange.  Raises
        ``OSError`` on link failure, :class:`ReplicationFencedError` on a
        ``stale_epoch`` reject, and ``FrameCorruptError`` if the standby's
        response stream is garbled.
        """
        self._seq += 1
        seq = self._seq
        frame = dict(message)
        frame["seq"] = seq
        frame["epoch"] = self._epoch
        data = encode_frame(frame)
        data = _FAULT_SEND.hit(context=str(frame.get("type", "")), data=data)
        sock = self._sock
        if sock is None:
            raise OSError("replication link not connected")
        sock.sendall(data)
        deadline = time.monotonic() + self._timeout
        while True:
            if time.monotonic() > deadline:
                raise socket.timeout("replication ack timeout")
            reply = _recv_message(sock, self._decoder, self._inbox)
            if reply is None:
                raise OSError("replication connection closed")
            if reply.get("type") == "reject":
                reason = reply.get("reason")
                if reason == "stale_epoch":
                    raise ReplicationFencedError(
                        self._epoch, int(reply.get("epoch", 0))
                    )
                raise OSError(f"replication rejected: {reason}")
            if reply.get("type") == "ack" and int(reply.get("seq", -1)) >= seq:
                return reply
            # Stale/duplicate ack from an earlier exchange: ignore it.

    def _send_with_retry(self, message: dict) -> bool:
        """One send attempt plus one immediate reconnect-and-resend."""
        with self._lock:
            for attempt in (0, 1):
                try:
                    if not self._ensure_connected():
                        break
                    self._exchange(message)
                    return True
                except ReplicationFencedError:
                    self._teardown()
                    raise
                except (OSError, FrameCorruptError, FaultInjected) as exc:
                    self._teardown()
                    if attempt == 1:
                        self._down_until = time.monotonic() + self._backoff
                        log_event("replication_send_failed", level="warning",
                                  error=str(exc))
            return False

    def send_record(self, record: dict) -> bool:
        """Replicate one journal record; True iff the standby acked it."""
        ok = self._send_with_retry({"type": "append", "record": record})
        if ok:
            self.records_total += 1
        else:
            self.failures_total += 1
        return ok

    def heartbeat(self) -> bool:
        """Send a liveness frame; True iff the standby acked it."""
        return self._send_with_retry({"type": "heartbeat"})
