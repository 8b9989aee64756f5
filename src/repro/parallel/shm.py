"""Shared-memory results transport: an SPSC ring buffer per worker.

Under ``--transport shm`` a worker writes each match frame's column
slices directly into its single-producer/single-consumer *mirror* ring,
hosted in a :mod:`multiprocessing.shared_memory` segment the driver
owns, and publishes only a 21-byte frame descriptor (ring offset,
length, generation counter) over its pipe as a ``TAG_SHM_MATCHES``
control message. The driver reads each frame as a zero-copy
``memoryview`` and releases it — the bulk bytes never cross the kernel
pipe buffer. Records travel no wire at all (every worker is handed them
once, at start-up), so this is the only ring a run creates.

Ring layout (DESIGN §14)::

    [0:4)    magic u32 ("RNG1")
    [4:8)    data capacity u32
    [8:16)   head u64   — total bytes ever published (producer-owned)
    [16:24)  tail u64   — total bytes ever released  (consumer-owned)
    [24:64)  reserved
    [64:64+capacity)    the data region

Head and tail are *logical* (monotonically increasing) byte counters;
``offset = position % capacity`` locates a frame, and frames are always
contiguous — a frame that would straddle the wrap point skips the tail
gap (the descriptor's ``advance`` field carries ``pad + length`` so the
consumer releases exactly what the producer claimed). Each 8-byte
counter is written by exactly one side and read by the other; an
aligned 8-byte store is atomic on every platform CPython supports, and
a stale read only makes a side *under*-estimate the space or data
available — never corrupt it.

Credit-based flow control replaces blocking pipe writes: the free
space the producer sees (``capacity - (head - tail)``) *is* its credit
balance, replenished by the consumer advancing ``tail``. When a claim
fails the producer (:func:`repro.parallel.worker.ship_matches`, at a
batch boundary in the middle of the run) sleeps briefly and re-reads
``tail`` — the driver never writes and drains every worker's pipe at
once, releasing each frame as its descriptor arrives, so it always
makes progress and the wait is bounded (the worker additionally checks
in that loop that the driver is still there).

:class:`RingBuffer` is deliberately buffer-agnostic: the process
executor hands it shared-memory segments, while the unit tests run the
identical claim/publish/release protocol over a plain ``bytearray`` —
so wraparound and credit behaviour are covered deterministically, not
just by timing-dependent process runs.

Segment hygiene: the driver is the sole owner — it creates and always
unlinks (``finally`` + an ``atexit`` backstop, so KeyboardInterrupt and
worker crashes cannot leak ``/dev/shm`` entries). Workers only attach,
detach their views and close on exit; the single shared
``resource_tracker`` entry is removed exactly once, by the driver's
unlink (see :func:`attach_ring` for why workers never unregister).
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

__all__ = [
    "DEFAULT_RING_BYTES",
    "MIN_RING_BYTES",
    "RING_HEADER_BYTES",
    "RingBuffer",
    "ShmRing",
    "attach_ring",
    "shm_supported",
]

#: Default data capacity of one ring (one per worker).
DEFAULT_RING_BYTES = 1 << 20

#: Smallest ring the runtime accepts — one header plus room for a few
#: small frames (keeps the wait loop from degenerating per record).
MIN_RING_BYTES = 4096

#: Bytes reserved for the ring control block ahead of the data region.
RING_HEADER_BYTES = 64

_RING_MAGIC = 0x524E4731  # "RNG1"
_MAGIC_CAP = struct.Struct("<II")
_COUNTER = struct.Struct("<Q")
_HEAD_OFFSET = 8
_TAIL_OFFSET = 16


class RingError(RuntimeError):
    """A ring buffer that does not parse or is used out of protocol."""


class RingBuffer:
    """One SPSC byte ring over any writable buffer.

    Exactly one producer calls :meth:`try_claim` / :meth:`write` /
    :meth:`publish`; exactly one consumer calls :meth:`view` /
    :meth:`release`.
    The backing buffer must hold ``RING_HEADER_BYTES + capacity``
    bytes; pass ``create=True`` from the side that owns the memory to
    initialise the control block.
    """

    __slots__ = ("capacity", "_mv", "_data", "_head", "_tail")

    def __init__(self, buf, create: bool = False):
        mv = memoryview(buf)
        if mv.format != "B":
            mv = mv.cast("B")
        if len(mv) < RING_HEADER_BYTES + 1:
            raise RingError(
                f"ring buffer needs > {RING_HEADER_BYTES} bytes, "
                f"have {len(mv)}"
            )
        self._mv = mv
        capacity = len(mv) - RING_HEADER_BYTES
        if create:
            _MAGIC_CAP.pack_into(mv, 0, _RING_MAGIC, capacity)
            _COUNTER.pack_into(mv, _HEAD_OFFSET, 0)
            _COUNTER.pack_into(mv, _TAIL_OFFSET, 0)
        else:
            magic, stored = _MAGIC_CAP.unpack_from(mv, 0)
            if magic != _RING_MAGIC:
                raise RingError(f"bad ring magic 0x{magic:08x}")
            if stored > capacity:
                raise RingError(
                    f"ring header claims {stored} data bytes, "
                    f"buffer holds {capacity}"
                )
            capacity = stored
        self.capacity = capacity
        self._data = mv[RING_HEADER_BYTES : RING_HEADER_BYTES + capacity]
        # Local caches of the side-owned counters; re-synced from the
        # control block so late attachers (workers) start consistent.
        self._head = _COUNTER.unpack_from(mv, _HEAD_OFFSET)[0]
        self._tail = _COUNTER.unpack_from(mv, _TAIL_OFFSET)[0]

    # -- shared ----------------------------------------------------------
    def _read_tail(self) -> int:
        return _COUNTER.unpack_from(self._mv, _TAIL_OFFSET)[0]

    # -- producer --------------------------------------------------------
    def free_bytes(self) -> int:
        return self.capacity - (self._head - self._read_tail())

    def _pad(self, length: int) -> int:
        """Wrap padding a frame of ``length`` needs at the current
        producer position (0 when it fits before the wrap point)."""
        offset = self._head % self.capacity
        if offset + length > self.capacity:
            return self.capacity - offset
        return 0

    def claimable(self, length: int) -> bool:
        """Whether a frame of ``length`` can *ever* be claimed from the
        producer's current position.

        The producer's offset is frozen while it waits, so the wrap
        padding is too: if ``pad + length`` exceeds the capacity, no
        amount of consumer progress makes the claim succeed and waiting
        would deadlock. Callers must fall back to the pipe codec for
        such frames (possible once frames approach the ring size).
        """
        return self._pad(length) + length <= self.capacity

    def try_claim(self, length: int) -> Optional[Tuple[int, int]]:
        """Reserve ``length`` contiguous bytes: ``(offset, advance)``.

        ``advance`` is ``length`` plus any skipped wrap padding — the
        amount :meth:`publish` (and the consumer's :meth:`release`)
        must advance by. Returns ``None`` when the frame is not
        :meth:`claimable` (caller falls back to the pipe codec) or when
        the consumer has not yet freed enough space (caller waits on
        credits and retries — but only if ``claimable``).
        """
        pad = self._pad(length)
        if pad + length > self.capacity:
            return None
        if self.capacity - (self._head - self._read_tail()) < pad + length:
            return None
        offset = 0 if pad else self._head % self.capacity
        return offset, pad + length

    def write(self, offset: int, parts) -> int:
        """Copy ``parts`` (bytes-like slices) into the data region at
        ``offset``; returns the bytes written."""
        data = self._data
        cursor = offset
        for part in parts:
            end = cursor + len(part)
            data[cursor:end] = part
            cursor = end
        return cursor - offset

    def publish(self, advance: int) -> None:
        """Make the claimed frame visible to the consumer."""
        self._head += advance
        _COUNTER.pack_into(self._mv, _HEAD_OFFSET, self._head)

    # -- consumer --------------------------------------------------------
    def view(self, offset: int, length: int) -> memoryview:
        """Zero-copy view of one published frame."""
        if offset + length > self.capacity:
            raise RingError(
                f"frame [{offset}, {offset + length}) exceeds ring "
                f"capacity {self.capacity}"
            )
        return self._data[offset : offset + length]

    def release(self, advance: int) -> None:
        """Return a consumed frame's bytes to the producer's credit."""
        self._tail += advance
        _COUNTER.pack_into(self._mv, _TAIL_OFFSET, self._tail)

    # -- lifecycle -------------------------------------------------------
    def detach(self) -> None:
        """Release the ring's exported memoryviews (idempotent).

        ``SharedMemory.close`` refuses to unmap while views of its
        buffer are alive, so segment owners must detach the ring before
        closing. The ring is unusable afterwards.
        """
        data, self._data = self._data, None
        mv, self._mv = self._mv, None
        if data is not None:
            data.release()
        if mv is not None:
            mv.release()

    # -- construction helpers -------------------------------------------
    @classmethod
    def local(cls, capacity: int = 1 << 16) -> "RingBuffer":
        """A process-local ring over a fresh ``bytearray`` — the unit
        tests' backing store."""
        return cls(bytearray(RING_HEADER_BYTES + capacity), create=True)


def shm_supported() -> Tuple[bool, str]:
    """Whether this platform can host shared-memory rings.

    Probes by creating (and immediately unlinking) a tiny segment, so
    the answer reflects the real filesystem/namespace state — not just
    whether the module imports. Returns ``(ok, reason)``; ``reason`` is
    empty when supported.
    """
    try:
        from multiprocessing import shared_memory
    except ImportError as error:  # pragma: no cover - 3.8+ always has it
        return False, f"multiprocessing.shared_memory unavailable ({error})"
    try:
        probe = shared_memory.SharedMemory(create=True, size=64)
    except Exception as error:  # pragma: no cover - host-specific
        return False, f"cannot create a shared memory segment ({error})"
    try:
        probe.close()
        probe.unlink()
    except Exception:  # pragma: no cover - best-effort probe teardown
        pass
    return True, ""


class ShmRing:
    """A :class:`RingBuffer` hosted in a shared-memory segment.

    Created (and therefore unlinked) by the driver; workers attach by
    name via :func:`attach_ring`. ``close``/``unlink`` are idempotent
    so the ``finally`` path and the ``atexit`` backstop can both run.
    """

    __slots__ = ("segment", "ring", "_unlinked", "_closed")

    def __init__(self, capacity: int = DEFAULT_RING_BYTES):
        from multiprocessing import shared_memory

        if capacity < MIN_RING_BYTES:
            raise ValueError(
                f"ring capacity must be >= {MIN_RING_BYTES}, got {capacity}"
            )
        self.segment = shared_memory.SharedMemory(
            create=True, size=RING_HEADER_BYTES + capacity
        )
        self.ring = RingBuffer(self.segment.buf, create=True)
        self._unlinked = False
        self._closed = False

    @property
    def name(self) -> str:
        return self.segment.name

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Drop the RingBuffer's exported memoryviews first: SharedMemory
        # refuses to close while views of its buffer are alive.
        if self.ring is not None:
            self.ring.detach()
            self.ring = None
        try:
            self.segment.close()
        except (OSError, BufferError):  # pragma: no cover - live views
            # BufferError: a caller still holds a frame view; the name
            # is unlinked regardless and the mapping dies with the last
            # view, so nothing leaks past process exit.
            pass

    def unlink(self) -> None:
        self.close()
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def attach_ring(name: str):
    """Worker-side attach: ``(segment, RingBuffer)`` for a driver-owned
    segment.

    On CPython < 3.13 attaching re-registers the name with
    ``multiprocessing``'s ``resource_tracker`` (bpo-39959). That is
    harmless here: the tracker's cache is a per-name set shared by the
    whole process tree, so the duplicate registration coalesces and the
    driver's ``unlink`` removes the single entry. The worker must *not*
    unregister it early — that would strip the entry the driver's
    unlink later removes, making the tracker print ``KeyError`` noise
    at shutdown. The worker's only duty is detaching its views and
    ``segment.close()`` on exit; it never unlinks.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    return segment, RingBuffer(segment.buf)
