"""The bytearray SPSC ring buffer the benchmark replay runs its records
through.

No runtime path uses this module: results return over one pipe per
worker (DESIGN §10.2), and the shared-memory transport that hosted this
ring in ``/dev/shm`` segments won on no benchmark workload and is gone
(DESIGN §14). :class:`RingBuffer` stays only because
``benchmarks/e2e/layers.py`` replays the data path through it for its
``shm.*`` rows; ROADMAP item 1 deletes it with that replay.

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
gap (the claim's ``advance`` carries ``pad + length`` so the consumer
releases exactly what the producer claimed). The free space the
producer sees (``capacity - (head - tail)``) is its credit, replenished
by the consumer advancing ``tail``.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

__all__ = ["DEFAULT_RING_BYTES", "RING_HEADER_BYTES", "RingBuffer", "RingError"]

#: Default data capacity of one ring.
DEFAULT_RING_BYTES = 1 << 20

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
        # Local caches of the side-owned counters, read from the control
        # block so a second view over the same buffer starts consistent.
        self._head = _COUNTER.unpack_from(mv, _HEAD_OFFSET)[0]
        self._tail = _COUNTER.unpack_from(mv, _TAIL_OFFSET)[0]

    # -- shared ----------------------------------------------------------
    def _read_tail(self) -> int:
        return _COUNTER.unpack_from(self._mv, _TAIL_OFFSET)[0]

    # -- producer --------------------------------------------------------
    def free_bytes(self) -> int:
        return self.capacity - (self._head - self._read_tail())

    def try_claim(self, length: int) -> Optional[Tuple[int, int]]:
        """Reserve ``length`` contiguous bytes: ``(offset, advance)``.

        ``advance`` is ``length`` plus any skipped wrap padding — the
        amount :meth:`publish` (and the consumer's :meth:`release`)
        must advance by. Returns ``None`` when the consumer has not yet
        freed enough space, or when the frame plus its wrap padding at
        the current position exceeds the capacity (it could never be
        claimed here, however much is released).
        """
        offset = self._head % self.capacity
        pad = self.capacity - offset if offset + length > self.capacity else 0
        if pad + length > self.free_bytes():
            return None
        return (0 if pad else offset), pad + length

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

    @classmethod
    def local(cls, capacity: int = 1 << 16) -> "RingBuffer":
        """A process-local ring over a fresh ``bytearray``."""
        return cls(bytearray(RING_HEADER_BYTES + capacity), create=True)
