"""The ring buffer the benchmark replay runs its records through.

:class:`~repro.parallel.shm.RingBuffer` over a ``bytearray`` — no
runtime path uses it (DESIGN §14): wraparound, credit exhaustion, the
unplaceable edge (a frame whose wrap padding can never fit), and a
threaded producer/consumer that shows the credit wait always drains.
"""

import queue
import threading
import time

import pytest

from repro.parallel.shm import RING_HEADER_BYTES, RingBuffer, RingError


class TestRingBuffer:
    def test_create_initialises_control_block(self):
        ring = RingBuffer.local(128)
        assert ring.capacity == 128
        assert ring.free_bytes() == 128

    def test_attach_reads_back_created_header(self):
        buf = bytearray(RING_HEADER_BYTES + 64)
        RingBuffer(buf, create=True)
        attached = RingBuffer(buf)
        assert attached.capacity == 64

    def test_bad_magic_rejected(self):
        buf = bytearray(RING_HEADER_BYTES + 64)
        with pytest.raises(RingError, match="magic"):
            RingBuffer(buf)

    def test_undersized_buffer_rejected(self):
        with pytest.raises(RingError, match="bytes"):
            RingBuffer(bytearray(RING_HEADER_BYTES), create=True)

    def test_claim_write_view_roundtrip(self):
        ring = RingBuffer.local(128)
        claim = ring.try_claim(10)
        assert claim == (0, 10)
        offset, advance = claim
        assert ring.write(offset, [b"hello", b"world"]) == 10
        ring.publish(advance)
        assert bytes(ring.view(offset, 10)) == b"helloworld"
        assert ring.free_bytes() == 118
        ring.release(advance)
        assert ring.free_bytes() == 128

    def test_wraparound_skips_tail_gap(self):
        ring = RingBuffer.local(128)
        offset, advance = ring.try_claim(80)
        assert (offset, advance) == (0, 80)
        ring.write(offset, [b"a" * 80])
        ring.publish(advance)
        ring.release(advance)
        # Head is at logical 80; an 80-byte frame no longer fits before
        # the wrap point, so the claim pads 48 bytes and lands at 0.
        offset, advance = ring.try_claim(80)
        assert offset == 0
        assert advance == 48 + 80
        ring.write(offset, [b"b" * 80])
        ring.publish(advance)
        assert bytes(ring.view(offset, 80)) == b"b" * 80
        ring.release(advance)
        assert ring.free_bytes() == 128

    def test_full_ring_claim_fails_until_release(self):
        ring = RingBuffer.local(128)
        offset, advance = ring.try_claim(100)
        ring.write(offset, [b"x" * 100])
        ring.publish(advance)
        assert ring.try_claim(100) is None   # not while occupied
        ring.release(advance)
        assert ring.try_claim(100) is not None

    def test_unclaimable_frame_never_blocks(self):
        ring = RingBuffer.local(128)
        offset, advance = ring.try_claim(100)
        ring.publish(advance)
        ring.release(advance)
        # Head at 100: pad 28 + 101 > 128 even on an empty ring, while
        # a frame that fits with its padding still claims.
        assert ring.free_bytes() == 128
        assert ring.try_claim(101) is None
        assert ring.try_claim(100) == (0, 128)
        assert ring.try_claim(129) is None  # larger than the ring, anywhere

    def test_threaded_producer_blocks_and_drains(self):
        """A full ring stalls the producer; the consumer's releases
        always unblock it — every frame arrives intact and in order."""
        ring = RingBuffer.local(256)
        frames = [bytes([65 + i]) * 96 for i in range(12)]
        descriptors: "queue.Queue" = queue.Queue()
        received = []
        stalled = threading.Event()

        def produce():
            for frame in frames:
                # The producer's credit wait.
                claim = ring.try_claim(len(frame))
                while claim is None:
                    stalled.set()
                    time.sleep(0.0005)
                    claim = ring.try_claim(len(frame))
                offset, advance = claim
                ring.write(offset, [frame])
                ring.publish(advance)
                descriptors.put((offset, len(frame), advance))

        def consume():
            time.sleep(0.05)  # guarantee the ring fills first
            for _ in frames:
                offset, length, advance = descriptors.get(timeout=5)
                received.append(bytes(ring.view(offset, length)))
                ring.release(advance)

        producer = threading.Thread(target=produce)
        consumer = threading.Thread(target=consume)
        producer.start()
        consumer.start()
        producer.join(timeout=10)
        consumer.join(timeout=10)
        assert not producer.is_alive() and not consumer.is_alive()
        assert received == frames
        assert stalled.is_set(), "ring never filled; test is vacuous"
        assert ring.free_bytes() == ring.capacity

