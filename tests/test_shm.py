"""Shared-memory transport: ring protocol units + differential grid.

Three layers, mirroring DESIGN §14's argument structure:

* :class:`RingBuffer` unit tests — wraparound, credit exhaustion, the
  un-claimable edge (a frame whose wrap padding can never fit), and a
  threaded producer/consumer that proves the credit wait is deadlock-
  free (the producer blocks on a full ring and always unblocks).
* The differential grid — the shm transport is bit-identical to
  :func:`~repro.parallel.runtime.run_serial` ground truth *and* to the
  pipe transport across worker counts, batch sizes, expiry modes and
  routing schemes; real processes over mirror rings small enough to
  force wraparound and credit waits.
* Lifecycle — segments are unlinked on the happy path, on a worker
  SIGKILLed inside its loop, and on KeyboardInterrupt mid-drain;
  unsupported platforms are rejected with a pointed error.
"""

import os
import queue
import signal
import threading
import time

import pytest

from repro.core.config import JoinConfig
from repro.obs.baseline import compare_fingerprints
from repro.obs.spans import WORKER_PHASES
from repro.parallel import ParallelJoinRunner, run_serial
from repro.parallel.codec import (
    HEARTBEAT_PHASES,
    SHM_DESCRIPTOR_BYTES,
    TAG_SHM_MATCHES,
    BatchEncoder,
    CodecError,
    decode_record_batch,
    decode_shm_descriptor,
    encode_record_batch,
    encode_shm_descriptor,
    record_batch_parts,
)
from repro.parallel.runtime import ParallelWorkerError
from repro.parallel.shm import (
    DEFAULT_RING_BYTES,
    MIN_RING_BYTES,
    RING_HEADER_BYTES,
    RingBuffer,
    RingError,
    ShmRing,
    attach_ring,
    shm_supported,
)
from repro.records import Record

import random


def fuzz_records(seed: int, n: int = 300):
    rng = random.Random(seed)
    records = []
    clock = 0.0
    for rid in range(n):
        clock += rng.expovariate(50.0)
        if records and rng.random() < 0.35:
            base = list(rng.choice(records[-50:]).tokens)
            if len(base) > 1 and rng.random() < 0.5:
                base.pop(rng.randrange(len(base)))
            else:
                extra = rng.randrange(120)
                if extra not in base:
                    base.append(extra)
            tokens = tuple(sorted(base))
        else:
            size = rng.randint(1, 14)
            tokens = tuple(sorted(rng.sample(range(120), size)))
        records.append(Record(rid=rid, tokens=tokens, timestamp=round(clock, 6)))
    return records


def assert_equal_observables(serial, result, context):
    assert result.matches == serial.matches, f"{context}: match rows differ"
    assert result.operations == serial.operations, (
        f"{context}: operation totals differ"
    )
    assert result.events == serial.events, f"{context}: event totals differ"
    assert result.signals == serial.signals, f"{context}: signal peaks differ"
    verdict = compare_fingerprints(serial.fingerprint(), result.fingerprint())
    assert verdict["status"] == "ok", f"{context}: {verdict['failures']}"


def try_process_run(runner, records):
    try:
        return runner.run(records)
    except (ImportError, OSError, PermissionError) as error:
        pytest.skip(f"multiprocessing unavailable on this host: {error}")


# -- ring protocol units -----------------------------------------------------

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
        assert ring.claimable(100)           # would fit once drained
        assert ring.try_claim(100) is None   # but not while occupied
        ring.release(advance)
        assert ring.try_claim(100) is not None

    def test_unclaimable_frame_never_blocks(self):
        ring = RingBuffer.local(128)
        offset, advance = ring.try_claim(100)
        ring.publish(advance)
        ring.release(advance)
        # Head frozen at 100: pad 28 + 101 > 128 even on an empty ring.
        assert ring.claimable(100)
        assert not ring.claimable(101)
        assert ring.try_claim(101) is None
        assert not ring.claimable(129)  # larger than the ring, anywhere

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
                # The producer's credit wait, as ship_matches runs it.
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

    def test_detach_is_idempotent(self):
        ring = RingBuffer.local(64)
        ring.detach()
        ring.detach()


class TestShmDescriptorCodec:
    def test_round_trip(self):
        frame = encode_shm_descriptor(TAG_SHM_MATCHES, 3, 4096, 1234, 1300, 7)
        assert len(frame) == SHM_DESCRIPTOR_BYTES
        assert frame[0] == TAG_SHM_MATCHES
        assert decode_shm_descriptor(frame[1:]) == (3, 4096, 1234, 1300, 7)

    def test_matches_tag(self):
        frame = encode_shm_descriptor(TAG_SHM_MATCHES, 0, 0, 40, 40, 0)
        assert frame[0] == TAG_SHM_MATCHES

    def test_truncated_rejected(self):
        frame = encode_shm_descriptor(TAG_SHM_MATCHES, 0, 0, 8, 8, 0)
        with pytest.raises(CodecError, match="descriptor"):
            decode_shm_descriptor(frame[1:-1])


class TestBatchEncoder:
    """The pipe codec's preallocated-scratch encode path."""

    def _items(self, n=50, seed=4):
        rng = random.Random(seed)
        return [
            (
                0,
                Record(
                    rid=i,
                    tokens=tuple(sorted(rng.sample(range(90), rng.randint(1, 9)))),
                    timestamp=round(i * 0.01, 6),
                ),
            )
            for i in range(n)
        ]

    def test_matches_join_encoding(self):
        items = self._items()
        encoder = BatchEncoder()
        view = encoder.encode(b"\x01ABCD", items)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"\x01ABCD" + encode_record_batch(items)

    def test_scratch_reused_across_calls(self):
        items = self._items()
        encoder = BatchEncoder(capacity=16)  # forces at least one growth
        first = bytes(encoder.encode(b"", items))
        # The returned view is a window over the scratch: the next call
        # overwrites it, but its *content* round-trips first.
        second = bytes(encoder.encode(b"", items))
        assert first == second == encode_record_batch(items)

    def test_decoded_from_view_identical(self):
        items = self._items()
        encoder = BatchEncoder()
        decoded = decode_record_batch(encoder.encode(b"", items))
        assert decoded == decode_record_batch(encode_record_batch(items))

    def test_parts_concatenate_to_frame(self):
        items = self._items()
        assert b"".join(record_batch_parts(items)) == encode_record_batch(items)


def test_heartbeat_phases_track_worker_phases():
    """The heartbeat frame carries exactly the worker span phases, in
    order — adding a phase to one without the other desyncs decode."""
    assert HEARTBEAT_PHASES == WORKER_PHASES


# -- differential grid -------------------------------------------------------

class TestShmDifferentialGrid:
    """shm == serial == pipe on every observable, with wraparound: real
    workers returning their rows through mirror rings of the minimum
    size, so frames wrap and the workers wait on credits."""

    @pytest.mark.skipif(
        not shm_supported()[0], reason="shared memory unsupported on this host"
    )
    @pytest.mark.parametrize("distribution", ["length", "prefix"])
    @pytest.mark.parametrize("expiry", ["lazy", "eager"])
    def test_grid(self, distribution, expiry):
        import math

        window = 2.0 if expiry == "eager" else math.inf
        config = JoinConfig(
            threshold=0.6,
            distribution=distribution,
            expiry=expiry,
            window_seconds=window,
        )
        seed = {"length": 300, "prefix": 400}[distribution] + {
            "lazy": 1, "eager": 2
        }[expiry]
        records = fuzz_records(seed=seed)
        serial = run_serial(config, records)
        assert serial.results > 0, "fuzz stream produced no matches"
        for batch_size in (7, 64):
            pipe = ParallelJoinRunner(
                config, workers=2, executor="inline",
                batch_size=batch_size, transport="pipe",
            ).run(records)
            for workers in (1, 2):
                shm = try_process_run(
                    ParallelJoinRunner(
                        config, workers=workers, batch_size=batch_size,
                        transport="shm", ring_bytes=MIN_RING_BYTES,
                    ),
                    records,
                )
                context = (
                    f"{distribution}/{expiry}/batch={batch_size}"
                    f"/workers={workers}"
                )
                assert_equal_observables(serial, shm, context)
                assert shm.matches == pipe.matches, (
                    f"{context}: shm and pipe transports diverge"
                )
                assert shm.transport == "shm"

    @pytest.mark.skipif(
        not shm_supported()[0], reason="shared memory unsupported on this host"
    )
    @pytest.mark.parametrize("ring_bytes", [MIN_RING_BYTES, DEFAULT_RING_BYTES])
    def test_dense_cell_ships_many_batches_per_worker(self, ring_bytes):
        """~40 matches per record, batches of 8: every worker ships
        well over three times through its ring, so the frame generation
        has to carry across ships (the driver counts it per worker for
        the whole run)."""
        records = [
            Record(rid=rid, tokens=(rid % 3, 7, 9), timestamp=rid * 0.001)
            for rid in range(120)
        ]
        config = JoinConfig(threshold=0.9, num_workers=4, distribution="prefix")
        serial = run_serial(config, records)
        assert serial.results > 2000
        result = try_process_run(
            ParallelJoinRunner(
                config, workers=2, batch_size=8, transport="shm",
                ring_bytes=ring_bytes, spans=True,
            ),
            records,
        )
        assert_equal_observables(serial, result, f"dense shm ring={ring_bytes}")
        ships = [
            row["worker"] for row in result.span_rows
            if row["phase"] == "shm_write"
        ]
        assert all(ships.count(worker) >= 3 for worker in (0, 1)), ships

    def test_auto_resolves_to_pipe_inline(self):
        config = JoinConfig(threshold=0.6)
        runner = ParallelJoinRunner(
            config, workers=2, executor="inline", transport="auto"
        )
        assert runner.transport == "pipe"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            ParallelJoinRunner(
                JoinConfig(threshold=0.6), workers=1, transport="carrier-pigeon"
            )

    def test_tiny_ring_rejected(self):
        with pytest.raises(ValueError, match="ring_bytes"):
            ParallelJoinRunner(
                JoinConfig(threshold=0.6), workers=1,
                transport="shm", executor="inline",
                ring_bytes=MIN_RING_BYTES - 1,
            )


@pytest.mark.skipif(
    not shm_supported()[0], reason="shared memory unsupported on this host"
)
class TestShmProcessExecutor:
    """Real processes over real segments (skips on restricted hosts)."""

    def test_process_shm_equals_serial(self):
        config = JoinConfig(threshold=0.6, distribution="prefix")
        records = fuzz_records(seed=42, n=250)
        serial = run_serial(config, records)
        runner = ParallelJoinRunner(
            config, workers=2, executor="process",
            transport="shm", batch_size=32,
        )
        result = try_process_run(runner, records)
        assert_equal_observables(serial, result, "process/shm")
        assert result.transport == "shm"
        assert len(runner.shm_segment_names) == 2  # one mirror ring per worker

    def test_auto_resolves_to_pipe_for_processes(self):
        # Measured, not assumed: with results the only traffic, shm won
        # on no benchmark workload (EXPERIMENTS.md, PR 21).
        config = JoinConfig(threshold=0.6)
        runner = ParallelJoinRunner(
            config, workers=1, executor="process", transport="auto"
        )
        assert runner.transport == "pipe"

    def test_small_ring_forces_credit_waits(self):
        """A mirror ring much smaller than the result forces the
        workers through the credit wait loop; observables are
        unaffected."""
        config = JoinConfig(threshold=0.6, batch_size=16)
        records = fuzz_records(seed=13, n=250)
        serial = run_serial(config, records)
        runner = ParallelJoinRunner(
            config, workers=2, executor="process",
            transport="shm", ring_bytes=MIN_RING_BYTES,
        )
        result = try_process_run(runner, records)
        assert_equal_observables(serial, result, "process/shm/small-ring")


# -- lifecycle ---------------------------------------------------------------

def _segments_all_unlinked(names):
    from multiprocessing import shared_memory

    leaked = []
    for name in names:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        segment.close()
        leaked.append(name)
    return leaked


@pytest.mark.skipif(
    not shm_supported()[0], reason="shared memory unsupported on this host"
)
class TestSegmentLifecycle:
    def test_shmring_close_unlink_idempotent(self):
        ring = ShmRing(MIN_RING_BYTES)
        name = ring.name
        attached_segment, attached = attach_ring(name)
        attached.detach()
        attached_segment.close()
        ring.unlink()
        ring.unlink()
        ring.close()
        assert _segments_all_unlinked([name]) == []

    def test_happy_path_unlinks(self):
        config = JoinConfig(threshold=0.6)
        records = fuzz_records(seed=21, n=150)
        runner = ParallelJoinRunner(
            config, workers=2, executor="process", transport="shm"
        )
        try_process_run(runner, records)
        assert runner.shm_segment_names
        assert _segments_all_unlinked(runner.shm_segment_names) == []

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_sigkilled_worker_does_not_leak_segments(
        self, monkeypatch, transport
    ):
        """Worker 1 of two SIGKILLed inside ``ShardWorker.run``, a few
        batches into its loop, while worker 0 — slowed to several
        seconds — is still running: ``ParallelWorkerError`` in well
        under half of worker 0's run time on either transport (the
        driver reads every pipe at once, so a dead worker is its own
        pipe's EOF, not something found after its predecessors finish),
        every segment unlinked, no zombie left behind."""
        from repro.parallel.worker import ShardWorker

        real = ShardWorker.process_batch

        def dying(self, shard, items):
            if self.worker == 1 and self.batches == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            if self.worker == 0:
                time.sleep(0.1)
            real(self, shard, items)

        config = JoinConfig(threshold=0.6, batch_size=64)
        records = fuzz_records(seed=23, n=4000)
        batches = ParallelJoinRunner(
            config, workers=2, executor="inline"
        ).run(records, sink=lambda frame: None).worker_stats[0]["batches"]
        assert 0.1 * batches > 4.0, "worker 0 would not outlive the check"
        monkeypatch.setattr(ShardWorker, "process_batch", dying)
        runner = ParallelJoinRunner(
            config, workers=2, executor="process",
            transport=transport, start_method="fork",
        )
        started = time.monotonic()
        with pytest.raises(ParallelWorkerError, match="worker 1 exited"):
            try:
                runner.run(records)
            except (ImportError, OSError, PermissionError) as error:
                pytest.skip(f"multiprocessing unavailable: {error}")
        assert time.monotonic() - started < 2.0
        if transport == "shm":
            assert runner.shm_segment_names
            assert _segments_all_unlinked(runner.shm_segment_names) == []
        try:
            # An exited-but-unreaped child would be returned here.
            assert os.waitpid(-1, os.WNOHANG) == (0, 0)
        except ChildProcessError:
            pass  # no children at all

    def test_keyboard_interrupt_does_not_leak_segments(self, monkeypatch):
        """Ctrl-C mid-drain propagates and still unlinks every segment."""
        import repro.parallel.runtime as runtime_mod

        def interrupting(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(runtime_mod, "decode_shm_descriptor", interrupting)
        config = JoinConfig(threshold=0.6, batch_size=16)
        records = fuzz_records(seed=29, n=200)
        runner = ParallelJoinRunner(
            config, workers=2, executor="process",
            transport="shm", start_method="fork",
        )
        with pytest.raises(KeyboardInterrupt):
            try:
                runner.run(records)
            except (ImportError, OSError, PermissionError) as error:
                pytest.skip(f"multiprocessing unavailable: {error}")
        assert runner.shm_segment_names
        assert _segments_all_unlinked(runner.shm_segment_names) == []


class TestUnsupportedPlatform:
    def test_runner_rejects_shm_when_unsupported(self, monkeypatch):
        import repro.parallel.runtime as runtime_mod

        monkeypatch.setattr(
            runtime_mod, "shm_supported",
            lambda: (False, "no /dev/shm mounted"),
        )
        with pytest.raises(ValueError, match="unsupported on this platform"):
            ParallelJoinRunner(
                JoinConfig(threshold=0.6), workers=1,
                executor="process", transport="shm",
            )

    def test_auto_falls_back_to_pipe_when_unsupported(self, monkeypatch):
        import repro.parallel.runtime as runtime_mod

        monkeypatch.setattr(
            runtime_mod, "shm_supported",
            lambda: (False, "no /dev/shm mounted"),
        )
        runner = ParallelJoinRunner(
            JoinConfig(threshold=0.6), workers=1,
            executor="process", transport="auto",
        )
        assert runner.transport == "pipe"
