"""Struct-packed batch codec: the wire format between workers and driver.

The record batch codec below (:func:`record_batch_parts`,
:func:`encode_record_batch`, :class:`BatchEncoder`,
:func:`decode_record_batch`) is called by no runtime path: records are
published to the workers once as start-up arguments. It stays for the
benchmark replay that imports it and goes with ROADMAP item 1(a).

Per-record pickling dominates IPC cost for small records (a pickled
``Record`` is ~200 bytes and costs two dispatch round-trips through
``pickle``'s machinery per record). Instead, the runtime groups records
into fixed-size batches and serializes each batch as a handful of
typed-array buffers — one flat column per field, concatenated:

    header   ``<HBBII``: magic, version, flags, n_records, n_tokens
    ops      ``array('B')``  per-record op code (PROBE/INDEX/BOTH)
    rids     ``array('q')``  record ids
    sizes    ``array('i')``  token counts (prefix-summed into offsets
                             on decode)
    stamps   ``array('d')``  timestamps   (present iff FLAG_TIMESTAMPS)
    tokens   ``array('q')``  all token ids, concatenated in record
                             order — ``sizes`` delimits the slices
    sources  length-prefixed utf-8 table + ``array('h')`` per-record
             index                        (present iff FLAG_SOURCES)

Encoding a 512-record batch is five ``array.tobytes()`` calls; decoding
is five ``array.frombytes()`` calls plus one tuple-slicing loop. The
two optional sections vanish entirely in the common case (self-join of
an un-tagged stream with default timestamps would still carry stamps —
timestamps are almost never all-zero — but sources usually are).

Byte order is native: driver and workers are processes on one host.

Match batches travel the other way with the same idea: the five
columns of a :class:`MatchTable` ``(timestamps, rid_a, rid_b, overlap,
similarity)``, one row per reported pair, in canonical result order.

Heartbeat and summary frames (``TAG_HEARTBEAT``, ``TAG_DONE``) need
no codec here: each is the tag byte and a pickled dict, written on the
result pipe, so they arrive in order with the match frames around them.
A heartbeat is one snapshot of a worker's rolling counters; the summary
is the worker's one run-end report — its last counters (the final
telemetry sample), its meters, and its event-log columns, whose
``array`` objects pickle as their raw bytes.

This module is the single source of truth for the ``TAG_*`` frame
tags; :mod:`repro.parallel.worker` and the runtime import them from
here (a silent divergence would corrupt the wire protocol).
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from itertools import chain, compress, count, groupby, islice
from operator import eq, ge, itemgetter
from struct import pack
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.records import Record

#: Per-record op codes. Bit 0 = probe, bit 1 = index; BOTH does probe
#: first then index (the exactly-once order, matching the dispatcher's
#: ``"b"`` message kind).
PROBE, INDEX, BOTH = 1, 2, 3

#: Frame tags — the first byte of every pipe message. Defined once
#: here (and only here): driver and workers must agree on these or the
#: wire protocol silently corrupts.
TAG_MATCHES = 0x11      # worker → driver: match batch, repeated
TAG_DONE = 0x12         # worker → driver: pickled run-end summary dict
TAG_HEARTBEAT = 0x14    # worker → driver: pickled live-counter dict
TAG_ERROR = 0x7F        # worker → driver: pickled traceback string

MAGIC = 0x5052  # "PR"
VERSION = 1
FLAG_TIMESTAMPS = 1
FLAG_SOURCES = 2

_HEADER = struct.Struct("<HBBII")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class CodecError(ValueError):
    """A batch buffer that does not parse (truncated / wrong magic)."""


def record_batch_parts(
    items: Sequence[Tuple[int, Record]]
) -> List[bytes]:
    """Column slices of one record batch, in wire order.

    The parts sum to exactly :func:`encode_record_batch`'s output; the
    split form lets :class:`BatchEncoder` copy them into a reused
    scratch buffer without materialising the joined intermediate.
    """
    ops = array("B")
    rids = array("q")
    sizes = array("i")
    stamps = array("d")
    tokens = array("q")
    source_index = array("h")
    source_table: List[str] = []
    source_slots = {}
    any_stamp = False
    any_source = False
    for op, record in items:
        ops.append(op)
        rids.append(record.rid)
        sizes.append(len(record.tokens))
        stamps.append(record.timestamp)
        any_stamp = any_stamp or record.timestamp != 0.0
        tokens.extend(record.tokens)
        source = record.source
        if source:
            any_source = True
        slot = source_slots.get(source)
        if slot is None:
            slot = source_slots[source] = len(source_table)
            source_table.append(source)
        source_index.append(slot)

    flags = 0
    if any_stamp:
        flags |= FLAG_TIMESTAMPS
    if any_source:
        flags |= FLAG_SOURCES
    parts = [
        _HEADER.pack(MAGIC, VERSION, flags, len(ops), len(tokens)),
        ops.tobytes(),
        rids.tobytes(),
        sizes.tobytes(),
    ]
    if any_stamp:
        parts.append(stamps.tobytes())
    parts.append(tokens.tobytes())
    if any_source:
        parts.append(_U16.pack(len(source_table)))
        for name in source_table:
            blob = name.encode("utf-8")
            parts.append(_U16.pack(len(blob)))
            parts.append(blob)
        parts.append(source_index.tobytes())
    return parts


def encode_record_batch(items: Sequence[Tuple[int, Record]]) -> bytes:
    """Pack ``(op, record)`` pairs into one contiguous buffer."""
    return b"".join(record_batch_parts(items))


class BatchEncoder:
    """Scratch-buffer record-batch encoder (the benchmark replay's).

    ``encode_record_batch`` allocates a fresh joined buffer per batch;
    at bench scale that is one short-lived multi-KB allocation per
    ~dozen records, all of it garbage the moment ``send_bytes``
    returns. This encoder keeps one growable ``bytearray`` alive for
    the whole feed and hands out a ``memoryview`` window over it —
    ``Connection.send_bytes`` accepts any buffer, so the per-batch
    allocation disappears from the ``encode`` phase entirely. The view
    is only valid until the next :meth:`encode` call (fine: the driver
    sends each batch before building the next).
    """

    __slots__ = ("_scratch",)

    def __init__(self, capacity: int = 1 << 16):
        self._scratch = bytearray(capacity)

    def encode(self, prefix: bytes, items: Sequence[Tuple[int, Record]]):
        """Encode ``prefix`` + the record batch into the scratch buffer;
        returns a ``memoryview`` of exactly the encoded bytes."""
        parts = record_batch_parts(items)
        total = len(prefix) + sum(len(part) for part in parts)
        scratch = self._scratch
        if total > len(scratch):
            # Grow geometrically and keep the larger buffer for reuse.
            self._scratch = scratch = bytearray(
                max(total, 2 * len(scratch))
            )
        scratch[: len(prefix)] = prefix
        cursor = len(prefix)
        for part in parts:
            end = cursor + len(part)
            scratch[cursor:end] = part
            cursor = end
        return memoryview(scratch)[:total]


def decode_record_batch(data) -> List[Tuple[int, Record]]:
    """Inverse of :func:`encode_record_batch`.

    ``data`` may be any bytes-like buffer (the benchmark replay passes
    a ``memoryview`` over its ring), so decoding copies each column
    exactly once (buffer → typed array).
    """
    if len(data) < _HEADER.size:
        raise CodecError(f"record batch truncated: {len(data)} bytes")
    magic, version, flags, n_records, n_tokens = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CodecError(f"bad record-batch magic 0x{magic:04x}")
    if version != VERSION:
        raise CodecError(f"unsupported record-batch version {version}")
    offset = _HEADER.size

    def take(nbytes: int):
        """The next ``nbytes`` of the buffer, or a pointed error."""
        nonlocal offset
        end = offset + nbytes
        if end > len(data):
            raise CodecError(
                f"record batch truncated: section at {offset} needs {end} bytes, "
                f"have {len(data)}"
            )
        chunk = data[offset:end]
        offset = end
        return chunk

    def column(typecode: str, count: int) -> array:
        col = array(typecode)
        col.frombytes(take(col.itemsize * count))
        return col

    ops = column("B", n_records)
    rids = column("q", n_records)
    sizes = column("i", n_records)
    if sizes and min(sizes) < 0:
        raise CodecError("record batch inconsistent: negative record size")
    if flags & FLAG_TIMESTAMPS:
        stamps = column("d", n_records)
    else:
        stamps = array("d", bytes(8 * n_records))
    tokens = tuple(column("q", n_tokens))

    sources: Sequence[str]
    if flags & FLAG_SOURCES:
        (n_sources,) = _U16.unpack(take(_U16.size))
        table = []
        for _ in range(n_sources):
            (blob_len,) = _U16.unpack(take(_U16.size))
            try:
                # bytes() tolerates memoryview input (it has no .decode).
                table.append(bytes(take(blob_len)).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise CodecError(
                    f"record batch inconsistent: source name is not UTF-8 ({exc})"
                ) from None
        index = column("h", n_records)
        if index and not 0 <= min(index) <= max(index) < n_sources:
            raise CodecError(
                f"record batch inconsistent: source slot outside the "
                f"{n_sources}-entry table"
            )
        sources = [table[slot] for slot in index]
    else:
        sources = [""] * n_records
    if offset != len(data):
        raise CodecError(
            f"record batch inconsistent: {len(data) - offset} bytes after "
            f"the last section"
        )

    items: List[Tuple[int, Record]] = []
    cursor = 0
    for k in range(n_records):
        size = sizes[k]
        items.append(
            (
                ops[k],
                Record(
                    rid=rids[k],
                    tokens=tokens[cursor : cursor + size],
                    timestamp=stamps[k],
                    source=sources[k],
                ),
            )
        )
        cursor += size
    if cursor != n_tokens:
        raise CodecError(
            f"record batch inconsistent: sizes sum to {cursor}, "
            f"header says {n_tokens} tokens"
        )
    return items


#: One reported pair, in the runtime's canonical sort order: plain
#: tuple comparison gives exactly (timestamp, rid_a, rid_b, ...) —
#: the deterministic merge order the tentpole requires.
MatchRow = Tuple[float, int, int, int, float]


class MatchTable:
    """The results direction's one representation: five typed columns
    ``(stamps d, rid_a q, rid_b q, overlap q, similarity d)`` — exactly
    the match frame's wire layout, so rows go from a worker's emit to
    ``ParallelJoinResult.matches`` as column bytes and no per-row
    object exists unless a reader asks for one. Readers see a sequence
    of :data:`MatchRow` tuples: ``len``, iteration and indexing yield
    rows, slicing yields a table, ``==`` holds against row lists too.

    ``runs`` lists where each stretch of strictly increasing
    ``(timestamp, rid_a, rid_b)`` keys starts: one run (one shard, an
    in-order stream) is canonical order already; several shards on a
    worker, several workers and late arrivals start more, and
    :meth:`sort` merges them.
    """

    __slots__ = ("columns", "runs")

    def __init__(self, rows: Iterable[MatchRow] = ()):
        flat = list(chain.from_iterable(rows))  # transposed by strided slices
        self.columns = tuple(array(c, flat[k::5]) for k, c in enumerate("dqqqd"))
        self._find_runs()

    def _find_runs(self) -> None:
        # A key tuple per row: never on the emit → wire → merge path.
        keys = list(zip(*self.columns[:3]))
        breaks = map(ge, keys, islice(keys, 1, None))
        self.runs = [0, *compress(count(1), breaks)]

    @property
    def ordered(self) -> bool:
        return len(self.runs) == 1

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return tuple(column[index] for column in self.columns)
        table = MatchTable()
        table.columns = tuple(column[index] for column in self.columns)
        if not (self.ordered and index.step in (None, 1)):
            table._find_runs()
        return table

    def __eq__(self, other):
        if isinstance(other, MatchTable):
            return self.columns == other.columns
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"MatchTable({len(self)} rows, {len(self.runs)} ordered runs)"

    def emit(self, timestamp: float, rid: int, matches) -> None:
        """Append one probe's (non-empty) ``MatchResult`` list, sorted by
        partner rid: a bulk append per column, one key test for ``runs``."""
        stamps, rid_a, rid_b, overlap, similarity = self.columns
        partners, sims, overlaps = zip(*matches)  # MatchResult's field order
        partner_rids = [partner.rid for partner in partners]
        if partner_rids != sorted(partner_rids):
            by_rid = sorted(zip(partner_rids, overlaps, sims))
            partner_rids, overlaps, sims = zip(*by_rid)
        last = (stamps[-1], rid_a[-1], rid_b[-1]) if stamps else ()
        if (timestamp, rid, partner_rids[0]) <= last:  # no key is <= ()
            self.runs.append(len(stamps))
        n = len(partner_rids)
        stamps.frombytes(pack("d", timestamp) * n)
        rid_a.frombytes(pack("q", rid) * n)
        rid_b.frombytes(pack(f"{n}q", *partner_rids))
        overlap.frombytes(pack(f"{n}q", *overlaps))
        similarity.frombytes(pack(f"{n}d", *sims))

    def extend(self, other: "MatchTable") -> None:
        """Append ``other``'s rows (column memcpys) and runs; the seam
        starts a run unless the keys increase across it."""
        n = len(self)
        joined = not (n and len(other)) or self[-1][:3] < other[0][:3]
        self.runs += [n + run for run in other.runs[1 if joined else 0:]]
        for column, more in zip(self.columns, other.columns):
            column.extend(more)

    def sort(self) -> None:
        """Impose the canonical order (plain tuple order of the rows):
        cut every run into equal-timestamp blocks (``bisect`` on the
        column), order the blocks, rebuild the columns block by block.
        A timestamp one block carries moves as five slices; only rows
        whose timestamp several runs share are sorted as tuples — the
        work is per probe, not per row."""
        if self.ordered:
            return
        stamps = self.columns[0]
        blocks = []
        for lo, hi in zip(self.runs, self.runs[1:] + [len(self)]):
            while lo < hi:
                stop = bisect_right(stamps, stamps[lo], lo, hi)
                blocks.append((stamps[lo], lo, stop))
                lo = stop
        blocks.sort()
        merged = MatchTable().columns
        for _, tied in groupby(blocks, key=itemgetter(0)):
            cuts = [[c[lo:hi] for c in self.columns] for _, lo, hi in tied]
            if len(cuts) > 1:
                rows = sorted(chain.from_iterable(zip(*cut) for cut in cuts))
                cuts = [zip(*rows)]
            for cut in cuts:
                for column, values in zip(merged, cut):
                    column.extend(values)
        self.columns, self.runs = merged, [0]

    def parts(self, start: int = 0, stop: Optional[int] = None) -> list:
        """Rows ``[start, stop)`` as one match frame's pieces, in wire
        order: the row count, then a byte view of each column slice for
        the shipper to ``join`` into a pipe frame.
        The views pin the columns: drop them before the table grows."""
        views = [memoryview(column)[start:stop] for column in self.columns]
        return [_U32.pack(len(views[0]))] + [view.cast("B") for view in views]


def encode_match_batch(rows) -> bytes:
    """One match frame from a :class:`MatchTable` (or from rows)."""
    table = rows if isinstance(rows, MatchTable) else MatchTable(rows)
    return b"".join(table.parts())


def decode_match_batch(data) -> MatchTable:
    """Inverse of :func:`encode_match_batch` (any bytes-like buffer —
    the driver decodes a ``memoryview`` past the frame's tag). The
    row-count-vs-byte-length check is the gate: no prefix or extension
    of a valid frame decodes, so no column can come up short. Workers
    sort before they ship, so the table comes back as one run."""
    if len(data) < _U32.size:
        raise CodecError(f"match batch truncated: {len(data)} bytes")
    (n,) = _U32.unpack_from(data)
    expected = _U32.size + n * (8 * 5)
    if len(data) != expected:
        raise CodecError(
            f"match batch inconsistent: {n} rows need {expected} bytes, "
            f"have {len(data)}"
        )
    table = MatchTable()
    view = memoryview(data)
    for k, column in enumerate(table.columns):
        column.frombytes(view[_U32.size + 8 * n * k : _U32.size + 8 * n * (k + 1)])
    return table

