"""Trace formats and synthetic trace generation.

A trace is a flat sequence of executed-instruction records (address plus
instruction size).  Two on-disk formats carry the same logical content:

binary v1
    16-byte header: magic ``RAINTRC1`` (8 ASCII bytes), u32 version (= 1),
    u32 reserved (= 0); then fixed 16-byte little-endian records of
    u64 address, u32 size, u32 flags.  ``flags`` is reserved and must be
    zero; readers reject nonzero values.

text v1
    One instruction per line, ``<hex-address> <decimal-size>``.  Lines
    starting with ``#`` and blank lines are ignored.  Meant for
    hand-written fixtures.

``load_trace`` reads a file whole into a ``Trace``; ``TraceFile`` keeps a
binary file open and reads it by position, a checked chunk at a time, so
a replay through it never holds the whole trace.

Control flow is never encoded.  A discontinuity exists wherever
``next.address != current.address + current.size``; since sizes are >= 1,
a transfer to a lower address is always a backward branch.

A simulation runs on address ids, not on addresses: each trace numbers its
distinct addresses by their rank in its sorted table of them, once, at its
first simulation (``Trace.table``, ``TraceFile.validate``).  Ids keep the
addresses' order, so a smaller id is still a backward branch.
"""

from __future__ import annotations

import json
import operator
import os
import struct
from array import array
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

MAGIC = b"RAINTRC1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sII")
_RECORD = struct.Struct("<QII")
_RECORD_DTYPE = np.dtype([("address", "<u8"), ("size", "<u4"), ("flags", "<u4")])

FORMATS = ("binary", "text")


class TraceFormatError(ValueError):
    """Malformed trace file (bad header, bad record, truncation)."""


class TraceSpecError(ValueError):
    """Invalid synthetic program description."""


class Trace:
    """A fully loaded, immutable instruction sequence.

    Any two equal-length sequences of ints build a trace, which holds them
    once, 12 bytes per item: ``addresses``, a read-only u64 numpy array,
    and ``sizes``, an ``array("I")`` that the scans index only while
    recording.  Building one copies both, an integer numpy array in bulk,
    and raises ``ValueError`` naming the first item that is not an int,
    or not in the range both file formats carry: ``[0, 2**64)`` for an
    address, ``[1, 2**32)`` for a size.  The loaders and
    ``generate_trace`` hold what they read or built without a copy.

    The first simulation numbers the addresses (``table()``): it builds
    the sorted table of the distinct addresses and ``_ids``, each item's
    id, its address's rank in the table, an ``array`` of u8, u16 or u32 by
    the table's size, so 1, 2 or 4 bytes more per item.  The engine, the
    managers and the automaton work on ids, which keep the addresses'
    order.  A trace may be shared read-only between any number of
    simulations.
    """

    __slots__ = ("addresses", "sizes", "_backward", "_table", "_ids")

    def __init__(self, addresses: Sequence[int], sizes: Sequence[int]):
        if len(addresses) != len(sizes):
            raise ValueError("addresses and sizes must have equal length")
        self._hold(_checked(addresses, "Q", 0, "address"),
                   _checked(sizes, "I", 1, "instruction size"))

    def _hold(self, items: array, sizes: array) -> "Trace":
        """Holds a read-only u64 view of the checked ``items`` as
        ``addresses``, and the checked ``sizes``."""
        self.addresses = np.frombuffer(items, dtype=np.uint64)
        self.addresses.flags.writeable = False
        self.sizes, self._backward, self._table = sizes, None, None
        return self

    def __len__(self) -> int:
        return len(self.addresses)

    def table(self) -> np.ndarray:
        """The sorted distinct addresses, an id's address being its entry;
        the first call builds it and the id column."""
        if self._table is None:
            # read in pieces, so that no temporary grows with the trace
            col = self.addresses
            numbering = _Numbering(col[lo:lo + _LOAD_CHUNK]
                                   for lo in range(0, len(col), _LOAD_CHUNK))
            self._table, self._ids = numbering.table, numbering.ids(col)
        return self._table

    def chunks(self, start: int, end: int):
        """The whole trace as one chunk at index 0, where ``TraceFile.chunks``
        reads a file's window a chunk at a time: a trace in memory replays
        in place."""
        yield 0, self

    # the benchmark harness still calls this
    def backward_indices(self) -> np.ndarray:
        """Sorted indices j >= 1 where item j is a backward branch target.

        Backward means ``addresses[j] < addresses[j-1]``, which (sizes
        being >= 1) is equivalent to a non-sequential transfer to a lower
        address.  Cached after the first call.
        """
        if self._backward is None:
            a = self.addresses
            self._backward = (np.nonzero(a[1:] < a[:-1])[0] + 1).astype(np.int64)
        return self._backward


def _checked(values: Sequence[int], code: str, low: int, what: str) -> array:
    """``values`` copied into an ``array(code)``.  Raises ``ValueError``
    naming the first item that is not an int in ``[low, 2**bits)``,
    ``bits`` being the typecode's width.  An integer numpy array is checked
    and copied in bulk: ``array`` would read it item by item, some 60 times
    slower."""
    bits = 8 * array(code).itemsize
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu" and not (values < low).any() and not (
                np.iinfo(values.dtype).max >> bits and (values >> bits).any()):
            held = array(code)
            held.frombytes(memoryview(np.ascontiguousarray(values, dtype=code)).cast("B"))
            return held
        values = values.tolist()
    try:
        held = array(code, values)
        if not low or np.frombuffer(held, dtype=code).all():
            return held
    except (OverflowError, TypeError):
        pass
    for j, v in enumerate(values):
        try:
            v = operator.index(v)
        except TypeError:
            raise ValueError(f"trace item {j}: {what} {v!r} is not an int") from None
        if not low <= v < 1 << bits:
            raise ValueError(f"trace item {j}: {what} {v} outside [{low}, 2**{bits})")


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index and the length of each run of equal values in a
    sorted array."""
    edge = np.empty(len(ordered) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:-1])
    at = edge.nonzero()[0]
    return at[:-1], at[1:] - at[:-1]


def _grouped(col: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(keys, starts, lengths, items)``: ``items`` lists the indices of
    the ids ``col`` ordered by value, then by index; the group of
    ``keys[g]``, the g-th smallest distinct value, is the ``lengths[g]``
    items from ``items[starts[g]]``.  One sort of the u64 codes
    ``value * n + index`` orders them, several times faster than a stable
    argsort: an id is below 2**32, and ``n`` is a chunk's length."""
    n = len(col)
    code = np.sort(col.astype(np.uint64) * np.uint64(n) + np.arange(n, dtype=np.uint64))
    ordered, items = np.divmod(code, np.uint64(n))
    starts, lengths = _runs(ordered)
    return ordered[starts], starts, lengths, items.astype(np.int64)


# An address span of at most this many addresses is numbered through a
# dense lookup, an id per address in the span (4 MiB at most): a benchmark
# trace in memory is numbered in 0.9-4.6 ms, where np.unique alone takes
# 6.0-16 ms (Python 3.11, numpy 2.4, 2-core x86 host).  A wider span is
# numbered through a set of each piece's np.unique and a binary search.
_DENSE_SPAN = 1 << 20


class _Numbering:
    """The sorted distinct addresses of the address columns ``columns``
    yields (``table``), and ``ids(col)``, the rank in it of each address
    of ``col``, which it must hold: an ``array`` of u8, u16 or u32 ids
    (typecode ``code``) by the table's size.  ``columns`` is read once:
    each column's addresses are marked in a bool array over a span that
    grows, at least doubling, as lower or higher addresses arrive, until
    the addresses' span passes ``_DENSE_SPAN``; from then on, and for the
    marks so far, a set takes each column's ``np.unique``.  The lookup is
    built at the first ``ids``, so a process that maps no column, as the
    CLI's parent of forked workers, never holds it."""

    def __init__(self, columns: Iterable[np.ndarray]):
        # the marks, over addresses base..base + len(seen) - 1, and the set
        # that replaces them once the span is too wide
        base, seen, distinct = 0, np.zeros(0, dtype=bool), None
        for col in columns:
            if not len(col):
                continue
            if distinct is None:
                low, high = int(col.min()), int(col.max())
                if len(seen):
                    low, high = min(low, base), max(high, base + len(seen) - 1)
                if high - low >= _DENSE_SPAN:
                    distinct = set((np.flatnonzero(seen).astype(np.uint64)
                                    + np.uint64(base)).tolist())
                elif not len(seen) or low < base or high >= base + len(seen):
                    size = min(_DENSE_SPAN, max(high - low + 1, 2 * len(seen)))
                    # the room to spare goes on the side that grew
                    start = low if not len(seen) or low < base else high - size + 1
                    start = min(max(start, 0), (1 << 64) - size)
                    grown = np.zeros(size, dtype=bool)
                    grown[base - start:base - start + len(seen)] = seen
                    base, seen = start, grown
            if distinct is None:
                seen[(col - np.uint64(base)).view(np.int64)] = True
            else:
                distinct.update(np.unique(col).tolist())
        if distinct is None:
            self.table = np.flatnonzero(seen).view(np.uint64)
            self.table += np.uint64(base)
        else:
            self.table = np.sort(np.fromiter(distinct, dtype=np.uint64, count=len(distinct)))
        span = int(self.table[-1]) - int(self.table[0]) + 1 if len(self.table) else 1
        self._low = self.table[0] if len(self.table) else np.uint64(0)
        # the dense lookup's size, or 0 for a binary search
        self._span, self._rank = span if span <= _DENSE_SPAN else 0, None
        self.code = "BHI"[(len(self.table) > 1 << 8) + (len(self.table) > 1 << 16)]

    def ids(self, col: np.ndarray) -> array:
        if self._rank is None:
            self._rank = partial(np.searchsorted, self.table)
            if self._span:
                lookup = np.zeros(self._span, dtype=self.code)
                lookup[self.table - self._low] = np.arange(len(self.table), dtype=self.code)
                self._rank = lambda piece: lookup[piece - self._low]
        ids = array(self.code, [0]) * len(col)
        for lo in range(0, len(col), _LOAD_CHUNK):
            piece = col[lo:lo + _LOAD_CHUNK]
            np.asarray(ids)[lo:lo + len(piece)] = self._rank(piece)
        return ids


# Records per chunk of a binary read or write: each chunk's record buffer,
# 128 KiB, is reused, so reading or writing holds no whole-length copy.
_LOAD_CHUNK = 8_192
# Items per chunk of a streamed replay (``TraceFile.chunks``): 3 MiB held
# as a trace.  Each chunk restarts the scans' hand-off to numpy passes,
# whose chunks double up to 65,536 items.  On the benchmark's 300,000-item
# noise workload, streamed in chunks of 65,536 items, the six techniques
# took 1.43-1.75x their in-memory time, and 1.21-1.33x in chunks of this
# size, most of the rest being the reads (Python 3.11, 2-core x86 host).
_REPLAY_CHUNK = 1 << 18


def _adopt(items: array, sizes: array) -> Trace:
    """The trace a loader or the generator made into ``items`` and
    ``sizes``, each already checked, held without a copy."""
    return Trace.__new__(Trace)._hold(items, sizes)


class TraceFile:
    """An open binary v1 trace file, read by position in checked chunks.

    Opening checks the header and takes the record count the file's size
    promises, a trailing part of a record counting as one.  ``read(lo,
    hi)`` returns records ``lo..hi-1`` as a ``Trace``: it reads them
    ``_LOAD_CHUNK`` at a time with ``os.preadv`` into one reused record
    buffer, checks each chunk's flags and sizes, and raises
    ``TraceFormatError`` naming the byte offset of the first bad or
    missing record.  ``validate()`` (or ``table()``, the same call) reads
    the whole file that way once, numbering its addresses as it goes, and
    keeps only their sorted table, 8 bytes per distinct address; each
    trace ``read`` returns from then on holds its ids by that table.  A
    simulation validates a file that is not yet validated.

    Positional reads share no file offset, so processes forked while the
    file is open read from it independently.  Reading into a buffer, not
    through ``np.memmap``, keeps each process's resident memory to the
    chunks it holds: mapped pages of the file would count in it.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = path
        self._fd = os.open(path, os.O_RDONLY)
        try:
            header = os.pread(self._fd, _HEADER.size, 0)
            if len(header) < _HEADER.size:
                raise TraceFormatError(f"{path}: truncated header ({len(header)} bytes)")
            magic, version, reserved = _HEADER.unpack(header)
            if magic != MAGIC:
                raise TraceFormatError(f"{path}: bad magic {magic!r}")
            if version != FORMAT_VERSION:
                raise TraceFormatError(f"{path}: unsupported version {version}")
            if reserved != 0:
                raise TraceFormatError(f"{path}: nonzero reserved header field")
            self._n = -(-(os.fstat(self._fd).st_size - _HEADER.size) // _RECORD.size)
        except BaseException:
            os.close(self._fd)
            raise
        self._buffer = np.empty(max(1, min(self._n, _LOAD_CHUNK)), dtype=_RECORD_DTYPE)
        self._numbering: Optional[_Numbering] = None

    def __len__(self) -> int:
        return self._n

    def __enter__(self) -> "TraceFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def _records(self, lo: int, hi: int) -> np.ndarray:
        """Records ``lo..hi-1``, at most a buffer's worth, read into the
        buffer and checked."""
        records = self._buffer[:hi - lo]
        raw, offset, got = records.view(np.uint8), _HEADER.size + lo * _RECORD.size, 0
        while got < len(raw):
            more = os.preadv(self._fd, [raw[got:]], offset + got)
            if not more:
                break
            got += more
        got //= _RECORD.size
        first, what = got, "truncated record"
        for bad, why in ((records["flags"][:got] != 0, "nonzero flags"),
                         (records["size"][:got] == 0, "zero instruction size")):
            if bad.any():
                first, what = int(bad.argmax()), why
                break
        if first < len(records):
            offset = _HEADER.size + (lo + first) * _RECORD.size
            raise TraceFormatError(f"{self.path}: {what} at byte offset {offset}")
        return records

    def read(self, lo: int, hi: int) -> Trace:
        """Records ``lo..hi-1`` as a trace, numbered by the file's table
        once ``validate()`` has built it; ``0 <= lo <= hi <= len(self)``."""
        items, sizes = array("Q", [0]) * (hi - lo), array("I", [0]) * (hi - lo)
        for at, records in self._pieces(lo, hi):
            np.asarray(items)[at - lo:at - lo + len(records)] = records["address"]
            np.asarray(sizes)[at - lo:at - lo + len(records)] = records["size"]
        trace = _adopt(items, sizes)
        if self._numbering is not None:
            trace._table = self._numbering.table
            trace._ids = self._numbering.ids(trace.addresses)
        return trace

    def _pieces(self, lo: int, hi: int):
        """``(at, records at..)`` for each ``_LOAD_CHUNK`` records of
        ``lo..hi-1``, checked, in one reused buffer."""
        for at in range(lo, hi, len(self._buffer)):
            yield at, self._records(at, min(hi, at + len(self._buffer)))

    def table(self) -> np.ndarray:
        """Check every record and number the file's addresses in one read,
        keeping only their sorted table, which it returns.  Later calls
        return it at once."""
        if self._numbering is None:
            self._numbering = _Numbering(
                records["address"] for _, records in self._pieces(0, self._n))
        return self._numbering.table

    validate = table

    def chunks(self, start: int, end: int):
        """``(lo, records lo..hi-1 as a trace)`` for each chunk of the file's
        consecutive ``_REPLAY_CHUNK`` records, cut to ``[start, end)``."""
        lo = start
        while lo < end:
            hi = min(end, lo - lo % _REPLAY_CHUNK + _REPLAY_CHUNK)
            yield lo, self.read(lo, hi)
            lo = hi


def load_binary(path: Union[str, Path]) -> Trace:
    with TraceFile(path) as fh:
        return fh.read(0, len(fh))


def load_text(path: Union[str, Path]) -> Trace:
    addrs, sizes = array("Q"), array("I")
    # each byte above 0x7f reads as one lone surrogate, so a line that is
    # not ASCII is refused with its number rather than by the decoder
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                col, ch = next((k, ch) for k, ch in enumerate(line, start=1) if not ch.isascii())
                raise TraceFormatError(f"{path}:{lineno}: byte {ord(ch) - 0xDC00:#04x} "
                                       f"at column {col} is not ASCII")
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise TraceFormatError(f"{path}:{lineno}: expected '<hex-address> <size>'")
            try:
                addr = int(parts[0], 16)
                size = int(parts[1], 10)
            except ValueError as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
            if not 0 <= addr < 1 << 64:
                raise TraceFormatError(f"{path}:{lineno}: address {parts[0]} outside [0, 2**64)")
            if not 1 <= size < 1 << 32:
                raise TraceFormatError(f"{path}:{lineno}: instruction size {parts[1]} "
                                       f"outside [1, 2**32)")
            addrs.append(addr)
            sizes.append(size)
    return _adopt(addrs, sizes)


def load_trace(path: Union[str, Path], format: str = "binary") -> Trace:
    if format == "binary":
        return load_binary(path)
    if format == "text":
        return load_text(path)
    raise ValueError(f"unknown trace format {format!r}")


def write_binary(path: Union[str, Path], trace: Trace) -> None:
    n = len(trace)
    sizes = np.frombuffer(trace.sizes, dtype=np.uint32)
    buffer = np.zeros(min(n, _LOAD_CHUNK), dtype=_RECORD_DTYPE)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0))
        for lo in range(0, n, _LOAD_CHUNK):
            records = buffer[:n - lo]
            records["address"] = trace.addresses[lo:lo + _LOAD_CHUNK]
            records["size"] = sizes[lo:lo + _LOAD_CHUNK]
            fh.write(records.data)


def write_text(path: Union[str, Path], trace: Trace) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for lo in range(0, len(trace), _LOAD_CHUNK):
            hi = lo + _LOAD_CHUNK
            fh.writelines(f"{a:x} {s}\n" for a, s in zip(trace.addresses[lo:hi].tolist(),
                                                          trace.sizes[lo:hi]))


def write_trace(path: Union[str, Path], trace: Trace, format: str = "binary") -> None:
    if format == "binary":
        write_binary(path, trace)
    elif format == "text":
        write_text(path, trace)
    else:
        raise ValueError(f"unknown trace format {format!r}")


# --- synthetic programs ---------------------------------------------------


@dataclass(frozen=True)
class AlternatingPaths:
    """Two loop bodies sharing a one-instruction entry, switched every
    ``period`` iterations (body A first)."""

    body_a: int
    body_b: int
    period: int


@dataclass(frozen=True)
class LoopSpec:
    """One counted loop: ``body`` instructions of ``isize`` bytes starting
    at ``base``, executed ``iters`` times.  Children run after the body on
    every iteration.  With ``phases`` set, each iteration emits the entry
    instruction at ``base`` followed by the active phase body."""

    base: int
    body: int
    iters: int
    isize: int = 4
    children: tuple["LoopSpec", ...] = ()
    phases: Optional[AlternatingPaths] = None

    def own_span(self) -> tuple[int, int]:
        """Address range [start, end) occupied by this loop's own instructions."""
        if self.phases is None:
            return (self.base, self.base + self.body * self.isize)
        total = 1 + self.phases.body_a + self.phases.body_b
        return (self.base, self.base + total * self.isize)

    def total_items(self) -> int:
        """Closed-form length of the emitted sequence."""
        per_children = sum(ch.total_items() for ch in self.children)
        if self.phases is None:
            return self.iters * (self.body + per_children)
        ph = self.phases
        cycle = 2 * ph.period
        full = self.iters // cycle
        rem = self.iters % cycle
        a_iters = full * ph.period + min(rem, ph.period)
        b_iters = self.iters - a_iters
        return (a_iters * (1 + ph.body_a) + b_iters * (1 + ph.body_b)
                + self.iters * per_children)


@dataclass(frozen=True)
class ProgramSpec:
    """A sequence of top-level loops, executed one after another."""

    loops: tuple[LoopSpec, ...] = ()

    def total_items(self) -> int:
        return sum(lp.total_items() for lp in self.loops)


def _collect_spans(loop: LoopSpec, out: list[tuple[int, int, int]], path: str) -> None:
    if not 1 <= loop.isize < 1 << 32:
        raise TraceSpecError(f"{path}: isize {loop.isize} outside [1, 2**32)")
    if loop.iters < 0:
        raise TraceSpecError(f"{path}: iters must be >= 0")
    if loop.phases is None:
        if loop.body < 1:
            raise TraceSpecError(f"{path}: body must be >= 1")
    else:
        ph = loop.phases
        if ph.body_a < 1 or ph.body_b < 1:
            raise TraceSpecError(f"{path}: phase bodies must be >= 1")
        if ph.period < 1:
            raise TraceSpecError(f"{path}: phase period must be >= 1")
    start, end = loop.own_span()
    if start < 0 or end > 1 << 64:
        raise TraceSpecError(f"{path}: address range [{start:#x},{end:#x}) outside [0, 2**64)")
    out.append((start, end, len(out)))
    for i, ch in enumerate(loop.children):
        if ch.base < end:
            raise TraceSpecError(
                f"{path}.children[{i}]: child base {ch.base:#x} overlaps or precedes "
                f"parent body ending at {end:#x}")
        _collect_spans(ch, out, f"{path}.children[{i}]")


def validate_spec(spec: ProgramSpec) -> None:
    """Check loop-spec invariants; raises TraceSpecError on violation."""
    spans: list[tuple[int, int, int]] = []
    for i, lp in enumerate(spec.loops):
        _collect_spans(lp, spans, f"loops[{i}]")
    spans.sort()
    for (s0, e0, _), (s1, e1, _) in zip(spans, spans[1:]):
        if s1 < e0:
            raise TraceSpecError(
                f"address ranges [{s0:#x},{e0:#x}) and [{s1:#x},{e1:#x}) overlap")


def _in_order(loops: Sequence[LoopSpec]) -> tuple[array, array]:
    """The addresses and sizes of ``loops`` run one after another: a lone
    loop's own arrays, or arrays sized once and filled loop by loop."""
    if len(loops) == 1:
        return _unrolled(loops[0])
    n = sum(lp.total_items() for lp in loops)
    addrs, sizes = array("Q", [0]) * n, array("I", [0]) * n
    at = 0
    for lp in loops:
        lp_a, lp_s = _unrolled(lp)
        addrs[at:at + len(lp_a)] = lp_a
        sizes[at:at + len(lp_s)] = lp_s
        at += len(lp_a)
        del lp_a, lp_s  # before the next loop's arrays are built
    return addrs, sizes


def _alternated(a: array, b: array, period: int, times: int) -> array:
    """``a`` repeated ``period`` times, then ``b`` ``period`` times, and so
    on, ``times`` repetitions in all."""
    full, rest = divmod(times, 2 * period)
    na = min(rest, period)
    seq = (a * period + b * period) * full if full else a[:0]
    seq += a * na
    seq += b * (rest - na)
    return seq


def _unrolled(loop: LoopSpec) -> tuple[array, array]:
    """The addresses and sizes ``loop`` executes, whole.  Each iteration
    runs one of at most two fixed blocks (the entry and body, then every
    child's whole sequence), so the sequence is built by repeating those
    blocks rather than by walking the iterations."""
    if loop.iters == 0:
        return array("Q"), array("I")
    tail_a, tail_s = _in_order(loop.children)
    isize, base = loop.isize, loop.base
    if loop.phases is None:
        block_a = array("Q", range(base, base + isize * loop.body, isize)) + tail_a
        block_s = array("I", [isize]) * loop.body + tail_s
        return block_a * loop.iters, block_s * loop.iters
    ph = loop.phases
    b_base = base + isize * (1 + ph.body_a)
    a_a = array("Q", range(base, b_base, isize)) + tail_a
    b_a = array("Q", [base]) + array("Q", range(b_base, b_base + isize * ph.body_b, isize)) + tail_a
    a_s = array("I", [isize]) * (1 + ph.body_a) + tail_s
    b_s = array("I", [isize]) * (1 + ph.body_b) + tail_s
    return (_alternated(a_a, b_a, ph.period, loop.iters),
            _alternated(a_s, b_s, ph.period, loop.iters))


def generate_trace(spec: ProgramSpec) -> Trace:
    """Deterministically unroll a loop-nest spec into its executed sequence."""
    validate_spec(spec)
    addrs, sizes = _in_order(spec.loops)
    return _adopt(addrs, sizes)


# --- JSON program-spec files (CLI surface) --------------------------------


def _integer(d: dict, field: str, path: str) -> int:
    """Field ``field`` of ``d``, which must be a JSON integer: a float, a
    bool or a string would otherwise be truncated or read as a number
    without notice."""
    if type(d[field]) is not int:
        raise TraceSpecError(f"{path}: {field} must be an integer, not {d[field]!r}")
    return d[field]


def _loop_from_dict(d: dict, path: str) -> LoopSpec:
    try:
        base, phases = d["base"], None
        if isinstance(base, str):
            try:
                base = int(base, 16)
            except ValueError:
                raise TraceSpecError(f"{path}: base {base!r} is not a hex string") from None
        else:
            base = _integer(d, "base", path)
        if "phases" in d and d["phases"] is not None:
            p, at = d["phases"], f"{path}.phases"
            phases = AlternatingPaths(body_a=_integer(p, "body_a", at),
                                      body_b=_integer(p, "body_b", at),
                                      period=_integer(p, "period", at))
            body = 1 + phases.body_a + phases.body_b
        else:
            body = _integer(d, "body", path)
        children = tuple(_loop_from_dict(c, f"{path}.children[{i}]")
                         for i, c in enumerate(d.get("children", ())))
        isize = _integer(d, "isize", path) if "isize" in d else 4
        return LoopSpec(base=base, body=body, iters=_integer(d, "iters", path), isize=isize,
                        children=children, phases=phases)
    except KeyError as exc:
        raise TraceSpecError(f"{path}: missing field {exc}") from None
    except TypeError as exc:
        raise TraceSpecError(f"{path}: {exc}") from None


def load_program_spec(path: Union[str, Path]) -> ProgramSpec:
    """Read a JSON program-spec file and parse it (``parse_program_spec``);
    a file that is not UTF-8 text raises ``TraceSpecError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise TraceSpecError(f"{path}: byte {exc.object[exc.start]:#04x} at offset "
                             f"{exc.start} is not UTF-8 text") from None
    return parse_program_spec(text)


def parse_program_spec(text: str) -> ProgramSpec:
    """Parse the JSON program-spec format used by the gen-trace command.

    Schema: ``{"loops": [{"base": int|hex-string, "body": int, "iters": int,
    "isize": int, "children": [...], "phases": {"body_a": int, "body_b": int,
    "period": int}}, ...]}``.  ``body`` is ignored when ``phases`` is given.
    Each number must be a JSON integer, and ``base`` may also be a string,
    which is always read as hex, with or without ``0x`` (``"256"`` is
    0x256); anything else raises ``TraceSpecError`` naming the loop and field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceSpecError(f"line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("loops"), list):
        raise TraceSpecError("top-level object must contain a 'loops' list")
    loops = tuple(_loop_from_dict(d, f"loops[{i}]") for i, d in enumerate(doc["loops"]))
    spec = ProgramSpec(loops)
    validate_spec(spec)
    return spec
