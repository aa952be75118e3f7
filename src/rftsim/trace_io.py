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

Control flow is never encoded.  A discontinuity exists wherever
``next.address != current.address + current.size``; since sizes are >= 1,
a transfer to a lower address is always a backward branch.
"""

from __future__ import annotations

import json
import os
import struct
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn, Optional, Union

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
    """A fully loaded, immutable-by-convention instruction sequence.

    Addresses and sizes are kept as parallel lists of plain ints so the
    per-item loops and the stepping kernel pay no per-item conversion
    cost.  The addresses are also kept as ``column``, a read-only u64 numpy
    array that every numpy pass slices.  Building it is where the address
    range is checked: an address outside ``[0, 2**64)``, the range both
    file formats carry, makes construction raise ``ValueError`` naming the
    first such item, so every technique, writer and pass sees valid
    addresses only.  A binary load's address list shares one int per distinct
    address: about 24 bytes per item, 8 each for the column and both lists.
    A loaded trace may be shared read-only between any number of simulations.
    """

    __slots__ = ("addresses", "sizes", "column", "_backward")

    def __init__(self, addresses: list[int], sizes: list[int]):
        if len(addresses) != len(sizes):
            raise ValueError("addresses and sizes must have equal length")
        try:
            column = np.frombuffer(array("Q", addresses), dtype=np.uint64)
        except OverflowError:
            j, a = next((j, a) for j, a in enumerate(addresses) if not 0 <= a < 1 << 64)
            raise ValueError(f"trace item {j}: address {a} outside [0, 2**64)") from None
        column.flags.writeable = False
        self._hold(addresses, sizes, column)

    def _hold(self, addresses: list[int], sizes: list[int], column: np.ndarray) -> "Trace":
        """Keeps ``column`` (read-only, checked, equal to ``addresses``) without a rebuild."""
        self.addresses, self.sizes, self.column, self._backward = addresses, sizes, column, None
        return self

    def __len__(self) -> int:
        return len(self.addresses)

    # the benchmark harness still calls this
    def backward_indices(self) -> np.ndarray:
        """Sorted indices j >= 1 where item j is a backward branch target.

        Backward means ``addresses[j] < addresses[j-1]``, which (sizes
        being >= 1) is equivalent to a non-sequential transfer to a lower
        address.  Cached after the first call.
        """
        if self._backward is None:
            a = self.column
            self._backward = (np.nonzero(a[1:] < a[:-1])[0] + 1).astype(np.int64)
        return self._backward


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index and the length of each run of equal values in a
    sorted array."""
    edge = np.empty(len(ordered) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:-1])
    at = edge.nonzero()[0]
    return at[:-1], at[1:] - at[:-1]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The first element of each run of equal values in a sorted array."""
    return values[_runs(values)[0]]


# Records per chunk of a binary load: a chunk's lists and index arrays, 64
# KiB each, are under glibc's default 128 KiB mmap threshold, so they reuse
# one place in the heap and leave no free holes there for sweep workers.
_LOAD_CHUNK = 8_192


def _interned(column: np.ndarray) -> list[int]:
    """``column.tolist()``, but with one shared int per distinct address.
    Where the addresses span at most the item count, marks over the span
    find them and an offset table numbers them; otherwise each chunk's
    sorted distinct values, merged, find them and a binary search numbers
    them.  Each chunk then indexes an object array of the shared ints."""
    n = len(column)
    low, high = (int(column.min()), int(column.max())) if n else (0, -1)
    if high - low < n:
        seen = np.zeros(high - low + 1, dtype=bool)
        for lo in range(0, n, _LOAD_CHUNK):
            seen[column[lo:lo + _LOAD_CHUNK] - low] = True
        shared = np.array((np.flatnonzero(seen).astype(np.uint64) + low).tolist(), dtype=object)
        table = np.cumsum(seen, dtype=np.intp)
        table -= 1
    else:
        keys = _distinct(np.sort(np.concatenate([_distinct(np.sort(column[lo:lo + _LOAD_CHUNK]))
                                                 for lo in range(0, n, _LOAD_CHUNK)])))
        shared = np.array(keys.tolist(), dtype=object)
    addresses: list = [None] * n
    for lo in range(0, n, _LOAD_CHUNK):
        c = column[lo:lo + _LOAD_CHUNK]
        if high - low < n:
            ids = table[c - low]
        else:  # searching for sorted needles is several times faster
            order = np.argsort(c)
            ids = np.empty(len(c), dtype=np.intp)
            ids[order] = np.searchsorted(keys, c[order])
        addresses[lo:lo + _LOAD_CHUNK] = shared[ids].tolist()
    return addresses


def load_binary(path: Union[str, Path]) -> Trace:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header ({len(header)} bytes)")
        magic, version, reserved = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise TraceFormatError(f"{path}: unsupported version {version}")
        if reserved != 0:
            raise TraceFormatError(f"{path}: nonzero reserved header field")
        # records the file's size promises, counting a trailing part of one
        n = -(-(os.fstat(fh.fileno()).st_size - _HEADER.size) // _RECORD.size)
        column = np.empty(n, dtype=np.uint64)
        sizes = [0] * n
        buffer = np.empty(min(n, _LOAD_CHUNK), dtype=_RECORD_DTYPE)
        for lo in range(0, n, _LOAD_CHUNK):
            records = buffer[:n - lo]
            got = fh.readinto(records) // _RECORD.size
            for bad, what in ((records["flags"][:got] != 0, "nonzero flags"),
                              (records["size"][:got] == 0, "zero instruction size"),
                              (np.arange(len(records)) >= got, "truncated record")):
                if bad.any():
                    offset = _HEADER.size + (lo + int(bad.argmax())) * _RECORD.size
                    raise TraceFormatError(f"{path}: {what} at byte offset {offset}")
            column[lo:lo + got] = records["address"]
            sizes[lo:lo + got] = records["size"].tolist()
    column.flags.writeable = False
    return Trace.__new__(Trace)._hold(_interned(column), sizes, column)


def load_text(path: Union[str, Path]) -> Trace:
    addrs: list[int] = []
    sizes: list[int] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
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
            if size < 1:
                raise TraceFormatError(f"{path}:{lineno}: instruction size must be >= 1")
            addrs.append(addr)
            sizes.append(size)
    return Trace(addrs, sizes)


def load_trace(path: Union[str, Path], format: str = "binary") -> Trace:
    if format == "binary":
        return load_binary(path)
    if format == "text":
        return load_text(path)
    raise ValueError(f"unknown trace format {format!r}")


def _size_column(path, sizes: list[int]) -> np.ndarray:
    try:
        return np.asarray(sizes, dtype=np.uint32)
    except OverflowError:
        j, v = next((j, v) for j, v in enumerate(sizes) if not 0 <= v < 1 << 32)
        raise TraceFormatError(f"{path}: item {j}: instruction size {v} does not fit "
                               f"u32") from None


def _reject_size(path, sizes: list[int]) -> NoReturn:
    """Both readers refuse an instruction size below 1, so the writers do
    not write one; raises naming the first such item."""
    j, v = next((j, v) for j, v in enumerate(sizes) if v < 1)
    raise TraceFormatError(f"{path}: item {j}: instruction size {v} must be >= 1")


def write_binary(path: Union[str, Path], trace: Trace) -> None:
    arr = np.empty(len(trace), dtype=_RECORD_DTYPE)
    arr["address"] = trace.column
    arr["size"] = _size_column(path, trace.sizes)
    if not arr["size"].all():
        _reject_size(path, trace.sizes)
    arr["flags"] = 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0))
        fh.write(arr.tobytes())


def write_text(path: Union[str, Path], trace: Trace) -> None:
    if trace.sizes and min(trace.sizes) < 1:
        _reject_size(path, trace.sizes)
    with open(path, "w", encoding="ascii") as fh:
        for a, s in zip(trace.addresses, trace.sizes):
            fh.write(f"{a:x} {s}\n")


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
    if loop.isize < 1:
        raise TraceSpecError(f"{path}: isize must be >= 1")
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


def _emit_loop(loop: LoopSpec, out_a: list[int], out_s: list[int]) -> None:
    isize = loop.isize
    if loop.phases is None:
        body_a = [loop.base + isize * k for k in range(loop.body)]
        body_s = [isize] * loop.body
        if not loop.children:
            for _ in range(loop.iters):
                out_a.extend(body_a)
                out_s.extend(body_s)
            return
        for _ in range(loop.iters):
            out_a.extend(body_a)
            out_s.extend(body_s)
            for ch in loop.children:
                _emit_loop(ch, out_a, out_s)
        return
    ph = loop.phases
    a_body = [loop.base + isize * (1 + k) for k in range(ph.body_a)]
    b_body = [loop.base + isize * (1 + ph.body_a + k) for k in range(ph.body_b)]
    a_sizes = [isize] * (1 + ph.body_a)
    b_sizes = [isize] * (1 + ph.body_b)
    for i in range(loop.iters):
        if (i // ph.period) % 2 == 0:
            out_a.append(loop.base)
            out_a.extend(a_body)
            out_s.extend(a_sizes)
        else:
            out_a.append(loop.base)
            out_a.extend(b_body)
            out_s.extend(b_sizes)
        for ch in loop.children:
            _emit_loop(ch, out_a, out_s)


def generate_trace(spec: ProgramSpec) -> Trace:
    """Deterministically unroll a loop-nest spec into its executed sequence."""
    validate_spec(spec)
    addrs: list[int] = []
    sizes: list[int] = []
    for lp in spec.loops:
        _emit_loop(lp, addrs, sizes)
    return Trace(addrs, sizes)


# --- JSON program-spec files (CLI surface) --------------------------------


def _loop_from_dict(d: dict, path: str) -> LoopSpec:
    try:
        base = d["base"]
        if isinstance(base, str):
            base = int(base, 16)
        phases = None
        if "phases" in d and d["phases"] is not None:
            p = d["phases"]
            phases = AlternatingPaths(body_a=int(p["body_a"]), body_b=int(p["body_b"]),
                                      period=int(p["period"]))
            body = 1 + phases.body_a + phases.body_b
        else:
            body = int(d["body"])
        children = tuple(_loop_from_dict(c, f"{path}.children[{i}]")
                         for i, c in enumerate(d.get("children", ())))
        return LoopSpec(base=int(base), body=body, iters=int(d["iters"]),
                        isize=int(d.get("isize", 4)), children=children, phases=phases)
    except KeyError as exc:
        raise TraceSpecError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise TraceSpecError(f"{path}: {exc}") from None


def parse_program_spec(text: str) -> ProgramSpec:
    """Parse the JSON program-spec format used by the gen-trace command.

    Schema: ``{"loops": [{"base": int|hex-string, "body": int, "iters": int,
    "isize": int, "children": [...], "phases": {"body_a": int, "body_b": int,
    "period": int}}, ...]}``.  ``body`` is ignored when ``phases`` is given.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceSpecError(f"line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict) or "loops" not in doc:
        raise TraceSpecError("top-level object must contain a 'loops' list")
    loops = tuple(_loop_from_dict(d, f"loops[{i}]") for i, d in enumerate(doc["loops"]))
    spec = ProgramSpec(loops)
    validate_spec(spec)
    return spec
