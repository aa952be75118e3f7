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
import struct
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
    simulation loop pays no per-item conversion cost.  A loaded trace may
    be shared read-only between any number of simulations.

    A trace built in code must also hold addresses in ``[0, 2**64)``, the
    range both file formats carry.  Construction does not check them; the
    writers refuse such an address, and the simulation raises
    ``ValueError`` naming the trace index when it converts one to numpy:
    every technique converts the chunks of a long interpreter-side run,
    and the look-ahead techniques (``netplus``, ``netplus-e-r``) the
    window up to each emission.  A short run past those steps such an
    address unchecked.
    """

    __slots__ = ("addresses", "sizes", "_backward")

    def __init__(self, addresses: list[int], sizes: list[int]):
        if len(addresses) != len(sizes):
            raise ValueError("addresses and sizes must have equal length")
        self.addresses = addresses
        self.sizes = sizes
        self._backward = None

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
            a = np.asarray(self.addresses, dtype=np.uint64)
            if len(a) < 2:
                self._backward = np.empty(0, dtype=np.int64)
            else:
                self._backward = (np.nonzero(a[1:] < a[:-1])[0] + 1).astype(np.int64)
        return self._backward


# Binary loads of more than _INTERN_THRESHOLD items collapse equal
# addresses to shared int objects; otherwise the trace holds one boxed int
# per record, which dominates memory on large loop-heavy traces.  The
# column is converted _INTERN_CHUNK items at a time, so only one chunk of
# unshared ints is alive at once.  Smaller traces skip interning, whose
# dict pass adds load time that their few boxed ints do not repay.
_INTERN_THRESHOLD = 1_000_000
_INTERN_CHUNK = 65_536


def _address_list(column: np.ndarray) -> list[int]:
    if len(column) <= _INTERN_THRESHOLD:
        return column.tolist()
    seen: dict[int, int] = {}
    setdefault = seen.setdefault
    addresses: list[int] = []
    for lo in range(0, len(column), _INTERN_CHUNK):
        values = column[lo:lo + _INTERN_CHUNK].tolist()
        addresses.extend(map(setdefault, values, values))
    return addresses


def load_binary(path: Union[str, Path]) -> Trace:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise TraceFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, reserved = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise TraceFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise TraceFormatError(f"{path}: unsupported version {version}")
    if reserved != 0:
        raise TraceFormatError(f"{path}: nonzero reserved header field")
    payload = len(raw) - _HEADER.size
    if payload % _RECORD.size:
        offset = _HEADER.size + (payload // _RECORD.size) * _RECORD.size
        raise TraceFormatError(f"{path}: truncated record at byte offset {offset}")
    records = np.frombuffer(raw, dtype=_RECORD_DTYPE, offset=_HEADER.size)
    if len(records):
        bad = np.nonzero(records["flags"])[0]
        if len(bad):
            offset = _HEADER.size + int(bad[0]) * _RECORD.size
            raise TraceFormatError(f"{path}: nonzero flags at byte offset {offset}")
        bad = np.nonzero(records["size"] == 0)[0]
        if len(bad):
            offset = _HEADER.size + int(bad[0]) * _RECORD.size
            raise TraceFormatError(f"{path}: zero instruction size at byte offset {offset}")
    return Trace(_address_list(records["address"]), records["size"].tolist())


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


def _column(values: list[int], dtype, what: str, path) -> np.ndarray:
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError:
        bits = 8 * np.dtype(dtype).itemsize
        j, v = next((j, v) for j, v in enumerate(values) if not 0 <= v < 1 << bits)
        raise TraceFormatError(f"{path}: item {j}: {what} {v} does not fit "
                               f"u{bits}") from None


def _reject_size(path, sizes: list[int]) -> NoReturn:
    """Both readers refuse an instruction size below 1, so the writers do
    not write one; raises naming the first such item."""
    j, v = next((j, v) for j, v in enumerate(sizes) if v < 1)
    raise TraceFormatError(f"{path}: item {j}: instruction size {v} must be >= 1")


def write_binary(path: Union[str, Path], trace: Trace) -> None:
    arr = np.empty(len(trace), dtype=_RECORD_DTYPE)
    arr["address"] = _column(trace.addresses, np.uint64, "address", path)
    arr["size"] = _column(trace.sizes, np.uint32, "instruction size", path)
    if not arr["size"].all():
        _reject_size(path, trace.sizes)
    arr["flags"] = 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0))
        fh.write(arr.tobytes())


def write_text(path: Union[str, Path], trace: Trace) -> None:
    # load_text refuses addresses outside [0, 2**64), as binary v1 does
    _column(trace.addresses, np.uint64, "address", path)
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
