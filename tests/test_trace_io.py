import gc
import random
import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import high_walk
from rftsim import trace_io
from rftsim.trace_io import (AlternatingPaths, LoopSpec, ProgramSpec, Trace, TraceFile,
                             TraceFormatError, TraceSpecError, generate_trace,
                             load_trace, parse_program_spec, validate_spec,
                             write_trace)

ITEMS3 = [(0x100, 4), (0x104, 2), (0x200, 8)]


def as_trace(pairs):
    return Trace([a for a, _ in pairs], [s for _, s in pairs])


def items(trace):
    return list(zip(trace.addresses.tolist(), trace.sizes))


def write3(tmp_path, fmt="binary"):
    path = tmp_path / ("t.rtr" if fmt == "binary" else "t.txt")
    write_trace(path, as_trace(ITEMS3), fmt)
    return path


# --- load -------------------------------------------------------------------

def test_open_full_window(tmp_path):
    assert items(load_trace(write3(tmp_path))) == ITEMS3


def test_corrupt_magic_rejected(tmp_path):
    path = write3(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceFormatError, match="magic"):
        load_trace(path)


def test_truncated_record_reports_offset(tmp_path):
    path = write3(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(TraceFormatError, match="offset 48"):
        load_trace(path)


def test_nonzero_flags_rejected(tmp_path):
    path = write3(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[16 + 12] = 1  # flags field of the first record
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceFormatError, match="flags"):
        load_trace(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_trace("/nonexistent/trace.rtr")


def test_text_decode(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header comment\n100 4\n\n104 2\n200 8\n")
    assert items(load_trace(path, "text")) == ITEMS3


def test_text_bad_line(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("100 4\nbogus\n")
    with pytest.raises(TraceFormatError, match=":2"):
        load_trace(path, "text")


def test_text_non_ascii_byte_rejected_with_its_line(tmp_path):
    # a comment line is refused too: a text trace is ASCII throughout
    path = tmp_path / "t.txt"
    path.write_bytes(b"100 4\n# caf\xc3\xa9\n104 4\n")
    message = f"{path}:2: byte 0xc3 at column 6 is not ASCII"
    with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
        load_trace(path, "text")


def test_binary_trace_read_as_text_is_a_format_error(tmp_path):
    path = tmp_path / "t.rtr"
    write_trace(path, as_trace([(0xF0, 4)]))
    # the header holds no newline, so the record's first byte is column 17
    message = f"{path}:1: byte 0xf0 at column 17 is not ASCII"
    with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
        load_trace(path, "text")


def test_text_size_beyond_u32_rejected(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("100 4\n104 4294967295\n108 4294967296\n")
    message = ":3: instruction size 4294967296 outside [1, 2**32)"
    with pytest.raises(TraceFormatError, match=re.escape(message)):
        load_trace(path, "text")


def test_text_zero_size_rejected(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("100 0\n")
    with pytest.raises(TraceFormatError, match="size"):
        load_trace(path, "text")


@pytest.mark.parametrize("address", ["-10", "10000000000000000"])
def test_text_address_outside_u64_rejected(tmp_path, address):
    path = tmp_path / "t.txt"
    path.write_text(f"100 4\n{address} 4\n")
    with pytest.raises(TraceFormatError, match=":2: address"):
        load_trace(path, "text")


def test_text_address_u64_bounds_accepted(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0 4\nffffffffffffffff 4\n")
    assert load_trace(path, "text").addresses.tolist() == [0, 2**64 - 1]


items_strategy = st.lists(
    st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 2**32 - 1)),
    max_size=60)


@settings(max_examples=60)
@given(items_strategy)
def test_binary_round_trip(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("rt") / "t.rtr"
    write_trace(path, as_trace(pairs), "binary")
    assert items(load_trace(path, "binary")) == pairs


@settings(max_examples=60)
@given(items_strategy)
def test_text_round_trip_matches_binary(tmp_path_factory, pairs):
    root = tmp_path_factory.mktemp("rt")
    write_trace(root / "t.rtr", as_trace(pairs), "binary")
    write_trace(root / "t.txt", as_trace(pairs), "text")
    assert (items(load_trace(root / "t.rtr", "binary"))
            == items(load_trace(root / "t.txt", "text")) == pairs)


@pytest.mark.parametrize("pairs, message", [
    ([(0x100, 4), (0x104, 2**32 + 1)], "item 1: instruction size 4294967297 outside"),
    ([(0x100, -1)], "item 0: instruction size -1 outside"),
    ([(0x100, 4), (2**64, 4)], f"item 1: address {2**64} outside"),
    ([(-4, 4)], "item 0: address -4 outside"),
])
def test_binary_write_out_of_range_rejected(tmp_path, pairs, message):
    # an address or a size is refused when the trace is built, so a file
    # is never begun
    path = tmp_path / "t.rtr"
    with pytest.raises(ValueError, match=message):
        write_trace(path, as_trace(pairs), "binary")
    assert not path.exists()


@pytest.mark.parametrize("pairs, message", [
    ([(0x100, 4), (2**64, 4)], f"item 1: address {2**64} outside"),
    ([(0x100, 4), (0x104, 4), (-4, 4)], "item 2: address -4 outside"),
])
def test_text_write_address_outside_u64_rejected(tmp_path, pairs, message):
    # load_text refuses such an address, so a text file never holds one
    path = tmp_path / "t.txt"
    with pytest.raises(ValueError, match=message):
        write_trace(path, as_trace(pairs), "text")
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["binary", "text"])
@pytest.mark.parametrize("pairs, message", [
    ([(0x100, 0)], "item 0: instruction size 0 outside"),
    ([(0x100, 4), (0x104, 4), (0x108, 0), (0x10C, 0)], "item 2: instruction size 0 outside"),
])
def test_write_zero_size_rejected(tmp_path, fmt, pairs, message):
    # both readers refuse a zero size, and so does construction, so
    # neither writer is handed one
    path = tmp_path / "t.trace"
    with pytest.raises(ValueError, match=message):
        write_trace(path, as_trace(pairs), fmt)
    assert not path.exists()


def test_text_write_negative_size_rejected(tmp_path):
    path = tmp_path / "t.txt"
    with pytest.raises(ValueError, match=re.escape("item 1: instruction size -1 outside")):
        write_trace(path, as_trace([(0x100, 4), (0x104, -1)]), "text")
    assert not path.exists()


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 15])
def test_binary_write_in_chunks_equals_one_shot_encoding(tmp_path, monkeypatch, chunk, n):
    # lengths below, at, just past and short of twice a 7-record chunk
    pairs = [((k * 0x9E3779B97F4A7C15) % 2**64, 1 + (k * 2654435761) % (2**32 - 1))
             for k in range(n)]
    monkeypatch.setattr(trace_io, "_LOAD_CHUNK", chunk)
    path = tmp_path / "t.rtr"
    write_trace(path, as_trace(pairs))
    expected = struct.pack("<8sII", b"RAINTRC1", 1, 0) + b"".join(
        struct.pack("<QII", a, s, 0) for a, s in pairs)
    assert path.read_bytes() == expected


def test_binary_write_memory_per_item(tmp_path):
    # records are encoded a chunk at a time into one reused buffer, so the
    # write's peak does not grow with the trace: a whole-length record
    # array and its bytes would add 32 bytes per item
    peaks = {}
    for n in (100_000, 400_000):
        trace = generate_trace(ProgramSpec((LoopSpec(base=0x1000, body=10, iters=n // 10),)))
        gc.collect()
        tracemalloc.start()
        try:
            write_trace(tmp_path / f"loop{n}.rtr", trace)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[n] <= 1 << 20, (n, peaks[n])
    assert peaks[400_000] - peaks[100_000] < 300_000, peaks


@pytest.mark.parametrize("loops", [1, 3])
def test_generate_memory_per_item(loops):
    # the trace holds 12 bytes per item, and a lone loop's arrays are the
    # trace's; several loops fill arrays sized once from the spec's length,
    # so the peak adds one loop's arrays, not a second copy of the trace
    n = 120_000
    spec = ProgramSpec(tuple(LoopSpec(base=0x1000 * (k + 1), body=10, iters=n // 10 // loops)
                             for k in range(loops)))
    gc.collect()
    tracemalloc.start()
    try:
        trace = generate_trace(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    assert held <= 12 * n + 4096, held / n
    largest = 0 if loops == 1 else 12 * n // loops
    assert peak <= 12 * n + largest + 4096, peak / n


def test_binary_load_reads_addresses_across_chunks(tmp_path, monkeypatch):
    # a 5-instruction loop body read in 7-item chunks: every address
    # recurs in chunks that start at different offsets of the body
    base = 2**63
    addresses = [base + 4 * (k % 5) for k in range(40)] + [2**64 - 1, base]
    path = tmp_path / "t.rtr"
    write_trace(path, Trace(addresses, [4] * len(addresses)))
    monkeypatch.setattr(trace_io, "_LOAD_CHUNK", 7)
    loaded = load_trace(path).addresses.tolist()
    records = np.frombuffer(path.read_bytes(), dtype=trace_io._RECORD_DTYPE,
                            offset=trace_io._HEADER.size)
    assert loaded == records["address"].tolist() == addresses
    assert len(set(loaded)) == 6


def _loop(addresses, n):
    return [addresses[k % len(addresses)] for k in range(n)]


@pytest.mark.parametrize("chunk", [1, 7, 65_536])
@pytest.mark.parametrize("addresses, table", [
    (_loop([0x100 + 4 * k for k in range(5)] + [0x100], 42), True),
    (_loop([0, 4, 8, 12, 0, 16], 30), True),
    (_loop([2**64 - 1, 2**64 - 9, 2**64 - 5, 2**64 - 1], 25), True),
    (_loop([0, 4, 2**64 - 1, 8, 2**64 - 5], 33), False),
    (_loop([0x100, 0x104, 0x4100, 0x104], 20), False),
    ([2**63], True),
])
def test_binary_load_shares_one_int_per_address(tmp_path, monkeypatch, chunk, addresses, table):
    # addresses spanning at most as many values as the trace has items,
    # and more, load into the u64 column alone at every chunk size
    assert (max(addresses) - min(addresses) < len(addresses)) == table
    path = tmp_path / "t.rtr"
    write_trace(path, Trace(addresses, [4] * len(addresses)))
    monkeypatch.setattr(trace_io, "_LOAD_CHUNK", chunk)
    loaded = load_trace(path).addresses
    assert loaded.dtype == np.uint64 and loaded.tolist() == addresses
    assert len(set(loaded.tolist())) == len(set(addresses))


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("defect, message", [
    ("flags", "nonzero flags at byte offset 176"),
    ("size", "zero instruction size at byte offset 176"),
    ("cut", "truncated record at byte offset 320"),
    ("short", "truncated record at byte offset 336"),
    ("flags+cut", "nonzero flags at byte offset 176"),
])
def test_binary_load_defect_in_later_chunk_reports_offset(tmp_path, monkeypatch, chunk,
                                                          defect, message):
    # 20 records, the defect past the first chunk at either chunk size:
    # record 10's flags or size, a cut in record 19, or a record 20 that
    # the file's size promised; of two defects, the first in the file
    path = tmp_path / "t.rtr"
    write_trace(path, Trace([0x100 + 4 * k for k in range(20)], [4] * 20))
    raw = bytearray(path.read_bytes())
    if defect.startswith("flags"):
        raw[16 + 10 * 16 + 12] = 1
    elif defect == "size":
        raw[16 + 10 * 16 + 8:16 + 10 * 16 + 12] = bytes(4)
    if defect.endswith("cut"):
        del raw[-5:]
    path.write_bytes(bytes(raw))
    if defect == "short":
        # the file ends before the size found when it was opened, as when
        # it is cut while being read
        real = trace_io.os.fstat
        monkeypatch.setattr(trace_io.os, "fstat",
                            lambda fd: SimpleNamespace(st_size=real(fd).st_size + 16))
    monkeypatch.setattr(trace_io, "_LOAD_CHUNK", chunk)
    with pytest.raises(TraceFormatError, match=re.escape(message)):
        load_trace(path)
    # the same check, keeping nothing, and a read of the records before
    # the defect
    with TraceFile(path) as source:
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            source.validate()
        assert source.read(2, 9).addresses.tolist() == [0x100 + 4 * k for k in range(2, 9)]


@pytest.mark.parametrize("chunk", [1, 3, 7, 64])
@pytest.mark.parametrize("start, end", [(0, 20), (5, 17), (6, 7), (4, 4)])
def test_trace_file_chunks_are_aligned_to_the_file(tmp_path, monkeypatch, chunk, start, end):
    addresses = [0x100 + 4 * (k % 6) for k in range(20)]
    path = tmp_path / "t.rtr"
    write_trace(path, Trace(addresses, list(range(1, 21))))
    monkeypatch.setattr(trace_io, "_REPLAY_CHUNK", chunk)
    with TraceFile(path) as source:
        assert len(source) == 20
        chunks = list(source.chunks(start, end))
    firsts = sorted({start} | set(range(start - start % chunk + chunk, end, chunk)))
    assert [lo for lo, _ in chunks] == (firsts if start < end else [])
    assert all((lo + len(part)) % chunk == 0 or lo + len(part) == end for lo, part in chunks)
    assert [a for _, part in chunks for a in part.addresses.tolist()] == addresses[start:end]
    assert [s for _, part in chunks for s in part.sizes] == list(range(start + 1, end + 1))


@pytest.mark.parametrize("chunk", [1, 7, 65_536])
@pytest.mark.parametrize("pairs", [[], [(2**64 - 1, 4)], [(0, 2**32 - 1)]])
def test_binary_load_empty_and_one_record(tmp_path, monkeypatch, chunk, pairs):
    path = tmp_path / "t.rtr"
    write_trace(path, as_trace(pairs))
    assert len(path.read_bytes()) == 16 + 16 * len(pairs)
    monkeypatch.setattr(trace_io, "_LOAD_CHUNK", chunk)
    trace = load_trace(path)
    assert items(trace) == pairs
    assert trace.addresses.dtype == np.uint64
    assert not trace.addresses.flags.writeable


def _loaded_bytes(path, fmt="binary"):
    """Bytes ``load_trace(path, fmt)`` leaves allocated, and its peak above
    that."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = load_trace(path, fmt)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) > 0
    return after - before, peak - after


def _check_loop_load_memory(tmp_path, fmt, lengths):
    # numpy reports its buffers to tracemalloc, so the traced sizes count
    # the column, the sizes and every temporary: each item costs the
    # column's 8 bytes and 4 bytes of sizes (a text load's arrays grow by
    # appending, a sixteenth at a time, so they keep up to that much
    # slack), and the peak above that is a few chunks of temporaries
    # whatever the trace's length
    slack = 0 if fmt == "binary" else 12 / 16
    measured = {}
    for n in lengths:
        path = tmp_path / f"loop{n}.trace"
        write_trace(path, generate_trace(ProgramSpec((LoopSpec(base=0x1000, body=10,
                                                               iters=n // 10),))), fmt)
        measured[n] = _loaded_bytes(path, fmt)
    for n, (final, peak) in measured.items():
        assert final <= (12 + slack) * n + 4096, (n, final / n)
        assert peak <= 1 << 20, (n, peak)
    # less than one byte per added item: a whole-file copy, or lists
    # converted at the end, would add 16 or more
    short, long = lengths
    assert measured[long][1] - measured[short][1] < long - short, measured


def test_binary_load_memory_per_item(tmp_path):
    _check_loop_load_memory(tmp_path, "binary", (100_000, 400_000))


def test_text_load_memory_per_item(tmp_path):
    # shorter: tracemalloc traces each line's temporaries
    _check_loop_load_memory(tmp_path, "text", (25_000, 100_000))


@pytest.mark.parametrize("isize", [1, 4])
def test_binary_load_memory_with_every_address_distinct(tmp_path, isize):
    # straight-line code: every address distinct, spanning the item count
    # or four times it.  The load holds the column and the sizes, 12 bytes
    # per item as for a loop, and above that only a few chunks of
    # temporaries: nothing grows with the distinct addresses
    n = 200_000
    path = tmp_path / "straight.rtr"
    write_trace(path, Trace(list(range(0x1000, 0x1000 + isize * n, isize)), [isize] * n))
    final, peak = _loaded_bytes(path)
    assert final <= 12 * n + 4096, final / n
    assert peak <= 1 << 20, peak / n


def test_backward_indices():
    tr = Trace([0x100, 0x104, 0x100, 0x200, 0x0F0], [4, 4, 4, 4, 4])
    assert tr.backward_indices().tolist() == [2, 4]


# --- the address column -----------------------------------------------------

@pytest.mark.parametrize("addresses, j", [
    ([0x100, 2**64], 1),
    ([-4], 0),
    ([0x100, 0x104, -4, 2**64], 2),
    ([0, 2**64 - 1, 2**64 + 8, -4], 2),
    # a signed numpy array is checked in bulk
    (np.array([8, 4, -4, -8]), 2),
    (np.array([8, -4], dtype=np.int8), 1),
])
def test_trace_rejects_address_outside_u64(addresses, j):
    # neither file format carries such an address, so construction
    # refuses it, naming the first, and no writer or technique meets one
    message = f"trace item {j}: address {addresses[j]} outside [0, 2**64)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trace(addresses, [4] * len(addresses))


@pytest.mark.parametrize("sizes, j", [
    ([0], 0),
    ([-1], 0),
    ([2**32], 0),
    ([4, 2**32 - 1, 0, 2**40], 2),
    ([4, 2**40, 0], 1),
    ([1, 2, -1, 0], 2),
    # numpy arrays are checked in bulk
    (np.array([4, 0, 2], dtype=np.uint8), 1),
    (np.array([4, -1]), 1),
    (np.array([2**32, 4], dtype=np.uint64), 0),
])
def test_trace_rejects_size_outside_u32(sizes, j):
    # both file formats carry a size in [1, 2**32), so construction
    # refuses any other, naming the first
    message = f"trace item {j}: instruction size {sizes[j]} outside [1, 2**32)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trace([0x100 + 4 * k for k in range(len(sizes))], sizes)


@pytest.mark.parametrize("addresses, message", [
    ([1.0, 2.0], "trace item 0: address 1.0 is not an int"),
    ([0x100, 0x104, 2.5], "trace item 2: address 2.5 is not an int"),
    (np.array([1.5, 2.0]), "trace item 0: address 1.5 is not an int"),
])
def test_trace_rejects_float_address(addresses, message):
    # a float is no address, even one with an integral value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trace(addresses, [4] * len(addresses))


def test_trace_takes_a_bool_array_as_a_bool_list():
    trace = Trace(np.array([True, False]), np.array([True, True]))
    assert trace.addresses.tolist() == Trace([True, False], [True, True]).addresses.tolist() == [1, 0]
    assert trace.sizes.tolist() == [1, 1]


@pytest.mark.parametrize("dtype", [np.uint64, np.int32])
def test_trace_copies_an_integer_array(dtype):
    # any integer dtype gives the same u64 column, a copy: the trace does
    # not change with its source, and a slice of it builds a trace
    source = np.array([0x100, 0x104, 0x108, 0x100], dtype=dtype)
    sizes = np.array([4, 4, 4, 4], dtype=dtype)
    trace = Trace(source, sizes)
    source[0] = sizes[0] = 8
    assert trace.addresses.dtype == np.uint64
    assert trace.addresses.tolist() == [0x100, 0x104, 0x108, 0x100]
    assert trace.sizes.tolist() == [4] * 4
    half = Trace(trace.addresses[:2], trace.sizes[:2])
    assert half.addresses.tolist() == [0x100, 0x104] and half.sizes.tolist() == [4, 4]


def test_trace_holds_sizes_as_one_u32_buffer():
    trace = Trace([0x100, 0x104, 0x108], [4, 2**32 - 1, 1])
    assert trace.sizes.typecode == "I" and trace.sizes.itemsize == 4
    assert trace.sizes.tolist() == [4, 2**32 - 1, 1]


@pytest.mark.parametrize("source", ["generate_trace", "load_binary", "load_binary_interned",
                                    "load_text", "high_walk", "empty"])
def test_column_equals_addresses_and_is_read_only(tmp_path, monkeypatch, source):
    walk = high_walk(random.Random(3), 500)
    if source == "generate_trace":
        trace = generate_trace(ProgramSpec((LoopSpec(base=2**64 - 16, body=4, iters=3),)))
    elif source == "high_walk":
        trace = walk
    elif source == "empty":
        trace = Trace([], [])
    else:
        fmt = "text" if source == "load_text" else "binary"
        if source == "load_binary_interned":
            monkeypatch.setattr(trace_io, "_LOAD_CHUNK", 7)
        path = tmp_path / "t.trace"
        write_trace(path, walk, fmt)
        trace = load_trace(path, fmt)
        assert trace.addresses.tolist() == walk.addresses.tolist()
    assert type(trace.addresses) is np.ndarray and trace.addresses.dtype == np.uint64
    assert len(trace.addresses) == len(trace.sizes) == len(trace)
    with pytest.raises(ValueError, match="read-only"):
        trace.addresses[:1] = 1


# --- synthetic generation ---------------------------------------------------

def test_single_loop_sequence():
    spec = ProgramSpec((LoopSpec(base=0x100, body=3, iters=2, isize=4),))
    assert generate_trace(spec).addresses.tolist() == [0x100, 0x104, 0x108] * 2


def test_zero_iters_empty():
    spec = ProgramSpec((LoopSpec(base=0x100, body=3, iters=0),))
    assert len(generate_trace(spec)) == 0


def _oracle_walk(loop):
    """Independent recursive walker, generator style: (address, size)."""
    for i in range(loop.iters):
        if loop.phases is None:
            for k in range(loop.body):
                yield loop.base + k * loop.isize, loop.isize
        else:
            yield loop.base, loop.isize
            ph = loop.phases
            use_a = (i // ph.period) % 2 == 0
            count = ph.body_a if use_a else ph.body_b
            off = 1 if use_a else 1 + ph.body_a
            for k in range(count):
                yield loop.base + (off + k) * loop.isize, loop.isize
        for child in loop.children:
            yield from _oracle_walk(child)


def test_nested_loops_match_recursive_walker():
    inner = LoopSpec(base=0x140, body=2, iters=3, isize=4)
    outer = LoopSpec(base=0x100, body=3, iters=2, isize=4, children=(inner,))
    spec = ProgramSpec((outer,))
    assert items(generate_trace(spec)) == list(_oracle_walk(outer))


def test_phases_match_recursive_walker():
    loop = LoopSpec(base=0x100, body=0, iters=7, isize=4,
                    phases=AlternatingPaths(body_a=2, body_b=3, period=2))
    assert items(generate_trace(ProgramSpec((loop,)))) == list(_oracle_walk(loop))


@st.composite
def _loop_at(draw, base, depth):
    """A loop at ``base`` with children nested up to depth 3, each after
    the previous subtree with a gap, and the address just past it."""
    isize = draw(st.sampled_from([1, 4, 2**32 - 1]))
    # a period past any loop's iterations means the loop never leaves path A
    phases = draw(st.none() | st.builds(AlternatingPaths, st.integers(1, 3), st.integers(1, 3),
                                        st.sampled_from([1, 2, 4, 2**40])))
    body = draw(st.integers(1, 4)) if phases is None else 0
    span = body if phases is None else 1 + phases.body_a + phases.body_b
    end = base + span * isize
    children = []
    for _ in range(draw(st.integers(0, 2 if depth < 3 else 0))):
        child, end = draw(_loop_at(end + draw(st.integers(0, 8)), depth + 1))
        children.append(child)
    iters = draw(st.integers(0, 9 if depth == 1 else 3))
    return LoopSpec(base=base, body=body, iters=iters, isize=isize,
                    children=tuple(children), phases=phases), end


@st.composite
def _programs(draw):
    loops, end = [], draw(st.integers(0, 2**20))
    for _ in range(draw(st.integers(1, 3))):
        loop, end = draw(_loop_at(end, 1))
        loops.append(loop)
    return ProgramSpec(tuple(loops))


@settings(max_examples=150, deadline=None)
@given(_programs())
def test_generated_trace_matches_recursive_walker(spec):
    expected = [pair for loop in spec.loops for pair in _oracle_walk(loop)]
    trace = generate_trace(spec)
    assert items(trace) == expected
    assert trace.addresses.tolist() == [a for a, _ in expected]


def test_phased_loop_with_huge_period_generates_only_its_iterations():
    # three iterations of path A: no block of the never-reached switch is built
    loop = LoopSpec(base=0x100, body=0, iters=3, isize=4,
                    phases=AlternatingPaths(body_a=2, body_b=1, period=2**40))
    trace = generate_trace(ProgramSpec((loop,)))
    assert items(trace) == list(_oracle_walk(loop))
    assert trace.addresses.tolist() == [0x100, 0x104, 0x108] * 3


def test_zero_iteration_loop_skips_huge_child():
    # a child that would run 2**40 times is never built under a loop that
    # runs zero times
    child = LoopSpec(base=0x200, body=4, iters=2**40)
    phased_child = LoopSpec(base=0x300, body=0, iters=2**40,
                            phases=AlternatingPaths(body_a=1, body_b=1, period=3))
    for parent in (LoopSpec(base=0x100, body=2, iters=0, children=(child, phased_child)),
                   LoopSpec(base=0x100, body=0, iters=0, children=(child, phased_child),
                            phases=AlternatingPaths(body_a=1, body_b=1, period=1))):
        trace = generate_trace(ProgramSpec((parent,)))
        assert items(trace) == list(_oracle_walk(parent)) == []


@settings(max_examples=60)
@given(st.integers(1, 5), st.integers(0, 25), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 8))
def test_closed_form_length(body, iters, isize, cbody, citers, extra):
    child = LoopSpec(base=0x100 + body * isize + 8, body=cbody, iters=citers, isize=1)
    loop = LoopSpec(base=0x100, body=body, iters=iters, isize=isize, children=(child,))
    phased = LoopSpec(base=0x4000, body=0, iters=extra, isize=2,
                      phases=AlternatingPaths(body_a=body, body_b=cbody, period=citers))
    spec = ProgramSpec((loop, phased))
    assert len(generate_trace(spec)) == spec.total_items()


def test_overlapping_loops_rejected():
    spec = ProgramSpec((LoopSpec(base=0x100, body=4, iters=1),
                        LoopSpec(base=0x108, body=4, iters=1)))
    with pytest.raises(TraceSpecError, match="overlap"):
        validate_spec(spec)


@pytest.mark.parametrize("base", [-0x10, 2**64 - 8])
def test_loop_span_outside_u64_rejected(base):
    spec = ProgramSpec((LoopSpec(base=base, body=4, iters=1),))
    with pytest.raises(TraceSpecError, match="outside"):
        validate_spec(spec)


@pytest.mark.parametrize("isize", [0, -4, 2**32, 2**40])
def test_loop_isize_outside_u32_rejected(isize):
    spec = ProgramSpec((LoopSpec(base=0x100, body=2, iters=1, isize=isize),))
    message = f"loops[0]: isize {isize} outside [1, 2**32)"
    with pytest.raises(TraceSpecError, match=f"^{re.escape(message)}$"):
        validate_spec(spec)


def test_loop_isize_at_u32_limit_accepted():
    trace = generate_trace(ProgramSpec((LoopSpec(base=0x100, body=2, iters=2, isize=2**32 - 1),)))
    assert trace.sizes.tolist() == [2**32 - 1] * 4
    assert trace.addresses.tolist() == [0x100, 0x100 + 2**32 - 1] * 2


def test_loop_span_ending_at_u64_limit_accepted():
    trace = generate_trace(ProgramSpec((LoopSpec(base=2**64 - 16, body=4, iters=1),)))
    assert trace.addresses[-1:].tolist() == [2**64 - 4]


def test_child_before_parent_body_rejected():
    spec = ProgramSpec((LoopSpec(base=0x100, body=4, iters=1,
                                 children=(LoopSpec(base=0x104, body=1, iters=1),)),))
    with pytest.raises(TraceSpecError, match="child"):
        validate_spec(spec)


def test_parse_program_spec_json():
    spec = parse_program_spec(
        '{"loops": [{"base": "0x100", "body": 3, "iters": 2},'
        ' {"base": 4096, "iters": 4, "phases": {"body_a": 2, "body_b": 2, "period": 1}}]}')
    assert spec.loops[0].base == 0x100
    assert spec.loops[1].phases.period == 1


def test_parse_program_spec_bad_json_line():
    with pytest.raises(TraceSpecError, match="line 2"):
        parse_program_spec('{"loops":\n !}')


def test_parse_program_spec_missing_field():
    with pytest.raises(TraceSpecError, match="loops\\[0\\]"):
        parse_program_spec('{"loops": [{"base": 256}]}')


@pytest.mark.parametrize("loop, message", [
    ('{"base": 256.9, "body": 2, "iters": 1}', "loops[0]: base must be an integer, not 256.9"),
    ('{"base": true, "body": 2, "iters": 1}', "loops[0]: base must be an integer, not True"),
    ('{"base": "0x1.8", "body": 2, "iters": 1}', "loops[0]: base '0x1.8' is not a hex string"),
    ('{"base": "0xzz", "body": 2, "iters": 1}', "loops[0]: base '0xzz' is not a hex string"),
    ('{"base": 256, "body": 2.5, "iters": 1}', "loops[0]: body must be an integer, not 2.5"),
    ('{"base": 256, "body": 2, "iters": true}', "loops[0]: iters must be an integer, not True"),
    ('{"base": 256, "body": 2, "iters": "3"}', "loops[0]: iters must be an integer, not '3'"),
    ('{"base": 256, "body": 2, "iters": 1, "isize": 4.99}',
     "loops[0]: isize must be an integer, not 4.99"),
    ('{"base": 256, "iters": 1, "phases": {"body_a": 2, "body_b": false, "period": 1}}',
     "loops[0].phases: body_b must be an integer, not False"),
    ('{"base": 256, "body": 2, "iters": 1,'
     ' "children": [{"base": 512, "body": 1, "iters": 2.0}]}',
     "loops[0].children[0]: iters must be an integer, not 2.0"),
])
def test_parse_program_spec_rejects_non_integer_numbers(loop, message):
    # a float, a bool or a string would be truncated or read as a number;
    # only base may be a string, and then it is always hex
    with pytest.raises(TraceSpecError, match=f"^{re.escape(message)}$"):
        parse_program_spec(f'{{"loops": [{loop}]}}')


@pytest.mark.parametrize("text", ['[]', '{}', '{"loops": 5}', '{"loops": {"base": 256}}'])
def test_parse_program_spec_without_loops_list_rejected(text):
    with pytest.raises(TraceSpecError, match="^top-level object must contain a 'loops' list$"):
        parse_program_spec(text)


def test_load_program_spec_reads_a_file(tmp_path):
    path = tmp_path / "prog.json"
    path.write_text('{"loops": [{"base": "0x100", "body": 2, "iters": 1}]}', encoding="utf-8")
    spec = ProgramSpec((LoopSpec(base=0x100, body=2, iters=1),))
    assert trace_io.load_program_spec(path) == spec


def test_load_program_spec_not_utf8_rejected(tmp_path):
    path = tmp_path / "prog.json"
    path.write_bytes(b'{"loops": [{"base": "0x100", "body": 2, "iters": 1}]} \xff\n')
    message = f"{path}: byte 0xff at offset 54 is not UTF-8 text"
    with pytest.raises(TraceSpecError, match=f"^{re.escape(message)}$"):
        trace_io.load_program_spec(path)


@pytest.mark.parametrize("base", ['"256"', '"0x256"', '"0X256"', "598"])
def test_parse_program_spec_base_string_is_hex(base):
    # a string base is read as hex with or without 0x; a JSON number is not
    spec = parse_program_spec(f'{{"loops": [{{"base": {base}, "body": 2, "iters": 1}}]}}')
    assert spec.loops[0].base == 0x256


def test_unknown_format_rejected(tmp_path):
    path = write3(tmp_path)
    with pytest.raises(ValueError, match="format"):
        load_trace(path, "xml")

