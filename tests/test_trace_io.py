import gc
import random
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import high_walk
from rftsim import trace_io
from rftsim.trace_io import (AlternatingPaths, LoopSpec, ProgramSpec, Trace,
                             TraceFormatError, TraceSpecError, generate_trace,
                             load_trace, parse_program_spec, validate_spec,
                             write_trace)

ITEMS3 = [(0x100, 4), (0x104, 2), (0x200, 8)]


def as_trace(pairs):
    return Trace([a for a, _ in pairs], [s for _, s in pairs])


def items(trace):
    return list(zip(trace.addresses, trace.sizes))


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
    assert load_trace(path, "text").addresses == [0, 2**64 - 1]


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
    ([(0x100, 4), (0x104, 2**32 + 1)], "item 1: instruction size 4294967297 does not fit u32"),
    ([(0x100, -1)], "item 0: instruction size -1 does not fit u32"),
    ([(0x100, 4), (2**64, 4)], f"item 1: address {2**64} outside"),
    ([(-4, 4)], "item 0: address -4 outside"),
])
def test_binary_write_out_of_range_rejected(tmp_path, pairs, message):
    # the writer refuses a size; an address is refused when the trace is
    # built, so a file is never begun for either
    error = TraceFormatError if "size" in message else ValueError
    path = tmp_path / "t.rtr"
    with pytest.raises(error, match=message):
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
    ([(0x100, 0)], "item 0: instruction size 0 must be >= 1"),
    ([(0x100, 4), (0x104, 4), (0x108, 0), (0x10C, 0)],
     "item 2: instruction size 0 must be >= 1"),
])
def test_write_zero_size_rejected(tmp_path, fmt, pairs, message):
    # both readers refuse a zero size, so neither writer writes one
    path = tmp_path / "t.trace"
    with pytest.raises(TraceFormatError, match=message):
        write_trace(path, as_trace(pairs), fmt)
    assert not path.exists()


def test_text_write_negative_size_rejected(tmp_path):
    path = tmp_path / "t.txt"
    with pytest.raises(TraceFormatError, match="item 1: instruction size -1 must be >= 1"):
        write_trace(path, as_trace([(0x100, 4), (0x104, -1)]), "text")
    assert not path.exists()


def test_binary_load_interns_addresses_across_chunks(tmp_path, monkeypatch):
    # a 5-instruction loop body read in 7-item chunks: every address
    # recurs in chunks that start at different offsets of the body
    base = 2**63
    addresses = [base + 4 * (k % 5) for k in range(40)] + [2**64 - 1, base]
    path = tmp_path / "t.rtr"
    write_trace(path, Trace(addresses, [4] * len(addresses)))
    monkeypatch.setattr(trace_io, "_LOAD_CHUNK", 7)
    loaded = load_trace(path).addresses
    records = np.frombuffer(path.read_bytes(), dtype=trace_io._RECORD_DTYPE,
                            offset=trace_io._HEADER.size)
    assert loaded == records["address"].tolist() == addresses
    first = {}
    for a in loaded:
        assert first.setdefault(a, a) is a
    assert len(first) == 6


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
    # both ways of numbering the distinct addresses: an offset table when
    # their span is at most the item count, a binary search otherwise
    assert (max(addresses) - min(addresses) < len(addresses)) == table
    path = tmp_path / "t.rtr"
    write_trace(path, Trace(addresses, [4] * len(addresses)))
    monkeypatch.setattr(trace_io, "_LOAD_CHUNK", chunk)
    loaded = load_trace(path)
    assert loaded.addresses == loaded.column.tolist() == addresses
    first = {}
    assert all(first.setdefault(a, a) is a for a in loaded.addresses)
    assert len(first) == len(set(addresses))


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


@pytest.mark.parametrize("chunk", [1, 7, 65_536])
@pytest.mark.parametrize("pairs", [[], [(2**64 - 1, 4)], [(0, 2**32 - 1)]])
def test_binary_load_empty_and_one_record(tmp_path, monkeypatch, chunk, pairs):
    path = tmp_path / "t.rtr"
    write_trace(path, as_trace(pairs))
    assert len(path.read_bytes()) == 16 + 16 * len(pairs)
    monkeypatch.setattr(trace_io, "_LOAD_CHUNK", chunk)
    trace = load_trace(path)
    assert items(trace) == pairs
    assert trace.column.tolist() == trace.addresses
    assert not trace.column.flags.writeable


def _loaded_bytes(path):
    """Bytes ``load_trace(path)`` leaves allocated, and its peak above that."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = load_trace(path)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) > 0
    return after - before, peak - after


def test_binary_load_memory_per_item(tmp_path):
    # numpy reports its buffers to tracemalloc, so the traced sizes count
    # the column, both lists and every temporary; a loop trace has a few
    # distinct addresses, so each item costs the column's 8 bytes and one
    # pointer in each list, and the peak above that is a few chunks of
    # temporaries whatever the trace's length
    measured = {}
    for n in (100_000, 400_000):
        path = tmp_path / f"loop{n}.rtr"
        write_trace(path, generate_trace(ProgramSpec((LoopSpec(base=0x1000, body=10,
                                                               iters=n // 10),))))
        measured[n] = _loaded_bytes(path)
    for n, (final, peak) in measured.items():
        assert final <= 26 * n, (n, final / n)
        assert peak <= 1 << 20, (n, peak)
    # less than one byte per added item: a whole-file copy would add 16
    assert measured[400_000][1] - measured[100_000][1] < 300_000, measured


@pytest.mark.parametrize("isize", [1, 4])
def test_binary_load_memory_with_every_address_distinct(tmp_path, isize):
    # straight-line code: every address distinct, spanning the item count
    # (offset table) or four times it (binary search).  Above its final
    # size the load holds at most the table's 8 bytes and one mark per
    # item, the array of shared ints (8 bytes per address) and a few
    # chunks of temporaries
    n = 200_000
    path = tmp_path / "straight.rtr"
    write_trace(path, Trace(list(range(0x1000, 0x1000 + isize * n, isize)), [isize] * n))
    final, peak = _loaded_bytes(path)
    assert final <= (24 + 32) * n, final / n
    assert peak <= 17 * n + (1 << 20), peak / n


def test_backward_indices():
    tr = Trace([0x100, 0x104, 0x100, 0x200, 0x0F0], [4, 4, 4, 4, 4])
    assert tr.backward_indices().tolist() == [2, 4]


# --- the address column -----------------------------------------------------

@pytest.mark.parametrize("addresses, j", [
    ([0x100, 2**64], 1),
    ([-4], 0),
    ([0x100, 0x104, -4, 2**64], 2),
    ([0, 2**64 - 1, 2**64 + 8, -4], 2),
])
def test_trace_rejects_address_outside_u64(addresses, j):
    # neither file format carries such an address, so construction
    # refuses it, naming the first, and no writer or technique meets one
    message = f"trace item {j}: address {addresses[j]} outside [0, 2**64)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trace(addresses, [4] * len(addresses))


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
        assert trace.addresses == walk.addresses
    assert trace.column.dtype == np.uint64
    assert trace.column.tolist() == trace.addresses
    with pytest.raises(ValueError, match="read-only"):
        trace.column[:1] = 1


# --- synthetic generation ---------------------------------------------------

def test_single_loop_sequence():
    spec = ProgramSpec((LoopSpec(base=0x100, body=3, iters=2, isize=4),))
    assert generate_trace(spec).addresses == [0x100, 0x104, 0x108] * 2


def test_zero_iters_empty():
    spec = ProgramSpec((LoopSpec(base=0x100, body=3, iters=0),))
    assert len(generate_trace(spec)) == 0


def _oracle_walk(loop):
    """Independent recursive walker, generator style."""
    for i in range(loop.iters):
        if loop.phases is None:
            for k in range(loop.body):
                yield loop.base + k * loop.isize
        else:
            yield loop.base
            ph = loop.phases
            use_a = (i // ph.period) % 2 == 0
            count = ph.body_a if use_a else ph.body_b
            off = 1 if use_a else 1 + ph.body_a
            for k in range(count):
                yield loop.base + (off + k) * loop.isize
        for child in loop.children:
            yield from _oracle_walk(child)


def test_nested_loops_match_recursive_walker():
    inner = LoopSpec(base=0x140, body=2, iters=3, isize=4)
    outer = LoopSpec(base=0x100, body=3, iters=2, isize=4, children=(inner,))
    spec = ProgramSpec((outer,))
    assert generate_trace(spec).addresses == list(_oracle_walk(outer))


def test_phases_match_recursive_walker():
    loop = LoopSpec(base=0x100, body=0, iters=7, isize=4,
                    phases=AlternatingPaths(body_a=2, body_b=3, period=2))
    assert generate_trace(ProgramSpec((loop,))).addresses == list(_oracle_walk(loop))


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


def test_loop_span_ending_at_u64_limit_accepted():
    trace = generate_trace(ProgramSpec((LoopSpec(base=2**64 - 16, body=4, iters=1),)))
    assert trace.addresses[-1] == 2**64 - 4


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


def test_unknown_format_rejected(tmp_path):
    path = write3(tmp_path)
    with pytest.raises(ValueError, match="format"):
        load_trace(path, "xml")

