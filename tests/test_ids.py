"""Address ids: each trace numbers its distinct addresses by their rank in
a sorted table, and the engine, the managers and the automaton run on the
ids.

The ids are u8, u16 or u32 by the table's size, and they keep the
addresses' order, so every technique's dump, mapped back to addresses,
must equal the per-item reference's (``naive_run``) at each width, at the
u64 extremes, through the dense lookup and through the binary search a
wide span takes, and on empty and one-item windows.  Addresses come back
only in the report, the dump and error messages.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import naive_run, random_graph_walk, random_noise, random_trace
from rftsim import trace_io
from rftsim.automaton import Automaton, _profile
from rftsim.engine import SimulationConfig, run_simulation
from rftsim.metrics import compute_report
from rftsim.rft import TECHNIQUES, RFTConfig
from rftsim.trace_io import Trace, TraceFile, write_trace


def _shifted(trace: Trace, offset: int) -> Trace:
    return Trace([a + offset for a in trace.addresses.tolist()], trace.sizes)


def _fresh_then(hot: Trace, fresh: int) -> Trace:
    """``fresh`` straight-line addresses, each run once and all below those
    of ``hot``, then ``hot``: the table holds at least ``fresh`` addresses,
    and ``hot``'s, where regions form, take the top ids."""
    hot = _shifted(hot, 4 * fresh)
    return Trace(list(range(0, 4 * fresh, 4)) + hot.addresses.tolist(),
                 [4] * fresh + list(hot.sizes))


def _check_engine(trace: Trace, thresholds=(2, 16)) -> None:
    for technique in TECHNIQUES:
        for threshold in thresholds:
            config = SimulationConfig(rft=RFTConfig(technique, threshold=threshold),
                                      collect_dump=True)
            assert run_simulation(trace, config).dump == naive_run(trace, config).dump(), \
                (technique, threshold)


@pytest.mark.parametrize("distinct, code", [(1, "B"), (256, "B"), (257, "H"),
                                            (65_536, "H"), (65_537, "I")])
@pytest.mark.parametrize("dense", [True, False])
def test_ids_are_ranks_at_each_width(monkeypatch, distinct, code, dense):
    """Each item's id is its address's rank among the distinct addresses,
    in an array of the narrowest width that holds them all."""
    if not dense:
        monkeypatch.setattr(trace_io, "_DENSE_SPAN", 0)
    rng = random.Random(distinct)
    pool = rng.sample(range(0x1000, 0x1000 + 16 * distinct), distinct)
    addresses = pool + [rng.choice(pool) for _ in range(1000)]
    trace = Trace(addresses, [4] * len(addresses))
    table = trace.table()
    assert table.dtype == np.uint64 and table.tolist() == sorted(pool)
    assert trace._ids.typecode == code
    assert table[np.asarray(trace._ids)].tolist() == addresses


@pytest.mark.parametrize("fresh, code", [(0, "B"), (400, "H"), (65_600, "I")])
def test_engine_equals_naive_loop_at_each_id_width(fresh, code):
    """A random walk, where regions form, after ``fresh`` addresses run
    once: its ids are u8, then u16, then u32 ids above 65,535."""
    trace = _fresh_then(random_graph_walk(random.Random(fresh), 1500), fresh)
    trace.table()
    assert trace._ids.typecode == code
    _check_engine(trace)
    assert run_simulation(trace, SimulationConfig(rft=RFTConfig(threshold=2))).report.num_regions


def test_u64_extremes_in_one_trace():
    """0, 2**63 - 1, 2**63 and 2**64 - 1 among the nodes of one walk: the
    span exceeds the dense lookup's, so the ids come from the binary
    search."""
    extremes = [0, 2**63 - 1, 2**63, 2**64 - 1]
    rng = random.Random(0x64)
    nodes = extremes + [2**63 + 4 * k for k in range(1, 5)] + [4 * k for k in range(1, 5)]
    successors = {a: [rng.choice(nodes) for _ in range(2)] + [nodes[(k + 1) % len(nodes)]]
                  for k, a in enumerate(nodes)}
    walk, a = [], nodes[0]
    for _ in range(2000):
        walk.append(a)
        a = rng.choice(successors[a])
    trace = Trace(walk, [rng.randint(1, 8) for _ in walk])
    assert trace.table().tolist() == sorted(set(walk)) and set(extremes) <= set(walk)
    assert 2**64 - 1 > trace_io._DENSE_SPAN
    _check_engine(trace)


def test_fallback_numbering_equals_the_dense_lookup(monkeypatch, tmp_path):
    """With the dense lookup's span patched to 0, every trace is numbered
    through the binary search, in memory and streamed; the dumps do not
    change."""
    rng = random.Random(0xFA11)
    traces = [random_trace(rng, 1500), random_graph_walk(rng, 1500), random_noise(rng, 1500)]
    configs = [SimulationConfig(rft=RFTConfig(technique, threshold=3), collect_dump=True)
               for technique in TECHNIQUES]
    dumps = [[run_simulation(trace, c).dump for c in configs] for trace in traces]
    monkeypatch.setattr(trace_io, "_DENSE_SPAN", 0)
    monkeypatch.setattr(trace_io, "_REPLAY_CHUNK", 64)
    for k, (trace, want) in enumerate(zip(traces, dumps)):
        path = tmp_path / f"{k}.rtr"
        write_trace(path, trace)
        fresh = Trace(trace.addresses, trace.sizes)
        with TraceFile(path) as source:
            for config, dump in zip(configs, want):
                assert run_simulation(fresh, config).dump == dump
                assert run_simulation(source, config).dump == dump
            assert source._numbering._span == 0


@pytest.mark.parametrize("dense_span", [None, 1 << 12])
def test_validate_reads_each_record_once(monkeypatch, tmp_path, dense_span):
    """``validate()`` checks and numbers a file in one read, one
    ``_records`` call per ``_LOAD_CHUNK`` records, while its addresses
    reach lower and higher in turn, and, with ``_DENSE_SPAN`` patched
    down, pass it midway; the table and the ids are the trace's."""
    monkeypatch.setattr(trace_io, "_LOAD_CHUNK", 100)
    if dense_span is not None:
        monkeypatch.setattr(trace_io, "_DENSE_SPAN", dense_span)
    rng = random.Random(0x0AE)
    addresses = []
    for centre in (0x8000, 0x7000, 0x9000, 0x2000, 0x8800, 0x10000):
        addresses += [centre + 4 * rng.randrange(200) for _ in range(rng.randint(150, 400))]
    trace = Trace(addresses, [4] * len(addresses))
    path = tmp_path / "t.rtr"
    write_trace(path, trace)
    reads = []
    records = TraceFile._records

    def counted(self, lo, hi):
        reads.append(hi - lo)
        return records(self, lo, hi)
    monkeypatch.setattr(TraceFile, "_records", counted)
    with TraceFile(path) as source:
        assert source.validate().tolist() == sorted(set(addresses))
        assert len(reads) == -(-len(addresses) // 100) and sum(reads) == len(addresses)
        assert (source._numbering._span == 0) == (dense_span is not None)
        trace.table()
        assert list(source.read(0, len(trace))._ids) == list(trace._ids)


@pytest.mark.parametrize("skip, limit", [(0, 0), (700, 0), (1500, None), (1499, None),
                                         (0, 1), (611, 1)])
def test_empty_and_one_item_windows(tmp_path, skip, limit):
    trace = random_graph_walk(random.Random(5), 1500)
    path = tmp_path / "t.rtr"
    write_trace(path, trace)
    with TraceFile(path) as source:
        for technique in TECHNIQUES:
            config = SimulationConfig(rft=RFTConfig(technique, threshold=1), skip=skip,
                                      limit=limit, collect_dump=True)
            dump = naive_run(trace, config).dump()
            assert dump["total_instructions"] == (0 if limit == 0 or skip == 1500 else 1)
            assert run_simulation(trace, config).dump == dump
            assert run_simulation(source, config).dump == dump


@pytest.mark.parametrize("addresses", [[], [2**64 - 1], [0x100]])
def test_empty_and_one_item_traces(addresses):
    trace = Trace(addresses, [4] * len(addresses))
    _check_engine(trace, thresholds=(1,))
    assert trace.table().tolist() == addresses


def test_addresses_stay_as_built_once_ids_are_cached():
    built = [0x400, 2**64 - 1, 0x100, 0x400, 0x100, 0]
    trace = Trace(built, [4] * len(built))
    for _ in range(2):
        assert trace.addresses.dtype == np.uint64 and not trace.addresses.flags.writeable
        assert trace.addresses.tolist() == built
        run_simulation(trace, SimulationConfig(rft=RFTConfig("net", threshold=1)))
    assert trace._ids.tolist() == [2, 3, 1, 2, 1, 0]
    with pytest.raises(ValueError):
        trace.addresses[0] = 1


# --- addresses at the automaton's boundary ----------------------------------------

TABLE = np.array([0x1000, 0x2000, 0x3000, 0x4000, 0x5000, 0x6000], dtype=np.uint64)


def _numbered() -> Automaton:
    automaton = Automaton()
    automaton.bind(TABLE)
    return automaton


@pytest.mark.parametrize("region, message", [
    (([(0, 4), (1, 4)], [(1, 4)], {}), "expansion address 0x2000 duplicates the recording"),
    (([(0, 4)], [(2, 4), (2, 4)], {}), "duplicate expansion address 0x3000"),
    (([(0, 4)], [(2, 4)], {3: [0]}), "expansion successor source 0x4000 not in region"),
    (([(0, 4)], [(2, 4)], {2: [5]}), "expansion successor target 0x6000 not in region"),
])
def test_append_region_errors_name_addresses(region, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _numbered().append_region(*region)


def test_duplication_ratio_counts_held_addresses_not_slots():
    """Two regions hold 0x2000: four static states hold three distinct
    addresses, by hand (1 - 3/4), whatever the table's six slots."""
    automaton = _numbered()
    automaton.append_region([(0, 4), (1, 4)])
    automaton.append_region([(1, 4), (2, 4)])
    report = compute_report(automaton)
    assert (report.hot_static_size, report.duplication_ratio) == (4, 0.25)
    assert [r.entry_address for r in report.regions] == [0x1000, 0x2000]
    states = automaton.dump()["states"]
    assert [s["address"] for s in states[1:]] == [0x1000, 0x2000, 0x2000, 0x3000]


WIDTHS = (np.uint8, np.uint16, np.uint32, np.uint64)


@st.composite
def _windows(draw):
    """A window of ids below 256, few distinct or many, which ones ran
    interpreter-side, what item 0 is compared with, counts by id and a
    threshold."""
    span, n = draw(st.sampled_from([3, 60, 256])), draw(st.integers(1, 700))
    ids = draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
    off = draw(st.one_of(st.just([True] * len(ids)),
                         st.lists(st.booleans(), min_size=len(ids), max_size=len(ids))))
    p = draw(st.sampled_from([-1, 256, *ids[:1]]))
    counts = draw(st.lists(st.integers(0, 6), min_size=256, max_size=256))
    return ids, off, p, counts, draw(st.integers(1, 40))


@settings(max_examples=150, deadline=None)
@given(_windows())
@example(([k % 3 for k in range(600)], [True] * 600, -1, [0] * 256, 150))
def test_grouping_and_profiling_agree_at_each_id_width(window):
    """``_grouped`` and ``_profile`` pick their sorts by the ids' width
    (``trace_io._sort``): the same ids at each width give the same groups,
    items in order of value then index, and the same stop, ``prev`` and
    counts."""
    ids, off, p, counts, threshold = window
    off = np.array(off)
    results = []
    for width in WIDTHS:
        col = np.array(ids, dtype=width)
        grouped = tuple(a.tolist() for a in trace_io._grouped(col))
        got = np.array(counts, dtype=np.int64)
        stop = _profile(col, off, bool(off.all()), p, 256, got, threshold)
        results.append((grouped, stop, got.tolist()))
    assert all(r == results[0] for r in results[1:])
    keys, starts, lengths, items = results[0][0]
    assert items == sorted(range(len(ids)), key=lambda k: (ids[k], k))
    assert keys == sorted(set(ids)) and sum(lengths) == len(ids)
