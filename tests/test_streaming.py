"""Streamed replay of binary trace files against whole-trace replay.

A ``TraceFile`` replays in chunks of ``_REPLAY_CHUNK`` items, aligned to
the file: the engine carries its ``(i, prev)`` and the automaton its
cursor across each boundary, the manager is re-bound to each chunk, and
what reaches back past a chunk's start (the look-ahead's flow map, LEI's
history) reads the file again.  With the chunk patched down to a few
items, boundaries fall everywhere; every streamed dump must equal the
in-memory engine's and the per-item reference's (``naive_run``).

A streamed replay holds a chunk, not the trace, so its peak memory does
not grow with the trace's length, and the CLI checks a binary file whole
before any config runs.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

import rftsim.rft as rft
from conftest import (bench_prefix, bench_render, high_walk, naive_run, random_graph_walk,
                      random_noise)
from rftsim import engine, trace_io
from rftsim.cli import main
from rftsim.engine import SimulationConfig, run_simulation, run_sweep
from rftsim.rft import TECHNIQUES, RFTConfig
from rftsim.trace_io import (AlternatingPaths, LoopSpec, ProgramSpec, Trace, TraceFile,
                             TraceFormatError, generate_trace, load_binary, write_trace)

CHUNKS = [1, 2, 3, 7, 512, 4096]
# a window starting and ending inside a chunk at every size in CHUNKS
SKIP, LIMIT = 701, 1200


def _configs(n: int) -> list[SimulationConfig]:
    """Every technique at thresholds 2 and 64, over the whole trace and
    over a window that starts and ends mid-chunk; ``lei`` with a history
    of 4 and of 100,000."""
    configs = [SimulationConfig(rft=RFTConfig(tech, threshold=threshold), skip=skip,
                                limit=limit, collect_dump=True)
               for tech in TECHNIQUES for threshold in (2, 64)
               for skip, limit in ((0, None), (SKIP, LIMIT))]
    configs += [SimulationConfig(rft=RFTConfig("lei", threshold=threshold,
                                               history_capacity=capacity),
                                 collect_dump=True)
                for threshold in (2, 64) for capacity in (4, 100_000)]
    assert SKIP + LIMIT < n
    return configs


# loop-nest's shape, small: a loop with a nested child, and a phased loop
# with a nested child; 2,448 items
NEST = ProgramSpec((
    LoopSpec(base=0x1000, body=12, iters=40, children=(LoopSpec(base=0x1400, body=6, iters=4),)),
    LoopSpec(base=0x2000, body=19, iters=40,
             phases=AlternatingPaths(body_a=10, body_b=8, period=16),
             children=(LoopSpec(base=0x2400, body=5, iters=3),)),
))


def _traces() -> list[tuple]:
    rngs = [random.Random(seed) for seed in range(3)]
    return [
        ("nest", generate_trace(NEST)),
        ("graph", random_graph_walk(rngs[0], 2000)),
        ("noise", random_noise(rngs[1], 2000)),
        ("high", high_walk(rngs[2], 2000)),
        ("graph-walk", bench_render("graph-walk", 2000)),
        ("interp-noise", bench_render("interp-noise", 2000)),
        ("loop-nest-prefix", bench_prefix("loop-nest", 2000)),
    ]


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """``(name, path, configs, dumps)`` per trace, the dumps the in-memory
    engine's, each checked against the per-item reference."""
    root = tmp_path_factory.mktemp("streamed")
    out = []
    for name, trace in _traces():
        path = root / f"{name}.rtr"
        write_trace(path, trace)
        configs = _configs(len(trace))
        dumps = [run_simulation(trace, config).dump for config in configs]
        for config, dump in zip(configs, dumps):
            assert dump == naive_run(trace, config).dump(), (name, config)
        out.append((name, path, configs, dumps))
    return out


@pytest.mark.parametrize("chunk", CHUNKS)
def test_streamed_dumps_equal_whole_trace_dumps(monkeypatch, cases, chunk):
    monkeypatch.setattr(trace_io, "_REPLAY_CHUNK", chunk)
    # read-backs past the current chunk's start, by technique
    reached = set()
    span = rft.RegionManager._span

    def logged(self, lo, hi):
        if lo < self._base:
            reached.add(type(self).__name__)
        return span(self, lo, hi)
    monkeypatch.setattr(rft.RegionManager, "_span", logged)
    for name, path, configs, dumps in cases:
        with TraceFile(path) as source:
            for config, dump in zip(configs, dumps):
                assert run_simulation(source, config).dump == dump, (name, chunk, config)
    # the look-ahead's catch-up and LEI's history span chunks
    if chunk <= 512:
        assert {"NetPlusManager", "NetPlusExtRManager", "LeiManager"} <= reached, reached


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)


def test_streamed_sweep_forks_equal_in_process(monkeypatch, cases, two_cpus):
    """Forked workers read their own chunks of the parent's open file."""
    monkeypatch.setattr(trace_io, "_REPLAY_CHUNK", 7)
    name, path, configs, dumps = cases[4]
    with TraceFile(path) as source:
        serial = run_sweep(source, configs, parallelism=1)
        forked = run_sweep(source, configs, parallelism=2)
    assert [o.result.dump for o in forked] == [o.result.dump for o in serial] == dumps


# a straight-line prefix, then a four-instruction loop whose last iteration
# runs X, then A, B and Y, an address first seen in the file's last item
# and so in its last chunk, whatever the chunk's size; Y lies between A and
# B, so a numbering of the earlier chunks alone would rank B differently
A, B, C, D, X, Y = 0x100, 0x108, 0x110, 0x118, 0x10C, 0x104
LAST_SEEN = [0x10 + 4 * k for k in range(6)] + [A, B, C, D] * 8 + [A, B, X, D] + [A, B, Y]


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_address_first_seen_in_the_last_chunk(tmp_path, monkeypatch, chunk):
    """lei emits the iteration through X at the tenth landing on A, item
    42, and netplus's recording from that A stops at Y, the last item; both
    read the file back (``_span``), and the streamed dumps equal the
    in-memory engine's and the per-item reference's."""
    trace = Trace(LAST_SEEN, [4] * len(LAST_SEEN))
    path = tmp_path / "last.rtr"
    write_trace(path, trace)
    monkeypatch.setattr(trace_io, "_REPLAY_CHUNK", chunk)
    dues, reached = {}, set()
    make_rft, span = engine.make_rft, rft.RegionManager._span

    def logged_rft(config):
        manager = make_rft(config)
        complete = manager.complete

        def noted(items, due):
            dues.setdefault(type(manager).__name__, []).append(due)
            return complete(items, due)
        manager.complete = noted
        return manager

    def logged_span(self, lo, hi):
        if lo < self._base:
            reached.add(type(self).__name__)
        return span(self, lo, hi)
    monkeypatch.setattr(engine, "make_rft", logged_rft)
    monkeypatch.setattr(rft.RegionManager, "_span", logged_span)
    for technique in ("lei", "netplus"):
        config = SimulationConfig(rft=RFTConfig(technique, threshold=9), collect_dump=True)
        dump = run_simulation(trace, config).dump
        assert dump == naive_run(trace, config).dump()
        with TraceFile(path) as source:
            assert run_simulation(source, config).dump == dump, technique
        recorded = [dump["states"][sid]["address"] for sid in dump["regions"][0]["recorded_states"]]
        assert recorded == ([A, B, X, D] if technique == "lei" else [A, B])
    n = len(LAST_SEEN)
    assert LAST_SEEN.index(Y) == n - 1
    assert dues == {"LeiManager": [n - 3] * 2, "NetPlusManager": [n - 1] * 2}
    assert reached == {"LeiManager", "NetPlusManager"}


def test_cli_sweep_in_forked_workers_equals_in_process(tmp_path, monkeypatch, cases, two_cpus):
    """``rftsim sweep --parallelism 2`` over a binary file, numbered once by
    the parent before its workers fork, writes what the in-process sweep
    writes; the file's addresses lie on both sides of 2**63, so they are
    numbered through the binary search."""
    monkeypatch.setattr(trace_io, "_REPLAY_CHUNK", 7)
    name, path, _, _ = cases[3]
    assert name == "high"
    written = []
    for parallelism in ("1", "2"):
        out = tmp_path / f"sweep-{parallelism}.json"
        assert main(["sweep", "--trace", str(path), "--rfts", ",".join(TECHNIQUES),
                     "--thresholds", "2,64", "--parallelism", parallelism, "--format", "json",
                     "--out", str(out)]) == 0
        written.append(out.read_text())
    assert written[0] == written[1]


@pytest.fixture(scope="module")
def loop_files(tmp_path_factory):
    """Binary files of a 10-instruction loop at 400,000 and 1,600,000 items."""
    root = tmp_path_factory.mktemp("loops")
    paths = {}
    for n in (400_000, 1_600_000):
        paths[n] = root / f"loop{n}.rtr"
        write_trace(paths[n], generate_trace(ProgramSpec((LoopSpec(base=0x1000, body=10,
                                                                   iters=n // 10),))))
    return paths


@pytest.mark.parametrize("technique", ["net", "lei", "netplus"])
def test_streamed_replay_memory_does_not_grow(loop_files, technique):
    # a streamed replay holds one chunk of the trace at a time, 12 bytes
    # per item of it, and what its technique keeps; a whole-trace copy
    # would add 12 bytes per item, 14 MiB more on the longer loop
    peaks = {}
    for n, path in loop_files.items():
        with TraceFile(path) as source:
            gc.collect()
            tracemalloc.start()
            try:
                result = run_simulation(source, SimulationConfig(rft=RFTConfig(technique)))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert result.items_consumed == n
    assert abs(peaks[1_600_000] - peaks[400_000]) < 1 << 20, peaks


def _defective(path, defect):
    """A 20-record file with one defect past its first records."""
    write_trace(path, Trace([0x100 + 4 * (k % 5) for k in range(20)], [4] * 20))
    raw = bytearray(path.read_bytes())
    if defect == "truncated":
        del raw[-5:]
    elif defect == "flags":
        raw[16 + 17 * 16 + 12] = 1
    elif defect == "size":
        raw[16 + 17 * 16 + 8:16 + 17 * 16 + 12] = bytes(4)
    else:
        raw[:8] = b"NOTATRC1"
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("defect", ["truncated", "flags", "size", "header"])
@pytest.mark.parametrize("command", [
    ["simulate", "--rft", "net"],
    ["sweep", "--rfts", "net,lei"],
    ["compare", "--rfts", "net,lei"],
    ["dump", "--rft", "net"],
])
def test_cli_rejects_a_defective_file_before_any_config_runs(tmp_path, monkeypatch, capsys,
                                                               defect, command):
    path = tmp_path / "t.rtr"
    _defective(path, defect)
    with pytest.raises(TraceFormatError) as loaded:
        load_binary(path)
    # chunks small enough that a replay would start before the defect
    monkeypatch.setattr(trace_io, "_LOAD_CHUNK", 4)
    monkeypatch.setattr(trace_io, "_REPLAY_CHUNK", 4)
    made = []
    make_rft = engine.make_rft
    monkeypatch.setattr(engine, "make_rft", lambda config: made.append(config) or make_rft(config))
    assert main(command + ["--trace", str(path), "--threshold", "2"]) == 2
    assert capsys.readouterr().err == f"rftsim: error: {loaded.value}\n"
    assert made == []
