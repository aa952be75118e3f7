"""Metamorphic laws of the replay, each checked through a binary write and
load.

A report depends on the order and equality of addresses, not on their
values, so a relabelling that keeps their order keeps the report:

- adding 2**63 to every address;
- mapping each address ``a`` to ``(a << 40) + 7``, which spreads the
  addresses far apart.

And a trace window is the trace it covers: ``skip`` and ``limit`` give the
report of the sliced ``Trace``.

Every trace, transformed or not, is written as binary v1 and loaded back.
Its first simulation numbers its distinct addresses through a dense lookup
when their span is at most ``trace_io._DENSE_SPAN``, and by binary search
otherwise, so the cases below feed both to all six techniques.

The performance knobs change how the work is cut up, never its result:
patching each of them to 1 or to more than any trace's length leaves
every technique's dump unchanged, on traces loaded from either format.

At benchmark scale, ``experiments/oracle_scale.py`` compares the engine's
dump with the naive loop's on 60 configs; it runs here on 5,000-item
prefixes, so that it does not rot.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import rftsim.automaton as automaton
from conftest import (bench_prefix, bench_render, random_graph_walk, random_noise,
                      random_rft_config, random_trace)
from rftsim import trace_io
from rftsim.engine import SimulationConfig, run_simulation
from rftsim.metrics import report_csv_row
from rftsim.rft import TECHNIQUES, RFTConfig
from rftsim.trace_io import Trace, load_trace, write_trace


def _cases():
    """``(name, trace, configs)``: conftest traces with random technique
    settings, and a 20,000-item benchmark prefix at threshold 64."""
    cases = []
    for seed in range(4):
        rng = random.Random(seed)
        trace = (random_trace, random_graph_walk, random_noise, random_trace)[seed](rng, 2000)
        cases.append((f"conftest-{seed}", trace,
                      [random_rft_config(rng, tech) for tech in TECHNIQUES]))
    cases.append(("graph-walk-20000", bench_render("graph-walk", 20_000),
                  [RFTConfig(technique=tech, threshold=64) for tech in TECHNIQUES]))
    return cases


CASES = _cases()


def _dense(trace: Trace) -> bool:
    return int(trace.addresses.max()) - int(trace.addresses.min()) < trace_io._DENSE_SPAN


def test_cases_feed_both_numberings():
    spans = {_dense(trace) for _, trace, _ in CASES}
    shifted = {_dense(Trace([(a << 40) + 7 for a in trace.addresses.tolist()], trace.sizes))
               for _, trace, _ in CASES}
    assert spans | shifted == {True, False}


def _rows(tmp_path, trace, configs, name="t.rtr"):
    """The CSV rows of each config's report on ``trace`` after a binary
    round trip."""
    path = tmp_path / name
    write_trace(path, trace)
    loaded = load_trace(path)
    assert loaded.addresses.tolist() == trace.addresses.tolist() and loaded.sizes == trace.sizes
    return [report_csv_row(run_simulation(loaded, SimulationConfig(rft=rft, skip=skip,
                                                                    limit=limit)).report)
            for rft, skip, limit in configs]


@pytest.mark.parametrize("relabel", [
    pytest.param(lambda a: a + 2**63, id="plus-2**63"),
    pytest.param(lambda a: (a << 40) + 7, id="shift-40-plus-7"),
])
@pytest.mark.parametrize("name, trace, configs", CASES, ids=[c[0] for c in CASES])
def test_order_preserving_relabelling_keeps_reports(tmp_path, relabel, name, trace, configs):
    assert trace.addresses.max() < 2**24
    windows = [(rft, 0, None) for rft in configs]
    relabelled = Trace([relabel(a) for a in trace.addresses.tolist()], trace.sizes)
    assert _rows(tmp_path, relabelled, windows, "r.rtr") == _rows(tmp_path, trace, windows)


@pytest.mark.parametrize("name, trace, configs", CASES, ids=[c[0] for c in CASES])
def test_window_equals_sliced_trace(tmp_path, name, trace, configs):
    skip, limit = len(trace) // 7, len(trace) // 2
    sliced = Trace(trace.addresses[skip:skip + limit], trace.sizes[skip:skip + limit])
    assert (_rows(tmp_path, trace, [(rft, skip, limit) for rft in configs])
            == _rows(tmp_path, sliced, [(rft, 0, None) for rft in configs], "s.rtr"))


# the kernel's hand-off to its numpy pass and the pass's largest window,
# a chain head's shortest kept memo, its fruitless landings before it is
# given up and the longest memo, and the records a binary load reads at a
# time; a memo needs at least one item, so CHAIN_MIN_PATH stays >= 1
KNOBS = [(automaton, "_HANDOFF"), (automaton, "_PASS_CHUNK"), (automaton, "CHAIN_MIN_PATH"),
         (automaton, "CHAIN_GIVE_UP"), (automaton, "WALK_CAP"), (trace_io, "_LOAD_CHUNK")]
HUGE = 1 << 40


def _knob_sets() -> dict:
    """Values for ``KNOBS`` by name, None keeping a default: all at 1, all
    beyond any trace, alternating both ways, and each alone at 1."""
    n = len(KNOBS)
    sets = {"all-1": (1,) * n, "all-huge": (HUGE,) * n,
            "1-huge": (1, HUGE) * (n // 2), "huge-1": (HUGE, 1) * (n // 2)}
    for k, (_, name) in enumerate(KNOBS):
        sets[f"{name}-1"] = (None,) * k + (1,) + (None,) * (n - 1 - k)
    return sets


KNOB_SETS = _knob_sets()


@pytest.fixture(scope="module")
def knob_cases(tmp_path_factory):
    """``(workload, trace, {format: path}, configs, dumps)`` for each
    benchmark workload rendered for 2,000 items, and for the first 2,000
    items of full-size loop-nest, at thresholds 8 and 64, the dumps taken
    at the default knobs, where these traces run the kernel's numpy pass
    with lei's history and keep memos; the pass runs on more of them when
    its hand-off is patched down."""
    root = tmp_path_factory.mktemp("knobs")
    work = {"passes": 0, "memos": 0}
    step, keep = automaton.Automaton._pass, automaton.Automaton._keep

    def counted_pass(self, addrs, i, end, landed, exit_counts, threshold):
        work["passes"] += isinstance(exit_counts, automaton.History)
        return step(self, addrs, i, end, landed, exit_counts, threshold)

    def counted_keep(self, region, addrs, ws, we):
        keep(self, region, addrs, ws, we)
        work["memos"] += region.walk is not None

    cases = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton.Automaton, "_pass", counted_pass)
        mp.setattr(automaton.Automaton, "_keep", counted_keep)
        for workload, trace in [(w, bench_render(w, 2_000))
                                for w in ("loop-nest", "graph-walk", "interp-noise")] + [
                                    ("loop-nest-prefix", bench_prefix("loop-nest", 2_000))]:
            paths = {fmt: root / f"{workload}.{fmt}" for fmt in ("binary", "text")}
            for fmt, path in paths.items():
                write_trace(path, trace, fmt)
            configs = [SimulationConfig(rft=RFTConfig(tech, threshold=threshold),
                                        collect_dump=True)
                       for threshold in (8, 64) for tech in TECHNIQUES]
            cases.append((workload, trace, paths, configs,
                          [run_simulation(trace, config).dump for config in configs]))
    assert work["passes"] > 0 and work["memos"] > 0, work
    return cases


@pytest.mark.parametrize("values", KNOB_SETS.values(), ids=KNOB_SETS.keys())
def test_performance_knobs_keep_dumps(monkeypatch, knob_cases, values):
    for (module, name), value in zip(KNOBS, values):
        if value is not None:
            monkeypatch.setattr(module, name, value)
    for workload, trace, paths, configs, dumps in knob_cases:
        for fmt, path in paths.items():
            loaded = load_trace(path, fmt)
            assert (loaded.addresses.tolist() == trace.addresses.tolist()
                    and loaded.sizes == trace.sizes)
            for config, dump in zip(configs, dumps):
                assert run_simulation(loaded, config).dump == dump, \
                    (workload, fmt, config.rft.technique, config.rft.threshold)


@pytest.fixture
def oracle_scale(monkeypatch):
    """``experiments/oracle_scale.py`` as a module; the search path it
    extends is restored afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parent.parent / "experiments" / "oracle_scale.py"
    spec = importlib.util.spec_from_file_location("oracle_scale", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_scale_on_bench_prefixes(oracle_scale, capsys):
    assert oracle_scale.main(["--items", "5000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 61 and lines[-1] == "0 of 60 dumps differ", lines
    # the many-addresses trace runs 70,000 fresh addresses before its prefix
    assert all(line.endswith(f"{75_000 if 'many' in line else 5000} items: same")
               for line in lines[:-1])


def test_oracle_scale_fails_on_a_differing_dump(oracle_scale, monkeypatch, capsys):
    naive = oracle_scale.naive_run

    class Empty:
        def dump(self):
            return {}

    monkeypatch.setattr(oracle_scale, "naive_run", lambda trace, config: (
        Empty() if config.rft.technique == "lei" else naive(trace, config)))
    assert oracle_scale.main(["--items", "200"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "10 of 60 dumps differ"
    assert sum(line.endswith("DIFFERS") for line in lines) == 10


def test_oracle_scale_fails_when_no_memo_hits(oracle_scale, monkeypatch, capsys):
    # with no region long enough for a chain head, the dumps agree, but
    # the memo path goes unused on loop-nest
    monkeypatch.setattr(automaton, "CHAIN_MIN_PATH", HUGE)
    assert oracle_scale.main(["--items", "5000"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "0 of 60 dumps differ"
    assert err == "no config hit a chain head's memo on loop-nest\n"
