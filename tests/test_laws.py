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
The loader numbers a trace's distinct addresses through an offset table
when their span is at most the item count, and by binary search
otherwise, so the cases below feed both to all six techniques.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from conftest import random_graph_walk, random_noise, random_rft_config, random_trace
from rftsim.engine import SimulationConfig, run_simulation
from rftsim.metrics import report_csv_row
from rftsim.rft import TECHNIQUES, RFTConfig
from rftsim.trace_io import Trace, load_trace, write_trace


def _graph_walk_prefix(items: int) -> Trace:
    """The first ``items`` items of the benchmark's graph-walk workload at
    seed 1."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it executes
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads.graph_walk(1, items)


def _cases():
    """``(name, trace, configs)``: conftest traces with random technique
    settings, and a 20,000-item benchmark prefix at threshold 64."""
    cases = []
    for seed in range(4):
        rng = random.Random(seed)
        trace = (random_trace, random_graph_walk, random_noise, random_trace)[seed](rng, 2000)
        cases.append((f"conftest-{seed}", trace,
                      [random_rft_config(rng, tech) for tech in TECHNIQUES]))
    cases.append(("graph-walk-20000", _graph_walk_prefix(20_000),
                  [RFTConfig(technique=tech, threshold=64) for tech in TECHNIQUES]))
    return cases


CASES = _cases()


def _spans_at_most_items(trace: Trace) -> bool:
    return max(trace.addresses) - min(trace.addresses) < len(trace)


def test_cases_feed_both_numberings():
    spans = {_spans_at_most_items(trace) for _, trace, _ in CASES}
    shifted = {_spans_at_most_items(Trace([(a << 40) + 7 for a in trace.addresses], trace.sizes))
               for _, trace, _ in CASES}
    assert spans | shifted == {True, False}


def _rows(tmp_path, trace, configs, name="t.rtr"):
    """The CSV rows of each config's report on ``trace`` after a binary
    round trip."""
    path = tmp_path / name
    write_trace(path, trace)
    loaded = load_trace(path)
    assert loaded.addresses == trace.addresses and loaded.sizes == trace.sizes
    return [report_csv_row(run_simulation(loaded, SimulationConfig(rft=rft, skip=skip,
                                                                    limit=limit)).report)
            for rft, skip, limit in configs]


@pytest.mark.parametrize("relabel", [
    pytest.param(lambda a: a + 2**63, id="plus-2**63"),
    pytest.param(lambda a: (a << 40) + 7, id="shift-40-plus-7"),
])
@pytest.mark.parametrize("name, trace, configs", CASES, ids=[c[0] for c in CASES])
def test_order_preserving_relabelling_keeps_reports(tmp_path, relabel, name, trace, configs):
    assert max(trace.addresses) < 2**24
    windows = [(rft, 0, None) for rft in configs]
    relabelled = Trace([relabel(a) for a in trace.addresses], trace.sizes)
    assert _rows(tmp_path, relabelled, windows, "r.rtr") == _rows(tmp_path, trace, windows)


@pytest.mark.parametrize("name, trace, configs", CASES, ids=[c[0] for c in CASES])
def test_window_equals_sliced_trace(tmp_path, name, trace, configs):
    skip, limit = len(trace) // 7, len(trace) // 2
    sliced = Trace(trace.addresses[skip:skip + limit], trace.sizes[skip:skip + limit])
    assert (_rows(tmp_path, trace, [(rft, skip, limit) for rft in configs])
            == _rows(tmp_path, sliced, [(rft, 0, None) for rft in configs], "s.rtr"))
