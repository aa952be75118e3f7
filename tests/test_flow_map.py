"""Independent oracle for the look-ahead managers' flow map.

netplus and netplus-e-r build the observed control flow lazily, when a
recording is emitted.  The oracle, ``reference.FlowMap``, builds it
literally, one item at a time, as a per-item manager would: the previous
item is the one at the previous trace position of the window, never an
address sentinel.  The two maps must agree at every due index.
"""

from __future__ import annotations

import random

import pytest

import rftsim.engine as engine
import rftsim.rft as rft
from conftest import high_walk, random_graph_walk, random_rft_config, random_trace
from reference import FlowMap, frozen_flow
from rftsim import Trace
from rftsim.engine import SimulationConfig, run_simulation
from rftsim.rft import _FLOW_CHUNK, RFTConfig

EXPANDING = ("netplus", "netplus-e-r")


def emitted_flow_maps(monkeypatch, trace, config):
    """Run the engine and return (due index, flow map) per emission, the
    map's ids mapped back to addresses."""
    seen = []
    make_rft = engine.make_rft

    def factory(rft_config):
        manager = make_rft(rft_config)
        complete = manager.complete

        def snapshot(items, due):
            out = complete(items, due)
            table = trace.table().tolist()
            seen.append((due, frozen_flow({table[u]: (size, [table[v] for v in succ])
                                           for u, (size, succ) in manager._cfg.items()})))
            return out
        manager.complete = snapshot
        return manager

    with monkeypatch.context() as patch:
        patch.setattr(engine, "make_rft", factory)
        run_simulation(trace, config)
    return seen


def literal_flow_maps(trace, start, indices):
    """The literal flow map of ``trace[start:i + 1]`` for each ``i`` in
    the sorted ``indices``."""
    out = []
    flow = FlowMap()
    addresses = trace.addresses.tolist()
    i = start
    for due in indices:
        while i <= due:
            flow.add(addresses[i], trace.sizes[i])
            i += 1
        out.append((due, frozen_flow(flow.cfg)))
    return out


def check_window(monkeypatch, trace, config):
    lazy = emitted_flow_maps(monkeypatch, trace, config)
    start = min(config.skip, len(trace))
    assert lazy == literal_flow_maps(trace, start, [i for i, _ in lazy])
    return lazy


def check_random_windows(monkeypatch):
    rng = random.Random(0xF10)
    emissions = 0
    for case in range(120):
        trace = random_trace(rng, max_items=1500)
        config = SimulationConfig(rft=random_rft_config(rng, EXPANDING[case % 2]))
        if case % 3 and len(trace):
            config = SimulationConfig(rft=config.rft, skip=rng.randrange(len(trace)),
                                      limit=rng.randrange(1, len(trace) + 1))
        emissions += len(check_window(monkeypatch, trace, config))
    assert emissions > 200


def test_lazy_flow_map_equals_literal_map_on_random_windows(monkeypatch):
    check_random_windows(monkeypatch)


# small chunks put chunk boundaries, and so the pairs crossing them, all
# over each window
@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_lazy_flow_map_equals_literal_map_at_small_chunks(monkeypatch, chunk):
    monkeypatch.setattr(rft, "_FLOW_CHUNK", chunk)
    check_random_windows(monkeypatch)


@pytest.mark.parametrize("technique", EXPANDING)
def test_lazy_flow_map_catches_up_across_chunks(monkeypatch, technique):
    # a 64-instruction cycle whose entry turns hot only after more than
    # one catch-up chunk of items, followed by a random walk elsewhere
    body = [0x10000 + 4 * k for k in range(64)]
    threshold = _FLOW_CHUNK // len(body) + 8
    cycle = body * (threshold + 2)
    walk = random_graph_walk(random.Random(7), 3000)
    trace = Trace(cycle + walk.addresses.tolist(), [4] * len(cycle) + list(walk.sizes))
    skip = 5
    config = SimulationConfig(rft=RFTConfig(technique, threshold=threshold), skip=skip)
    lazy = check_window(monkeypatch, trace, config)
    assert lazy and lazy[0][0] - skip > _FLOW_CHUNK


@pytest.mark.parametrize("chunk", [None, 3])
def test_lazy_flow_map_equals_literal_map_on_high_addresses(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(rft, "_FLOW_CHUNK", chunk)
    rng = random.Random(0x263)
    emissions = 0
    for case in range(30):
        trace = high_walk(rng, rng.randint(50, 800))
        config = SimulationConfig(rft=random_rft_config(rng, EXPANDING[case % 2]),
                                  skip=rng.randrange(10))
        emissions += len(check_window(monkeypatch, trace, config))
    assert emissions > 30


@pytest.mark.parametrize("technique", EXPANDING)
@pytest.mark.parametrize("bad", [-4, 1 << 64])
def test_flow_map_rejects_address_outside_u64(monkeypatch, technique, bad):
    # a three-instruction loop through an out-of-range address cannot be
    # built as a trace, so no catch-up reads one; its first is item 2
    with pytest.raises(ValueError, match=rf"^trace item 2: address {bad} outside \[0, 2\*\*64\)$"):
        Trace([0x100, 0x104, bad] * 20, [4] * 60)
    # through the nearest u64 bound, the loop's flow maps are the literal ones
    edge = 0 if bad < 0 else (1 << 64) - 1
    trace = Trace([0x100, 0x104, edge] * 20, [4] * 60)
    assert check_window(monkeypatch, trace, SimulationConfig(rft=RFTConfig(technique, threshold=2)))
