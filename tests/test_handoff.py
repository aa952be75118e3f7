"""The scans' numpy passes against the per-item models.

An idle stretch of a scan steps ``_HANDOFF`` items one by one and hands
the rest of its run to a numpy pass (``_profile`` for net, mret2 and the
net variants, ``LeiManager._push`` for lei), in chunks that grow from
``_HANDOFF`` items up to ``_FLOW_CHUNK``.  Patching both to a few items
puts the hand-off and the chunk boundaries all over short windows; the
per-item reference managers and the naive engine loop of ``conftest``
must not see a difference, at those sizes or at the defaults.
"""

from __future__ import annotations

import random
import re

import pytest

import rftsim.rft as rft
from conftest import (high_walk, naive_run, random_graph_walk, random_noise,
                      random_rft_config, random_trace, scan_run)
from reference import SI, make_reference, reference_run
from rftsim import Trace
from rftsim.engine import SimulationConfig, run_simulation
from rftsim.rft import RFTConfig, TECHNIQUES, make_rft

# (hand-off length, chunk cap); None leaves both at their defaults
SIZES = [(1, 1), (2, 2), (3, 3), (7, 7), (1, 3), (7, 2), None]


def size_id(sizes):
    return "default" if sizes is None else "%d-%d" % sizes


@pytest.fixture
def passes(monkeypatch):
    """Logs ``(start, stop, end)`` per numpy pass: the item it began at,
    the index it returned and the end of its scan."""
    log = []
    chunked = rft._chunked

    def logged(step, i, end):
        k = chunked(step, i, end)
        log.append((i, k, end))
        return k
    monkeypatch.setattr(rft, "_chunked", logged)
    return log


def set_sizes(monkeypatch, sizes):
    if sizes is not None:
        monkeypatch.setattr(rft, "_HANDOFF", sizes[0])
        monkeypatch.setattr(rft, "_FLOW_CHUNK", sizes[1])


def check_scan(config, addrs, sizes, held=()):
    got = scan_run(make_rft(config), addrs, sizes, held)
    assert got == reference_run(config, addrs, sizes, held)
    return got


# --- random windows -------------------------------------------------------------

@pytest.mark.parametrize("sizes", SIZES, ids=size_id)
def test_scan_matches_reference_across_the_hand_off(monkeypatch, passes, sizes):
    set_sizes(monkeypatch, sizes)
    rng = random.Random(0x4A4D)
    long = sizes is None
    for case in range(120):
        tech = TECHNIQUES[case % len(TECHNIQUES)]
        config = random_rft_config(rng, tech)
        if long:
            # runs past the default hand-off need rare emissions
            config = RFTConfig(tech, threshold=rng.choice((16, 64, 256)),
                               max_region_size=config.max_region_size,
                               history_capacity=rng.choice((16, 256, 8192)))
            trace = (random_noise if case % 2 else random_graph_walk)(rng, 3000)
        else:
            trace = random_trace(rng, max_items=400)
        addrs, sizes_ = trace.addresses, trace.sizes
        share = rng.choice((0.0, 0.05, 0.2))
        held = {a for a in set(addrs) if rng.random() < share}
        got = scan_run(make_rft(config), addrs, sizes_, held)
        assert got == reference_run(config, addrs, sizes_, held), (case, tech)
    # the passes ran, and some of them stopped early
    assert len(passes) > (30 if long else 100)
    assert sum(k < end for _, k, end in passes) > (10 if long else 20)


@pytest.mark.parametrize("sizes", SIZES, ids=size_id)
def test_engine_matches_naive_loop_across_the_hand_off(monkeypatch, passes, sizes):
    set_sizes(monkeypatch, sizes)
    rng = random.Random(0xE9D)
    for case in range(36):
        tech = TECHNIQUES[case % len(TECHNIQUES)]
        config = random_rft_config(rng, tech)
        if sizes is None:
            config = RFTConfig(tech, threshold=rng.choice((16, 64)),
                               history_capacity=rng.choice((16, 8192)))
            trace = (random_noise if case % 2 else random_graph_walk)(rng, 2500)
        else:
            trace = random_trace(rng, max_items=500)
        config = SimulationConfig(rft=config, collect_dump=True)
        if rng.random() < 0.25 and len(trace):
            config = SimulationConfig(rft=config.rft, collect_dump=True,
                                      skip=rng.randrange(len(trace)),
                                      limit=rng.randrange(1, len(trace) + 1))
        dump = run_simulation(trace, config).dump
        assert dump == naive_run(trace, config).dump(), (case, tech)
    assert len(passes) > 10


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("sizes", [(1, 1), (3, 7), None], ids=size_id)
def test_scan_matches_reference_on_high_addresses(monkeypatch, passes, sizes, wide):
    """Addresses on both sides of 2**63, in a span narrow enough to be
    coded relative to the smallest or, with ``wide``, reaching 2**64 - 1,
    which lei's pass orders by a stable argsort instead; a signed
    conversion would misorder either."""
    set_sizes(monkeypatch, sizes)
    rng = random.Random(0x2063 + wide)
    for case in range(48):
        tech = TECHNIQUES[case % len(TECHNIQUES)]
        trace = high_walk(rng, 3000 if sizes is None else rng.randint(50, 600), wide)
        config = random_rft_config(rng, tech)
        if sizes is None:
            config = RFTConfig(tech, threshold=rng.choice((64, 512)))
        held = {a for a in set(trace.addresses) if rng.random() < 0.1}
        check_scan(config, trace.addresses, trace.sizes, held)
    assert len(passes) > (15 if sizes is None else 40)


# --- hand-worked cases ------------------------------------------------------------

def loop_after(prefix, threshold):
    """``prefix`` straight-line items below 0x100, then a two-instruction
    loop at 0x100 whose head is a backward-branch target at every second
    item from ``prefix + 2`` on: its ``threshold``-th bump is at item
    ``prefix + 2 * threshold``."""
    addrs = [0x10 + 4 * k for k in range(prefix)] + [0x100, 0x104] * (threshold + 3)
    return addrs, [4] * len(addrs)


@pytest.mark.parametrize("tech", ["net", "mret2", "net-r", "netplus", "netplus-e-r"])
@pytest.mark.parametrize("prefix, stop", [(2, 8), (5, 11)])
def test_threshold_reached_on_a_chunks_first_and_last_item(monkeypatch, passes, tech,
                                                           prefix, stop):
    # hand-off after 4 items, then chunks of 4: items 8 and 11 are the
    # first and the last item of the chunk [8, 12)
    set_sizes(monkeypatch, (4, 4))
    addrs, sizes = loop_after(prefix, 3)
    got = check_scan(RFTConfig(tech, threshold=3), addrs, sizes)
    assert passes[0][:2] == (4, stop)
    assert got and got[0][0] > stop


@pytest.mark.parametrize("tech", TECHNIQUES)
@pytest.mark.parametrize("at", [8, 9, 12])
def test_held_item_at_a_chunk_start(monkeypatch, passes, tech, at):
    """A held item stops the pass unvisited; the scan then visits it, so
    a backward branch into it is still profiled.  Items 8 and 12 start
    chunks, item 9 does not."""
    set_sizes(monkeypatch, (4, 4))
    addrs = [0x2000 + 4 * k for k in range(20)]
    addrs[at] = 0x100  # a backward branch into a region
    for threshold in (1, 2):
        passes.clear()
        check_scan(RFTConfig(tech, threshold=threshold), addrs, [4] * 20, {0x100})
        assert passes[0][:2] == (4, at)


@pytest.mark.parametrize("tech", ["net", "mret2", "net-r"])
def test_region_exit_target_is_the_first_item_only(monkeypatch, tech):
    """With ``kind`` 2 only the scan's first item is profiled whatever its
    address; the pass, handed the run after it, seeds its first item
    from that item's address and carries each chunk's last address into
    the next chunk."""
    set_sizes(monkeypatch, (1, 1))
    addrs = [0x200, 0x300, 0x250, 0x260, 0x100]
    manager = make_rft(RFTConfig(tech, threshold=100))
    manager.attach(Trace(addrs, [4] * 5), 0)
    assert manager.scan(addrs, [4] * 5, 0, 5, 0x50, 2, ()) == (5, None)
    ref = make_reference(RFTConfig(tech, threshold=100))
    last, kind = (0x50, 4), 2
    for a in addrs:
        ref.handle(last, (a, 4), kind)
        last, kind = (a, 4), SI
    assert manager._hot == ref.hot == {0x200: 1, 0x250: 1, 0x100: 1}


@pytest.mark.parametrize("sizes", [(1, 4), (2, 5), (7, 7)], ids=size_id)
def test_lei_with_a_raised_floor_and_a_short_history(monkeypatch, sizes):
    """lei after restarts, so the floor is above 0, with a history shorter
    than the chunks, so a prior push within the chunk can lie outside it."""
    set_sizes(monkeypatch, sizes)
    pushed = []
    push = rft.LeiManager._push

    def noted(self, lo, hi, pos, held):
        pushed.append((self._floor, hi - lo, self._capacity))
        return push(self, lo, hi, pos, held)
    monkeypatch.setattr(rft.LeiManager, "_push", noted)
    rng = random.Random(0x1E1F)
    for case in range(40):
        trace = (random_noise if case % 2 else random_graph_walk)(rng, 600)
        config = RFTConfig("lei", threshold=rng.choice((2, 3, 5)),
                           history_capacity=rng.choice((2, 3, 5)))
        held = {a for a in set(trace.addresses) if rng.random() < 0.05}
        check_scan(config, trace.addresses, trace.sizes, held)
    assert any(floor > 0 and n > cap for floor, n, cap in pushed)


# --- addresses outside u64 --------------------------------------------------------

@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("bad", [-4, 1 << 64])
def test_long_run_rejects_address_outside_u64(passes, technique, bad):
    """A long interpreter-side run with out-of-range addresses at items
    1500 and 1700 cannot be built as a trace, so no technique steps one;
    construction names the first.  With the nearest u64 bound there
    instead, the run, handed to the numpy pass, matches the naive loop."""
    noise = random_noise(random.Random(5), 2000)
    addrs = list(noise.addresses)
    addrs[1500] = addrs[1700] = bad
    message = f"trace item 1500: address {bad} outside [0, 2**64)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trace(addrs, noise.sizes)
    addrs[1500] = addrs[1700] = 0 if bad < 0 else (1 << 64) - 1
    trace = Trace(addrs, noise.sizes)
    # nothing turns hot, so one pass takes the run from the hand-off on
    config = SimulationConfig(rft=RFTConfig(technique, threshold=1 << 20), collect_dump=True)
    assert run_simulation(trace, config).dump == naive_run(trace, config).dump()
    assert passes == [(rft._HANDOFF, 2000, 2000)]
