"""The numpy passes that profile idle runs against the per-item models.

lei's scan steps ``automaton._HANDOFF`` items one by one and hands the
rest of its run to its numpy pass (``LeiManager._push``), in chunks that
grow from ``_HANDOFF`` items up to ``automaton._PASS_CHUNK``.  The other
techniques' idle scan sees its first item only: the stepping kernel,
lent the manager's counts, profiles the rest of the run, and after
``_HANDOFF`` items hands it to its own pass (``Automaton._pass``), in
windows that grow up to ``_PASS_CHUNK``.  Patching the two to a few
items puts the hand-offs and the window boundaries all over short
windows; the per-item reference managers and the naive engine loop of
``conftest`` must not see a difference, at those sizes or at the
defaults.  Logged passes also
pin when each hands off at all.
"""

from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rftsim.automaton as automaton
import rftsim.rft as rft
from conftest import (bind, high_walk, naive_run, random_graph_walk, random_noise,
                      random_rft_config, random_trace, scan_run)
from reference import N2I, SI, make_reference, reference_run
from rftsim import Trace
from rftsim.automaton import Automaton
from rftsim.engine import SimulationConfig, run_simulation
from rftsim.rft import _ARMED, _REC1, _REC2, RFTConfig, TECHNIQUES, make_rft

# (hand-off length, chunk cap); None leaves both at their defaults
SIZES = [(1, 1), (2, 2), (3, 3), (7, 7), (1, 3), (7, 2), None]


def size_id(sizes):
    return "default" if sizes is None else "%d-%d" % sizes


@pytest.fixture
def passes(monkeypatch):
    """Logs ``(start, stop, end)`` per numpy pass that profiles: lei's
    scan's, and the kernel's when lent a manager's counts; the item it
    began at, the index it returned and the end of its scan or call."""
    log = []
    chunked = rft._chunked
    step = automaton.Automaton._pass

    def logged(push, i, end):
        k = chunked(push, i, end)
        log.append((i, k, end))
        return k

    def profiled(self, addrs, i, end, landed, exit_counts, threshold):
        k, prev = step(self, addrs, i, end, landed, exit_counts, threshold)
        if exit_counts is not None:
            log.append((i, k, end))
        return k, prev
    monkeypatch.setattr(rft, "_chunked", logged)
    monkeypatch.setattr(automaton.Automaton, "_pass", profiled)
    return log


def set_sizes(monkeypatch, sizes):
    """The hand-off at ``sizes[0]`` items, and lei's chunks and the
    kernel's windows capped at ``sizes[1]``."""
    if sizes is not None:
        monkeypatch.setattr(automaton, "_HANDOFF", sizes[0])
        monkeypatch.setattr(automaton, "_PASS_CHUNK", sizes[1])


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
            # runs past the default hand-offs need rare emissions, and idle
            # stretches long enough for the kernel's pass to stop in some
            config = RFTConfig(tech, threshold=rng.choice((16, 64, 256)),
                               max_region_size=config.max_region_size,
                               history_capacity=rng.choice((16, 256, 8192)))
            trace = (random_noise if case % 2 else random_graph_walk)(rng, 5000)
        else:
            trace = random_trace(rng, max_items=400)
        addrs, sizes_ = trace.addresses.tolist(), trace.sizes
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
        addrs = trace.addresses.tolist()
        held = {a for a in set(addrs) if rng.random() < 0.1}
        check_scan(config, addrs, trace.sizes, held)
    assert len(passes) > (15 if sizes is None else 40)


# --- the scan's hand-off rule -----------------------------------------------------

def rising(n):
    """``n`` straight-line items: no backward branch, no repeated address."""
    return [0x1000 + 4 * k for k in range(n)]


@pytest.mark.parametrize("sizes", [(4, 4), None], ids=size_id)
@pytest.mark.parametrize("tech", TECHNIQUES)
def test_idle_scan_hands_off_after_exactly_handoff_items(monkeypatch, passes, sizes, tech):
    """An idle run of more than a hand-off's length goes to a numpy pass at
    the hand-off's item; a shorter run, or one of exactly that length, is
    stepped item by item.  lei's scan steps ``_HANDOFF`` items itself.  The
    other techniques' idle scan returns at its first item, which it has
    profiled, and the kernel, lent the counts, profiles the run and
    steps as many items itself."""
    set_sizes(monkeypatch, sizes)
    lei = tech == "lei"
    h = automaton._HANDOFF
    addrs = rising(3 * h)
    manager = make_rft(RFTConfig(tech, threshold=1 << 20))
    trace = Trace(addrs, [4] * len(addrs))
    bind(manager, trace)
    auto = Automaton()
    auto.bind(trace.table())
    ids = trace._ids
    for i, end in [(0, h), (h, 2 * h + 1), (2 * h + 1, 3 * h)]:
        prev = ids[i - 1] if i else -1
        if lei:
            assert manager.scan(i, end, prev) == (end, None)
            continue
        assert manager.scan(i, end, prev) == (i, None)
        assert auto.run_native_stretch(ids, trace.sizes, i, end, i, manager.exit_counts,
                                       1 << 20) == (end, ids[end - 1])
    assert passes == [(2 * h, 2 * h + 1, 2 * h + 1)]


# a prefix after which, at threshold 1, a formation is in flight; the
# rising run after it, with no size cap, keeps it in flight to the end
IN_FLIGHT = [
    # the backward branch to 0x100 starts a recording (mret2: its first pass)
    ("net", [0x200, 0x100], None),
    ("net-r", [0x200, 0x100], None),
    ("netplus", [0x200, 0x100], None),
    ("mret2", [0x200, 0x100], _REC1),
    # the branch back to 0xF0 ends the first pass away from the entry
    ("mret2", [0x200, 0x100, 0x104, 0xF0], _ARMED),
    # the branch back to the entry ends the first pass and starts the second
    ("mret2", [0x200, 0x100, 0x104, 0x100], _REC2),
]


@pytest.mark.parametrize("sizes", [(4, 4), None], ids=size_id)
@pytest.mark.parametrize("tech, prefix, state", IN_FLIGHT)
def test_no_hand_off_with_a_formation_in_flight(monkeypatch, passes, sizes, tech, prefix,
                                                state):
    """A scan that starts with a formation in flight, or that starts one
    at its first item, the only item an idle scan profiles, steps its
    whole run itself.  lei has no formation in flight, and over the same
    items it hands off after ``_HANDOFF`` items either way."""
    set_sizes(monkeypatch, sizes)
    addrs = prefix + rising(3 * automaton._HANDOFF)
    n, end = len(prefix), len(addrs)
    trace = Trace(addrs, [4] * end)

    def attached(technique, threshold):
        manager = make_rft(RFTConfig(technique, threshold=threshold, max_region_size=1 << 20))
        bind(manager, trace)
        return manager

    # the scan starts idle and starts the formation at the backward
    # branch of item 1
    continues = attached(tech, 1)
    ids = trace._ids
    assert continues.scan(1, end, ids[0]) == (end, None)
    # the formation is in flight when the scan starts
    starts = attached(tech, 1)
    assert starts.scan(1, n, ids[0]) == (n, None)
    assert starts.exit_counts is None and getattr(starts, "_state", None) == state
    assert starts.scan(n, end, ids[n - 1]) == (end, None)
    assert passes == []
    for manager in (continues, starts):
        assert manager.exit_counts is None and getattr(manager, "_state", None) == state
    lei = attached("lei", 1 << 20)
    assert lei.scan(0, n, -1) == (n, None)
    assert lei.scan(n, end, ids[n - 1]) == (end, None)
    assert attached("lei", 1 << 20).scan(0, end, -1) == (end, None)
    assert passes == [(n + automaton._HANDOFF, end, end), (automaton._HANDOFF, end, end)]


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
    """A held item stops lei's pass unvisited; the scan then visits it,
    so a backward branch into it is still profiled.  The kernel's pass,
    profiling for the other techniques, bumps that branch and steps on
    into the region, unless the bump reaches the threshold (threshold
    1): then it stops there, unwritten, and the scan makes the bump.
    Items 8 and 12 start chunks, item 9 does not."""
    set_sizes(monkeypatch, (4, 4))
    addrs = [0x2000 + 4 * k for k in range(20)]
    addrs[at] = 0x100  # a backward branch into a region
    for threshold in (1, 2):
        passes.clear()
        check_scan(RFTConfig(tech, threshold=threshold), addrs, [4] * 20, {0x100})
        assert passes[0][:2] == (4, at if tech == "lei" or threshold == 1 else 20)


@pytest.mark.parametrize("tech", ["net", "mret2", "net-r"])
def test_region_exit_target_is_the_first_item_only(monkeypatch, tech):
    """After a region exit only the landing's follower is profiled
    whatever its address.  The kernel's pass, handed the run at the
    landing, at its follower or after it, seeds its first item from the
    item before it, and carries each window's last address into the
    next window."""
    addrs = [0x200, 0x300, 0x250, 0x260, 0x100]
    # a native item, then the landing at 0x50
    seq = [0x40, 0x50] + addrs
    ref = make_reference(RFTConfig(tech, threshold=100))
    last, kind = (0x50, 4), N2I
    for a in addrs:
        ref.handle(last, (a, 4), kind)
        last, kind = (a, 4), SI
    trace = Trace(seq, [4] * len(seq))
    table, ids = trace.table().tolist(), trace._ids
    for handoff in (1, 2, 3):
        monkeypatch.setattr(automaton, "_HANDOFF", handoff)
        monkeypatch.setattr(automaton, "_PASS_CHUNK", 1)
        manager = make_rft(RFTConfig(tech, threshold=100))
        bind(manager, trace)
        auto = Automaton()
        auto.bind(trace.table())
        auto.append_region([(table.index(0x40), 4)])
        assert auto.run_native_stretch(ids, trace.sizes, 0, len(seq), 0, manager.exit_counts,
                                       100) == (len(seq), ids[-1])
        hot = {table[k]: c for k, c in enumerate(manager._hot) if c}
        assert hot == ref.hot == {0x200: 1, 0x250: 1, 0x100: 1}


@pytest.mark.parametrize("sizes", [(1, 4), (2, 5), (7, 7)], ids=size_id)
def test_lei_with_a_raised_floor_and_a_short_history(monkeypatch, sizes):
    """lei after restarts, so the floor is above 0, with a history shorter
    than the chunks, so a prior push within the chunk can lie outside it."""
    set_sizes(monkeypatch, sizes)
    pushed = []
    push = rft.LeiManager._push

    def noted(self, lo, hi, pos):
        pushed.append((self._floor, hi - lo, self._capacity))
        return push(self, lo, hi, pos)
    monkeypatch.setattr(rft.LeiManager, "_push", noted)
    rng = random.Random(0x1E1F)
    for case in range(40):
        trace = (random_noise if case % 2 else random_graph_walk)(rng, 600)
        config = RFTConfig("lei", threshold=rng.choice((2, 3, 5)),
                           history_capacity=rng.choice((2, 3, 5)))
        addrs = trace.addresses.tolist()
        held = {a for a in set(addrs) if rng.random() < 0.05}
        check_scan(config, addrs, trace.sizes, held)
    assert any(floor > 0 and n > cap for floor, n, cap in pushed)


# --- addresses outside u64 --------------------------------------------------------

@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("bad", [-4, 1 << 64])
def test_long_run_rejects_address_outside_u64(monkeypatch, passes, technique, bad):
    """A long interpreter-side run with out-of-range addresses at items
    1500 and 1700 cannot be built as a trace, so no technique steps one;
    construction names the first.  With the nearest u64 bound there
    instead, the run, handed to a numpy pass, matches the naive loop: to
    lei's scan's pass, or to the kernel's, at the same hand-off."""
    noise = random_noise(random.Random(5), 2000)
    addrs = noise.addresses.tolist()
    addrs[1500] = addrs[1700] = bad
    message = f"trace item 1500: address {bad} outside [0, 2**64)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trace(addrs, noise.sizes)
    addrs[1500] = addrs[1700] = 0 if bad < 0 else (1 << 64) - 1
    trace = Trace(addrs, noise.sizes)
    # nothing turns hot, so one pass takes the run from the hand-off on
    config = SimulationConfig(rft=RFTConfig(technique, threshold=1 << 20), collect_dump=True)
    assert run_simulation(trace, config).dump == naive_run(trace, config).dump()
    assert passes == [(automaton._HANDOFF, 2000, 2000)]


# --- the kernel's numpy pass against the naive loop ---------------------------------

@st.composite
def small_traces(draw):
    """A trace of loops over a few small address ranges, some nested in
    others' iterations, with stray items between them."""
    addrs = []
    for _ in range(draw(st.integers(1, 8))):
        base = 0x100 + 0x40 * draw(st.integers(0, 5))
        body = [base + 4 * k for k in range(draw(st.integers(1, 8)))]
        inner = draw(st.integers(0, len(body) - 1))
        reps = draw(st.integers(1, 4))
        # some iterations run an inner loop over the body's tail
        tail = body[inner:] * reps if draw(st.booleans()) else []
        addrs += (body + tail) * draw(st.integers(1, 25))
        addrs += draw(st.lists(st.sampled_from(range(0x100, 0x280, 4)), max_size=3))
    return Trace(addrs, [4] * len(addrs))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(trace=small_traces(), technique=st.sampled_from(TECHNIQUES),
       threshold=st.integers(1, 6), depth=st.integers(1, 4))
def test_engine_with_every_kernel_run_in_the_pass_matches_naive_loop(trace, technique,
                                                                     threshold, depth):
    """With the kernel's hand-off at 1 item, its numpy pass steps every
    native run but each call's first item: exceptional edges, landings,
    followers and completions all go through it."""
    config = SimulationConfig(rft=RFTConfig(technique, threshold=threshold,
                                            expansion_depth=depth), collect_dump=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "_HANDOFF", 1)
        dump = run_simulation(trace, config).dump
    assert dump == naive_run(trace, config).dump()


@st.composite
def loops_and_noise(draw):
    """Loops over a few small address ranges interleaved with runs of
    noise over the same ranges, so that regions form, and their exits and
    the noise's backward branches feed idle managers' counts."""
    addrs = []
    for _ in range(draw(st.integers(2, 10))):
        if draw(st.booleans()):
            base = 0x100 + 0x40 * draw(st.integers(0, 5))
            body = [base + 4 * k for k in range(draw(st.integers(1, 8)))]
            addrs += body * draw(st.integers(1, 30))
        else:
            addrs += draw(st.lists(st.sampled_from(range(0x100, 0x280, 4)), min_size=1,
                                   max_size=40))
    return Trace(addrs, [4] * len(addrs))


def test_engine_with_idle_runs_profiled_in_the_pass_matches_naive_loop():
    """With the kernel's hand-off at 1 to 4 items and its windows at 1 to
    8, its numpy pass profiles idle managers' runs, and at thresholds 2
    to 8 bumps reach the threshold inside pass windows: the engine must
    match the naive loop, and passes must stop at such bumps."""
    stops = []
    step = automaton.Automaton._pass

    def logged(self, addrs, i, end, landed, exit_counts, threshold):
        k, prev = step(self, addrs, i, end, landed, exit_counts, threshold)
        if exit_counts is not None:
            stops.append(k < end)
        return k, prev

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(trace=loops_and_noise(), technique=st.sampled_from(TECHNIQUES),
           threshold=st.integers(2, 8), handoff=st.integers(1, 4), window=st.integers(1, 8))
    def check(trace, technique, threshold, handoff, window):
        config = SimulationConfig(rft=RFTConfig(technique, threshold=threshold),
                                  collect_dump=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automaton, "_HANDOFF", handoff)
            mp.setattr(automaton, "_PASS_CHUNK", window)
            mp.setattr(automaton.Automaton, "_pass", logged)
            dump = run_simulation(trace, config).dump
        assert dump == naive_run(trace, config).dump()

    check()
    assert sum(stops) >= 50 and len(stops) - sum(stops) >= 50
