import math
import random
from array import array
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule, run_state_machine_as_test)

from conftest import (IDENTITY, MemoAutomaton, PassAutomaton, drive, identity_automaton,
                      lei_history, naive_run)
from reference import I2N, N2I, N2N, SI, SN, LiteralAutomaton, make_reference
from rftsim import RFTConfig, Trace, automaton, engine, trace_io
from rftsim.automaton import CHAIN_GIVE_UP, CHAIN_MIN_PATH, WALK_CAP, Automaton
from rftsim.engine import SimulationConfig, run_simulation
from rftsim.rft import make_rft
from rftsim.trace_io import LoopSpec, ProgramSpec, TraceFile, generate_trace, write_trace

A, B, C = 0x100, 0x104, 0x108


def step(auto, addr):
    """Step one item; returns the kernel's ``prev``."""
    return drive(auto, [addr])


def model_prev(kind, seq, stop):
    """The ``prev`` a kernel call that consumed ``seq[:stop]`` returns when
    the literal model gave its last item ``kind``: infinity after a landing
    that left a region (N2I), else that item's address."""
    return math.inf if kind == N2I else seq[stop - 1]


def stats(auto, rid):
    return auto.all_region_stats()[rid]


def interp_state_executions(auto):
    return auto.dump()["states"][0]["executions"]


# --- creation ---------------------------------------------------------------

def test_new_automaton_has_only_interpreter_state():
    auto = identity_automaton()
    assert auto.dump()["states"] == [{"id": 0, "address": None, "size": None,
                                      "region": None, "executions": 0, "edges": []}]
    assert auto.dump()["regions"] == []
    assert auto.dump()["total_instructions"] == 0


def test_fresh_automaton_counters_zero():
    auto = identity_automaton()
    assert (auto.interp, auto.dump()["native_instructions"],
            auto.dump()["region_transitions"]) == (0, 0, 0)
    assert interp_state_executions(auto) == 0


# --- step resolution --------------------------------------------------------

def test_unknown_address_stays_interp():
    auto = identity_automaton()
    assert step(auto, 0xDEAD) == 0xDEAD
    assert auto.interp == 1 and auto.dump()["native_instructions"] == 0
    assert interp_state_executions(auto) == 1


def test_entry_into_region_counts_interp_entry():
    auto = identity_automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    step(auto, A)
    st = stats(auto, rid)
    assert st.entries_from_interpreter == 1
    assert st.head_executions == 1


def test_side_entry_counts_entry_but_not_head():
    auto = identity_automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    step(auto, B)
    st = stats(auto, rid)
    assert st.entries_from_interpreter == 1
    assert st.head_executions == 0
    # side entry runs to the tail but never completes a traversal
    step(auto, C)
    st = stats(auto, rid)
    assert st.tail_executions == 1
    assert st.completed_traversals == 0


def test_internal_back_edge_is_stayed_native():
    auto = identity_automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    # the back edge to the head is created lazily and stays in the region
    drive(auto, [A, B, C, A])
    st = stats(auto, rid)
    assert st.head_executions == 2
    assert st.entries_from_interpreter == 1
    assert st.completed_traversals == 1
    assert auto.dump()["region_transitions"] == 0


def test_region_exit_and_reentry():
    auto = identity_automaton()
    auto.append_region([(A, 4), (B, 4)])
    step(auto, A)
    assert step(auto, 0x900) == math.inf
    step(auto, A)
    assert stats(auto, 0).entries_from_interpreter == 2


def test_region_to_region_transition():
    auto = identity_automaton()
    auto.append_region([(A, 4), (B, 4)])
    auto.append_region([(C, 4)])
    drive(auto, [A, B, C])
    assert auto.dump()["region_transitions"] == 1
    assert stats(auto, 1).entries_from_native == 1


def test_duplicate_address_resolves_to_earliest_region():
    auto = identity_automaton()
    auto.append_region([(A, 4), (B, 4)])
    auto.append_region([(A, 4), (C, 4)])
    assert [s["region"] for s in auto.dump()["states"] if s["address"] == A] == [0, 1]
    step(auto, A)
    assert stats(auto, 0).entries_from_interpreter == 1
    assert stats(auto, 1).entries_from_interpreter == 0


def test_interrupted_traversal_not_completed():
    auto = identity_automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    # leaves before the tail, then re-enters at the tail without a head
    # execution
    drive(auto, [A, B, 0x900, C])
    st = stats(auto, rid)
    assert st.head_executions == 1
    assert st.tail_executions == 1
    assert st.completed_traversals == 0


def test_single_state_region_completes_every_landing():
    auto = identity_automaton()
    rid = auto.append_region([(A, 4)])
    drive(auto, [A, A])
    st = stats(auto, rid)
    assert st.head_executions == 2
    assert st.completed_traversals == 2


# --- append_region ----------------------------------------------------------

def test_append_shape():
    auto = identity_automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    dump = auto.dump()
    region = dump["regions"][rid]
    assert region["entry_address"] == A
    assert len(region["recorded_states"]) == 3
    states = {s["id"]: s for s in dump["states"]}
    assert states[region["entry_state"]]["address"] == A
    assert states[region["core_tail_state"]]["address"] == C
    edge_pairs = [(s["id"], e[1]) for s in dump["states"] for e in s["edges"]]
    assert sorted(edge_pairs) == [(1, 2), (2, 3)]


def test_append_same_recording_twice_duplicates():
    auto = identity_automaton()
    auto.append_region([(A, 4), (B, 4), (C, 4)])
    auto.append_region([(A, 4), (B, 4), (C, 4)])
    owners = [s["region"] for s in auto.dump()["states"] if s["address"] == A]
    assert owners == [0, 1]


def test_append_with_expansion_matches_manual_graph():
    auto = identity_automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)],
                             expansion=[(0x10C, 4), (0x110, 4)],
                             expansion_successors={0x110: (A,), C: (0x10C,),
                                                   0x10C: (0x110,)})
    dump = auto.dump()
    region = dump["regions"][rid]
    assert len(region["recorded_states"]) == 3
    assert len(region["expansion_states"]) == 2
    # brute-force expected adjacency: consecutive recording edges plus the
    # supplied successor map
    ids = {dump["states"][s]["address"]: s for s in region["recorded_states"]
           + region["expansion_states"]}
    expected = {(ids[A], ids[B]), (ids[B], ids[C]), (ids[0x110], ids[A]),
                (ids[C], ids[0x10C]), (ids[0x10C], ids[0x110])}
    actual = {(s["id"], e[1]) for s in dump["states"] for e in s["edges"]}
    assert actual == expected


def test_append_empty_recording_rejected():
    with pytest.raises(ValueError, match="empty"):
        identity_automaton().append_region([])


def test_append_expansion_overlapping_recording_rejected():
    auto = identity_automaton()
    with pytest.raises(ValueError, match="duplicates"):
        auto.append_region([(A, 4)], expansion=[(A, 4)], expansion_successors={})


def test_append_expansion_repeating_a_repeated_recorded_address_rejected():
    with pytest.raises(ValueError, match="expansion address 0x100 duplicates the recording"):
        identity_automaton().append_region([(A, 4), (B, 4), (A, 4)], expansion=[(C, 4), (A, 4)])


def test_append_duplicate_expansion_address_rejected():
    with pytest.raises(ValueError, match="duplicate expansion address 0x108"):
        identity_automaton().append_region([(A, 4), (B, 4)], expansion=[(C, 4), (0x10C, 4), (C, 4)])


@pytest.mark.parametrize("successors, message", [
    ({0x200: (A,)}, "expansion successor source 0x200 not in region"),
    ({C: (A, 0x200)}, "expansion successor target 0x200 not in region"),
])
def test_append_expansion_successor_outside_region_rejected(successors, message):
    with pytest.raises(ValueError, match=message):
        identity_automaton().append_region([(A, 4), (B, 4)], expansion=[(C, 4)],
                                  expansion_successors=successors)


@pytest.mark.parametrize("expansion, successors", [
    ([(0x108, 4), (0x108, 4)], None),
    ([(0x108, 4)], {0x108: (0x200,)}),
])
def test_rejected_append_leaves_the_automaton_unchanged(expansion, successors):
    # the expansion is checked before any state is added: a rejected
    # region leaves no orphan state, and the next region gets id 0
    auto = identity_automaton()
    before = auto.dump()
    with pytest.raises(ValueError):
        auto.append_region([(0x100, 4), (0x104, 4)], expansion, successors)
    assert auto.dump() == before
    assert auto.append_region([(0x100, 4), (0x104, 4)]) == 0
    assert [s["id"] for s in auto.dump()["states"]] == [0, 1, 2]


def test_region_stats_fresh_region_zeroed():
    auto = identity_automaton()
    rid = auto.append_region([(A, 4)])
    st = stats(auto, rid)
    assert (st.entries, st.dynamic_instructions, st.head_executions,
            st.completed_traversals) == (0, 0, 0, 0)


# --- invariants -------------------------------------------------------------

def _check_invariants(auto, recordings, seq):
    """Check ``auto``'s dump after ``seq`` was stepped through it with
    ``recordings`` installed: its own identities, and equality with the
    literal model, which counts entries and transitions as they happen."""
    dump = auto.dump()
    native = dump["native_instructions"]
    assert auto.interp + native == dump["total_instructions"]
    # execution count equals the sum of incoming edge traversals
    incoming = {s["id"]: 0 for s in dump["states"]}
    for s in dump["states"]:
        for _, target, count in s["edges"]:
            incoming[target] += count
    for s in dump["states"]:
        if s["id"] != 0:
            assert s["executions"] == incoming[s["id"]]
    # per-region dynamic counts
    for r in dump["regions"]:
        dyn = sum(dump["states"][sid]["executions"]
                  for sid in r["recorded_states"] + r["expansion_states"])
        assert dyn == r["dynamic_instructions"]
    assert sum(r["dynamic_instructions"] for r in dump["regions"]) == native
    assert (sum(r.entries_from_native for r in auto.all_region_stats())
            == dump["region_transitions"])
    # the address index maps each held address, and no other, to its
    # first state (ids are addresses here)
    first = {}
    for s in dump["states"][1:]:
        first.setdefault(s["address"], s["id"])
    assert {a: sid for a, sid in enumerate(auto.held) if sid} == first
    model = LiteralAutomaton()
    for recording in recordings:
        model.append(recording)
    for a in seq:
        model.step(a)
    assert dump == model.dump()
    assert dump["region_transitions"] == model.transitions


def test_invariants_after_random_walk():
    rng = random.Random(7)
    auto = identity_automaton()
    addrs = [0x100 + 4 * i for i in range(12)]
    recordings = [[(addrs[0], 4), (addrs[1], 4)],
                  [(addrs[2], 4), (addrs[3], 4), (addrs[4], 4)],
                  [(addrs[1], 4)]]
    for recording in recordings:
        auto.append_region(recording)
    seq = [rng.choice(addrs + [0x900, 0x904]) for _ in range(3000)]
    drive(auto, seq)
    _check_invariants(auto, recordings, seq)


def test_entries_transitions_and_completions_by_hand():
    """Each way of entering a region and each kind of completion, counted
    by hand.  The automaton derives entries, transitions and the
    completions of a one-state region from its edge counts; the literal
    model counts them as they happen."""
    P, Q, R, S, T, U, V, W, Z = (0x500 + 4 * k for k in range(9))
    recordings = [([P, Q, R], [], None),            # region 0: three states
                  ([S, T], [], None),               # region 1: two states
                  ([U], [], None),                  # region 2: one state
                  ([V], [W], {V: [W], W: [V]})]     # region 3: one state, one expansion state
    seq = [Z,          # the interpreter
           P, Q,       # an entry into 0 from the interpreter; the first window ends here
           R,          # ... and 0's tail completes the traversal the window cut
           S, T,       # a native move from 0 to 1, completing 1
           Z,          # back to the interpreter
           Q, R,       # an entry into the middle of 0: its tail, but no traversal
           U, U,       # a move from 0 to 2, which completes at each execution of U
           V, W, V,    # a move from 2 to 3, which completes at each execution of V
           Z, V,       # an entry into 3 from the interpreter
           P, Q]       # a move from 3 to 0; the run ends inside that traversal
    auto, model = identity_automaton(), LiteralAutomaton()
    for rec, members, successors in recordings:
        region = ([(a, 4) for a in rec], [(a, 4) for a in members], successors)
        auto.append_region(*region)
        model.append(*region)

    def counts():
        """Per region (entries from the interpreter, entries from native
        code, completions, head executions), and the transitions."""
        return ([(r.entries_from_interpreter, r.entries_from_native,
                  r.completed_traversals, r.head_executions)
                 for r in auto.all_region_stats()], auto.dump()["region_transitions"])

    expected = [([(1, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)], 0),
                ([(2, 1, 1, 2), (0, 1, 1, 1), (0, 1, 2, 2), (1, 1, 3, 3)], 4)]
    for window, hand in zip((seq[:3], seq[3:]), expected):
        drive(auto, window)
        for a in window:
            model.step(a)
        assert counts() == hand
        assert auto.dump() == model.dump()
    # region 0's head and tail are marked; the one-state regions' states are not
    assert [auto._mark[sid] for sid in (1, 3, 6, 7)] == [1, 2, 0, 0]


def test_replay_deterministic():
    rng = random.Random(3)
    seq = [rng.choice([A, B, C, 0x200, 0x204]) for _ in range(500)]

    def run():
        auto = identity_automaton()
        auto.append_region([(A, 4), (B, 4)])
        auto.append_region([(C, 4), (0x200, 4)])
        drive(auto, seq)
        return auto.dump()

    assert run() == run()


def test_bulk_interp_matches_steps():
    auto1 = identity_automaton()
    auto1.bulk_interp(5)
    auto2 = identity_automaton()
    drive(auto2, [0x500 + 4 * i for i in range(5)])
    assert (auto1.dump(), auto1.interp) == (auto2.dump(), auto2.interp)


def test_bulk_interp_requires_interpreter_cursor():
    auto = identity_automaton()
    auto.append_region([(A, 4)])
    step(auto, A)
    with pytest.raises(RuntimeError):
        auto.bulk_interp(1)


# --- the stepping kernel against a literal model ------------------------------

def test_kernel_matches_literal_model():
    """The kernel credits the gap [i, h) to the interpreter, then steps from
    item h and stops after it if it stays interpreter-side, else after the
    landing that ends the native run, or at the end."""
    rng = random.Random(11)
    for case in range(300):
        pool = [0x100 + 4 * k for k in range(rng.randint(3, 12))]
        seq = [rng.choice(pool) for _ in range(rng.randint(1, 400))]
        sizes = [4] * len(seq)
        # regions install at segment boundaries, between kernel calls
        cuts = sorted(rng.sample(range(len(seq) + 1), min(len(seq) + 1, 4)))
        recordings = [[(rng.choice(pool), 4) for _ in range(rng.randint(1, 5))]
                      for _ in cuts]
        auto = identity_automaton()
        model = LiteralAutomaton()
        for lo, hi, recording in zip(cuts, cuts[1:] + [len(seq)], recordings):
            if rng.random() < 0.8:
                auto.append_region(recording)
                model.append(recording)
            i = lo
            while i < hi:
                # a gap is credited only from the interpreter state, and
                # holds no address any region holds
                gap = i
                if model.cursor == 0:
                    while gap < hi - 1 and seq[gap] not in model.address:
                        gap += 1
                h = rng.randint(i, gap)
                for stop in range(i, h):
                    assert model.step(seq[stop]) == SI
                kind = model.step(seq[h])
                stop = h + 1
                while kind in (I2N, SN, N2N) and stop < hi:
                    kind = model.step(seq[stop])
                    stop += 1
                next_i, got = auto.run_native_stretch(seq, sizes, i, hi, h)
                assert next_i == stop, (case, i, h)
                assert got == model_prev(kind, seq, stop), (case, i, h)
                i = stop
        assert auto.dump() == model.dump(), case


def test_kernel_matches_literal_model_with_expansions():
    """As above, with some regions installed with look-ahead expansion
    states, so the derived dynamic, head and tail counts over expansion
    states are checked against per-item counting."""
    rng = random.Random(12)
    expanded = 0
    for case in range(300):
        pool = [0x100 + 4 * k for k in range(rng.randint(3, 12))]
        seq = [rng.choice(pool) for _ in range(rng.randint(1, 400))]
        sizes = [4] * len(seq)
        auto = identity_automaton()
        model = LiteralAutomaton()
        cuts = sorted(rng.sample(range(len(seq) + 1), min(len(seq) + 1, 4)))
        for lo, hi in zip(cuts, cuts[1:] + [len(seq)]):
            recording = [(rng.choice(pool), 4) for _ in range(rng.randint(1, 5))]
            rest = [a for a in pool if a not in {a for a, _ in recording}]
            members = [(a, 4) for a in rng.sample(rest, rng.randint(0, min(3, len(rest))))]
            inside = [a for a, _ in recording + members]
            # the engine passes successors only along with expansion members
            successors = {a: rng.choices(inside, k=rng.randint(1, 2))
                          for a in inside if members and rng.random() < 0.6}
            if rng.random() < 0.8:
                auto.append_region(recording, members, successors)
                model.append(recording, members, successors)
                expanded += bool(members)
            i = lo
            while i < hi:
                gap = i
                if model.cursor == 0:
                    while gap < hi - 1 and seq[gap] not in model.address:
                        gap += 1
                h = rng.randint(i, gap)
                for stop in range(i, h):
                    assert model.step(seq[stop]) == SI
                kind = model.step(seq[h])
                stop = h + 1
                while kind in (I2N, SN, N2N) and stop < hi:
                    kind = model.step(seq[stop])
                    stop += 1
                next_i, got = auto.run_native_stretch(seq, sizes, i, hi, h)
                assert next_i == stop, (case, i, h)
                assert got == model_prev(kind, seq, stop), (case, i, h)
                i = stop
        assert auto.dump() == model.dump(), case
    assert expanded > 300


# --- walks stepped in one go along a chain head's memo ------------------------

D, E, F, G, H, X = 0x10C, 0x110, 0x114, 0x118, 0x11C, 0x900
CHAIN = [A, B, C, D, E]
WALK = CHAIN[1:]
# the walk that comes back to the head ends with the landing on it
LOOP = WALK + [A]
assert len(CHAIN) > CHAIN_MIN_PATH   # the head is a chain head


def run_both(recordings, seq, ends=(None,)):
    """Step ``seq`` through the kernel and through the literal model with
    the same regions installed, the kernel's calls also stopping at each
    of ``ends``; checks the dumps agree and returns the kernel's automaton.
    The kernel steps ``seq`` again with its hand-off at 1, so that its
    numpy pass steps all but each call's first item, which must agree too.
    A recording is a list of addresses, or a tuple of that list, the
    expansion addresses and the expansion successors."""
    model = LiteralAutomaton()
    regions = []
    for rec in recordings:
        rec, members, successors = rec if isinstance(rec, tuple) else (rec, (), None)
        regions.append(([(a, 4) for a in rec], [(a, 4) for a in members], successors))
        model.append(*regions[-1])
    for a in seq:
        model.step(a)
    sizes = [4] * len(seq)
    autos = []
    for handoff in (automaton._HANDOFF, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automaton, "_HANDOFF", handoff)
            auto = identity_automaton(MemoAutomaton)
            for region in regions:
                auto.append_region(*region)
            i = 0
            for end in ends:
                end = len(seq) if end is None else end
                while i < end:
                    i, _ = auto.run_native_stretch(seq, sizes, i, end, i)
        assert auto.dump() == model.dump(), handoff
        autos.append(auto)
    return autos[0]


def chain_head(auto, rid=0):
    """Whether region ``rid``'s head is still a chain head."""
    return auto._mark[auto._regions[rid].entry_state] == 5


def test_whole_traversal_closes_the_open_traversal():
    # the first landing has no memo and records the walk back to the
    # head; the second one misses it, as the loop back to D leaves the
    # walk, and steps item by item, completing the traversal the head
    # opened; the loop back to D that runs on to the tail completes
    # nothing, and the run's end cuts that walk short, unkept
    auto = run_both([CHAIN], CHAIN * 2 + [D, E])
    assert (auto.hits, auto._regions[0].completions, auto.walks) == (0, 2, [LOOP])


@pytest.mark.parametrize("seq, hits", [
    # the side exit ends a walk too short to keep; the next landing
    # records the walk the second hits, and the last landing's walk
    # would run past the end: no verdict
    ([A, B, X] + CHAIN * 3, 1),
    # the side exit misses the memo and keeps it: it hits again after
    (CHAIN * 2 + [A, B, X] + CHAIN * 2, 2),
])
def test_side_exit_keeps_the_memo(seq, hits):
    auto = run_both([CHAIN], seq)
    assert (auto.hits, auto._regions[0].completions) == (hits, seq.count(E))
    assert auto.walks == [LOOP] and chain_head(auto)


def test_window_ending_inside_a_traversal():
    # the first call ends two items after the head, with a walk too short
    # to keep; the second call records the walk back to the head, which
    # would run past the end at the last landing: no verdict
    auto = run_both([CHAIN], CHAIN * 3, ends=(3, None))
    assert (auto.hits, auto._regions[0].completions, auto.walks) == (0, 3, [LOOP])
    # the memo does not fit before the first call's end: no verdict, and
    # the end cuts the walk short; the second call's first landing hits,
    # and its last has no verdict
    auto = run_both([CHAIN], CHAIN * 4, ends=(7, None))
    assert (auto.hits, auto._regions[0].completions, auto.walks) == (1, 4, [LOOP])


@pytest.mark.parametrize("seq, hits", [
    ([A, B, A, C, D] * 4, 2),
    # B after the repeated A leaves the chain for an edge back to B, and
    # the run ends before a second landing
    ([A, B, A, B, A, C, D], 0),
    # the walk through that edge is recorded and hit
    ([A, B, A, B, A, C, D] * 3, 1),
])
def test_recording_with_repeated_address(seq, hits):
    auto = run_both([[A, B, A, C, D]], seq)
    assert (auto.hits, auto._regions[0].completions) == (hits, seq.count(D))


def test_walk_back_to_the_head_hits_each_iteration_and_steps_the_last():
    # the walk back to the head steps a whole iteration and its closing
    # landing at once, so hits follow each other with no item stepped
    # between them; the last iteration, which leaves for X, misses and is
    # stepped item by item, and its walk, ended by that exit, becomes the
    # memo; the counts are those the literal model gives
    auto = run_both([CHAIN], CHAIN * 5 + [X])
    assert (auto.hits, auto._regions[0].completions, auto.walks) == (3, 5, [LOOP, WALK])


def test_short_region_head_is_not_a_chain_head():
    short = CHAIN[:CHAIN_MIN_PATH]
    auto = run_both([short], short * 3)
    assert (auto.hits, auto._regions[0].completions, auto.walks) == (0, 3, [])
    assert not chain_head(auto)


@pytest.mark.parametrize("walk, completions", [
    (WALK, 3),
    # a walk that never reaches the core tail completes nothing
    ([B, C, D, C, D], 0),
])
def test_walk_ended_by_an_exit_is_kept_at_the_call_end(walk, completions):
    # each call returns after the exit to X: the walk it ended is
    # installed then, and the next call's landing hits it
    auto = run_both([CHAIN], ([A] + walk + [X]) * 3)
    assert (auto.hits, auto._regions[0].completions, auto.walks) == (2, completions, [walk])


def test_walk_ends_where_it_leaves_the_region():
    # C's successor G enters region 1 mid-way; the walk from A stops
    # there, too short to keep, however far region 1 then runs
    auto = run_both([CHAIN, [F, G, H]], [A, B, C, G, H] * 3)
    assert (auto.hits, auto.walks) == (0, [])


def test_walk_through_expansion_states():
    # C leaves the recording for the expansion states F and G, which lead
    # back to the core tail E: the memo replays the walk through them
    region = (CHAIN, [F, G], {C: (F,), F: (G,), G: (E,)})
    auto = run_both([region], [A, B, C, F, G, E] * 3)
    assert (auto.hits, auto._regions[0].completions) == (1, 3)
    assert auto.walks == [[B, C, F, G, E, A]]


def test_walk_through_an_inner_loop():
    # an inner loop over C and D runs three times per walk
    walk = [B] + [C, D] * 3 + [E]
    auto = run_both([CHAIN], ([A] + walk) * 3)
    assert (auto.hits, auto._regions[0].completions, auto.walks) == (1, 3, [walk + [A]])


def test_head_alternating_between_two_walks():
    # each switch misses once and records the new walk, which then hits
    other = [A, C, B, D, E]
    auto = run_both([CHAIN], CHAIN * 3 + other * 3 + CHAIN * 3)
    assert (auto.hits, auto._regions[0].completions) == (5, 9)
    assert auto.walks == [LOOP, other[1:] + [A], LOOP] and chain_head(auto)


@pytest.mark.parametrize("seq, hits, kept", [
    # two fruitless landings, then a walk that hits
    ([A, B, X] + CHAIN * 3, 1, True),
    # the third fruitless landing in a row gives the head up: no walk is
    # recorded or hit after it
    ([A, B, X] * 2 + CHAIN * 3, 0, False),
    # a memo that misses three times in a row
    (CHAIN * 2 + [A, B, X] * 3 + CHAIN * 3, 1, False),
])
def test_head_given_up_after_fruitless_landings(seq, hits, kept):
    auto = run_both([CHAIN], seq)
    assert (auto.hits, chain_head(auto)) == (hits, kept)
    assert auto._regions[0].completions == seq.count(E)


def test_give_up_writes_both_copies_of_the_marks(monkeypatch):
    # the kernel's loop gives the head up at its third fruitless landing;
    # the numpy pass reads the marks' array copy, which must say so too,
    # and then steps the loop as the literal model does
    auto = identity_automaton(PassAutomaton)
    model = LiteralAutomaton()
    auto.append_region([(a, 4) for a in CHAIN])
    model.append([(a, 4) for a in CHAIN])
    given_up = [A, B, X] * CHAIN_GIVE_UP
    drive(auto, given_up)
    assert not chain_head(auto)
    assert list(auto._mark_col) == auto._mark
    monkeypatch.setattr(automaton, "_HANDOFF", 1)
    loop = CHAIN * 3 + [X]
    drive(auto, loop)
    assert auto.passed == len(loop) - 1
    for a in given_up + loop:
        model.step(a)
    assert auto.dump() == model.dump()


def test_memo_keeps_a_prefix_of_a_long_walk(monkeypatch):
    # a walk of 1 + 1200 + 1 items is kept as its first WALK_CAP items,
    # which end inside the inner loop and pass no core tail: a hit books
    # no completion, and the rest of the walk steps item by item; the
    # calls run as long as the walks, so the hand-off to the numpy pass is
    # moved out of their way
    monkeypatch.setattr(automaton, "_HANDOFF", 1 << 40)
    walk = [B] + [C, D] * 600 + [E]
    auto = run_both([CHAIN], ([A] + walk) * 3)
    assert auto.walks == [walk[:WALK_CAP]] and walk[WALK_CAP - 1] == C
    assert (auto.hits, auto._regions[0].completions) == (2, 3)


def test_dump_mid_run_flushes_the_hits_once():
    # each dump adds the hits so far to the memo's edges, and a second
    # dump adds nothing; the one hit is the first window's, since the
    # last landing of each window has its walk run past the window's end
    seq = CHAIN * 4
    auto = identity_automaton(MemoAutomaton)
    model = LiteralAutomaton()
    auto.append_region([(a, 4) for a in CHAIN])
    model.append([(a, 4) for a in CHAIN])
    i = 0
    for start, end in ((0, 12), (12, len(seq))):
        while i < end:
            i, _ = auto.run_native_stretch(seq, [4] * len(seq), i, end, i)
        for a in seq[start:end]:
            model.step(a)
        assert auto.dump() == model.dump()
        assert auto.dump() == model.dump()
    assert auto.hits == 1


# --- the numpy pass, by hand ------------------------------------------------------

def pass_call(recordings, seq, end=None, counts=None, threshold=1, handoff=1):
    """One kernel call from item 0 of ``seq``, the regions of
    ``recordings`` installed as ``append_region``'s arguments, with the
    hand-off at ``handoff``; checks the dump and ``prev`` against the
    literal model stepped over the items the call consumed.  Returns
    ``(next_i, prev, automaton)``."""
    end = len(seq) if end is None else end
    model = LiteralAutomaton()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "_HANDOFF", handoff)
        auto = identity_automaton(PassAutomaton)
        for region in recordings:
            auto.append_region(*region)
            model.append(*region)
        next_i, prev = auto.run_native_stretch(seq, [4] * len(seq), 0, end, 0,
                                               counts, threshold)
    kind = SI
    for a in seq[:next_i]:
        kind = model.step(a)
    assert auto.dump() == model.dump()
    assert prev == model_prev(kind, seq, next_i)
    return next_i, prev, auto


def rec(addrs, expansion=(), successors=None):
    return [(a, 4) for a in addrs], [(a, 4) for a in expansion], successors


def test_expansion_duplicating_an_earlier_region_inside_a_long_run():
    # region 1's expansion holds copies of region 0's inner loop C, D, E:
    # entered from region 1's F, the loop runs on its copies, through
    # exceptional edges, until its exit to G, back in region 1
    inner = [C, D, E]
    regions = [rec([A, B] + inner), rec([F, G, H], inner, {F: (C,), C: (D,), D: (E,),
                                                           E: (C, G)})]
    seq = [F] + inner * 40 + [G, H] + ([F] + inner * 7 + [G, H]) * 30 + [A, B] + inner * 5
    i, prev, auto = pass_call(regions, seq)
    assert (i, prev) == (len(seq), E)
    assert auto.passed == len(seq) - 1
    dump = auto.dump()
    copies = dump["regions"][1]["expansion_states"]
    assert [dump["states"][s]["executions"] for s in copies] == [250] * 3
    # two exceptional chains of 4 items per iteration are exact
    assert set(auto._exceptional.values()) >= set(copies)


def test_edge_from_a_held_state_after_a_copy():
    # region 0 repeats Z, so its edge from Y to its second Z is
    # exceptional; region 1 runs X into its own copy of Y, from which Z
    # takes rule 2 to region 0's first Z, not that edge, while Z after
    # region 0's Y takes it
    X, Y, Z = 0x200, 0x204, 0x208
    seq = [Z, Y, Z] + [X, Y, Z, Y, Z] * 30
    i, prev, auto = pass_call([rec([Z, Y, Z]), rec([X, Y])], seq)
    assert (i, prev) == (len(seq), Z) and auto.passed == len(seq) - 1
    assert [s["executions"] for s in auto.dump()["states"][1:]] == [31, 31, 31, 30, 30]


def test_two_regions_copying_one_loop():
    # regions 1 and 2 each hold a copy of region 0's inner loop, so the
    # pair (E, C) keys an exceptional edge in each: the copy a run takes
    # is that of the region it entered the loop from.  Region 2 also
    # copies region 1's F, so on its walk the pair (F, C) keys both its
    # own edge and region 1's edge from F itself, which only a run at
    # region 1's F takes; region 1's copies would then lead on to its copy
    # of P, where region 2's walk leaves for region 0's P
    inner = [C, D, E]
    J, K, P = 0x120, 0x124, 0x128
    regions = [rec([A, B] + inner + [P]),
               rec([F, G], inner + [P], {F: (C,), C: (D,), D: (E,), E: (C, P), P: (G,)}),
               rec([J, K], [F] + inner, {J: (F,), F: (C,), C: (D,), D: (E,), E: (C, K)})]
    seq = ([F] + inner * 6 + [P, G] + [J, F] + inner * 4 + [P, A, B] + inner + [K]) * 20
    i, prev, auto = pass_call(regions, seq)
    assert (i, prev) == (len(seq), K) and auto.passed == len(seq) - 1
    dump = auto.dump()
    assert [[dump["states"][s]["executions"] for s in r["expansion_states"]]
             for r in dump["regions"][1:]] == [[120] * 3 + [20], [20] + [80] * 3]


# --- walks of exceptional edges, by hand --------------------------------------------
# ``_resolve`` takes up to ``_FEW_WALKS`` walk starts one by one and follows
# more in numpy rounds: patched to 0, every window with a start takes the
# rounds; patched huge, every window takes its starts one by one
FEW = [0, 1 << 40]
# region 1's copies of region 0's inner loop, entered from region 1's F
INNER = [C, D, E]
COPIES = [rec([A, B] + INNER), rec([F, G, H], INNER, {F: (C,), C: (D,), D: (E,), E: (C, G)})]


def executions(auto):
    return [s["executions"] for s in auto.dump()["states"][1:]]


@pytest.mark.parametrize("few", FEW)
def test_start_one_item_past_a_walk_is_not_taken_and_two_items_past_is(monkeypatch, few):
    # region 1's T and region 2's S hold edges to their copies of U and T,
    # starts keyed by the pairs (T, U) and (S, T).  In S T U, T's walk
    # onto region 2's copy ends at once and U, one item past it, does not
    # start one: region 2's copy of T has no edge for U, so U takes rule 2
    # to region 0's U.  In S T T U the second T takes rule 2 to region 1's
    # T, and U, two items past the walk, starts one onto region 1's copy
    monkeypatch.setattr(automaton, "_FEW_WALKS", few)
    S, T, U = 0x200, 0x204, 0x208
    seq = ([S, T, U] + [S, T, T, U]) * 20
    _, _, auto = pass_call([rec([U]), rec([T, U]), rec([S, T])], seq)
    # U, T, U's copy, S, T's copy
    assert executions(auto) == [20, 20, 20, 40, 40]


@pytest.mark.parametrize("few", FEW)
def test_starts_at_consecutive_items_take_every_other_one(monkeypatch, few):
    # each region holds its first address and a copy of the next one's,
    # which an earlier region holds, so the pairs (x0, x1) .. (x4, x5) key
    # starts at five items in a row: x1, x3 and x5 take theirs, onto one-
    # item walks, and x2 and x4, one item past a walk, do not
    monkeypatch.setattr(automaton, "_FEW_WALKS", few)
    xs = [0x200 + 4 * k for k in range(6)]
    regions = [rec([xs[5]])] + [rec([xs[k], xs[k + 1]]) for k in range(4, -1, -1)]
    _, _, auto = pass_call(regions, xs * 10)
    assert executions(auto) == [0, 10, 10, 0, 0, 10, 10, 0, 0, 10, 10]


@pytest.mark.parametrize("few", FEW)
def test_copy_walk_carried_across_pass_windows(monkeypatch, few):
    # in windows of 5 items, the walks through region 1's copies cross
    # window ends, and each next window's item 0 follows the edge of the
    # copy the last one ended on, the cursor's state; some of those windows
    # also hold the start of the next walk
    monkeypatch.setattr(automaton, "_FEW_WALKS", few)
    monkeypatch.setattr(automaton, "_PASS_CHUNK", 5)
    seq = ([F] + INNER * 3 + [G, H]) * 20 + [A, B] + INNER
    i, prev, auto = pass_call(COPIES, seq)
    assert (i, prev) == (len(seq), E) and auto.passed == len(seq) - 1
    copies = auto.dump()["regions"][1]["expansion_states"]
    assert [executions(auto)[s - 1] for s in copies] == [60] * 3


@pytest.mark.parametrize("tail", [[G, H], [F, C, D]])
def test_many_short_walks_and_one_long_walk(tail):
    # one window holds a walk of 90 copies and 40 walks of 3: the pass
    # follows all 41 in numpy rounds while more than _FEW_WALKS (32) are
    # on, and the long one alone one by one once the short ones end; a
    # last short walk, cut by the window's end, drops out of the rounds.
    # Region 1's E holds an edge to its copy of Z, so each Z right after a
    # walk is a start, which the walk's end overrules.  Region 2's copy of
    # E makes its edges to its copies of D and C in that order
    assert automaton._FEW_WALKS == 32
    Z = 0x300
    regions = [rec([Z]), rec([A, B, C, D, E, Z]),
               rec([F, G, H], INNER, {F: (C,), C: (D,), D: (E,), E: (D, C, G)})]
    seq = [F] + INNER * 30 + [Z] + ([F] + INNER + [Z]) * 40 + tail
    i, prev, auto = pass_call(regions, seq)
    assert (i, prev) == (len(seq), tail[-1]) and auto.passed == len(seq) - 1
    copies = auto.dump()["regions"][2]["expansion_states"]
    assert [executions(auto)[s - 1] for s in copies] == [70 + (tail[0] == F)] * 2 + [70]
    # region 0's Z, and region 1's copy of it
    assert [executions(auto)[s - 1] for s in (1, 7)] == [41, 0]


@pytest.mark.parametrize("few", FEW)
def test_copy_without_an_edge_falls_back_to_rule_2_and_restarts(monkeypatch, few):
    # region 1's copy of D has no edge for F: F takes rule 2 to region 1's
    # F, and the C after it, two items past the walk's end, starts the next
    # walk; after the last walk, A takes rule 2 to region 0, whose own
    # inner loop the rest runs on
    monkeypatch.setattr(automaton, "_FEW_WALKS", few)
    seq = [F, C, D] * 40 + [A, B] + INNER
    i, prev, auto = pass_call(COPIES, seq)
    assert (i, prev) == (len(seq), E)
    # region 0's A, B, C, D, E, region 1's F, G, H and its copies
    assert executions(auto) == [1] * 5 + [40, 0, 0, 40, 40, 0]


def test_landing_at_the_end_returns_infinity():
    # the call's last item leaves the region: prev is infinity, and the
    # cursor sits on the interpreter state
    seq = CHAIN * 3 + [X]
    i, prev, auto = pass_call([rec(CHAIN)], seq)
    assert (i, prev) == (len(seq), math.inf) and not auto.in_region
    # with counts, the follower lies past the end: the same
    counts = array("q", [0]) * IDENTITY
    i, prev, auto = pass_call([rec(CHAIN)], seq, counts=counts, threshold=5)
    assert (i, prev) == (len(seq), math.inf) and not counts.count(1)


def test_follower_reaching_threshold_in_the_middle_of_a_pass_chunk():
    # the exits to X are followed by A, held: its bumps 1..3 step on, and
    # the fourth, at the threshold, stops the call at that A, unwritten
    seq = (CHAIN + [X]) * 6
    counts = array("q", [0]) * IDENTITY
    i, prev, _ = pass_call([rec(CHAIN)], seq, counts=counts, threshold=4, handoff=2)
    assert (i, prev) == (24, math.inf) and counts[A] == 3
    # from a count of 2, the second follower stops it
    counts[A] = 2
    i, prev, _ = pass_call([rec(CHAIN)], seq, counts=counts, threshold=4, handoff=2)
    assert (i, prev) == (12, math.inf) and counts[A] == 3


def test_follower_not_held_is_profiled_by_the_pass():
    # the landings at items 15 and 18 are followed by A, held, and by X,
    # not held: the pass bumps both and steps on; A after X, a backward
    # branch from an interpreter-side item, is bumped too
    seq = CHAIN * 3 + [X, A, B, X, X, A]
    counts = array("q", [0]) * IDENTITY
    i, prev, auto = pass_call([rec(CHAIN)], seq, counts=counts, threshold=9)
    assert (i, prev) == (21, A) and nonzero(counts) == {A: 2, X: 1}
    assert auto.passed == 20


def test_traversal_open_across_a_replay_chunk_boundary(tmp_path, monkeypatch):
    # a 40-item loop in one region, streamed in 64-item chunks: each
    # chunk's kernel call continues the traversal the last one left open
    monkeypatch.setattr(trace_io, "_REPLAY_CHUNK", 64)
    monkeypatch.setattr(automaton, "_HANDOFF", 3)
    spec = ProgramSpec((LoopSpec(base=0x1000, body=40, iters=20),))
    path = tmp_path / "loop.rtr"
    write_trace(path, generate_trace(spec))
    config = SimulationConfig(rft=RFTConfig(threshold=2), collect_dump=True)
    with TraceFile(path) as source:
        dump = run_simulation(source, config).dump
    assert dump == naive_run(generate_trace(spec), config).dump()
    (region,) = dump["regions"]
    assert region["completed_traversals"] == 17


# --- the kernel's hand-off rule ---------------------------------------------------

@pytest.fixture
def kernel_passes(monkeypatch):
    """Logs ``(start, stop)`` per numpy pass of the kernel: the item it
    began at and the index it returned."""
    log = []
    step = automaton.Automaton._pass

    def logged(self, addrs, i, end, *args):
        k, prev = step(self, addrs, i, end, *args)
        log.append((i, k))
        return k, prev
    monkeypatch.setattr(automaton.Automaton, "_pass", logged)
    return log


@pytest.mark.parametrize("handoff", [1, 4, None])
def test_kernel_hands_off_after_exactly_handoff_items(monkeypatch, kernel_passes, handoff):
    """A call of more than ``_HANDOFF`` items hands the rest of its run to
    the pass at its ``_HANDOFF``-th item; a call of at most
    that many items steps every item itself.  The region's four recorded
    states are too few for a chain head, so the call steps no walk at
    once."""
    if handoff is not None:
        monkeypatch.setattr(automaton, "_HANDOFF", handoff)
    h = automaton._HANDOFF
    loop = CHAIN[:CHAIN_MIN_PATH]
    for n in (h - 1, h, h + 1, 3 * h + 7):
        if n < 1:
            continue
        seq = (loop * (n // len(loop) + 1))[:n]
        kernel_passes.clear()
        auto = identity_automaton()
        auto.append_region([(a, 4) for a in loop])
        assert auto.run_native_stretch(seq, [4] * n, 0, n, 0)[0] == n
        assert kernel_passes == ([(h, n)] if n > h else []), n
    # a gap credited to the interpreter does not count
    seq = [X] * 5 + loop * h
    kernel_passes.clear()
    auto = identity_automaton()
    auto.append_region([(a, 4) for a in loop])
    assert auto.run_native_stretch(seq, [4] * len(seq), 0, len(seq), 5)[0] == len(seq)
    assert kernel_passes == [(5 + h, len(seq))]


# --- interpreter-side items profiled in the kernel -----------------------------

Y = 0x904
# a hand-off no call here reaches
HUGE = 1 << 40


def id_counts(start=()):
    """Region-exit counts by id, as a manager lends them to the kernel,
    starting from the ``{id: count}`` pairs of ``start``."""
    counts = array("q", [0]) * IDENTITY
    for a, c in dict(start).items():
        counts[a] = c
    return counts


def nonzero(counts) -> dict:
    """The nonzero counts of ``counts`` by id."""
    return {int(a): int(counts[a]) for a in np.flatnonzero(counts)}


def exit_call(seq, threshold, counts, end=None):
    """One kernel call from item 0 of ``seq`` (the region [A, B] installed)
    that hands the kernel ``counts`` (``id_counts``) and ``threshold``.
    Checks the dump against the literal model stepped over the items the
    call consumed, and the counts against the reference net manager's
    hotness after those items, starting from the same counts.  The call
    runs with the kernel's hand-off out of reach, and again from a copy of
    the counts with the hand-off at 1, so that its numpy pass steps all
    but the first item, and must agree.
    Returns ``(next_i, prev)``."""
    end = len(seq) if end is None else end
    start = nonzero(counts)
    results = []
    for handoff, given in ((1, array("q", counts)), (HUGE, counts)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automaton, "_HANDOFF", handoff)
            auto = identity_automaton()
            auto.append_region([(A, 4), (B, 4)])
            result = auto.run_native_stretch(seq, [4] * len(seq), 0, end, 0, given, threshold)
        results.append((result, auto.dump(), nonzero(given)))
    assert results[0] == results[1]
    next_i, prev = results[1][0]
    model = LiteralAutomaton()
    model.append([(A, 4), (B, 4)])
    manager = make_reference(RFTConfig(technique="net", threshold=threshold))
    manager.hot = start
    last, ref_kind = None, SI
    for a in seq[:next_i]:
        assert manager.handle(last, (a, 4), ref_kind) is None
        ref_kind = model.step(a)
        last = (a, 4)
    assert results[1][1] == model.dump()
    assert manager.recording is None
    assert nonzero(counts) == {a: c for a, c in manager.hot.items() if c}
    assert prev == model_prev(ref_kind, seq, next_i)
    return next_i, prev


def test_held_follower_below_threshold_is_absorbed():
    # each exit's follower A enters the region again; the call steps on
    # into it and through the next exit, to the end
    counts = id_counts()
    seq = [A, B, X] * 3 + [A, B]
    assert exit_call(seq, 5, counts)[0] == len(seq)
    assert nonzero(counts) == {A: 3}


def test_follower_reaching_threshold_ends_the_call_unwritten():
    # the third follower's bump reaches 3: the call returns at it with
    # prev infinity and leaves its count for the scan to bump
    counts = id_counts()
    assert exit_call([A, B, X] * 3 + [A, B], 3, counts) == (9, math.inf)
    assert nonzero(counts) == {A: 2}
    counts = id_counts({A: 2})
    assert exit_call([A, B, X, A, B], 3, counts) == (3, math.inf)
    assert nonzero(counts) == {A: 2}
    # a count already past the threshold, as counts lent at a higher one
    # leave it: the first bump stops the call
    counts = id_counts({A: 4, X: 1})
    assert exit_call([A, B, X, A, B, X, A, B], 3, counts) == (3, math.inf)
    assert nonzero(counts) == {A: 4, X: 1}


def test_threshold_one_never_absorbs():
    counts = id_counts()
    assert exit_call([A, B, X, A, B], 1, counts) == (3, math.inf)
    assert nonzero(counts) == {}


@pytest.mark.parametrize("seq, end", [
    # the follower lies at the end of the window, or beyond it
    ([A, B, X], None),
    ([A, B, X, A, B], 3),
])
def test_follower_at_the_end_ends_the_call(seq, end):
    counts = id_counts()
    assert exit_call(seq, 5, counts, end) == (3, math.inf)
    assert nonzero(counts) == {}


# ids that no recording holds, disjoint from ``POOL`` below
COLD = [0x600 + 4 * k for k in range(6)]
# the history capacity of the stateful machine's lei, short enough to wrap
LEI_CAPACITY = 6


@pytest.mark.parametrize("threshold, stop, prev, hot", [
    # none gets hot: the call runs to the end
    (5, 10, B, {COLD[0]: 2, COLD[1]: 1, A: 1}),
    # the second bump of COLD[0], a backward branch from COLD[1]
    (2, 5, COLD[1], {COLD[0]: 1}),
])
def test_exit_to_a_cold_run_is_profiled(threshold, stop, prev, hot):
    # the exit to COLD[2] is a landing, so its follower COLD[0] is bumped;
    # then each backward branch in the cold run is, and A, reached by
    # one, enters the region again
    counts = id_counts()
    seq = [A, B, COLD[2], COLD[0], COLD[1], COLD[0], COLD[2], COLD[1], A, B]
    assert exit_call(seq, threshold, counts) == (stop, prev)
    assert nonzero(counts) == hot


def test_follower_not_held_is_profiled_and_stepped_past():
    # Y, not held, follows the exit and is bumped whatever its id; A, a
    # backward branch from Y, is bumped and enters the region
    counts = id_counts()
    assert exit_call([A, B, X, Y, A], 5, counts) == (5, A)
    assert nonzero(counts) == {Y: 1, A: 1}


# the landing X at items 2 and 5; A, held, follows the first (item 3) and
# Y, not held, the second (item 6); W runs on interpreter-side, and V
# branches back from it (item 8); A, held, from V (item 9)
V, W = 0x90C, 0x910
PROFILED = [A, B, X, A, B, X, Y, W, V, A, B]


@pytest.mark.parametrize("handoff", [1, HUGE], ids=["handoff-1", "handoff-huge"])
@pytest.mark.parametrize("threshold, start, stop, prev, hot", [
    # the first bump gets hot: the held follower
    (1, {}, 3, math.inf, {}),
    # the follower that is not held
    (3, {Y: 2}, 6, math.inf, {A: 1, Y: 2}),
    # the backward branch inside an interpreter-side run
    (3, {V: 2}, 8, W, {A: 1, Y: 1, V: 2}),
    # the held entry reached by a backward branch, A's second bump
    (3, {A: 1}, 9, V, {A: 2, Y: 1, V: 1}),
    # none: the call runs to the end
    (9, {}, 11, B, {A: 2, Y: 1, V: 1}),
], ids=["held-follower", "follower-not-held", "interpreter-branch", "held-entry", "none"])
def test_kernel_profiles_each_kind_of_bumped_item(handoff, threshold, start, stop, prev, hot):
    """One kernel call over ``PROFILED``, region [A, B] installed, lent a
    net manager's counts.  It bumps four items: a held follower of a
    landing, a follower that is not held, an interpreter-side backward
    branch target and a held entry reached by a backward branch.  It
    stops unwritten at the bump that reaches the threshold, with ``prev``
    infinity after a landing and the previous id otherwise; the dump is
    the literal model's over the items consumed, the counts are the
    reference net manager's, and the manager's scan, handed the stop,
    makes the bump and starts a recording."""
    trace = Trace(PROFILED, [4] * len(PROFILED))
    table, ids = trace.table().tolist(), trace._ids
    rank = {a: k for k, a in enumerate(table)}
    auto = Automaton()
    auto.bind(trace.table())
    auto.append_region([(rank[A], 4), (rank[B], 4)])
    manager = make_rft(RFTConfig("net", threshold=threshold))
    manager.begin(trace, 0, len(PROFILED), auto.held)
    manager.attach(trace, 0)
    for a, c in start.items():
        manager._hot[rank[a]] = c
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "_HANDOFF", handoff)
        i, got = auto.run_native_stretch(ids, trace.sizes, 0, len(PROFILED), 0,
                                         manager.exit_counts, threshold)
    assert (i, got if got == math.inf else table[got]) == (stop, prev)
    assert {table[k]: c for k, c in enumerate(manager._hot) if c} == hot
    model = LiteralAutomaton()
    model.append([(A, 4), (B, 4)])
    reference = make_reference(RFTConfig("net", threshold=threshold))
    reference.hot = dict(start)
    last, kind = None, SI
    for a in PROFILED[:i]:
        assert reference.handle(last, (a, 4), kind) is None
        kind = model.step(a)
        last = (a, 4)
    assert auto.dump() == model.dump()
    assert {a: c for a, c in reference.hot.items() if c} == hot
    if i < len(PROFILED):
        # net records from the item that got hot: a held one enters a
        # region, so the recording is emitted at once
        k, region = manager.scan(i, len(PROFILED), got)
        assert manager._hot[ids[i]] == 0 and table[region[0][0][0]] == PROFILED[i]
        assert k == i if PROFILED[i] == A else k > i


def test_kernel_profiling_matches_naive_loop_on_the_hand_worked_items():
    """The engine over a warm-up that forms region [A, B], then
    ``PROFILED`` three times, against the naive loop, with the kernel's
    hand-off at 1 and out of reach, at thresholds that get each kind of
    bumped item hot first."""
    trace = Trace([A, B] * 5 + PROFILED * 3, [4] * (10 + 3 * len(PROFILED)))
    for handoff in (1, HUGE):
        for threshold in range(1, 6):
            config = SimulationConfig(rft=RFTConfig("net", threshold=threshold),
                                      collect_dump=True)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(automaton, "_HANDOFF", handoff)
                dump = run_simulation(trace, config).dump
            assert dump == naive_run(trace, config).dump(), (handoff, threshold)


# --- lei's history pushed in the kernel ------------------------------------------

def lei_call(seq, threshold, capacity=8192):
    """lei's scan over item 0 of ``seq``, region [A, B] installed, then one
    kernel call lent lei's history, with the kernel's hand-off at 1 and
    out of reach, which must agree.  The dump must be the literal model's
    over the items the call consumed, and the history's pushes, positions
    and cycle counts the reference lei manager's; where the call stopped
    before the end, the scan makes the push there and emits the region
    the reference emits.  Returns ``(next_i, prev, history)``, ``prev``
    as an address."""
    trace = Trace(seq, [4] * len(seq))
    table, ids = trace.table().tolist(), trace._ids
    config = RFTConfig("lei", threshold=threshold, history_capacity=capacity)
    results = []
    for handoff in (1, HUGE):
        auto = Automaton()
        auto.bind(trace.table())
        auto.append_region([(table.index(A), 4), (table.index(B), 4)])
        manager = make_rft(config)
        manager.begin(trace, 0, len(seq), auto.held)
        manager.attach(trace, 0)
        assert manager.scan(0, len(seq), -1) == (0, None)
        history = manager.exit_counts
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automaton, "_HANDOFF", handoff)
            i, prev = auto.run_native_stretch(ids, trace.sizes, 0, len(seq), 0, history,
                                              threshold)
        prev = prev if prev == math.inf else table[prev]
        results.append(((i, prev), auto.dump(), history.pos, lei_history(history, seq),
                        {table[k]: c for k, c in enumerate(history.counts) if c}))
    assert results[0] == results[1]
    (i, prev), dump, pos, pushed, hot = results[1]
    model = LiteralAutomaton()
    model.append([(A, 4), (B, 4)])
    reference = make_reference(config)
    last, kind = None, SI
    for a in seq[:i]:
        assert reference.handle(last, (a, 4), kind) is None
        kind = model.step(a)
        last = (a, 4)
    assert dump == model.dump()
    assert prev == model_prev(kind, seq, i)
    assert (pos, pushed) == (reference.hist._pushed, list(reference.hist._buf))
    assert hot == {a: c for a, c in reference.hot.items() if c}
    if i < len(seq):
        region = reference.handle(last, (seq[i], 4), kind)
        k, got = manager.scan(i, len(seq), prev)
        assert region is not None and k == i
        assert [(table[a], s) for a, s in got[0]] == region
    return i, prev, history


def test_lei_pushes_the_entry_and_not_the_landing():
    # A enters the region from X and is pushed; B runs natively, and the
    # landing Y after it is not pushed; V, after Y, is, and so is A again
    i, prev, history = lei_call([X, A, B, Y, V, A, B, W], 5)
    # the call ends at the landing W
    assert (i, prev) == (8, math.inf)
    assert lei_history(history, [X, A, B, Y, V, A, B, W]) == [X, A, V, A]
    assert history.runs == [(0, 0), (2, 4)]


@pytest.mark.parametrize("threshold, stop", [(1, 4), (2, 7)])
def test_hot_push_at_a_held_entry_stops_the_call_unwritten(threshold, stop):
    # A, entered after the landing Y, cycles at items 4 and 7: the push
    # that reaches the threshold stops the call there, after the landing
    seq = [X, A, B, Y, A, B, Y, A, B]
    i, prev, history = lei_call(seq, threshold)
    assert (i, prev) == (stop, math.inf)
    # the push is left for the scan, which made it and restarted
    assert history.floor == history.pos - 1


@pytest.mark.parametrize("seq", [[X, X, A, B], [Y, Y, Y, A, B]])
def test_hot_push_at_the_calls_first_item_after_h(seq):
    # the scan pushed item 0; item 1 repeats it at threshold 1
    assert lei_call(seq, 1)[:2] == (1, seq[0])


def test_history_trimmed_at_capacity_4():
    # each period pushes Y, V and A, one run of three items; the runs
    # before the last four pushes are trimmed
    seq = [A, B, X, Y, V] * 30
    i, _, history = lei_call(seq, 1 << 20, capacity=4)
    assert i == len(seq)
    assert len(history.runs) <= 3 and history.runs[0][0] > 0


def test_history_trimmed_at_capacity_100000():
    # four pushes per period, 208,000 in all: runs are first trimmed at
    # 200,000 pushes, and the last 100,000 stay
    seq = [A, B, X, Y, V, W] * 52_000
    i, _, history = lei_call(seq, 1 << 20, capacity=100_000)
    assert i == len(seq) and history.pos == 208_000
    assert 0 < history.runs[0][0] <= history.pos - 100_000


LEI_WORKED = [[X, A, B, Y, V, A, B, W], [X, A, B, Y, A, B, Y, A, B], [X, X, A, B],
              [Y, Y, Y, A, B], [A, B, X, Y, V] * 6]


def test_lei_hand_worked_items_match_naive_loop():
    """The engine over a warm-up that forms region [A, B], then each
    hand-worked stream above, against the naive loop, with the kernel's
    hand-off at 1 and out of reach, at thresholds 1 to 4 and history
    capacities 4 and 8192."""
    for seq in LEI_WORKED:
        for threshold in range(1, 5):
            trace = Trace([A, B] * (threshold + 1) + seq * 3,
                          [4] * (2 * threshold + 2 + 3 * len(seq)))
            for capacity in (4, 8192):
                config = SimulationConfig(rft=RFTConfig("lei", threshold=threshold,
                                                        history_capacity=capacity),
                                          collect_dump=True)
                expected = naive_run(trace, config).dump()
                assert expected["regions"][0]["recorded_states"] == [1, 2]
                for handoff in (1, HUGE):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(automaton, "_HANDOFF", handoff)
                        dump = run_simulation(trace, config).dump
                    assert dump == expected, (seq, threshold, capacity, handoff)


@pytest.mark.parametrize("handoff", [1, HUGE], ids=["handoff-1", "handoff-huge"])
def test_history_run_across_a_replay_chunk_boundary(tmp_path, monkeypatch, handoff):
    """lei over a trace file read 6 items at a time: a loop of four
    instructions gets hot at item 8, in the third chunk, and its window,
    items 4 to 7, spans the first chunk boundary; the pushes up to it are
    one run across both boundaries.  Then the loop runs natively, and the
    exits after it push their landings' followers."""
    monkeypatch.setattr(trace_io, "_REPLAY_CHUNK", 6)
    monkeypatch.setattr(automaton, "_HANDOFF", handoff)
    loop = [0x100, 0x104, 0x108, 0x10C]
    addrs = loop * 6 + [0x200, 0x204] + loop * 2 + [0x300, 0x304, 0x308]
    trace = Trace(addrs, [4] * len(addrs))
    path = tmp_path / "lei.rtr"
    write_trace(path, trace)
    managers = []

    def kept(config):
        managers.append(make_rft(config))
        return managers[-1]
    monkeypatch.setattr(engine, "make_rft", kept)
    config = SimulationConfig(rft=RFTConfig("lei", threshold=2), collect_dump=True)
    with TraceFile(path) as source:
        dump = run_simulation(source, config).dump
    assert dump == naive_run(trace, config).dump()
    assert dump["regions"][0]["recorded_states"] == [1, 2, 3, 4]
    # items 0 to 8 pushed in one run; the landing 0x200 at item 24, the
    # first of its chunk, is not pushed, and its follower 0x204 and the
    # entry 0x100 after it are; so are 0x304 and 0x308 after the landing
    # 0x300, the last across the last chunk boundary
    history = managers[0].exit_counts
    assert history.runs == [(0, 0), (9, 25), (11, 35)]
    assert lei_history(history, addrs) == [0x100, 0x204, 0x100, 0x304, 0x308]


# --- the kernel against the literal model, stateful ---------------------------

POOL = [0x100 + 4 * k for k in range(12)]


class KernelMachine(RuleBasedStateMachine):
    """Interleaves region installs with kernel calls over streams that
    follow the installed recordings: whole, cut short, entered mid-chain,
    looping back to the head while a traversal is open, leaving for the
    interpreter for one item, or leaving for a run of ``COLD`` ids, which
    no region holds.  Some calls hand the kernel a manager's counts and a
    threshold; the model counts each region-exit follower and each
    backward branch taken interpreter-side literally.  Others hand it
    lei's history, pushed as lei's scan and kernel push it, against the
    reference lei manager, whose emissions lei's scan must make too.  The
    calls over a stream whose length is a multiple of 3 hand off to the
    numpy pass after 1 or 2 items, the others after the default number."""

    def __init__(self):
        super().__init__()
        self.auto = identity_automaton(MemoAutomaton)
        self.model = LiteralAutomaton()
        self.recordings: list[list[int]] = []
        # the kernel's counts by id, an id's count 0 until written
        self.counts = id_counts()
        self.model_counts: dict[int, int] = {}
        # lei over the concatenated lei streams, ``lei_items``, which its
        # emissions read back
        self.lei_items: list[int] = []
        self.lei = make_rft(RFTConfig("lei", history_capacity=LEI_CAPACITY))
        self.lei.begin(SimpleNamespace(read=lambda lo, hi: SimpleNamespace(
            _ids=self.lei_items[lo:hi], sizes=[4] * (hi - lo))), 0, 0, self.auto.held)
        self.lei_model = make_reference(RFTConfig("lei", history_capacity=LEI_CAPACITY))
        self.lei_hot_stops = 0

    @initialize(n=st.integers(1, 12), data=st.data())
    def install_first(self, n, data):
        self.install(n, data)

    @precondition(lambda self: len(self.recordings) < 4)
    @rule(n=st.integers(1, 12), data=st.data())
    def install(self, n, data):
        addrs = data.draw(st.lists(st.sampled_from(POOL), min_size=n, max_size=n))
        recording = [(a, 4) for a in addrs]
        rest = [a for a in POOL if a not in addrs]
        members = data.draw(st.lists(st.sampled_from(rest), unique=True, max_size=3)
                            if rest else st.just([]))
        inside = addrs + members
        # the engine passes successors only along with expansion members
        successors = data.draw(st.dictionaries(
            st.sampled_from(inside), st.lists(st.sampled_from(inside), min_size=1,
                                              max_size=2))) if members else {}
        expansion = [(a, 4) for a in members]
        self.auto.append_region(recording, expansion, successors)
        self.model.append(recording, expansion, successors)
        self.recordings.append(addrs)

    @rule(data=st.data())
    def run(self, data):
        self.stream(data, None, 1)

    @rule(data=st.data(), threshold=st.integers(1, 4))
    def run_counting(self, data, threshold):
        self.stream(data, self.counts, threshold)

    @rule(data=st.data(), threshold=st.integers(1, 4))
    def run_lei(self, data, threshold):
        self.stream(data, self.lei.exit_counts, threshold)

    def stream(self, data, counts, threshold):
        seq = []
        for _ in range(data.draw(st.integers(1, 4))):
            rec = data.draw(st.sampled_from(self.recordings))
            shape = data.draw(st.sampled_from(["whole"] * 3 + ["cut", "mid", "loop", "exit",
                                                                "cold", "other"]))
            k = data.draw(st.integers(1, len(rec)))
            if shape == "whole":
                seq += rec * data.draw(st.integers(1, 3))
            elif shape == "cut":
                seq += rec[:k]
            elif shape == "mid":
                seq += rec[k - 1:]
            elif shape == "loop":
                seq += rec[:k] + rec
            elif shape == "exit":
                # leaves for the interpreter, then usually re-enters a region
                seq += rec[:k] + [0x900]
            elif shape == "cold":
                # a run the kernel profiles, item by item or in its pass
                seq += rec[:k] + data.draw(st.lists(st.sampled_from(COLD), min_size=2,
                                                    max_size=6))
            else:
                seq += data.draw(st.lists(st.sampled_from(POOL + [0x900]), min_size=1,
                                          max_size=3))
        # the kernel's calls sometimes stop at a window end inside the stream
        cut = data.draw(st.one_of(st.just(len(seq)), st.integers(1, len(seq))))
        sizes = [4] * len(seq)
        handoff = 1 + len(seq) % 2 if len(seq) % 3 == 0 else automaton._HANDOFF
        lei = counts is self.lei.exit_counts
        if lei:
            self.lei._threshold = threshold
            self.lei_model.config = replace(self.lei_model.config, threshold=threshold)
            self.lei.attach(SimpleNamespace(_ids=seq, sizes=array("q", sizes)),
                            len(self.lei_items))
            self.lei_items += seq
        i = 0
        for end in (cut, len(seq)):
            while i < end:
                if lei:
                    # on the interpreter state, lei's scan pushes item i
                    # alone, and emits if the push is hot
                    h = i
                    if self.model.cursor == 0:
                        region = self.lei_model.handle(None, (seq[i], 4), SI)
                        assert self.lei.scan(i, end, None) == (i, region and (region,))
                else:
                    # a gap credited to the interpreter starts on the
                    # interpreter state and holds no held address
                    gap = i
                    if self.model.cursor == 0:
                        while gap < end - 1 and seq[gap] not in self.model.address:
                            gap += 1
                    h = data.draw(st.integers(i, gap))
                for stop in range(i, h):
                    assert self.model.step(seq[stop]) == SI
                kind = self.model.step(seq[h])
                stop = h + 1
                while stop < end:
                    if lei:
                        if kind in (SI, N2I):
                            # pushed after an interpreter-side item, and
                            # left unwritten when hot
                            a = seq[stop]
                            if (self.lei_model.hist.find(a) is not None
                                    and self.lei_model.hot.get(a, 0) + 1 >= threshold):
                                self.lei_hot_stops += 1
                                break
                            assert self.lei_model.handle(None, (a, 4), kind) is None
                    elif counts is None:
                        if kind not in (I2N, SN, N2N):
                            break
                    elif kind == N2I or (kind == SI and seq[stop] < seq[stop - 1]):
                        # a region exit's follower, or a backward branch
                        # taken interpreter-side: counted, and stepped in
                        # the same call below the threshold
                        c = self.model_counts.get(seq[stop], 0) + 1
                        if c >= threshold:
                            break
                        self.model_counts[seq[stop]] = c
                    kind = self.model.step(seq[stop])
                    stop += 1
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(automaton, "_HANDOFF", handoff)
                    next_i, got = self.auto.run_native_stretch(seq, sizes, i, end, h,
                                                               counts, threshold)
                assert next_i == stop
                assert got == model_prev(kind, seq, stop)
                i = stop

    @invariant()
    def dumps_agree(self):
        assert self.auto.dump() == self.model.dump()

    @invariant()
    def counts_agree(self):
        assert nonzero(self.counts) == self.model_counts

    @invariant()
    def history_agrees(self):
        history, model = self.lei.exit_counts, self.lei_model
        assert history.pos == model.hist._pushed
        assert lei_history(history, self.lei_items) == list(model.hist._buf)
        assert nonzero(history.counts) == {a: c for a, c in model.hot.items() if c}

    @invariant()
    def completions_within_head_executions(self):
        for r in self.auto.all_region_stats():
            assert r.completed_traversals <= r.head_executions


def test_kernel_stateful_matches_literal_model(monkeypatch):
    hits = []
    passed = []
    counted = []
    # per run, the bumps of COLD ids, and those the numpy pass made
    cold = []
    cold_in_pass = [0]
    profile = automaton._profile

    def logged(ids, off, alone, p, above, counts, threshold):
        before = int(counts[COLD].sum())
        result = profile(ids, off, alone, p, above, counts, threshold)
        cold_in_pass[0] += int(counts[COLD].sum()) - before
        return result
    monkeypatch.setattr(automaton, "_profile", logged)
    # per run, lei's pushes, its hot pushes the kernel stopped at, and the
    # pushes the numpy pass made
    lei = []
    pushed_in_pass = [0]
    push = automaton._push

    def pushed(ids, off, alone, at, p, above, history, threshold):
        before = history.pos
        result = push(ids, off, alone, at, p, above, history, threshold)
        pushed_in_pass[0] += history.pos - before
        return result
    monkeypatch.setattr(automaton, "_push", pushed)

    class Machine(KernelMachine):
        def teardown(self):
            hits.append(self.auto.hits)
            passed.append(self.auto.passed)
            counted.append(sum(self.model_counts.values()))
            cold.append((sum(self.model_counts.get(a, 0) for a in COLD), cold_in_pass[0]))
            cold_in_pass[0] = 0
            lei.append((self.lei.exit_counts.pos, self.lei_hot_stops, pushed_in_pass[0]))
            pushed_in_pass[0] = 0

    run_state_machine_as_test(Machine, settings=settings(
        max_examples=120, stateful_step_count=15, deadline=None, derandomize=True,
        database=None))
    # walks were stepped in one go along a memo in many runs, the numpy
    # pass stepped items in many, and the kernel counted and stepped past
    # region-exit followers in many; ids no region holds were bumped by
    # the kernel's per-item loop in many runs and by its pass in many
    assert sum(1 for h in hits if h) >= 10
    assert sum(1 for p in passed if p) >= 10
    assert sum(1 for c in counted if c) >= 10
    assert sum(1 for c, q in cold if c > q) >= 10
    assert sum(1 for _, q in cold if q) >= 10
    # lei pushed in many runs, in the numpy pass in many, and the kernel
    # stopped at a hot push in many
    assert sum(1 for n, _, _ in lei if n) >= 10
    assert sum(1 for _, _, q in lei if q) >= 10
    assert sum(1 for _, s, _ in lei if s) >= 10
