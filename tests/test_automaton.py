import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule, run_state_machine_as_test)

from conftest import drive
from reference import I2N, N2I, N2N, SI, SN, LiteralAutomaton
from rftsim.automaton import CHAIN_MIN_PATH, Automaton

A, B, C = 0x100, 0x104, 0x108


def step(auto, addr):
    """Step one item; returns the kernel's ``kind``."""
    return drive(auto, [addr])


def stats(auto, rid):
    return auto.all_region_stats()[rid]


def interp_state_executions(auto):
    return auto.dump()["states"][0]["executions"]


# --- creation ---------------------------------------------------------------

def test_new_automaton_has_only_interpreter_state():
    auto = Automaton()
    assert auto.dump()["states"] == [{"id": 0, "address": None, "size": None,
                                      "region": None, "executions": 0, "edges": []}]
    assert auto.dump()["regions"] == []
    assert auto.dump()["total_instructions"] == 0


def test_fresh_automaton_counters_zero():
    auto = Automaton()
    assert (auto.interp, auto.dump()["native_instructions"],
            auto.region_transitions) == (0, 0, 0)
    assert interp_state_executions(auto) == 0


# --- step resolution --------------------------------------------------------

def test_unknown_address_stays_interp():
    auto = Automaton()
    assert step(auto, 0xDEAD) == SI
    assert auto.interp == 1 and auto.dump()["native_instructions"] == 0
    assert interp_state_executions(auto) == 1


def test_entry_into_region_counts_interp_entry():
    auto = Automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    step(auto, A)
    st = stats(auto, rid)
    assert st.entries_from_interpreter == 1
    assert st.head_executions == 1


def test_side_entry_counts_entry_but_not_head():
    auto = Automaton()
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
    auto = Automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    # the back edge to the head is created lazily and stays in the region
    drive(auto, [A, B, C, A])
    st = stats(auto, rid)
    assert st.head_executions == 2
    assert st.entries_from_interpreter == 1
    assert st.completed_traversals == 1
    assert auto.region_transitions == 0


def test_region_exit_and_reentry():
    auto = Automaton()
    auto.append_region([(A, 4), (B, 4)])
    step(auto, A)
    assert step(auto, 0x900) == N2I
    step(auto, A)
    assert stats(auto, 0).entries_from_interpreter == 2


def test_region_to_region_transition():
    auto = Automaton()
    auto.append_region([(A, 4), (B, 4)])
    auto.append_region([(C, 4)])
    drive(auto, [A, B, C])
    assert auto.region_transitions == 1
    assert stats(auto, 1).entries_from_native == 1


def test_duplicate_address_resolves_to_earliest_region():
    auto = Automaton()
    auto.append_region([(A, 4), (B, 4)])
    auto.append_region([(A, 4), (C, 4)])
    assert [s["region"] for s in auto.dump()["states"] if s["address"] == A] == [0, 1]
    step(auto, A)
    assert stats(auto, 0).entries_from_interpreter == 1
    assert stats(auto, 1).entries_from_interpreter == 0


def test_interrupted_traversal_not_completed():
    auto = Automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    # leaves before the tail, then re-enters at the tail without a head
    # execution
    drive(auto, [A, B, 0x900, C])
    st = stats(auto, rid)
    assert st.head_executions == 1
    assert st.tail_executions == 1
    assert st.completed_traversals == 0


def test_single_state_region_completes_every_landing():
    auto = Automaton()
    rid = auto.append_region([(A, 4)])
    drive(auto, [A, A])
    st = stats(auto, rid)
    assert st.head_executions == 2
    assert st.completed_traversals == 2


# --- append_region ----------------------------------------------------------

def test_append_shape():
    auto = Automaton()
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
    auto = Automaton()
    auto.append_region([(A, 4), (B, 4), (C, 4)])
    auto.append_region([(A, 4), (B, 4), (C, 4)])
    owners = [s["region"] for s in auto.dump()["states"] if s["address"] == A]
    assert owners == [0, 1]


def test_append_with_expansion_matches_manual_graph():
    auto = Automaton()
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
        Automaton().append_region([])


def test_append_expansion_overlapping_recording_rejected():
    auto = Automaton()
    with pytest.raises(ValueError, match="duplicates"):
        auto.append_region([(A, 4)], expansion=[(A, 4)], expansion_successors={})


def test_region_stats_fresh_region_zeroed():
    auto = Automaton()
    rid = auto.append_region([(A, 4)])
    st = stats(auto, rid)
    assert (st.entries, st.dynamic_instructions, st.head_executions,
            st.completed_traversals) == (0, 0, 0, 0)


# --- invariants -------------------------------------------------------------

def _check_invariants(auto):
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
    assert (sum(r["entries_from_native"] for r in dump["regions"])
            == auto.region_transitions)
    # address index holds every region state exactly once
    indexed = [sid for addr in {s["address"] for s in dump["states"][1:]}
               for sid in auto.held[addr]]
    assert sorted(indexed) == [s["id"] for s in dump["states"][1:]]


def test_invariants_after_random_walk():
    rng = random.Random(7)
    auto = Automaton()
    addrs = [0x100 + 4 * i for i in range(12)]
    auto.append_region([(addrs[0], 4), (addrs[1], 4)])
    auto.append_region([(addrs[2], 4), (addrs[3], 4), (addrs[4], 4)])
    auto.append_region([(addrs[1], 4)])
    drive(auto, [rng.choice(addrs + [0x900, 0x904]) for _ in range(3000)])
    _check_invariants(auto)


def test_replay_deterministic():
    rng = random.Random(3)
    seq = [rng.choice([A, B, C, 0x200, 0x204]) for _ in range(500)]

    def run():
        auto = Automaton()
        auto.append_region([(A, 4), (B, 4)])
        auto.append_region([(C, 4), (0x200, 4)])
        drive(auto, seq)
        return auto.dump()

    assert run() == run()


def test_bulk_interp_matches_steps():
    auto1 = Automaton()
    auto1.bulk_interp(5)
    auto2 = Automaton()
    drive(auto2, [0x500 + 4 * i for i in range(5)])
    assert (auto1.dump(), auto1.interp) == (auto2.dump(), auto2.interp)


def test_bulk_interp_requires_interpreter_cursor():
    auto = Automaton()
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
        auto = Automaton()
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
                # a call that stopped before the end stopped at an item
                # that fell back to the interpreter
                if stop < hi:
                    assert got == kind, (case, i, h)
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
        auto = Automaton()
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
                # a call that stopped before the end stopped at an item
                # that fell back to the interpreter
                if stop < hi:
                    assert got == kind, (case, i, h)
                i = stop
        assert auto.dump() == model.dump(), case
    assert expanded > 300


# --- whole-traversal steps along a region's recorded chain --------------------

D, E, X = 0x10C, 0x110, 0x900
CHAIN = [A, B, C, D, E]
assert len(CHAIN) - 1 >= CHAIN_MIN_PATH   # the head is a chain head


def run_both(recordings, seq, ends=(None,)):
    """Step ``seq`` through the kernel and through the literal model with
    the same regions installed, the kernel's calls also stopping at each
    of ``ends``; checks the dumps agree and returns the kernel's regions."""
    auto = Automaton()
    model = LiteralAutomaton()
    for rec in recordings:
        auto.append_region([(a, 4) for a in rec])
        model.append([(a, 4) for a in rec])
    sizes = [4] * len(seq)
    i = 0
    for end in ends:
        end = len(seq) if end is None else end
        while i < end:
            i, _ = auto.run_native_stretch(seq, sizes, i, end, i)
    for a in seq:
        model.step(a)
    assert auto.dump() == model.dump()
    return auto._regions


def test_whole_traversal_closes_the_open_traversal():
    # the hit completes the traversal the head opened; the side entry to D
    # that runs on to the tail completes nothing
    (r,) = run_both([CHAIN], [A, B, C, D, E, D, E])
    assert (r.full, r.completions) == (1, 1)


@pytest.mark.parametrize("seq, full", [
    # the first traversal side-exits: the head is demoted, the rest step
    # item by item
    ([A, B, X] + CHAIN * 3, 0),
    # two whole traversals, then a side exit demotes the head
    (CHAIN * 2 + [A, B, X] + CHAIN * 2, 2),
])
def test_side_exit_demotes_chain_head(seq, full):
    (r,) = run_both([CHAIN], seq)
    assert (r.full, r.completions) == (full, seq.count(E))


def test_window_ending_inside_a_traversal():
    # the first call ends two items after the head, so the path cannot
    # match inside it; the traversal completes in the next call
    (r,) = run_both([CHAIN], CHAIN + CHAIN, ends=(3, None))
    assert (r.full, r.completions) == (0, 2)
    # the first traversal is a hit; the call ends inside the second
    (r,) = run_both([CHAIN], CHAIN + CHAIN, ends=(7, None))
    assert (r.full, r.completions) == (1, 2)


@pytest.mark.parametrize("seq, full", [
    ([A, B, A, C, D] * 3, 3),
    # B after the repeated A leaves the chain for an edge back to B
    ([A, B, A, B, A, C, D], 0),
])
def test_recording_with_repeated_address(seq, full):
    (r,) = run_both([[A, B, A, C, D]], seq)
    assert (r.full, r.completions) == (full, 3 if full else 1)


def test_short_region_head_is_not_a_chain_head():
    short = CHAIN[:CHAIN_MIN_PATH]
    (r,) = run_both([short], short * 3)
    assert (r.full, r.completions) == (0, 3)


# --- the kernel against the literal model, stateful ---------------------------

POOL = [0x100 + 4 * k for k in range(12)]


class KernelMachine(RuleBasedStateMachine):
    """Interleaves region installs with kernel calls over streams that
    follow the installed recordings: whole, cut short, entered mid-chain,
    or looping back to the head while a traversal is open."""

    def __init__(self):
        super().__init__()
        self.auto = Automaton()
        self.model = LiteralAutomaton()
        self.recordings: list[list[int]] = []

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
        seq = []
        for _ in range(data.draw(st.integers(1, 4))):
            rec = data.draw(st.sampled_from(self.recordings))
            shape = data.draw(st.sampled_from(["whole"] * 3 + ["cut", "mid", "loop", "other"]))
            k = data.draw(st.integers(1, len(rec)))
            if shape == "whole":
                seq += rec * data.draw(st.integers(1, 3))
            elif shape == "cut":
                seq += rec[:k]
            elif shape == "mid":
                seq += rec[k - 1:]
            elif shape == "loop":
                seq += rec[:k] + rec
            else:
                seq += data.draw(st.lists(st.sampled_from(POOL + [0x900]), min_size=1,
                                          max_size=3))
        # the kernel's calls sometimes stop at a window end inside the stream
        cut = data.draw(st.one_of(st.just(len(seq)), st.integers(1, len(seq))))
        sizes = [4] * len(seq)
        i = 0
        for end in (cut, len(seq)):
            while i < end:
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
                while kind in (I2N, SN, N2N) and stop < end:
                    kind = self.model.step(seq[stop])
                    stop += 1
                next_i, got = self.auto.run_native_stretch(seq, sizes, i, end, h)
                assert next_i == stop
                if stop < end:
                    assert got == kind
                i = stop

    @invariant()
    def dumps_agree(self):
        assert self.auto.dump() == self.model.dump()

    @invariant()
    def completions_within_head_executions(self):
        for r in self.auto.all_region_stats():
            assert r.completed_traversals <= r.head_executions


def test_kernel_stateful_matches_literal_model():
    full = []

    class Machine(KernelMachine):
        def teardown(self):
            full.append(sum(r.full for r in self.auto._regions))

    run_state_machine_as_test(Machine, settings=settings(
        max_examples=60, stateful_step_count=15, deadline=None, derandomize=True,
        database=None))
    # whole traversals were stepped in one go in many runs
    assert sum(1 for f in full if f) >= 10
