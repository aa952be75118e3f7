import random

import pytest

from rftsim.automaton import Automaton, TransitionKind

A, B, C = 0x100, 0x104, 0x108


def step(auto, addr, size=4):
    return auto.step_addr(addr, size)


def interp_state_executions(auto):
    return auto.dump()["states"][0]["executions"]


# --- creation ---------------------------------------------------------------

def test_new_automaton_has_only_interpreter_state():
    auto = Automaton()
    assert auto.dump()["states"] == [{"id": 0, "address": None, "size": None,
                                      "region": None, "executions": 0, "edges": []}]
    assert auto.num_regions == 0
    assert auto.total == 0


def test_fresh_automaton_counters_zero():
    auto = Automaton()
    assert (auto.interp, auto.native, auto.region_transitions) == (0, 0, 0)
    assert interp_state_executions(auto) == 0


# --- step resolution --------------------------------------------------------

def test_unknown_address_stays_interp():
    auto = Automaton()
    assert step(auto, 0xDEAD) is TransitionKind.STAYED_INTERP
    assert auto.interp == 1 and auto.native == 0
    assert interp_state_executions(auto) == 1


def test_entry_into_region_counts_interp_entry():
    auto = Automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    assert step(auto, A) is TransitionKind.INTERP_TO_NATIVE
    stats = auto.region_stats(rid)
    assert stats.entries_from_interpreter == 1
    assert stats.head_executions == 1


def test_side_entry_counts_entry_but_not_head():
    auto = Automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    step(auto, B)
    stats = auto.region_stats(rid)
    assert stats.entries_from_interpreter == 1
    assert stats.head_executions == 0
    # side entry runs to the tail but never completes a traversal
    step(auto, C)
    stats = auto.region_stats(rid)
    assert stats.tail_executions == 1
    assert stats.completed_traversals == 0


def test_internal_back_edge_is_stayed_native():
    auto = Automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    assert step(auto, A) is TransitionKind.INTERP_TO_NATIVE
    assert step(auto, B) is TransitionKind.STAYED_NATIVE
    assert step(auto, C) is TransitionKind.STAYED_NATIVE
    # back edge to the head is created lazily, stays in the region
    assert step(auto, A) is TransitionKind.STAYED_NATIVE
    stats = auto.region_stats(rid)
    assert stats.head_executions == 2
    assert stats.entries_from_interpreter == 1
    assert stats.completed_traversals == 1


def test_region_exit_and_reentry():
    auto = Automaton()
    auto.append_region([(A, 4), (B, 4)])
    step(auto, A)
    assert step(auto, 0x900) is TransitionKind.NATIVE_TO_INTERP
    assert step(auto, A) is TransitionKind.INTERP_TO_NATIVE
    assert auto.region_stats(0).entries_from_interpreter == 2


def test_region_to_region_transition():
    auto = Automaton()
    auto.append_region([(A, 4), (B, 4)])
    auto.append_region([(C, 4)])
    step(auto, A)
    step(auto, B)
    assert step(auto, C) is TransitionKind.NATIVE_TO_NATIVE
    assert auto.region_transitions == 1
    assert auto.region_stats(1).entries_from_native == 1


def test_duplicate_address_resolves_to_earliest_region():
    auto = Automaton()
    auto.append_region([(A, 4), (B, 4)])
    auto.append_region([(A, 4), (C, 4)])
    assert [s["region"] for s in auto.dump()["states"] if s["address"] == A] == [0, 1]
    step(auto, A)
    assert auto.region_stats(0).entries_from_interpreter == 1
    assert auto.region_stats(1).entries_from_interpreter == 0


def test_interrupted_traversal_not_completed():
    auto = Automaton()
    rid = auto.append_region([(A, 4), (B, 4), (C, 4)])
    step(auto, A)
    step(auto, B)
    step(auto, 0x900)  # leaves before the tail
    step(auto, C)      # re-enters at the tail without a head execution
    stats = auto.region_stats(rid)
    assert stats.head_executions == 1
    assert stats.tail_executions == 1
    assert stats.completed_traversals == 0


def test_single_state_region_completes_every_landing():
    auto = Automaton()
    rid = auto.append_region([(A, 4)])
    step(auto, A)
    step(auto, A)
    stats = auto.region_stats(rid)
    assert stats.head_executions == 2
    assert stats.completed_traversals == 2


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


def test_region_stats_unknown_id():
    with pytest.raises(KeyError):
        Automaton().region_stats(0)


def test_region_stats_fresh_region_zeroed():
    auto = Automaton()
    rid = auto.append_region([(A, 4)])
    stats = auto.region_stats(rid)
    assert (stats.entries, stats.dynamic_instructions, stats.head_executions,
            stats.completed_traversals) == (0, 0, 0, 0)


# --- invariants -------------------------------------------------------------

def _check_invariants(auto):
    dump = auto.dump()
    assert auto.interp + auto.native == auto.total
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
    assert sum(r["dynamic_instructions"] for r in dump["regions"]) == auto.native
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
    for _ in range(3000):
        step(auto, rng.choice(addrs + [0x900, 0x904]))
    _check_invariants(auto)


def test_replay_deterministic():
    rng = random.Random(3)
    seq = [rng.choice([A, B, C, 0x200, 0x204]) for _ in range(500)]

    def run():
        auto = Automaton()
        auto.append_region([(A, 4), (B, 4)])
        auto.append_region([(C, 4), (0x200, 4)])
        for a in seq:
            step(auto, a)
        return auto.dump()

    assert run() == run()


def test_bulk_interp_matches_steps():
    auto1 = Automaton()
    auto1.bulk_interp(5)
    auto2 = Automaton()
    for i in range(5):
        step(auto2, 0x500 + 4 * i)
    assert (auto1.total, auto1.interp, interp_state_executions(auto1)) == \
           (auto2.total, auto2.interp, interp_state_executions(auto2))


def test_bulk_interp_requires_interpreter_cursor():
    auto = Automaton()
    auto.append_region([(A, 4)])
    step(auto, A)
    with pytest.raises(RuntimeError):
        auto.bulk_interp(1)


# --- the stepping kernel against a literal model ------------------------------

SI, I2N, N2I, SN, N2N = range(5)


class LiteralAutomaton:
    """The automaton's three resolution rules and counters, written out
    one item at a time from their definitions, sharing no code with
    ``Automaton``.  State 0 is the interpreter; region states are numbered
    in creation order, each region's recording in order."""

    def __init__(self):
        self.address = [None]
        self.size = [None]
        self.region = [None]
        self.executions = [0]
        self.edges = [{}]          # state -> {address: [target, count]}
        self.regions = []
        self.cursor = 0
        self.total = self.interp = self.native = self.transitions = 0

    def append(self, recording, expansion=(), successors=None):
        """Recorded states, then expansion states; each successor edge
        targets the region's first state at that address."""
        rid = len(self.regions)
        first = len(self.address)
        for a, s in list(recording) + list(expansion):
            self.address.append(a)
            self.size.append(s)
            self.region.append(rid)
            self.executions.append(0)
            self.edges.append({})
        ids = list(range(first, first + len(recording)))
        exp_ids = list(range(first + len(recording), len(self.address)))
        for x, y in zip(ids, ids[1:]):
            self.edges[x].setdefault(self.address[y], [y, 0])
        state_of = {}
        for sid in ids + exp_ids:
            state_of.setdefault(self.address[sid], sid)
        for src, targets in (successors or {}).items():
            for t in targets:
                self.edges[state_of[src]].setdefault(t, [state_of[t], 0])
        self.regions.append({
            "id": rid, "entry_address": recording[0][0], "entry_state": ids[0],
            "core_tail_state": ids[-1], "recorded_states": ids,
            "expansion_states": exp_ids, "entries_from_interpreter": 0,
            "entries_from_native": 0, "dynamic_instructions": 0,
            "head_executions": 0, "tail_executions": 0,
            "completed_traversals": 0, "in_traversal": False})

    def step(self, a):
        """Consume one item; returns its transition kind."""
        src = self.cursor
        edge = self.edges[src].get(a)
        if edge is None:
            holders = [(self.region[sid], sid) for sid in range(1, len(self.address))
                       if self.address[sid] == a]
            if holders:
                # rule 2: the earliest-created region's (first) state
                edge = self.edges[src][a] = [min(holders)[1], 0]
        target = 0 if edge is None else edge[0]   # rule 3 when no edge
        if edge is not None:
            edge[1] += 1
        self.total += 1
        self.executions[target] += 1
        self.cursor = target
        left = None if self.region[src] is None else self.regions[self.region[src]]
        if target == 0:
            self.interp += 1
            if left is None:
                return SI
            left["in_traversal"] = False
            return N2I
        self.native += 1
        r = self.regions[self.region[target]]
        r["dynamic_instructions"] += 1
        if left is None:
            kind = I2N
            r["entries_from_interpreter"] += 1
        elif left is r:
            kind = SN
        else:
            kind = N2N
            self.transitions += 1
            r["entries_from_native"] += 1
            left["in_traversal"] = False
        if target == r["entry_state"]:
            r["head_executions"] += 1
            r["in_traversal"] = True
        if target == r["core_tail_state"]:
            r["tail_executions"] += 1
            if r["in_traversal"]:
                r["completed_traversals"] += 1
                r["in_traversal"] = False
        return kind

    def dump(self):
        states = [{"id": sid, "address": self.address[sid], "size": self.size[sid],
                   "region": self.region[sid], "executions": self.executions[sid],
                   "edges": [[a, t, c] for a, (t, c) in sorted(self.edges[sid].items())]}
                  for sid in range(len(self.address))]
        regions = [{k: v for k, v in r.items() if k != "in_traversal"}
                   for r in self.regions]
        return {"total_instructions": self.total,
                "interpreted_instructions": self.interp,
                "native_instructions": self.native,
                "region_transitions": self.transitions,
                "states": states, "regions": regions}


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
                assert auto.run_native_stretch(seq, sizes, i, hi, h) == (stop, kind), \
                    (case, i, h)
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
                assert auto.run_native_stretch(seq, sizes, i, hi, h) == (stop, kind), \
                    (case, i, h)
                i = stop
        assert auto.dump() == model.dump(), case
    assert expanded > 300
