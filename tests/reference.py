"""Per-item reference model of the region automaton and the six region
managers.

``LiteralAutomaton`` steps one item at a time through the automaton's
three resolution rules and keeps every counter as it happens, and
classifies each item by one of the five transition kinds below.  Each
manager here is called once for every consumed item, with the item
before it and the kind of that item, and follows its technique's
definition literally: the README table, NET after Dynamo (Bala,
Duesterwald, Banerjia, PLDI 2000) and LEI after Hiniker, Hazelwood and
Smith (MICRO 2005).  Items are ``(address, size)`` tuples.  Nothing here
shares code with the library's kernel or with its managers, whose
``scan`` consumes a whole interpreter-side run in one call; the tests
compare the two.  ``netplus`` and ``netplus-e-r`` record as ``net`` and
``net-r``: their look-ahead runs in the library's emit-time ``complete``
hook, which ``tests/test_flow_map.py`` and A5 check on their own.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence

from rftsim import RegionRecording, RFTConfig

Item = tuple[int, int]

# the transition kind of one consumed item, by source and target side;
# the library's kernel reports SI and N2I with these values
SI, I2N, N2I, SN, N2N = range(5)


class LiteralAutomaton:
    """The automaton's three resolution rules and counters, written out
    one item at a time from their definitions.  State 0 is the
    interpreter; region states are numbered in creation order, each
    region's recording in order."""

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


def was_backward_branch(last: Optional[Item], current: Item) -> bool:
    """True iff flow from ``last`` to ``current`` is a taken backward branch.

    Backward means non-sequential (``current.address != last.address +
    last.size``) and targeting a lower address.  With sizes >= 1 the
    address comparison alone implies non-sequential flow; both clauses are
    kept for traces that violate the size invariant.
    """
    if last is None:
        return False
    return current[0] != last[0] + last[1] and current[0] < last[0]


def netr_stop_condition(recording: Sequence[Item], current: Item,
                        kind: int, max_region_size: int) -> bool:
    """Relaxed stop test: a repeated address (cycle), the size cap, or
    entry into an existing region ends the recording; backward branches do
    not."""
    if kind == I2N:
        return True
    if len(recording) >= max_region_size:
        return True
    return any(a == current[0] for a, _ in recording)


def intersect(pass1: Sequence[tuple[int, int]],
              pass2: Sequence[tuple[int, int]]) -> RegionRecording:
    """Pass-1 elements, in pass-1 order, whose address pass 2 recorded."""
    kept = {a for a, _ in pass2}
    return RegionRecording([(a, s) for a, s in pass1 if a in kept])


class HistoryBuffer:
    """Bounded history of addresses with O(1) most-recent-occurrence
    lookup.  Positions are global (monotonically increasing over the whole
    run), so callers can hold one across pushes."""

    __slots__ = ("capacity", "_buf", "_pushed", "_last_pos")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buf: deque[int] = deque()
        self._pushed = 0
        self._last_pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._buf)

    def __contains__(self, address: int) -> bool:
        return address in self._last_pos

    def find(self, address: int) -> Optional[int]:
        """Most recent buffered occurrence of ``address``, or None."""
        return self._last_pos.get(address)

    def observe(self, address: int) -> Optional[int]:
        """Report the most recent buffered occurrence of ``address`` (or
        None), then push it, evicting the oldest entry when full."""
        prior = self._last_pos.get(address)
        buf = self._buf
        if len(buf) == self.capacity:
            base = self._pushed - len(buf)
            evicted = buf.popleft()
            if self._last_pos.get(evicted) == base:
                del self._last_pos[evicted]
        buf.append(address)
        self._last_pos[address] = self._pushed
        self._pushed += 1
        return prior

    def slice_to_newest(self, position: int, include_newest: bool = False) -> list[int]:
        """Buffered addresses from a global position (inclusive) up to the
        newest entry (excluded by default)."""
        base = self._pushed - len(self._buf)
        if position < base:
            raise ValueError("position already evicted")
        items = list(self._buf)
        end = len(items) if include_newest else len(items) - 1
        return items[position - base:end]

    def clear(self) -> None:
        self._buf.clear()
        self._last_pos.clear()


class Net:
    """net: profile interpreter-side backward-branch targets and region-exit
    targets; from a hot one, record until a backward branch, a region
    entry or the size cap, the stopping item excluded."""

    def __init__(self, config: RFTConfig):
        self.config = config
        self.hot: dict[int, int] = {}
        self.recording: Optional[list[tuple[int, int]]] = None

    def stops(self, last, current, kind) -> bool:
        return (kind == I2N or was_backward_branch(last, current)
                or len(self.recording) >= self.config.max_region_size)

    def handle(self, last, current, kind) -> Optional[RegionRecording]:
        if self.recording is not None:
            if self.stops(last, current, kind):
                done, self.recording = self.recording, None
                return RegionRecording(done)
            self.recording.append(tuple(current))
            return None
        if (kind == SI and was_backward_branch(last, current)) or kind == N2I:
            self.hot[current[0]] = self.hot.get(current[0], 0) + 1
            if self.hot[current[0]] >= self.config.threshold:
                self.hot[current[0]] = 0
                self.recording = [tuple(current)]
        return None


class NetR(Net):
    """net-r: net whose recording stops on a repeated address instead of a
    backward branch."""

    def stops(self, last, current, kind) -> bool:
        return netr_stop_condition(self.recording, current, kind,
                                   self.config.max_region_size)


class Mret2:
    """mret2: net profiling, then two recording passes from the same entry;
    the second starts at the next interpreter-side execution of the entry
    and the pass-1 elements pass 2 also recorded are emitted."""

    def __init__(self, config: RFTConfig):
        self.config = config
        self.hot: dict[int, int] = {}
        self.state = "idle"
        self.recording: list[tuple[int, int]] = []
        self.pass1: list[tuple[int, int]] = []

    def stops(self, last, current, kind) -> bool:
        return (kind == I2N or was_backward_branch(last, current)
                or len(self.recording) >= self.config.max_region_size)

    def handle(self, last, current, kind) -> Optional[RegionRecording]:
        interp_side = kind in (SI, N2I)
        if self.state == "idle":
            if (kind == SI and was_backward_branch(last, current)) or kind == N2I:
                self.hot[current[0]] = self.hot.get(current[0], 0) + 1
                if self.hot[current[0]] >= self.config.threshold:
                    self.hot[current[0]] = 0
                    self.state = "pass1"
                    self.recording = [tuple(current)]
            return None
        if self.state == "pass1":
            if self.stops(last, current, kind):
                self.pass1, self.recording = self.recording, []
                if current[0] == self.pass1[0][0] and interp_side:
                    self.state = "pass2"
                    self.recording = [tuple(current)]
                else:
                    self.state = "armed"
            else:
                self.recording.append(tuple(current))
            return None
        if self.state == "armed":
            if current[0] == self.pass1[0][0] and interp_side:
                self.state = "pass2"
                self.recording = [tuple(current)]
            return None
        if self.stops(last, current, kind):
            self.state = "idle"
            return intersect(self.pass1, self.recording)
        self.recording.append(tuple(current))
        return None


class Lei:
    """lei: push every interpreter-side item through a bounded history; a
    repeated address is a cycle and bumps its hotness; a hot cycle emits
    the history from its previous occurrence on, each address kept at its
    last occurrence, capped, and the history restarts."""

    def __init__(self, config: RFTConfig):
        self.config = config
        self.hist = HistoryBuffer(config.history_capacity)
        self.hot: dict[int, int] = {}
        self.size: dict[int, int] = {}

    def handle(self, last, current, kind) -> Optional[RegionRecording]:
        if kind not in (SI, N2I):
            return None
        a = current[0]
        self.size[a] = current[1]
        prior = self.hist.find(a)
        if prior is not None:
            self.hot[a] = self.hot.get(a, 0) + 1
            if self.hot[a] >= self.config.threshold:
                self.hot[a] = 0
                window = self.hist.slice_to_newest(prior, include_newest=True)
                self.hist.clear()
                self.hist.observe(a)
                final = {x: j for j, x in enumerate(window)}
                kept = [x for j, x in enumerate(window) if final[x] == j]
                kept = kept[: self.config.max_region_size]
                return RegionRecording([(x, self.size[x]) for x in kept])
        self.hist.observe(a)
        return None


_REFERENCES = {"net": Net, "netplus": Net, "net-r": NetR, "netplus-e-r": NetR,
               "mret2": Mret2, "lei": Lei}


def make_reference(config: RFTConfig):
    return _REFERENCES[config.technique](config)


def held_addresses(recording: RegionRecording) -> list[int]:
    """Addresses an installed recording adds to the automaton."""
    members = recording.expansion.members if recording.expansion else ()
    return [a for a, _ in list(recording.items) + list(members)]


def reference_run(manager, addrs: Sequence[int], sizes: Sequence[int], held,
                  complete: Optional[Callable] = None) -> list[tuple]:
    """Drive a per-item manager over a window in which, as in the
    automaton, an item runs natively exactly when its address is held;
    each emission, passed through ``complete`` if given, is installed
    (its addresses join ``held``) before the emitting item steps.

    Returns ``(index, recording, entered)`` per emission, ``entered``
    telling an emission on the item after a region entry."""
    held = set(held)
    out = []
    last = None
    kind = SI
    native = False
    for i, (a, s) in enumerate(zip(addrs, sizes)):
        current = (a, s)
        rec = manager.handle(last, current, kind)
        if rec is not None:
            if complete is not None:
                rec = complete(rec, i)
            out.append((i, rec, kind == I2N))
            held.update(held_addresses(rec))
        now = a in held
        kind = (SN if now else N2I) if native else (I2N if now else SI)
        native = now
        last = current
    return out
