"""Executable region automaton.

States correspond to recorded instructions grouped into regions; one
distinguished state (id 0) accounts for every instruction executed outside
any region, i.e. interpreter-side.  The automaton is traversed in trace
order and is lazily extended with new edges; whole regions are appended by
the simulation engine when a region formation technique finishes a
recording.

Transition resolution for an incoming instruction address, in order (one
stepping kernel, ``Automaton.run_native_stretch``, applies these rules):

1. follow the current state's outgoing edge keyed by that address, if any;
2. otherwise, if any region state holds that address, create an edge from
   the current state to the one owned by the earliest-created region and
   follow it;
3. otherwise fall back to the interpreter state (no edge is created).

The same guest address may be materialised in several regions (code
duplication); rule 2 always prefers the earliest-created region,
mirroring an address map that keeps its first translation.

Edges only key addresses that some region state holds, so an item runs
natively exactly when its address is held (``Automaton.held``).  A run of
interpreter-side items therefore ends at its first held address, and the
kernel credits such a run without resolving it item by item.

A region's recorded states have consecutive ids, and each one's chain
edge to the next is keyed by the next recorded address and is never
replaced.  So when the kernel lands on the head of a long enough region
and the next items are the region's recorded addresses in order, rule 1
would follow the chain edges one by one to the core tail: the kernel
steps that whole traversal in one slice comparison instead.  The first
landing that does not match demotes the head, and its region steps item
by item for the rest of the run.

Counters are raw or derived.  The kernel counts only what nothing else
determines: each edge's traversals, ``interp``, region entries, region
transitions, completed traversals and each region's whole traversals
(``Region.full``).  Every native item either follows an edge or creates
one with count 1, edges only target region states, and a whole
traversal follows each of its region's chain edges once, so a chain
edge's count is its edge count plus ``full`` and the edge counts give
the rest at report time: a region state's executions are the sum of its
incoming edge counts, a region's dynamic count sums them over its
recorded and expansion states, its head and tail executions are those of
its entry and core-tail states, the native count is the sum of all edge
counts, and the total is ``interp`` plus that.

Items are not classified by transition kind.  A kernel call ends on the
first item that falls back to the interpreter, and it only tells the
engine whether that item left a region (``kind`` 2) or stayed
interpreter-side (0): a region manager profiles region-exit targets and
backward branches taken interpreter-side, and reads nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

NTE_STATE = 0

# A region's head gets the chain-head mark when its path (the recorded
# addresses after the head) has at least this many addresses.  Stepping a
# whole traversal costs about what stepping three items one by one does
# (a loop replayed through the kernel, Python 3.11 on a 2-core x86 host:
# 850-865 ns per traversal against 290 ns per item), so a path of 1 costs
# 1.46x the per-item time, 2 breaks even, 3 takes 0.75x and 4 takes 0.65x.
# The margin keeps short regions, which hit often, off the slice path.
CHAIN_MIN_PATH = 4


class Region:
    """A formed region: its states plus its raw counters.

    ``states`` lists the linearly recorded states in recording order, with
    consecutive ids; ``expansion_states`` holds states added by look-ahead
    expansion.  ``path`` holds the recorded addresses after the head, so
    a traversal that follows the recording steps exactly ``path``.  The
    head is the first recorded state and the core tail is the last
    recorded state, expansion or not: a traversal starts when the head
    executes and completes when the core tail executes before control
    leaves the region.

    Entries, completions and ``full`` are raw counters.  ``full`` counts
    the traversals the kernel stepped in one go along ``path``; each of
    them followed every chain edge (a recorded state's edge to the next
    recorded state) once without counting it there.  The dynamic count
    (the executions of the recorded and expansion states) and the head and
    tail executions are derived from edge counts plus ``full``
    (``Automaton.all_region_stats``).
    """

    __slots__ = ("rid", "entry_state", "states", "core_tail_state",
                 "expansion_states", "entry_address", "path", "entries_interp",
                 "entries_native", "completions", "full")

    def __init__(self, rid: int, entry_state: int, states: list[int],
                 core_tail_state: int, expansion_states: list[int],
                 entry_address: int, path: list[int]):
        self.rid = rid
        self.entry_state = entry_state
        self.states = states
        self.core_tail_state = core_tail_state
        self.expansion_states = expansion_states
        self.entry_address = entry_address
        self.path = path
        self.entries_interp = 0
        self.entries_native = 0
        self.completions = 0
        self.full = 0

    @property
    def static_size(self) -> int:
        return len(self.states) + len(self.expansion_states)


@dataclass(frozen=True)
class RegionStats:
    """Immutable counter snapshot for one region."""

    rid: int
    entry_address: int
    static_size: int
    recorded_size: int
    expansion_size: int
    entries_from_interpreter: int
    entries_from_native: int
    dynamic_instructions: int
    head_executions: int
    tail_executions: int
    completed_traversals: int

    @property
    def entries(self) -> int:
        return self.entries_from_interpreter + self.entries_from_native


class Automaton:
    """The region automaton plus its global execution counters.

    Mutated by exactly one simulation; never shared while running.
    """

    def __init__(self):
        # State id 0 is the interpreter (no-region) state; its address and
        # size slots are unused.
        self._addr: list[int] = [0]
        self._size: list[int] = [0]
        self._owner: list[int] = [-1]
        # 1 on a region's head, 2 on its core tail, 3 on a state that is both,
        # 5 on a chain head: the head of a region whose path is long enough
        # to try stepping a whole traversal at once (demoted to 1 on a miss)
        self._mark: list[int] = [0]
        self._edges: list[dict[int, list[int]]] = [{}]
        self._addr_index: dict[int, list[int]] = {}
        self._regions: list[Region] = []
        self._cur = NTE_STATE
        self._cur_edges = self._edges[0]
        self._cur_owner = -1
        # a traversal of the current region is open; leaving the region ends it
        self._traversing = False
        self.interp = 0
        self.region_transitions = 0

    # -- introspection ------------------------------------------------

    def _executions(self) -> list[int]:
        """Executions per state id, summed from the edges in one pass, plus
        each region's whole traversals on the states after its head."""
        ex = [0] * len(self._addr)
        for edges in self._edges:
            for t, c in edges.values():
                ex[t] += c
        for r in self._regions:
            if r.full:
                for sid in r.states[1:]:
                    ex[sid] += r.full
        ex[NTE_STATE] = self.interp
        return ex

    @property
    def held(self) -> Mapping[int, list[int]]:
        """The address index: each address some region state holds, mapped
        to those state ids in owning-region creation order.  Read-only.

        An item whose address is not held falls back to the interpreter
        (rule 3), so a region manager scanning an interpreter-side run
        stops at the first held address: that item enters a region.
        """
        return self._addr_index

    # -- stepping -------------------------------------------------------

    # the benchmark harness still wraps this; nothing calls it
    def step_addr(self, *args) -> None: ...

    def bulk_interp(self, count: int) -> None:
        """Attribute ``count`` consecutive interpreter-side instructions at
        once.  Only legal while the cursor sits on the interpreter state
        and no address in the gap is held by any region."""
        if self._cur != NTE_STATE:
            raise RuntimeError("bulk interpreter accounting requires the interpreter state")
        self.interp += count

    def run_native_stretch(self, addrs: Sequence[int], sizes: Sequence[int],
                           i: int, end: int, h: int) -> tuple[int, int]:
        """The stepping kernel: the only code applying the resolution rules.

        Requires ``i <= h < end``.  Credits items ``[i, h)`` to the
        interpreter; when ``h > i`` the cursor must sit on the interpreter
        state and no address in that gap may be held (see ``held``).  Then
        steps from item ``h`` and stops after the first item that falls
        back to the interpreter (rule 3 always ends a call): item ``h``
        alone if it stays interpreter-side, else the landing that leaves
        the region and ends the native run, or at ``end``.  Returns
        ``(next_i, kind)``: ``kind`` is 2 when the call stopped at a landing
        that left a region and 0 otherwise, which is all a manager's
        ``scan`` reads.  Native items get no kind, so ``kind`` means
        nothing when the call reached ``end`` on a native item.

        Per native item it counts the edge traversal, region changes and
        completions only; executions are derived from edge counts.  On
        landing at a chain head (mark 5), it first tests that the path fits
        before ``end`` and that the item where it would end holds the
        path's last address, then compares the next items with the path in
        one slice comparison.  On a hit it books the traversal as one
        ``Region.full`` and one completion and moves to the core tail; on a
        miss it demotes the head to a plain head (mark 1) for the rest of
        the run and steps on item by item.  Both give the counts the rules
        give per item.  ``addrs`` is a list, as ``Trace.addresses`` is: the
        slice comparison tests list equality.
        ``sizes`` is unused: states keep the size they were recorded with.
        The name and the argument order predate the interpreter side; the
        benchmark harness still wraps the kernel under this name.
        """
        self.interp += h - i
        i = h
        edges_l = self._edges
        owner_l = self._owner
        mark_l = self._mark
        regions = self._regions
        index = self._addr_index
        cur_edges = self._cur_edges
        cur_owner = self._cur_owner
        r = regions[cur_owner] if cur_owner >= 0 else None
        traversing = self._traversing
        tid = self._cur
        transitions = 0
        kind = 0
        while True:
            a = addrs[i]
            i += 1
            # rule 1: the current state's edge
            e = cur_edges.get(a)
            if e is not None:
                e[1] += 1
                tid = e[0]
            else:
                cands = index.get(a)
                if cands is None:
                    # rule 3: interpreter fallback, no edge materialised
                    self.interp += 1
                    if cur_owner >= 0:
                        traversing = False
                        tid = NTE_STATE
                        cur_edges = edges_l[0]
                        cur_owner = -1
                        kind = 2
                    break
                # rule 2: an edge to the earliest-created region's state
                tid = cands[0]
                cur_edges[a] = [tid, 1]
            own = owner_l[tid]
            if own != cur_owner:
                r = regions[own]
                if cur_owner < 0:
                    r.entries_interp += 1
                else:
                    transitions += 1
                    traversing = False
                    r.entries_native += 1
                cur_owner = own
            m = mark_l[tid]
            if m:
                if m == 1:
                    traversing = True
                elif m == 5:
                    # a chain head opens a traversal too; when the next items
                    # are its path, rule 1 follows the chain edges to the
                    # core tail, which completes it
                    traversing = True
                    path = r.path
                    j = i + len(path)
                    if j <= end and addrs[j - 1] == path[-1] and addrs[i:j] == path:
                        r.full += 1
                        r.completions += 1
                        traversing = False
                        tid = r.core_tail_state
                        i = j
                    else:
                        mark_l[tid] = 1
                elif traversing or m == 3:
                    r.completions += 1
                    traversing = False
            cur_edges = edges_l[tid]
            if i >= end:
                break
        self._cur = tid
        self._cur_edges = cur_edges
        self._cur_owner = cur_owner
        self._traversing = traversing
        self.region_transitions += transitions
        return i, kind

    # -- growth ---------------------------------------------------------

    def append_region(self, recorded: Sequence[tuple[int, int]],
                      expansion: Sequence[tuple[int, int]] = (),
                      expansion_successors: Optional[Mapping[int, Iterable[int]]] = None,
                      ) -> int:
        """Install a finished recording as a new region; returns its id.

        ``recorded`` is the linear recording, in order, as (address, size)
        pairs; consecutive recorded states are wired with fresh edges.
        ``expansion`` lists additional (address, size) pairs, disjoint from
        the recorded addresses, wired according to ``expansion_successors``
        (address -> successor addresses, all within this region).  The
        cursor does not move.
        """
        if not recorded:
            raise ValueError("empty recording")
        rid = len(self._regions)
        addr_l = self._addr
        by_addr: dict[int, int] = {}
        state_ids: list[int] = []
        for a, s in recorded:
            sid = len(addr_l)
            addr_l.append(a)
            self._size.append(s)
            self._owner.append(rid)
            self._mark.append(0)
            self._edges.append({})
            state_ids.append(sid)
            if a not in by_addr:
                by_addr[a] = sid
        for i in range(len(state_ids) - 1):
            nxt = state_ids[i + 1]
            edges = self._edges[state_ids[i]]
            key = addr_l[nxt]
            if key not in edges:
                edges[key] = [nxt, 0]
        exp_ids: list[int] = []
        if expansion:
            rec_addrs = {a for a, _ in recorded}
            for a, s in expansion:
                if a in rec_addrs:
                    raise ValueError(f"expansion address {a:#x} duplicates the recording")
                if a in by_addr:
                    raise ValueError(f"duplicate expansion address {a:#x}")
                sid = len(addr_l)
                addr_l.append(a)
                self._size.append(s)
                self._owner.append(rid)
                self._mark.append(0)
                self._edges.append({})
                exp_ids.append(sid)
                by_addr[a] = sid
            for src_addr, targets in (expansion_successors or {}).items():
                src_sid = by_addr.get(src_addr)
                if src_sid is None:
                    raise ValueError(f"expansion successor source {src_addr:#x} not in region")
                edges = self._edges[src_sid]
                for t in targets:
                    t_sid = by_addr.get(t)
                    if t_sid is None:
                        raise ValueError(f"expansion successor target {t:#x} not in region")
                    if t not in edges:
                        edges[t] = [t_sid, 0]
        path = [addr_l[sid] for sid in state_ids[1:]]
        region = Region(rid=rid, entry_state=state_ids[0], states=state_ids,
                        core_tail_state=state_ids[-1], expansion_states=exp_ids,
                        entry_address=recorded[0][0], path=path)
        self._regions.append(region)
        self._mark[state_ids[0]] = 5 if len(path) >= CHAIN_MIN_PATH else 1
        self._mark[state_ids[-1]] |= 2
        index = self._addr_index
        for sid in state_ids:
            index.setdefault(addr_l[sid], []).append(sid)
        for sid in exp_ids:
            index.setdefault(addr_l[sid], []).append(sid)
        return rid

    # -- reporting --------------------------------------------------------

    def _stats(self, r: Region, ex: list[int]) -> RegionStats:
        return RegionStats(
            rid=r.rid, entry_address=r.entry_address,
            static_size=r.static_size, recorded_size=len(r.states),
            expansion_size=len(r.expansion_states),
            entries_from_interpreter=r.entries_interp,
            entries_from_native=r.entries_native,
            dynamic_instructions=sum(ex[sid] for sid in r.states)
            + sum(ex[sid] for sid in r.expansion_states),
            head_executions=ex[r.entry_state], tail_executions=ex[r.core_tail_state],
            completed_traversals=r.completions)

    def all_region_stats(self) -> list[RegionStats]:
        ex = self._executions()
        return [self._stats(r, ex) for r in self._regions]

    def dump(self) -> dict:
        """Deterministic structure of all states, owners, edges and counters.

        Suitable for golden-file comparisons: state ids ascend, edges are
        sorted by key address.
        """
        ex = self._executions()
        # a chain edge runs from a recorded state to the next id; a state
        # holds one address, so no other edge of its source targets it
        full = [0] * len(self._addr)
        for r in self._regions:
            for sid in r.states[:-1]:
                full[sid] = r.full
        states = []
        for sid in range(len(self._addr)):
            edges = [[a, t, c + full[sid] if t == sid + 1 else c]
                     for a, (t, c) in sorted(self._edges[sid].items())]
            states.append({
                "id": sid,
                "address": None if sid == NTE_STATE else self._addr[sid],
                "size": None if sid == NTE_STATE else self._size[sid],
                "region": None if self._owner[sid] < 0 else self._owner[sid],
                "executions": ex[sid],
                "edges": edges,
            })
        regions = []
        for r in self._regions:
            st = self._stats(r, ex)
            regions.append({
                "id": r.rid,
                "entry_address": r.entry_address,
                "entry_state": r.entry_state,
                "core_tail_state": r.core_tail_state,
                "recorded_states": list(r.states),
                "expansion_states": list(r.expansion_states),
                "entries_from_interpreter": r.entries_interp,
                "entries_from_native": r.entries_native,
                "dynamic_instructions": st.dynamic_instructions,
                "head_executions": st.head_executions,
                "tail_executions": st.tail_executions,
                "completed_traversals": r.completions,
            })
        return {
            "total_instructions": sum(ex),
            "interpreted_instructions": self.interp,
            "native_instructions": sum(ex) - self.interp,
            "region_transitions": self.region_transitions,
            "states": states,
            "regions": regions,
        }
