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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, Optional, Sequence

NTE_STATE = 0


class TransitionKind(IntEnum):
    """Classification of one consumed instruction by source/target side."""

    STAYED_INTERP = 0
    INTERP_TO_NATIVE = 1
    NATIVE_TO_INTERP = 2
    STAYED_NATIVE = 3
    NATIVE_TO_NATIVE = 4


_K = (TransitionKind.STAYED_INTERP, TransitionKind.INTERP_TO_NATIVE,
      TransitionKind.NATIVE_TO_INTERP, TransitionKind.STAYED_NATIVE,
      TransitionKind.NATIVE_TO_NATIVE)


class Region:
    """A formed region: its states plus raw execution counters.

    ``states`` lists the linearly recorded states in recording order;
    ``expansion_states`` holds states added by look-ahead expansion.  The
    head is the first recorded state and the core tail is the last
    recorded state, expansion or not: a traversal starts when the head
    executes and completes when the core tail executes before control
    leaves the region.
    """

    __slots__ = ("rid", "entry_state", "states", "core_tail_state",
                 "expansion_states", "entry_address", "entries_interp",
                 "entries_native", "dyn_count", "head_execs", "tail_execs",
                 "completions", "in_traversal")

    def __init__(self, rid: int, entry_state: int, states: list[int],
                 core_tail_state: int, expansion_states: list[int],
                 entry_address: int):
        self.rid = rid
        self.entry_state = entry_state
        self.states = states
        self.core_tail_state = core_tail_state
        self.expansion_states = expansion_states
        self.entry_address = entry_address
        self.entries_interp = 0
        self.entries_native = 0
        self.dyn_count = 0
        self.head_execs = 0
        self.tail_execs = 0
        self.completions = 0
        self.in_traversal = False

    @property
    def static_size(self) -> int:
        return len(self.states) + len(self.expansion_states)

    @property
    def entries(self) -> int:
        return self.entries_interp + self.entries_native


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

    @property
    def completion_ratio(self) -> Optional[float]:
        if self.head_executions == 0:
            return None
        return self.completed_traversals / self.head_executions


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
        self._exec: list[int] = [0]
        self._edges: list[dict[int, list[int]]] = [{}]
        self._addr_index: dict[int, list[int]] = {}
        self._regions: list[Region] = []
        self._cur = NTE_STATE
        self._cur_edges = self._edges[0]
        self._cur_owner = -1
        self.total = 0
        self.interp = 0
        self.native = 0
        self.region_transitions = 0

    # -- introspection ------------------------------------------------

    @property
    def num_regions(self) -> int:
        return len(self._regions)

    @property
    def nte_executions(self) -> int:
        return self._exec[0]

    def regions(self) -> Sequence[Region]:
        """Live region objects, creation order.  Treat as read-only."""
        return self._regions

    def state_owner(self, sid: int) -> int:
        """Region id owning a state, or -1 for the interpreter state."""
        return self._owner[sid]

    def state_address(self, sid: int) -> int:
        return self._addr[sid]

    def state_executions(self, sid: int) -> int:
        return self._exec[sid]

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

    def step_addr(self, address: int, size: int) -> TransitionKind:
        """Consume one instruction; returns the transition performed."""
        return _K[self.run_native_stretch((address,), (size,), 0, 1, 0)[1]]

    def bulk_interp(self, count: int) -> None:
        """Attribute ``count`` consecutive interpreter-side instructions at
        once.  Only legal while the cursor sits on the interpreter state
        and no address in the gap is held by any region."""
        if self._cur != NTE_STATE:
            raise RuntimeError("bulk interpreter accounting requires the interpreter state")
        self.total += count
        self.interp += count
        self._exec[0] += count

    def run_native_stretch(self, addrs: Sequence[int], sizes: Sequence[int],
                           i: int, end: int, h: int) -> tuple[int, int]:
        """The stepping kernel: the only code applying the resolution rules.

        Requires ``i <= h < end``.  Credits items ``[i, h)`` to the
        interpreter; when ``h > i`` the cursor must sit on the interpreter
        state and no address in that gap may be held (see ``held``).  Then
        steps from item ``h`` and stops after the first item that falls
        back to the interpreter (rule 3 always ends a call): item ``h``
        alone if it stays interpreter-side, else the NATIVE_TO_INTERP
        landing that ends the native run, or at ``end``.  Returns
        ``(next_i, kind)``, ``kind`` being the transition of the last
        consumed item.

        ``sizes`` is unused: states keep the size they were recorded with.
        The name and the argument order predate the interpreter side; the
        benchmark harness still wraps the kernel under this name.
        """
        interp = h - i
        i = h
        edges_l = self._edges
        exec_l = self._exec
        owner_l = self._owner
        regions = self._regions
        index = self._addr_index
        cur_edges = self._cur_edges
        cur_owner = self._cur_owner
        r = regions[cur_owner] if cur_owner >= 0 else None
        tid = self._cur
        native = 0
        transitions = 0
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
                    interp += 1
                    kind = 0
                    if cur_owner >= 0:
                        r.in_traversal = False
                        tid = NTE_STATE
                        cur_edges = edges_l[0]
                        cur_owner = -1
                        kind = 2
                    break
                # rule 2: an edge to the earliest-created region's state
                tid = cands[0]
                cur_edges[a] = [tid, 1]
            # edges only ever target region states
            exec_l[tid] += 1
            native += 1
            own = owner_l[tid]
            if own == cur_owner:
                kind = 3
            else:
                if cur_owner < 0:
                    kind = 1
                    r = regions[own]
                    r.entries_interp += 1
                else:
                    kind = 4
                    transitions += 1
                    r.in_traversal = False
                    r = regions[own]
                    r.entries_native += 1
                cur_owner = own
            r.dyn_count += 1
            if tid == r.entry_state:
                r.head_execs += 1
                r.in_traversal = True
            if tid == r.core_tail_state:
                r.tail_execs += 1
                if r.in_traversal:
                    r.completions += 1
                    r.in_traversal = False
            cur_edges = edges_l[tid]
            if i >= end:
                break
        self._cur = tid
        self._cur_edges = cur_edges
        self._cur_owner = cur_owner
        self.total += interp + native
        self.interp += interp
        self._exec[0] += interp
        self.native += native
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
            self._exec.append(0)
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
                self._exec.append(0)
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
        region = Region(rid=rid, entry_state=state_ids[0], states=state_ids,
                        core_tail_state=state_ids[-1], expansion_states=exp_ids,
                        entry_address=recorded[0][0])
        self._regions.append(region)
        index = self._addr_index
        for sid in state_ids:
            index.setdefault(addr_l[sid], []).append(sid)
        for sid in exp_ids:
            index.setdefault(addr_l[sid], []).append(sid)
        return rid

    # -- reporting --------------------------------------------------------

    def region_stats(self, rid: int) -> RegionStats:
        if not 0 <= rid < len(self._regions):
            raise KeyError(f"unknown region id {rid}")
        r = self._regions[rid]
        return RegionStats(
            rid=r.rid, entry_address=r.entry_address,
            static_size=r.static_size, recorded_size=len(r.states),
            expansion_size=len(r.expansion_states),
            entries_from_interpreter=r.entries_interp,
            entries_from_native=r.entries_native,
            dynamic_instructions=r.dyn_count,
            head_executions=r.head_execs, tail_executions=r.tail_execs,
            completed_traversals=r.completions)

    def all_region_stats(self) -> list[RegionStats]:
        return [self.region_stats(rid) for rid in range(len(self._regions))]

    def dump(self) -> dict:
        """Deterministic structure of all states, owners, edges and counters.

        Suitable for golden-file comparisons: state ids ascend, edges are
        sorted by key address.
        """
        states = []
        for sid in range(len(self._addr)):
            edges = [[a, tc[0], tc[1]] for a, tc in sorted(self._edges[sid].items())]
            states.append({
                "id": sid,
                "address": None if sid == NTE_STATE else self._addr[sid],
                "size": None if sid == NTE_STATE else self._size[sid],
                "region": None if self._owner[sid] < 0 else self._owner[sid],
                "executions": self._exec[sid],
                "edges": edges,
            })
        regions = []
        for r in self._regions:
            regions.append({
                "id": r.rid,
                "entry_address": r.entry_address,
                "entry_state": r.entry_state,
                "core_tail_state": r.core_tail_state,
                "recorded_states": list(r.states),
                "expansion_states": list(r.expansion_states),
                "entries_from_interpreter": r.entries_interp,
                "entries_from_native": r.entries_native,
                "dynamic_instructions": r.dyn_count,
                "head_executions": r.head_execs,
                "tail_executions": r.tail_execs,
                "completed_traversals": r.completions,
            })
        return {
            "total_instructions": self.total,
            "interpreted_instructions": self.interp,
            "native_instructions": self.native,
            "region_transitions": self.region_transitions,
            "states": states,
            "regions": regions,
        }

