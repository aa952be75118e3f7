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

A chain head (the head of a long enough region) keeps a memo of the
last walk the kernel stepped from it item by item: the items after the
landing, up to and including the next landing on that head, or up to the
item that leaves the region.  A walk inside a region only follows or
creates edges inside it, and edges are never replaced, so when the next
items after a landing are the memo's, rule 1 would follow the memo's
edges to its end state: the kernel steps that walk in one slice
comparison instead, and, when the walk came back to the head, compares
again: a loop inside the region costs one comparison per iteration.  A
walk back to the head that misses on that landing alone, as a loop's
last iteration does, is stepped up to it in one go (a cut hit).
A walk shorter than ``CHAIN_MIN_PATH`` is not kept, so a landing is
fruitless when it misses; a head with ``CHAIN_GIVE_UP`` fruitless
landings in a row steps item by item for the rest of the run.

Counters are raw or derived.  The kernel counts only what the edges
cannot give: each edge's traversals, ``interp``, the completed
traversals of regions with two or more recorded states, and each memo's
hits (``Region.hits``).  A hit follows each of its walk's edges as often
as the walk did, and completes a traversal when the walk passed the core
tail, so flushing the hits into those edges and completions
(``Region.flush``, before any report) completes both; a cut hit counts
as a hit and takes its last edge's traversal back at once.  Every native
item either follows an edge or creates one with count 1, and edges only
target region states, so one pass over the edge counts gives the rest
at report time (``Automaton._executions``):

- a region state's executions are the sum of its incoming edge counts;
  a region's dynamic count sums them over its recorded and expansion
  states, and its head and tail executions are those of its entry and
  core-tail states;
- a region's entries from the interpreter are the counts of the
  interpreter state's edges into it, and its entries from native code
  the counts of edges into it from another region's states; the region
  transitions are the sum of the latter;
- a region with one recorded state completes a traversal at every
  execution of that state, so its completions are its head executions;
- the native count is the sum of all edge counts, and the total is
  ``interp`` plus that.

Items are not classified by transition kind.  A kernel call ends on an
item that falls back to the interpreter, and it returns the address the
next item is compared with for a backward branch: that item's own, or
``math.inf`` when it was a landing that left a region, so that a region
manager, which profiles backward branches taken interpreter-side, also
profiles every region-exit target whatever its address.  The kernel is
the only place that encodes that rule.  The item need not be the call's
first fallback: an idle manager may hand the kernel the dict in which it
counts region-exit targets, and its threshold.  When the item after a
landing that leaves a region is held, and so enters a region at once,
the kernel then bumps its count and steps on, unless the count reaches
the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

NTE_STATE = 0

# A region's head gets the chain-head mark when the region has more than
# this many recorded states, and a chain head keeps a walk as its memo
# only when the walk has at least this many items.  Stepping a walk in
# one slice costs about what stepping three items one by one does (a
# loop replayed through the kernel, Python 3.11 on a 2-core x86 host:
# 850-865 ns per walk against 290 ns per item), so a walk of 1 costs
# 1.46x the per-item time, 2 breaks even, 3 takes 0.75x and 4 takes
# 0.65x.  The margin keeps short walks, which hit often, off the slice
# path.
CHAIN_MIN_PATH = 4
# fruitless landings in a row that give a chain head up; items a memo keeps
CHAIN_GIVE_UP = 3
WALK_CAP = 1024


class Region:
    """A formed region: its states, its completions and its head's memo.

    ``states`` lists the linearly recorded states in recording order, with
    consecutive ids; ``expansion_states`` holds states added by look-ahead
    expansion.  The head is the first recorded state and the core tail is
    the last recorded state, expansion or not: a traversal starts when the
    head executes and completes when the core tail executes before control
    leaves the region.

    ``completions`` is a raw counter, kept only when the region has two or
    more recorded states: one state completes at each execution of it.  A
    chain head's memo is ``walk``, the items of the last walk the kernel
    stepped from the head item by item; ``walk_edges``, the edges it
    followed, in order; ``walk_end``, the state it ended on (the head's,
    for a walk back to it); and ``walk_closes``, whether it passed the core
    tail, closing the traversal the landing opened.  ``hits`` counts the
    walks stepped in one go along the memo since the last ``flush``, and
    ``misses`` the head's fruitless landings in a row.  Completions, the
    dynamic count (the executions of the recorded and expansion states)
    and the head and tail executions are complete once the hits are
    flushed (``Automaton.all_region_stats``).
    """

    __slots__ = ("rid", "entry_state", "states", "core_tail_state",
                 "expansion_states", "entry_address", "completions", "walk",
                 "walk_edges", "walk_end", "walk_closes", "hits", "misses")

    def __init__(self, rid: int, entry_state: int, states: list[int],
                 core_tail_state: int, expansion_states: list[int],
                 entry_address: int):
        self.rid = rid
        self.entry_state = entry_state
        self.states = states
        self.core_tail_state = core_tail_state
        self.expansion_states = expansion_states
        self.entry_address = entry_address
        self.completions = 0
        # no memo yet: a walk no item matches
        self.walk: list = [None]
        self.walk_edges: list[list[int]] = []
        self.walk_end = -1
        self.walk_closes = False
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Add the memo's hits to the edges its walk followed, and to the
        completions if it passed the core tail; idempotent."""
        for e in self.walk_edges:
            e[1] += self.hits
        if self.walk_closes:
            self.completions += self.hits
        self.hits = 0

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
        # 1 on a region's head, 2 on its core tail, 5 on a chain head: the
        # head of a region long enough to try stepping its memo's walk at
        # once (1 once the head is given up); none in a region with one
        # recorded state, whose completions are its head executions
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

    # -- introspection ------------------------------------------------

    def _executions(self) -> tuple[list[int], list[int], list[int]]:
        """Executions per state id, and each region's entries from the
        interpreter and from native code, summed from the edges in one pass
        once every memo's hits are flushed into them."""
        for r in self._regions:
            r.flush()
        owner = self._owner
        ex = [0] * len(owner)
        from_interp = [0] * len(self._regions)
        from_native = [0] * len(self._regions)
        for o, edges in zip(owner, self._edges):
            for t, c in edges.values():
                ex[t] += c
                if owner[t] != o:
                    (from_native if o >= 0 else from_interp)[owner[t]] += c
        ex[NTE_STATE] = self.interp
        return ex, from_interp, from_native

    @property
    def region_transitions(self) -> int:
        """Items that moved from one region's state to another region's: the
        region entries from native code."""
        return sum(self._executions()[2])

    @property
    def held(self) -> Mapping[int, list[int]]:
        """The address index: each address some region state holds, mapped
        to those state ids in owning-region creation order.  Read-only.

        An item whose address is not held falls back to the interpreter
        (rule 3), so a region manager scanning an interpreter-side run
        stops at the first held address: that item enters a region.
        """
        return self._addr_index

    @property
    def in_region(self) -> bool:
        """The cursor sits on a region state: the last kernel call stopped
        at its ``end`` within a native run, which the next item continues."""
        return self._cur_owner >= 0

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
                           i: int, end: int, h: int,
                           exit_counts: Optional[dict[int, int]] = None,
                           threshold: int = 1) -> tuple[int, float]:
        """The stepping kernel: the only code applying the resolution rules.

        Requires ``i <= h < end``.  Credits items ``[i, h)`` to the
        interpreter; when ``h > i`` the cursor must sit on the interpreter
        state and no address in that gap may be held (see ``held``).  Then
        steps from item ``h`` and stops after an item that falls back to
        the interpreter: item ``h`` alone if it stays interpreter-side,
        else a landing that leaves a region and ends a native run (the
        first one, unless ``exit_counts`` lets it step past some), or at
        ``end``.  Returns ``(next_i, prev)``, ``prev`` being what the next
        scan compares item ``next_i`` with for a backward branch:
        ``math.inf`` when the call stopped at a landing that left a region,
        whose follower is profiled whatever its address, and otherwise
        ``addrs[next_i - 1]``, the last item the call consumed.

        ``exit_counts``, when not None, is the manager's hotness counter
        dict for the items that follow region exits (``RegionManager``'s
        ``exit_counts``), and ``threshold`` its threshold.  After a landing
        that leaves a region, when the follower exists before ``end`` and
        is held, the kernel bumps the follower's count as it reads it:
        below the threshold it stores the count and steps on from the
        follower, which enters a region, in the same call; at the
        threshold it stores nothing and returns at the follower with
        ``prev`` ``math.inf``, so that the scan makes that bump and starts
        a recording.  Either way the counts are those the scan would keep.

        Per native item it counts only the edge traversal and, in a region
        with two or more recorded states, a completion; executions, entries
        and transitions are derived from edge counts.  On
        landing at a chain head (mark 5), when the memo's walk fits before
        ``end``, it compares the next items with the walk in one slice
        comparison.  On a hit it books one ``Region.hits`` and moves to the
        walk's end state, comparing anew when that is the head.  A walk back
        to the head that misses on that landing alone is a hit less the
        traversal of its last edge, to the state before it.  On a miss it
        notes where the walk starts and steps on item by item; the next
        chain-head landing, or the call's return, installs the walk as the
        head's memo (``_keep``).  The ``CHAIN_GIVE_UP``-th fruitless landing
        in a row gives the head up: it becomes a plain head (mark 1) for the
        rest of the run.  Both paths give the counts the rules give per item.
        A walk that would run past ``end`` is neither a hit nor a miss: the
        call steps on item by item, and a walk it steps from a head up to
        ``end`` without leaving the region is not kept, so a chunk's end
        cuts no memo short.
        ``addrs`` is a list of ints or, from the engine, a chunk's
        ``Trace._items``: one iterator reads it, moved past each walk stepped
        in one go, and a memo's walk is a slice of it, so like is compared
        with like.
        ``sizes`` is unused: states keep the size they were recorded with.
        The name and the argument order predate the interpreter side; the
        benchmark harness still wraps the kernel under this name.
        """
        interp = self.interp + h - i
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
        # the start of a walk being stepped item by item from region wr's
        # head, or -1
        ws = -1
        wr = None
        left = False
        it = iter(addrs)
        it.__setstate__(i)
        for a in it:
            if i >= end:
                break
            i += 1
            if left:
                # an exit's follower entering a region at once: count it
                # as the manager's scan would unless it gets hot, else stop
                c = exit_counts.get(a, 0) + 1 if a in index else threshold
                if c >= threshold:
                    i -= 1
                    break
                exit_counts[a] = c
                left = False
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
                    if cur_owner >= 0:
                        tid = NTE_STATE
                        cur_edges = edges_l[0]
                        cur_owner = -1
                        left = True
                        if exit_counts is not None:
                            continue
                    break
                # rule 2: an edge to the earliest-created region's state
                tid = cands[0]
                cur_edges[a] = [tid, 1]
            own = owner_l[tid]
            if own != cur_owner:
                r = regions[own]
                cur_owner = own
                traversing = False
            m = mark_l[tid]
            if m:
                if m == 1:
                    traversing = True
                elif m == 5:
                    # a chain head opens a traversal too, and ends the
                    # walk from it; while the next items are its memo's
                    # walk, rule 1 follows the walk's edges to its end
                    traversing = True
                    if ws >= 0:
                        self._keep(wr, addrs, ws, i)
                        ws = -1
                    w = r.walk
                    at = i
                    while True:
                        j = i + len(w)
                        if j <= end and addrs[i:j] == w:
                            i = j
                            r.hits += 1
                            if r.walk_end == tid:
                                continue  # back on the head: another landing
                            tid = r.walk_end
                        elif r.walk_end == tid and j <= end + 1 and addrs[i:j - 1] == w[:-1]:
                            # the walk up to the landing that would close it
                            i = j - 1
                            r.hits += 1
                            r.walk_edges[-1][1] -= 1
                            tid = r.walk_edges[-2][0]
                        elif j > end:
                            break  # the walk runs past the call's end: no verdict
                        else:
                            r.misses = 1 if i > at else r.misses + 1
                            if r.misses < CHAIN_GIVE_UP:
                                ws = i
                                wr = r
                            else:
                                mark_l[tid] = 1
                            break
                        r.misses = 0
                        traversing = not r.walk_closes
                        break
                    if i > at:
                        it.__setstate__(i)
                elif traversing:
                    r.completions += 1
                    traversing = False
            cur_edges = edges_l[tid]
        if ws >= 0 and cur_owner != wr.rid:
            # a walk still inside its region was cut by the call's end
            self._keep(wr, addrs, ws, i)
        self._cur = tid
        self._cur_edges = cur_edges
        self._cur_owner = cur_owner
        self._traversing = traversing
        self.interp = interp
        return i, math.inf if left else addrs[i - 1]

    def _keep(self, r: Region, addrs: Sequence[int], ws: int, we: int) -> None:
        """Install the walk from ``r``'s head that the kernel stepped item by
        item from ``addrs[ws]``, cut to ``WALK_CAP`` items, as its memo,
        unless it is shorter than ``CHAIN_MIN_PATH``.  The walk ended at the
        item that left ``r``, or at a landing on a chain head,
        ``addrs[we - 1]``, which it keeps when that head is ``r``'s; or it
        left ``r`` before the call's end, ``we``.  Each step followed or created an edge inside ``r`` that is
        never replaced, and the item that left ``r`` followed or created an
        edge out of it or, not being held, has none: so rule 1 from the head
        finds the walk's edges and where it ended."""
        edges_l = self._edges
        owner_l = self._owner
        sid = r.entry_state
        followed = []
        for k in range(ws, min(we, ws + WALK_CAP)):
            e = edges_l[sid].get(addrs[k])
            if e is None or owner_l[e[0]] != r.rid:
                break
            followed.append(e)
            sid = e[0]
        if len(followed) < CHAIN_MIN_PATH:
            return
        r.flush()
        r.walk = addrs[ws:ws + len(followed)]
        r.walk_edges = followed
        r.walk_end = sid
        r.walk_closes = any(e[0] == r.core_tail_state for e in followed)

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
        base = len(addr_l)
        tail = base + len(recorded)  # the first expansion state's id
        items = list(chain(recorded, expansion))
        # each address's first state, and each new state's edges, all made
        # before the automaton changes, so a rejected region leaves nothing
        by_addr: dict[int, int] = {}
        for sid, (a, _) in enumerate(items, start=base):
            if a not in by_addr:
                by_addr[a] = sid
            elif sid >= tail:
                raise ValueError(f"expansion address {a:#x} duplicates the recording"
                                 if by_addr[a] < tail else f"duplicate expansion address {a:#x}")
        new_edges: list[dict[int, list[int]]] = [{} for _ in items]
        for k in range(len(recorded) - 1):
            new_edges[k].setdefault(items[k + 1][0], [base + k + 1, 0])
        if expansion and expansion_successors:
            for src_addr, targets in expansion_successors.items():
                if src_addr not in by_addr:
                    raise ValueError(f"expansion successor source {src_addr:#x} not in region")
                edges = new_edges[by_addr[src_addr] - base]
                for t in targets:
                    if t not in by_addr:
                        raise ValueError(f"expansion successor target {t:#x} not in region")
                    edges.setdefault(t, [by_addr[t], 0])
        addr_l.extend(a for a, _ in items)
        self._size.extend(s for _, s in items)
        self._owner.extend([rid] * len(items))
        self._mark.extend([0] * len(items))
        if len(recorded) > 1:
            self._mark[base] = 5 if len(recorded) > CHAIN_MIN_PATH else 1
            self._mark[tail - 1] = 2
        self._edges.extend(new_edges)
        region = Region(rid=rid, entry_state=base, states=list(range(base, tail)),
                        core_tail_state=tail - 1,
                        expansion_states=list(range(tail, len(addr_l))),
                        entry_address=recorded[0][0])
        self._regions.append(region)
        index = self._addr_index
        for sid in range(base, len(addr_l)):
            index.setdefault(addr_l[sid], []).append(sid)
        return rid

    # -- reporting --------------------------------------------------------

    def _stats(self, r: Region, ex: list[int], from_interp: list[int],
               from_native: list[int]) -> RegionStats:
        head = ex[r.entry_state]
        return RegionStats(
            rid=r.rid, entry_address=r.entry_address,
            static_size=r.static_size, recorded_size=len(r.states),
            expansion_size=len(r.expansion_states),
            entries_from_interpreter=from_interp[r.rid],
            entries_from_native=from_native[r.rid],
            dynamic_instructions=sum(ex[sid] for sid in r.states)
            + sum(ex[sid] for sid in r.expansion_states),
            head_executions=head, tail_executions=ex[r.core_tail_state],
            completed_traversals=head if len(r.states) == 1 else r.completions)

    def all_region_stats(self) -> list[RegionStats]:
        tally = self._executions()
        return [self._stats(r, *tally) for r in self._regions]

    def dump(self) -> dict:
        """Deterministic structure of all states, owners, edges and counters.

        Suitable for golden-file comparisons: state ids ascend, edges are
        sorted by key address.
        """
        tally = self._executions()
        ex = tally[0]
        states = []
        for sid in range(len(self._addr)):
            edges = [[a, t, c] for a, (t, c) in sorted(self._edges[sid].items())]
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
            st = self._stats(r, *tally)
            regions.append({
                "id": r.rid,
                "entry_address": r.entry_address,
                "entry_state": r.entry_state,
                "core_tail_state": r.core_tail_state,
                "recorded_states": list(r.states),
                "expansion_states": list(r.expansion_states),
                "entries_from_interpreter": st.entries_from_interpreter,
                "entries_from_native": st.entries_from_native,
                "dynamic_instructions": st.dynamic_instructions,
                "head_executions": st.head_executions,
                "tail_executions": st.tail_executions,
                "completed_traversals": st.completed_traversals,
            })
        return {
            "total_instructions": sum(ex),
            "interpreted_instructions": self.interp,
            "native_instructions": sum(ex) - self.interp,
            "region_transitions": sum(tally[2]),
            "states": states,
            "regions": regions,
        }
