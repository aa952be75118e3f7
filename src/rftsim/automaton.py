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

The automaton works on address ids, not on addresses: ``bind(table)``
gives it the sorted table of the trace's distinct addresses, and an id is
an address's index in it (``Trace.table()``).  Ids keep the addresses'
order, so comparing ids decides backward branches as comparing addresses
would, and the address index is an array by id.  Addresses come back only
in ``RegionStats.entry_address``, in ``dump()`` and in error messages.

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

A kernel call that has stepped ``_NATIVE_HANDOFF`` items, one by one or
in walks, hands the rest of its run to a numpy pass (``Automaton._pass``),
which reads the chunk's id column in windows that double in size.  No
region is installed during a call, so the address index and every
edge's target stay fixed while it runs: an item's state is its id's held
state, unless the item follows an exceptional edge, one that
``append_region`` made to a state that is not its id's held state (the
second state of a recording's repeated address, or a look-ahead
expansion's copy of an address an earlier region holds).  Such an edge
runs within one region, from a state that holds the previous item's id,
so only an item whose pair of previous id and id keys one can follow
one; a running flag decides which do when each pair keys one edge, and
the runs of each region's edges decide otherwise (``_resolve``).  Where
the call stops depends on the held states alone: after the first
landing, or at a region-exit follower that is not held or whose count
reaches the threshold, which the grouped running counts of the held
followers find.

Counters are raw or derived.  The kernel counts only what the edges
cannot give: each edge's traversals, ``interp``, the completed
traversals of regions with two or more recorded states, and each memo's
hits (``Region.hits``).  A hit follows each of its walk's edges as often
as the walk did, and completes a traversal when the walk passed the core
tail, so flushing the hits into those edges and completions
(``Region.flush``, before any report) completes both; a cut hit counts
as a hit and takes its last edge's traversal back at once.  The numpy
pass notes each native item's ``(previous state, state)`` code, which
names the edge it followed or rule 2 made, and adds the notes to the
edges every ``_PASS_CHUNK`` items and before any report
(``_count_traversed``); it counts completions from the heads, core tails
and changes of owner among its items, with the open traversal carried
from one window to the next and into the next call.  Every native
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
item that falls back to the interpreter, and it returns the id the next
item is compared with for a backward branch: that item's own, or
``math.inf`` when it was a landing that left a region, so that a region
manager, which profiles backward branches taken interpreter-side, also
profiles every region-exit target whatever its address.  The kernel is
the only place that encodes that rule.  The item need not be the call's
first fallback: an idle manager may hand the kernel the array in which
it counts region-exit targets, and its threshold.  When the item after a
landing that leaves a region is held, and so enters a region at once,
the kernel then bumps its count and steps on, unless the count reaches
the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from array import array
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .trace_io import _grouped, _runs

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
# Items a kernel call steps, one by one or in memo walks, before it hands
# the rest of its run to the numpy pass, and the pass's first window.
# Measured as the time of kernel calls of n items with the hand-off at
# 1024, 2048 and 4096 over their time with no hand-off (Python 3.11,
# numpy 2.4, 2-core x86 host), on a loop through another region's copies,
# which takes exceptional edges and no memo walk (79-83 ns per item with
# no hand-off), on a 20-instruction loop whose exits are counted, whose
# iterations the memo steps (18-19 ns), and on a 50-instruction loop the
# memo steps whole, so that only the items after its last walk reach the
# pass (2-4 ns):
#
#     n        copies             exits              memo loop
#            1024 2048 4096     1024 2048 4096     1024 2048 4096
#     2048   0.82 1.00 1.22     1.44 1.06 0.99     1.67 1.01 1.00
#     4096   0.56 0.71 0.98     1.05 1.02 1.00     1.43 1.43 0.99
#     8192   0.40 0.48 0.66     0.79 0.77 0.84     1.26 1.25 1.25
#     16384  0.36 0.41 0.50     0.63 0.60 0.63     1.16 1.16 1.15
#
# On the benchmark's workloads 2048 was as fast as 1024 on loop-nest and
# slowed graph-walk's net, mret2 and net-r less (1-2% against 2-6%, median
# of five alternating runs); 4096 was 7% slower on loop-nest.
_NATIVE_HANDOFF = 2048
# the pass's largest window and step, bounding its transient arrays to a
# few MB
_PASS_CHUNK = 1 << 16


def _first_true(mask: np.ndarray) -> int:
    """The index of the first true entry of a non-empty ``mask``, or its
    length."""
    k = int(mask.argmax())
    return k if mask[k] else len(mask)


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

    Mutated by exactly one simulation; never shared while running.  A new
    automaton has an empty table: the engine binds it to its trace's table
    (``bind``) before it steps an item or installs a region.
    """

    def __init__(self):
        # State id 0 is the interpreter (no-region) state; its address id
        # and size slots are unused.
        self._addr: list[int] = [0]
        self._size: list[int] = [0]
        self._owner: list[int] = [-1]
        # 1 on a region's head, 2 on its core tail, 5 on a chain head: the
        # head of a region long enough to try stepping its memo's walk at
        # once (1 once the head is given up); none in a region with one
        # recorded state, whose completions are its head executions
        self._mark: list[int] = [0]
        # both again as arrays, which the numpy pass reads in place: the
        # per-item loop reads lists faster
        self._owner_col = array("i", self._owner)
        self._mark_col = array("b", self._mark)
        self._edges: list[dict[int, list[int]]] = [{}]
        self._regions: list[Region] = []
        # the exceptional edges, ``state * m + id`` -> target state for a
        # table of m addresses, and the numpy pass's sorted copy of them
        self._exceptional: dict[int, int] = {}
        self._exceptional_table: Optional[tuple] = None
        # the edge traversals the numpy pass noted, as arrays of codes, and
        # their items; ``_count_traversed`` adds them to the edges
        self._traversed: list[np.ndarray] = []
        self._traversed_items = 0
        self.bind(())
        self._cur = NTE_STATE
        self._cur_edges = self._edges[0]
        self._cur_owner = -1
        # a traversal of the current region is open; leaving the region ends it
        self._traversing = False
        self.interp = 0

    def bind(self, table: Sequence[int]) -> None:
        """Number addresses by ``table``, the sorted distinct addresses of
        the trace to replay (``Trace.table()``): an id is an index into it.
        Call it before the first region is appended."""
        self._table = table
        self._first = array("I", [0]) * len(table)

    # -- introspection ------------------------------------------------

    def _executions(self) -> tuple[list[int], list[int], list[int]]:
        """Executions per state id, and each region's entries from the
        interpreter and from native code, summed from the edges in one pass
        once the numpy pass's notes and every memo's hits are added to
        them."""
        self._count_traversed()
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
    def held(self) -> array:
        """The address index: per id, the first state of the earliest-created
        region that holds it, or 0 (the interpreter state) if no region
        does.  Read-only; numpy reads it in place.

        An item whose address is not held falls back to the interpreter
        (rule 3), so a region manager scanning an interpreter-side run
        stops at the first held address: that item enters a region.
        """
        return self._first

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
                           exit_counts: Optional[array] = None,
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
        ``addrs[next_i - 1]``, the id of the last item the call consumed;
        ``math.inf`` exceeds every id, as it did every address.

        ``exit_counts``, when not None, is the manager's hotness counter
        array, by id, for the items that follow region exits
        (``RegionManager``'s ``exit_counts``), and ``threshold`` its
        threshold.  After a landing
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
        A call that has stepped ``_NATIVE_HANDOFF`` items, one by one or in
        walks, hands the rest of its run to a numpy pass (``_pass``), which
        stops where this loop would and returns what it would; a walk it
        cuts short is not kept.
        ``addrs`` holds the items' ids: a list of ints or, from the engine,
        a chunk's ``Trace._ids``, an ``array`` of u8, u16 or u32: one
        iterator reads it, moved past each walk stepped in one go, a
        memo's walk is a slice of it, so like is compared with like, and
        the pass views it in place.
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
        first = self._first
        cur_edges = self._cur_edges
        cur_owner = self._cur_owner
        r = regions[cur_owner] if cur_owner >= 0 else None
        traversing = self._traversing
        tid = self._cur
        # the start of a walk being stepped item by item from region wr's
        # head, or -1
        ws = -1
        wr = None
        left = handoff = False
        stop = i + _NATIVE_HANDOFF if end - i > _NATIVE_HANDOFF else end
        it = iter(addrs)
        it.__setstate__(i)
        for a in it:
            if i >= stop:
                handoff = i < end
                break
            i += 1
            if left:
                # an exit's follower entering a region at once: count it
                # as the manager's scan would unless it gets hot, else stop
                c = exit_counts[a] + 1 if first[a] else threshold
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
                tid = first[a]
                if not tid:
                    # rule 3: interpreter fallback, no edge materialised
                    interp += 1
                    if cur_owner >= 0:
                        cur_edges = edges_l[0]
                        cur_owner = -1
                        left = True
                        if exit_counts is not None:
                            continue
                    break
                # rule 2: an edge to the earliest-created region's state
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
        if handoff:
            return self._pass(addrs, i, end, exit_counts, threshold)
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

    def _pass(self, addrs: Sequence[int], i: int, end: int, exit_counts: Optional[array],
              threshold: int) -> tuple[int, float]:
        """Step items ``i..end-1`` from the cursor as the kernel's loop would,
        in numpy, and return what the kernel returns.

        No region is installed during a call, so each item's state is that
        of its id in ``held``, unless the item follows an exceptional edge
        (see ``_resolve``), and the cursor sits on the interpreter state
        only after a landing.  So where the call stops depends on ``held``
        alone: after its first landing or, with ``exit_counts``, at a
        follower that is not held or whose bump reaches the threshold.  The
        pass finds that stop in windows of ``addrs`` of ``_NATIVE_HANDOFF``
        items doubling in size, bumping the counts of the followers before
        it, and steps the items up to it, or up to ``_PASS_CHUNK`` of them,
        at once: each native item's ``(previous state, state)`` code joins
        ``_traversed``, which ``_count_traversed`` turns into edge counts,
        and completions are counted from the heads, core tails and owner
        changes among them."""
        column = np.asarray(addrs)
        held, owner, mark = (np.asarray(a) for a in (self._first, self._owner_col, self._mark_col))
        counts = None if exit_counts is None else np.asarray(exit_counts)
        regions = self._regions
        tid, traversing, interp = self._cur, self._traversing, self.interp
        size = _NATIVE_HANDOFF
        stopped = False
        while i < end and not stopped:
            stop = i
            landed = tid == NTE_STATE
            while stop < end and stop - i < _PASS_CHUNK:
                ids = column[stop:stop + min(size, end - stop, _PASS_CHUNK - (stop - i))]
                land = held[ids] == NTE_STATE
                n = _first_true(land)
                if counts is None:
                    # the run ends with its first landing
                    stopped = n < len(ids)
                    n += stopped
                elif n < len(ids) or landed:
                    # a follower is the item after a landing; the scan sees
                    # one that is not held
                    follows = np.empty(len(ids), dtype=bool)
                    follows[0] = landed
                    follows[1:] = land[:-1]
                    n = _first_true(follows & land)
                    bumped = (follows[:n] & ~land[:n]).nonzero()[0]
                    if len(bumped):
                        # each held follower's running count, grouped by
                        # id: the bump that reaches the threshold stops
                        keys, starts, lengths, items = _grouped(ids[bumped])
                        was = counts[keys]
                        over = was + lengths >= threshold
                        if over.any():
                            n = min(n, int(bumped[items[(starts + threshold - was - 1)[over]]].min()))
                            bumped = bumped[bumped < n]
                        np.add.at(counts, ids[bumped], 1)
                    stopped = n < len(ids)
                stop += n
                if n:
                    landed = bool(land[n - 1])
                if stopped:
                    break
                size = min(2 * size, _PASS_CHUNK)
            n = stop - i
            if not n:
                break
            ids = column[i:stop]
            st = held[ids].astype(np.int64)
            if self._exceptional:
                self._resolve(st, ids, tid)
            pred = np.empty(n, dtype=np.int64)
            pred[0] = tid
            pred[1:] = st[:-1]
            native = st != NTE_STATE
            interp += n - int(np.count_nonzero(native))
            self._traversed.append(((pred << 32) | st)[native])
            self._traversed_items += n
            if self._traversed_items >= _PASS_CHUNK:
                self._count_traversed()
            # a head opens a traversal; a core tail reached inside the
            # region closes it, and a change of owner ends it
            own = owner[st]
            moved = np.empty(n, dtype=bool)
            moved[0] = own[0] != owner[tid]
            np.not_equal(own[1:], own[:-1], out=moved[1:])
            marks = mark[st]
            at = ((marks != 0) | moved).nonzero()[0]
            if len(at):
                heads = (marks[at] & 1).astype(bool)
                opened = np.empty(len(at), dtype=bool)
                opened[0] = traversing
                opened[1:] = heads[:-1]
                closed = at[(marks[at] == 2) & opened & ~moved[at]]
                if len(closed):
                    done = np.bincount(own[closed])
                    for rid in done.nonzero()[0].tolist():
                        regions[rid].completions += int(done[rid])
                traversing = bool(heads[-1])
            tid = int(st[-1])
            i = stop
        self._cur = tid
        self._cur_edges = self._edges[tid]
        self._cur_owner = int(owner[tid])
        self._traversing = traversing
        self.interp = interp
        return i, math.inf if tid == NTE_STATE else addrs[i - 1]

    def _count_traversed(self) -> None:
        """Add the edge traversals the numpy pass noted to the edges, making
        the edges rule 2 would have made.  Each note is a ``(previous state
        << 32) | state`` code: a state holds one id, so it names the edge,
        and an edge the notes name but the automaton lacks is one rule 2
        makes, to the state of its id in ``held``."""
        if not self._traversed:
            return
        codes = np.sort(np.concatenate(self._traversed))
        self._traversed, self._traversed_items = [], 0
        starts, times = _runs(codes)
        edges_l, addr_l = self._edges, self._addr
        for code, c in zip(codes[starts].tolist(), times.tolist()):
            p, t = code >> 32, code & 0xFFFFFFFF
            e = edges_l[p].get(addr_l[t])
            if e is None:
                edges_l[p][addr_l[t]] = [t, c]
            else:
                e[1] += c

    def _resolve(self, st: np.ndarray, ids: np.ndarray, tid: int) -> None:
        """Give each item of ``ids`` in ``st``, which holds the state of
        its id in ``held``, the target of the exceptional edge it follows,
        if any, from state ``tid`` before the first item.

        An exceptional edge is one ``append_region`` made whose target is
        not the state of its id in ``held``.  Only these take rule 1 where
        rule 2 would not, each from a state that holds the previous item's
        id to another state of its region: its source is that id's held
        state or a copy, a state no other edge reaches.  So an item can
        follow one only when the pair of its previous id and its id keys
        one, and it does exactly when the previous item's state is the
        edge's source: that item's held state, or the target of the edge
        it followed, in the same region.

        When each such pair keys one edge, a running flag over these items
        decides which follow theirs: an item whose edge's source is the
        previous item's held state and not the target of the previous
        item's edge sets the flag if the previous item has no edge and
        flips it otherwise, one whose source is that target and not the
        held state keeps it, one whose source is both sets it, and one
        whose source is neither clears it.  Otherwise their edges, ordered
        by region, then by item, form runs in which each edge's source is
        the previous edge's target at the previous item.  A walk of copies
        starts at an edge from the previous item's held state, unless the
        item before is still on a walk, and follows the run to its end;
        taking the starts in item order decides which are walks.  A region
        with two edges at one item, from a recording that repeats an
        address, has these items stepped one by one instead."""
        m = len(self._first)
        if self._exceptional_table is None:
            self._exceptional_table = self._tabulate(m)
        pairs, firsts, counts, sources, targets, regions, keyed = self._exceptional_table
        exceptional = self._exceptional
        st[0] = exceptional.get(tid * m + int(ids[0]), int(st[0]))
        at = keyed[ids[1:]].nonzero()[0] + 1
        code = ids[at - 1].astype(np.int64) * m + ids[at]
        j = np.minimum(np.searchsorted(pairs, code), len(pairs) - 1)
        hit = pairs[j] == code
        at, j = at[hit], j[hit]
        if not len(at):
            return
        many = counts[j]
        if many.max() == 1:
            source, end = sources[firsts[j]], targets[firsts[j]]
            via_held = source == st[at - 1]
            chained = np.zeros(len(at), dtype=bool)
            chained[1:] = at[1:] == at[:-1] + 1
            via_chain = np.zeros(len(at), dtype=bool)
            via_chain[1:] = chained[1:] & (end[:-1] == source[1:])
            last = np.arange(len(at))
            last[chained & (via_held != via_chain)] = 0
            last = np.maximum.accumulate(last)
            flips = np.cumsum(via_held & ~via_chain)
            taken = via_held[last] ^ ((flips - flips[last]) & 1).astype(bool)
            st[at[taken]] = end[taken]
            return
        # each edge of each item, by region, then by item
        edge_at = np.repeat(at, many)
        row = np.arange(len(edge_at)) + np.repeat(firsts[j] - np.cumsum(many) + many, many)
        # one sort of the codes (region * n + item) * rows + row orders them
        rows = np.int64(len(regions))
        key = np.sort((regions[row] * len(st) + edge_at) * rows + row)
        edge_at, row = (key // rows) % len(st), key % rows
        same = regions[row[1:]] == regions[row[:-1]]
        if not (same & (edge_at[1:] == edge_at[:-1])).any():
            source, end = sources[row], targets[row]
            linked = np.zeros(len(row), dtype=bool)
            linked[1:] = same & (edge_at[1:] == edge_at[:-1] + 1) & (end[:-1] == source[1:])
            # the index of the last edge of each edge's run
            run_end = np.where(np.append(~linked[1:], True), np.arange(len(row)), len(row))
            run_end = np.minimum.accumulate(run_end[::-1])[::-1]
            starts = np.flatnonzero(source == st[edge_at - 1])
            starts = starts[np.argsort(edge_at[starts], kind="stable")]
            walks, reach = [], -2
            for e, k, f in zip(starts.tolist(), edge_at[starts].tolist(),
                               edge_at[run_end[starts]].tolist()):
                if k >= reach + 2:
                    walks.append(e)
                    reach = f
            depth = np.zeros(len(row) + 1, dtype=np.int64)
            depth[walks] += 1
            depth[run_end[walks] + 1] -= 1
            taken = np.cumsum(depth[:-1]) > 0
            st[edge_at[taken]] = end[taken]
            return
        states = []
        k0, t = -1, 0
        for k, a, h, p in zip(at.tolist(), ids[at].tolist(), st[at].tolist(),
                              st[at - 1].tolist()):
            t = exceptional.get((t if k == k0 + 1 else p) * m + a, h)
            states.append(t)
            k0 = k
        st[at] = states

    def _tabulate(self, m: int) -> tuple:
        """``_resolve``'s tables of the exceptional edges: the sorted
        distinct codes ``previous id * m + id`` of the pairs of ids they
        key, each with the first row and the number of rows of its edges,
        whose sources, targets and regions the next three give; and by id,
        whether it keys one."""
        exceptional = self._exceptional
        codes = np.array(sorted(exceptional), dtype=np.int64)
        source, key = np.divmod(codes, m)
        pair = np.array(self._addr)[source] * m + key
        order = np.argsort(pair, kind="stable")
        pairs, firsts, counts = np.unique(pair[order], return_index=True, return_counts=True)
        keyed = np.zeros(m, dtype=bool)
        keyed[key] = True
        targets = np.array([exceptional[c] for c in codes[order].tolist()], dtype=np.int64)
        return (pairs, firsts, counts, source[order], targets,
                np.asarray(self._owner_col)[source[order]].astype(np.int64), keyed)

    # -- growth ---------------------------------------------------------

    def append_region(self, recorded: Sequence[tuple[int, int]],
                      expansion: Sequence[tuple[int, int]] = (),
                      expansion_successors: Optional[Mapping[int, Iterable[int]]] = None,
                      ) -> int:
        """Install a finished recording as a new region; returns its id.

        ``recorded`` is the linear recording, in order, as (address id,
        size) pairs; consecutive recorded states are wired with fresh
        edges.  ``expansion`` lists additional (id, size) pairs, disjoint
        from the recorded ids, wired according to ``expansion_successors``
        (id -> successor ids, all within this region).  The cursor does not
        move.  A rejected region raises ``ValueError`` naming the address.
        """
        if not recorded:
            raise ValueError("empty recording")
        rid = len(self._regions)
        addr_l, table = self._addr, self._table
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
                raise ValueError(f"expansion address {table[a]:#x} duplicates the recording"
                                 if by_addr[a] < tail else
                                 f"duplicate expansion address {table[a]:#x}")
        new_edges: list[dict[int, list[int]]] = [{} for _ in items]
        for k in range(len(recorded) - 1):
            new_edges[k].setdefault(items[k + 1][0], [base + k + 1, 0])
        if expansion and expansion_successors:
            for u, targets in expansion_successors.items():
                if u not in by_addr:
                    raise ValueError(f"expansion successor source {table[u]:#x} not in region")
                edges = new_edges[by_addr[u] - base]
                for t in targets:
                    if t not in by_addr:
                        raise ValueError(f"expansion successor target {table[t]:#x} "
                                         "not in region")
                    edges.setdefault(t, [by_addr[t], 0])
        addr_l.extend(a for a, _ in items)
        self._size.extend(s for _, s in items)
        self._owner.extend([rid] * len(items))
        self._mark.extend([0] * len(items))
        if len(recorded) > 1:
            self._mark[base] = 5 if len(recorded) > CHAIN_MIN_PATH else 1
            self._mark[tail - 1] = 2
        self._owner_col.extend(self._owner[base:])
        self._mark_col.extend(self._mark[base:])
        self._edges.extend(new_edges)
        region = Region(rid=rid, entry_state=base, states=list(range(base, tail)),
                        core_tail_state=tail - 1,
                        expansion_states=list(range(tail, len(addr_l))),
                        entry_address=int(table[recorded[0][0]]))
        self._regions.append(region)
        first = self._first
        for sid in range(base, len(addr_l)):
            first[addr_l[sid]] = first[addr_l[sid]] or sid
        m = len(first)
        for sid, edges in enumerate(new_edges, start=base):
            for a, (t, _) in edges.items():
                if first[a] != t:
                    self._exceptional[sid * m + a] = t
                    self._exceptional_table = None
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
        sorted by key address, each id mapped back to its address.
        """
        tally = self._executions()
        ex = tally[0]
        table = self._table
        states = []
        for sid in range(len(self._addr)):
            edges = [[int(table[a]), t, c] for a, (t, c) in sorted(self._edges[sid].items())]
            states.append({
                "id": sid,
                "address": None if sid == NTE_STATE else int(table[self._addr[sid]]),
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
