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
again: a loop inside the region costs one comparison per iteration, and
its last iteration, which leaves the region, misses and is stepped item
by item.
A walk shorter than ``CHAIN_MIN_PATH`` is not kept, so a landing is
fruitless when it misses; a head with ``CHAIN_GIVE_UP`` fruitless
landings in a row steps item by item for the rest of the run.

A kernel call that has stepped ``_HANDOFF`` items, one by one or
in walks, hands the rest of its run to a numpy pass (``Automaton._pass``),
which reads the chunk's id column in windows that double in size.  No
region is installed during a call, so the address index and every
edge's target stay fixed while it runs: an item's state is its id's held
state, unless the item follows an exceptional edge, one that
``append_region`` made to a state that is not its id's held state (a
region's copy of an address an earlier region holds, or the second
state of a recording's repeated address).  Such an edge leaves its
source id's held state (a start row, at most one per pair of ids) or a
copy (a chain row), so an item leaves its id's held state only after an
item on its own held state whose pair of ids keys a start row, or after
an item on a copy with a chain row for its id.  The pass finds the walk
starts, follows each one's walk along the chain rows, and keeps the
walks whose start follows an item on its held state: the first, and
then each first start two items or more past a kept walk's end
(``_resolve``).  An item is
interpreter-side exactly when its id is not held, so where the call
stops depends on the held states alone: after the first landing, or,
for an idle manager, at the first bump or push that reaches the
threshold, which the grouped running counts of the bumped or pushed
ids find (``_profile``, ``History.push``).  A window of
interpreter-side items alone only adds to ``interp``.

Counters are raw or derived.  The kernel counts only what the edges
cannot give: each edge's traversals, ``interp``, the completed
traversals of regions with two or more recorded states, and each memo's
hits (``Region.hits``).  A hit follows each of its walk's edges as often
as the walk did, and completes a traversal when the walk passed the core
tail, so flushing the hits into those edges and completions
(``Region.flush``, before any report) completes both.  The numpy
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

Items are not classified by transition kind.  A kernel call returns the
id the next item is compared with for a backward branch: the last
consumed item's own, or ``math.inf`` when it was a landing that left a
region, so that a region manager, which profiles backward branches taken
interpreter-side, also profiles every region-exit target whatever its
address.  The kernel is the only place that encodes that rule.  Without
a manager's counts, a call ends on the first item that falls back to
the interpreter.  An idle manager (one with no formation in flight)
lends the kernel its hotness counters and threshold instead, and the
kernel then profiles the interpreter-side runs itself, as the manager's
scan would: the item after a landing is bumped whatever its id, the item
after any other interpreter-side item when its id is below that item's,
held or not.  lei, always idle, lends its ``History`` instead, and the
kernel pushes every item after an interpreter-side item through it,
writing each push's trace index into the history's ring.
Such a call stops only at its ``end`` or at the bump or push that
reaches the threshold, which it leaves unwritten for the scan to make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from array import array
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .trace_io import _grouped, _runs, _sort

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
# The hand-off policy of the kernel's numpy pass (``_pass``).
# ``_HANDOFF`` is the items a kernel call steps one by one, or in memo
# walks, before it hands the rest of its run to the pass, and the pass's
# first window; windows double up to ``_PASS_CHUNK``.  Within a window,
# fewer than ``_HANDOFF`` of lei's pushes (``History.push``) are taken one
# by one.
#
# For the kernel, measured as the time of kernel calls of n items with
# the hand-off at 1024, 2048 and 4096 over their time with no hand-off
# (Python 3.11, numpy 2.4, 2-core x86 host), on a loop through another
# region's copies, which takes exceptional edges and no memo walk (79-83
# ns per item with no hand-off), on a 20-instruction loop whose exits are
# counted, whose iterations the memo steps (18-19 ns), and on a
# 50-instruction loop the memo steps whole, so that only the items after
# its last walk reach the pass (2-4 ns):
#
#     n        copies             exits              memo loop
#            1024 2048 4096     1024 2048 4096     1024 2048 4096
#     2048   0.82 1.00 1.22     1.44 1.06 0.99     1.67 1.01 1.00
#     4096   0.56 0.71 0.98     1.05 1.02 1.00     1.43 1.43 0.99
#     8192   0.40 0.48 0.66     0.79 0.77 0.84     1.26 1.25 1.25
#     16384  0.36 0.41 0.50     0.63 0.60 0.63     1.16 1.16 1.15
#
# The kernel also profiles an idle manager's interpreter-side runs, so an
# idle stretch is one long call, and the six techniques' summed time on
# the benchmark's workloads at seed 1 (in-process, minimum of five runs,
# same host) falls with the hand-off:
#
#                   256    512   1024   2048   ms
#     loop-nest    175.5  178.1  183.0  182.9
#     graph-walk   285.5  295.6  299.0  321.1
#     interp-noise  11.5   11.8   11.9   12.5
#
# 512 is within the noise of 256, and the table above shows what the pass
# costs a call that hands it only a short rest.
#
# For lei's pushes, the time of one window pushed in numpy by
# ``History.push`` over the same pushes made one by one, on a history
# warmed by 70,000 pushes (minimum of seven, same host), by pushes:
#
#                                 512   1000   4000  16384  65536
#     50-instruction loop        1.01   0.53   0.18   0.05   0.04
#     noise over 16k addresses   1.06   0.66   0.27   0.17   0.11
#     the benchmark's noise      1.14   0.76   0.33   0.17   0.12
#
# so a window of 512 pushes about breaks even, and larger ones gain.
_HANDOFF = 512
# the pass's largest window, its step between adding its notes to the
# edges, and the lazy flow map's catch-up step (``rft._ExpansionMixin``),
# bounding their transient arrays to a few MB
_PASS_CHUNK = 1 << 16
# ``_resolve`` takes a window's walk starts one by one when it has at most
# this many, and follows walks in numpy rounds while more than this many
# are on.  The six techniques' summed ``_resolve`` time, in ms, over the
# calls of seed-1 runs of the benchmark's workloads, replayed in-process
# (minimum of three, Python 3.11, numpy 2.4, 2-core x86 host), by value;
# the last row sums the three workloads at thresholds 8, 64, 256, 1024:
#
#                         8     16     32     64    128
#     loop-nest     64   68.0   66.9   67.2   75.4   77.7
#     graph-walk     8  166.6  143.6  131.0  132.6  173.5
#     graph-walk    64   89.5   87.4   86.7   81.5   96.6
#     graph-walk  1024   68.4   68.1   67.0   67.6   71.2
#     all               586.8  569.3  553.8  558.8  616.7
_FEW_WALKS = 32


def _first_true(mask: np.ndarray) -> int:
    """The index of the first true entry of a non-empty ``mask``, or its
    length."""
    k = int(mask.argmax())
    return k if mask[k] else len(mask)


class History:
    """lei's history of pushes, which ``rft.LeiManager`` lends the kernel
    as its ``exit_counts``.

    Each push gets the next position, ``pos``.  ``last`` holds each id's
    latest push position (-1, below any floor, before its first push) and
    ``counts`` its cycle count, its hotness: a push is a cycle when its
    id's prior push is not below ``floor``, the latest restart, and at
    most ``capacity`` pushes back.  ``ring`` holds the trace index of each
    of the latest pushes, that of position ``q`` at slot ``q % len(ring)``:
    its slots number ``capacity``, or the window's length when that is
    less, since each item is pushed once at most.  ``base`` is the trace
    index of the attached chunk's item 0."""

    __slots__ = ("last", "counts", "pos", "floor", "capacity", "ring", "base")

    def __init__(self, ids: int, capacity: int, window: int):
        self.last = array("q", [-1]) * ids
        self.counts = array("q", [0]) * ids
        self.pos = self.floor = self.base = 0
        self.capacity = capacity
        self.ring = array("q", [0]) * max(min(capacity, window), 1)

    def push(self, ids: np.ndarray, items: np.ndarray, threshold: int) -> int:
        """Push the non-empty ``ids``, the chunk's items ``items`` in
        ascending order, as the kernel's loop would, up to the first push
        that reaches ``threshold``, which is left unwritten.  Returns the
        number pushed.  Each id's record is read and written once."""
        n = len(ids)
        pos, ring = self.pos, self.ring
        if n < _HANDOFF:
            last, counts, floor, capacity = self.last, self.counts, self.floor, self.capacity
            size, base = len(ring), self.base
            for a, i in zip(ids.tolist(), items.tolist()):
                prior = last[a]
                if prior >= floor and pos - prior <= capacity:
                    c = counts[a] + 1
                    if c >= threshold:
                        break
                    counts[a] = c
                last[a] = pos
                ring[pos % size] = base + i
                pos += 1
            n, self.pos = pos - self.pos, pos
            return n
        keys, starts, lengths, order = _grouped(ids)
        last, count = np.asarray(self.last), np.asarray(self.counts)
        # each push's prior push: the previous one of its id here, or its
        # id's latest
        at = order + pos
        prior = np.empty(n, dtype=np.int64)
        prior[1:] = at[:-1]
        prior[starts] = last[keys]
        cyc = (prior >= self.floor) & (at - prior <= self.capacity)
        # each id's running count of cycles, from its record's count
        run = np.cumsum(cyc)
        run += np.repeat(count[keys] - run[starts] + cyc[starts], lengths)
        hot = order[cyc & (run >= threshold)]
        if len(hot):
            k = int(hot.min())
            return k and self.push(ids[:k], items[:k], threshold)
        ends = starts + lengths - 1
        last[keys] = at[ends]
        count[keys] = run[ends]
        # the positions of the pushes that fit the ring
        q = np.arange(max(pos, pos + n - len(ring)), pos + n)
        np.asarray(ring)[q % len(ring)] = items[q - pos] + self.base
        self.pos = pos + n
        return n


def _after(ids: np.ndarray, off: np.ndarray, n: int, p: int, above: int) -> int:
    """What item ``n`` of a window is compared with once its first ``n``
    items are stepped, item 0 having been compared with ``p``: -1 after a
    native item, ``above`` after a landing, else the previous id."""
    if not n:
        return p
    j = n - 1
    if not off[j]:
        return -1
    landed = not off[j - 1] if j else p < 0
    return above if landed else int(ids[j])


def _push(ids: np.ndarray, off: np.ndarray, alone: bool, at: int, p: int, above: int,
          history: History, threshold: int) -> tuple[int, int]:
    """Push a window of ids, the chunk's items from ``at``, through lei's
    ``history`` by lei's rule: an item is pushed when the item before it
    ran interpreter-side, item 0 when ``p``, what it is compared with
    (see ``_profile``), is not -1.  Returns ``(n, p)`` as ``_profile``
    does: ``n`` is the window's length unless the push of item ``n``
    reaches the threshold, unwritten."""
    n = len(ids)
    if alone:
        # every item but the first is pushed
        s = 0 if p >= 0 else 1
        pushing, items = ids[s:], np.arange(at + s, at + n)
    else:
        pushed = np.empty(n, dtype=bool)
        pushed[0] = p >= 0
        pushed[1:] = off[:-1]
        k = pushed.nonzero()[0]
        pushing, items = ids.take(k), k + at
    if len(items):
        done = history.push(pushing, items, threshold)
        if done < len(items):
            n = int(items[done]) - at
    return n, _after(ids, off, n, p, above)


def _profile(ids: np.ndarray, off: np.ndarray, alone: bool, p: int, above: int,
             counts: np.ndarray, threshold: int) -> tuple[int, int]:
    """Profile a window of ids as the scan would, with ``counts`` (by id)
    and ``threshold``: the item after a landing is bumped whatever its id,
    the item after any other interpreter-side item when its id is below
    that item's.  ``off`` marks the window's interpreter-side items,
    ``alone`` tells whether they are all its items, and ``p`` is what its
    first item is compared with: the previous interpreter-side id,
    ``above`` (above every id) after a landing, -1 after a native item.
    Returns ``(n, p)``: the number of items profiled, which is the
    window's length unless the bump of item ``n`` reaches the threshold,
    unwritten, and what item ``n`` is compared with.  The bump that gets
    hot is found from the running counts of each bumped id, and the work
    grows with the interpreter-side items."""
    # the positions of the bumped items
    if alone:
        # no native item, so only the first can be a landing
        after = ids[1:] < ids[:-1]
        after[:1] |= p < 0
        bump = after.nonzero()[0]
        bump += 1
    else:
        # an interpreter-side item is a landing when the item before it
        # is native
        at = off.nonzero()[0]
        landing = np.empty(len(at), dtype=bool)
        if len(at):
            landing[0] = at[0] > 0 or p < 0
            np.not_equal(at[1:], at[:-1] + 1, out=landing[1:])
        k = at[:-1] if len(at) and at[-1] == len(ids) - 1 else at
        bump = k[landing[:len(k)] | (ids.take(k + 1) < ids.take(k))] + 1
    if int(ids[0]) < p:
        bump = np.concatenate(([0], bump))
    targets = ids.take(bump)
    n = len(ids)
    if len(targets):
        ordered = _sort(targets)
        starts, lengths = _runs(ordered)
        keys = ordered[starts]
        was = counts.take(keys)
        over = was + lengths >= threshold
        if over.any():
            # each id's running count: the bump that takes it to the
            # threshold stops the window, the first one if its count is
            # there already
            keys, starts, lengths, items = _grouped(targets)
            n = int(bump[items[(starts + np.maximum(threshold - was - 1, 0))[over]]].min())
            np.add.at(counts, targets[:np.searchsorted(bump, n)], 1)
        else:
            counts[keys] = was + lengths
    return n, _after(ids, off, n, p, above)


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
        # table of m addresses; ``_resolve``'s tables of them, sorted codes
        # from -1, below every code, beside targets: the start rows, by
        # ``source's id * m + id``, and the chain rows, by ``source * m +
        # id``; the rows made since, as (0 for a start row or 1, code,
        # target) (``_tabulate``); per state, 1 when it has chain rows
        self._exceptional: dict[int, int] = {}
        self._starts = (np.array([-1]), np.zeros(1, np.int64))
        self._new_rows = array("q")
        self._chains = (array("q", [-1]), array("q", [0]))
        self._chained = bytearray(1)
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
        # per id, 1 when a start row leaves it and 2 when one keys it
        # (``_resolve``)
        self._starting = np.zeros(len(table), dtype=np.uint8)

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
                           exit_counts: Optional[array | History] = None,
                           threshold: int = 1) -> tuple[int, float]:
        """The stepping kernel: the only code applying the resolution rules.

        Requires ``i <= h < end``.  Credits items ``[i, h)`` to the
        interpreter; when ``h > i`` the cursor must sit on the interpreter
        state and no address in that gap may be held (see ``held``).  Then
        steps from item ``h``.  With ``exit_counts`` None it stops after
        the first item that falls back to the interpreter: item ``h`` alone
        if it stays interpreter-side, else a landing that leaves a region
        and ends a native run, or at ``end``.  Returns ``(next_i, prev)``,
        ``prev`` being what the next scan compares item ``next_i`` with for
        a backward branch: ``math.inf`` when the call stopped after a
        landing that left a region, whose follower is profiled whatever its
        address, and otherwise ``addrs[next_i - 1]``, the id of the last
        item the call consumed; ``math.inf`` exceeds every id, as it did
        every address.

        ``exit_counts``, when not None, is an idle manager's hotness
        counter array, by id (``RegionManager``'s ``exit_counts``), and
        ``threshold`` its threshold.  The kernel then profiles every item
        after ``h`` as the manager's scan would, bumping its count as it
        reads it: the item after a landing whatever its id, the item after
        any other interpreter-side item when its id is below that item's,
        held or not, and no item after a native one.  Below the threshold
        it stores the count and steps on; at the threshold it stores
        nothing and returns at that item, with ``prev`` as above, so that
        the scan makes that bump and starts a recording.  So the call
        stops only there or at ``end``, and the counts are those the scan
        would keep.  Item ``h`` is never bumped: the scan has seen it.
        ``exit_counts`` may instead be lei's ``History``, with lei's
        threshold.  The kernel then pushes every item after ``h`` whose
        previous item ran interpreter-side, a landing's follower included
        and the landing not, as lei's scan would, and stops unwritten at
        the push that reaches the threshold, so that the scan makes it and
        emits.

        Per native item it counts only the edge traversal and, in a region
        with two or more recorded states, a completion; executions, entries
        and transitions are derived from edge counts.  On
        landing at a chain head (mark 5), when the memo's walk fits before
        ``end``, it compares the next items with the walk in one slice
        comparison.  On a hit it books one ``Region.hits`` and moves to the
        walk's end state, comparing anew when that is the head.  On a miss it
        notes where the walk starts and steps on item by item; the next
        chain-head landing, or the call's return, installs the walk as the
        head's memo (``_keep``).  The ``CHAIN_GIVE_UP``-th fruitless landing
        in a row gives the head up: it becomes a plain head (mark 1) for the
        rest of the run.  Both paths give the counts the rules give per item.
        A walk that would run past ``end`` is neither a hit nor a miss: the
        call steps on item by item, and a walk it steps from a head up to
        ``end`` without leaving the region is not kept, so a chunk's end
        cuts no memo short.
        A call that has stepped ``_HANDOFF`` items, one by one or in
        walks, hands the rest of its run to a numpy pass (``_pass``), which
        profiles or pushes and stops where this loop would and returns what
        it would; a walk it cuts short is not kept.
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
        # what the next item is compared with for a backward branch, as the
        # scan's ``prev``: the previous interpreter-side id, ``above`` (an
        # int above every id) after a landing, -1 after a native item or
        # before item h, which the kernel never bumps
        above = len(first)
        p = -1
        # lei pushes every item after an interpreter-side one: the id it
        # is compared with is lifted above every id
        lei = type(exit_counts) is History
        lift = 0
        if lei:
            hist = exit_counts
            last, counts, floor, capacity = hist.last, hist.counts, hist.floor, hist.capacity
            pos, ring, base, size = hist.pos, hist.ring, hist.base, len(hist.ring)
            lift = above + 1
        # the start of a walk being stepped item by item from region wr's
        # head, or -1
        ws = -1
        wr = None
        handoff = False
        stop = i + _HANDOFF if end - i > _HANDOFF else end
        it = iter(addrs)
        it.__setstate__(i)
        for a in it:
            if i >= stop:
                handoff = i < end
                break
            if a < p:
                # the manager's profiling rule, applied for it: stop at the
                # bump or push that gets hot, unwritten, so the scan makes it
                if lei:
                    prior = last[a]
                    if prior >= floor and pos - prior <= capacity:
                        c = counts[a] + 1
                        if c >= threshold:
                            break
                        counts[a] = c
                    last[a] = pos
                    ring[pos % size] = base + i
                    pos += 1
                else:
                    c = exit_counts[a] + 1
                    if c >= threshold:
                        break
                    exit_counts[a] = c
            i += 1
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
                        p = above
                    else:
                        p = a + lift
                    if exit_counts is None:
                        break
                    continue
                # rule 2: an edge to the earliest-created region's state
                cur_edges[a] = [tid, 1]
            own = owner_l[tid]
            if own != cur_owner:
                r = regions[own]
                cur_owner = own
                traversing = False
                p = -1
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
                        elif j > end:
                            break  # the walk runs past the call's end: no verdict
                        else:
                            r.misses = 1 if i > at else r.misses + 1
                            if r.misses < CHAIN_GIVE_UP:
                                ws = i
                                wr = r
                            else:
                                mark_l[tid] = self._mark_col[tid] = 1
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
        if lei:
            hist.pos = pos
        if handoff:
            return self._pass(addrs, i, end, p == above, exit_counts, threshold)
        return i, math.inf if p == above else addrs[i - 1]

    def _keep(self, r: Region, addrs: Sequence[int], ws: int, we: int) -> None:
        """Install the walk from ``r``'s head that the kernel stepped item by
        item from ``addrs[ws]``, cut to ``WALK_CAP`` items, as its memo,
        unless it is shorter than ``CHAIN_MIN_PATH``.  The walk ended at the
        item that left ``r``, or at a landing on a chain head,
        ``addrs[we - 1]``, which it keeps when that head is ``r``'s; or it
        left ``r`` before the call's end, ``we``.  Each step followed or
        created an edge inside ``r`` that is never replaced, and the item
        that left ``r`` followed or created an edge out of it or, not being
        held, has none: so rule 1 from the head finds the walk's edges and
        where it ended."""
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

    def _pass(self, addrs: Sequence[int], i: int, end: int, landed: bool,
              exit_counts: Optional[array | History], threshold: int) -> tuple[int, float]:
        """Step items ``i..end-1`` from the cursor as the kernel's loop would,
        in numpy, and return what the kernel returns; ``landed`` tells
        whether item ``i - 1`` was a landing.

        No region is installed during a call, so each item's state is that
        of its id in ``held``, unless it lies on a walk of exceptional edges
        from a walk start (see ``_resolve``), and an item is interpreter-side
        exactly when its id is not held.  So where the call stops depends on
        ``held`` alone: after its first landing or, with ``exit_counts``, at the
        first bump or push that reaches the threshold (``_profile``,
        ``_push``).  The pass finds that stop in windows of ``addrs`` of
        ``_HANDOFF`` items doubling in size, bumping the counts or pushing
        the history before it, and steps the items
        up to it, or up to ``_PASS_CHUNK`` of them, at once: each native
        item's ``(previous state, state)`` code joins ``_traversed``, which
        ``_count_traversed`` turns into edge counts, and completions are
        counted from the heads, core tails and owner changes among them.
        A stretch of interpreter-side items alone only adds to
        ``interp``."""
        column = np.asarray(addrs)
        held, owner, mark = (np.asarray(a) for a in (self._first, self._owner_col, self._mark_col))
        lei = type(exit_counts) is History
        # an int64 view: numpy types an array("q") as longlong, which misses
        # ``np.add.at``'s fast path
        counts = None if exit_counts is None or lei else np.asarray(exit_counts).view(np.int64)
        regions = self._regions
        tid, traversing, interp = self._cur, self._traversing, self.interp
        # what the next item is compared with for a backward branch, as in
        # the kernel's loop
        above = len(held)
        p = -1 if tid != NTE_STATE else above if landed else int(column[i - 1])
        size = _HANDOFF
        stopped = False
        while i < end and not stopped:
            stop = i
            native = False
            while stop < end and stop - i < _PASS_CHUNK:
                ids = column[stop:stop + min(size, end - stop, _PASS_CHUNK - (stop - i))]
                off = held.take(ids) == NTE_STATE
                alone = bool(off.all())
                if lei:
                    n, p = _push(ids, off, alone, stop, p, above, exit_counts, threshold)
                    stopped = n < len(ids)
                elif counts is None:
                    # the run ends with its first landing
                    n = _first_true(off)
                    stopped = n < len(ids)
                    n += stopped
                    p = above if stopped else -1
                else:
                    n, p = _profile(ids, off, alone, p, above, counts, threshold)
                    stopped = n < len(ids)
                native = native or not alone
                stop += n
                if stopped:
                    break
                size = min(2 * size, _PASS_CHUNK)
            n = stop - i
            if not n:
                break
            if not native:
                interp += n
                tid, traversing = NTE_STATE, False
                i = stop
                continue
            ids = column[i:stop]
            st = held.take(ids).astype(np.int64)
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
            own = owner.take(st)
            moved = np.empty(n, dtype=bool)
            moved[0] = own[0] != owner[tid]
            np.not_equal(own[1:], own[:-1], out=moved[1:])
            marks = mark.take(st)
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
        return i, math.inf if p == above else addrs[i - 1]

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
        not the state of its id in ``held``: a copy, which no other edge
        reaches.  So an item leaves its id's held state only after an item
        on its own held state with such an edge for the item's id (a start
        row, one per pair of ids), or after an item on a copy with one (a
        chain row).  The start candidates are the items whose pair of ids
        keys a start row, and item 0 when state ``tid`` has an edge for its
        id; each one's walk follows chain rows until a copy has none for
        the next id, whose item is back on its held state.  A candidate's
        walk is taken when the item before it is on its held state: the
        first is, and the next taken lies two items or more past a taken
        walk's end.  At most ``_FEW_WALKS`` candidates are taken one by
        one, in item order; more have their walks followed in numpy rounds
        while more than ``_FEW_WALKS`` are on, then one by one, and the
        taken ones found from the walks' ends."""
        m, n, exceptional, chained = len(self._first), len(ids), self._exceptional, self._chained
        # the items whose previous id a start row leaves (bit 1) and whose
        # id one keys (bit 2)
        flags = self._starting.take(ids)
        pos = ((flags[:-1] << 1) & flags[1:]).nonzero()[0] + 1
        if len(pos) <= _FEW_WALKS:
            # one by one, from item 0 and the state before it: an item two
            # or more past the last walk's end is on its held state
            after, items, states = 0, [], []
            for k, p, a in zip(chain((0,), pos.tolist()), chain((tid,), st.take(pos - 1).tolist()),
                               chain((ids.item(0),), ids.take(pos).tolist())):
                if k >= after and (t := exceptional.get(p * m + a)) is not None:
                    while t is not None:
                        items.append(k), states.append(t)
                        k += 1
                        t = exceptional.get(t * m + ids.item(k)) if k < n and chained[t] else None
                    after = k + 1
            st[items] = states
            return
        if self._new_rows:
            self._tabulate()
        starts, start_to = self._starts
        code = np.multiply(ids.take(pos - 1), m, dtype=np.int64) + ids.take(pos)
        j = starts.searchsorted(code)
        hit = starts.take(j, mode="clip") == code
        pos, to = pos[hit], start_to.take(j[hit])
        t = exceptional.get(tid * m + ids.item(0))
        if t is not None:
            pos, to = np.concatenate(([0], pos)), np.concatenate(([t], to))
        # each walk's items past its first, as (walk, item, state) parts in
        # item order; a walk on a copy with no chain row ends at once
        end = pos.copy()
        w = np.asarray(chained).take(to).nonzero()[0]
        k, s = pos.take(w), to.take(w)
        parts = []
        while len(w) > _FEW_WALKS:
            chains, chain_to = (np.asarray(a) for a in self._chains)
            k = k + 1
            if k[-1] == n:
                w, k, s = w[:-1], k[:-1], s[:-1]
            code = s * m + ids.take(k)
            j = chains.searchsorted(code)
            hit = chains.take(j, mode="clip") == code
            w, k, s = w[hit], k[hit], chain_to.take(j[hit])
            end[w] = k
            parts.append((w, k, s))
        if len(w):
            rest = ([], [], [])
            for w, k, s in zip(w.tolist(), k.tolist(), s.tolist()):
                while k + 1 < n and (s := exceptional.get(s * m + ids.item(k + 1))) is not None:
                    k += 1
                    rest[0].append(w), rest[1].append(k), rest[2].append(s)
                end[w] = k
            parts.append(tuple(np.array(r, dtype=np.int64) for r in rest))
        # a candidate is taken when no earlier walk reaches the item before
        # it; past one that is, the next taken is the first candidate two
        # items or more past a taken walk's end: the chains of those from
        # each clear candidate, which doubling the jumps marks in log rounds,
        # until a round marks none
        on = np.empty(len(pos) + 1, dtype=bool)
        on[0] = on[-1] = True
        np.greater(pos[1:] - 1, np.maximum.accumulate(end[:-1]), out=on[1:-1])
        if not on.all():
            jump = np.concatenate((pos.searchsorted(end + 2), [len(pos)]))
            while not on.take(nxt := jump[on]).all():
                on[nxt] = True
                jump = jump.take(jump)
        taken = on[:-1]
        st[pos[taken]] = to[taken]
        if parts:
            w, k, s = (np.concatenate(part) for part in zip(*parts))
            taken = taken.take(w)
            st[k[taken]] = s[taken]

    def _tabulate(self) -> None:
        """Merge the rows made since the last call into ``_resolve``'s
        tables: start rows into their sorted places, chain rows after every
        earlier one, as a new region's states follow every earlier state."""
        rows = np.array(self._new_rows, dtype=np.int64).reshape(-1, 3)
        rows = rows.take(rows[:, 1].argsort(kind="stable"), axis=0)  # chains come near sorted
        start = rows[:, 0] == 0
        at = self._starts[0].searchsorted(rows[start, 1])
        self._starts = tuple(np.insert(a, at, r) for a, r in zip(self._starts, rows[start, 1:].T))
        for column, values in zip(self._chains, rows[~start, 1:].T):
            column.frombytes(values.tobytes())
        self._new_rows = array("q")

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
        rows, starting, chained = self._new_rows, self._starting, self._chained
        chained.extend(bytes(len(items)))
        for sid, edges in enumerate(new_edges, start=base):
            for a, (t, _) in edges.items():
                if first[a] != t:
                    self._exceptional[sid * m + a] = t
                    # a held state stays held, so a row keeps its kind
                    if first[addr_l[sid]] == sid:
                        rows.extend((0, addr_l[sid] * m + a, t))
                        starting[addr_l[sid]] |= 1
                        starting[a] |= 2
                    else:
                        rows.extend((1, sid * m + a, t))
                        chained[sid] = 1
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
