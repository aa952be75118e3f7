"""Region formation techniques.

One driver, ``RegionManager.scan``, consumes interpreter-side runs of
the trace for five techniques, and each supplies its own rules through
three hooks.  Items executed inside regions are never shown to a
manager: every technique ignores native-side transitions except the
entry into a region, which ends a recording.  An idle manager (five
techniques profile while no formation is in flight) lends its hotness
counters to the automaton's stepping kernel, which applies the
backward-branch profiling rule those five share to the interpreter-side
runs itself and stops at the bump that gets hot; the scan makes that
bump and records.  ``lei``, which has no formation in flight, lends its
history instead: the kernel pushes the items lei pushes and stops at the
push that gets hot, and lei's scan makes that push and emits.  So a scan
runs while a formation is in flight or at such a stop.  The engine installs
an emitted region into the automaton before performing the emitting
item's transition, so a recording stopped by a loop-closing branch
catches that very branch target as its first native execution.

Six techniques are provided:

net           classic next-executing-tail: profile targets of backward
              branches and of region exits; record linearly from a hot
              target until a backward branch, entry into an existing
              region, or the size cap.
mret2         run the recording pass twice from the same entry and keep
              the intersection, reducing side-exits.
lei           detect cycles with a bounded history buffer of
              interpreter-side addresses and emit the last executed
              iteration, inner loops included once.
netplus       net, plus a bounded look-ahead over the observed control
              flow for paths returning to the recording's entry.
net-r         net, relaxed: recording stops on a repeated address
              (a cycle) rather than on a backward branch.
netplus-e-r   net-r recording plus look-ahead accepting paths returning
              to any recorded address.

All hotness profiling happens on interpreter-side transitions only.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Optional, Sequence

import numpy as np

from . import automaton
from .trace_io import Trace, TraceFile, _runs

TECHNIQUES = ("net", "mret2", "lei", "netplus", "net-r", "netplus-e-r")

DEFAULT_THRESHOLD = 1024
DEFAULT_MAX_REGION_SIZE = 1024
DEFAULT_EXPANSION_DEPTH = 10
DEFAULT_HISTORY_CAPACITY = 8192


@dataclass(frozen=True)
class RFTConfig:
    """Technique selection plus the shared numeric knobs."""

    technique: str = "net"
    threshold: int = DEFAULT_THRESHOLD
    max_region_size: int = DEFAULT_MAX_REGION_SIZE
    expansion_depth: int = DEFAULT_EXPANSION_DEPTH
    history_capacity: int = DEFAULT_HISTORY_CAPACITY

    def __post_init__(self):
        if self.technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {self.technique!r}; "
                             f"expected one of {', '.join(TECHNIQUES)}")
        for name in ("threshold", "max_region_size", "expansion_depth",
                     "history_capacity"):
            if _check_int(name, getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")


def _check_int(name: str, value):
    """``value`` of config field ``name``, which must be an int: not a bool,
    and not a float, which runs on a short trace and fails on a long one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def mret2_intersect(pass1: list[tuple[int, int]],
                    pass2: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Elements of pass1, in pass1 order, whose addresses also occur in
    pass2.  Both passes must share the same entry address, so the entry
    always survives."""
    if pass1[0][0] != pass2[0][0]:
        raise ValueError("recording passes have different entry addresses")
    in_pass2 = {a for a, _ in pass2}
    return [(a, s) for a, s in pass1 if a in in_pass2]


# --- managers --------------------------------------------------------------

class RegionManager:
    """Base contract, and the one scan driver of all six techniques.

    Managers work on address ids (``Trace.table()``), which keep the
    addresses' order; the regions they emit hold ids too.  The engine
    calls ``begin(source, start, end, held)`` once, to replay items
    ``start..end-1`` of ``source``, a ``Trace`` or a ``TraceFile``;
    ``held`` is nonzero at each id some region holds (``Automaton.held``,
    which grows in place), one entry per id, so the per-id counters are
    arrays of that length.  A scan indexes ``held``.  The engine then
    feeds the window in
    chunks, each a ``Trace`` of the source's items from ``base`` on: a
    trace in memory is one chunk at base 0, and a file is read
    ``trace_io._REPLAY_CHUNK`` items at a time.  ``attach(chunk, base)``
    binds the chunk's id column, the ``array`` the per-item loop reads
    (``Trace._ids``) and a numpy view of it, which ``_span`` slices, and
    its sizes, and ``detach()`` lets go of them before the next chunk is
    read.

    Scans and hooks work in chunk indices.  An index leaves the
    chunk only as an emission's due index, which ``complete`` gets as a
    trace index, and where LEI's emission and the look-ahead's flow map
    read items back (``_span``): from the chunk when it holds them, else
    from the source, so neither holds more of the trace than it reads.

    ``scan(i, end, prev)`` is called while the automaton's cursor sits on
    the interpreter state and visits items from ``i`` in trace order;
    ``end`` is the chunk's end or the window's, whichever comes first.
    ``prev`` is what item ``i`` is compared with for a backward branch:
    the previous item's id, -1 before a window's first item, or
    infinity after a region exit (``Automaton.run_native_stretch`` returns
    it), so that a region-exit target is profiled whatever its address.
    It returns ``(k, region)`` and stops at whichever comes first:

    - item ``i`` itself, ``(i, None)``, when the manager profiles and
      item ``i``'s bump, if any, stays below the threshold: the kernel
      profiles the run from there;
    - an emission while seeing item ``k``, due at ``k``;
    - the first item ``k`` whose id is held: that item enters a
      region.  A recording in flight would stop on the next item, seen
      after the entry, so when item ``k + 1`` lies in the window, in this
      chunk or a later one, the scan emits it at once, due at ``k + 1``;
      otherwise ``region`` is None;
    - ``end``: ``(end, None)``.

    ``region`` is None or the positional arguments of
    ``Automaton.append_region``, which the engine installs before it steps
    item ``k``.  Installing an emission due at ``k + 1`` that early changes
    nothing: item ``k``'s address is already held by an earlier region,
    which keeps it.  A scan never acts on an item past the one it stops
    at, and a recording in flight never outlives its scan unless that scan
    reached its ``end``: the next chunk's first scan carries it on.

    ``scan`` owns the loop, and a technique supplies three hooks.  While
    the manager profiles (``_profiling``), the scan applies the rule that
    five techniques share to item ``i`` alone: an item whose id is below
    ``prev`` bumps that id's count in ``_hot``, and the bump that reaches
    the threshold resets the count and calls ``_start(i, a)``.  If none
    does, the scan returns ``(i, None)``: the kernel, lent the counts,
    steps item ``i`` and profiles the rest of the run.  Otherwise, and
    for every item while a formation is in flight, each item goes to
    ``_see(i, a, prev)``, which records or arms it and returns a region
    to emit, or None, and a held item ends the scan, which returns
    ``_entered(i)`` with it: the emission due at ``i + 1``, or None.  A
    formation in flight steps item by item: it is short, and ends at the
    first held item.  ``LeiManager`` has no formation in flight and
    replaces the scan: it pushes item ``i`` alone and emits when that
    push is hot.

    Each emission passes its recorded ``(id, size)`` pairs through
    ``complete(items, due)``, which returns the region; look-ahead
    managers expand the recording there by the window's flow up to
    ``due``.

    ``exit_counts`` is read after each scan.  It is None while a
    formation is in flight; otherwise it is ``_hot``, or for ``lei`` its
    history, which the engine lends the kernel with the threshold.  The
    kernel then bumps the counts as the scan would, both for region-exit
    followers and for backward branches taken interpreter-side, or pushes
    the history, and returns unwritten at the bump or push that reaches
    the threshold, so that the scan, called there with ``prev``, makes it
    and starts the recording or emits.
    """

    def __init__(self, config: RFTConfig):
        self._threshold = config.threshold
        self._max_size = config.max_region_size
        # each id's hotness: the count of its bumps as a backward-branch or
        # region-exit target, or for lei of the cycles it heads
        self._hot = array("q")
        # the manager profiles, with no formation in flight, while this
        # is set
        self._profiling = True

    @property
    def exit_counts(self) -> Optional[array]:
        """The hotness counters while the manager profiles."""
        return self._hot if self._profiling else None

    # The scan loops with `while True`: CPython 3.11 specializes a
    # function's bytecode only after a warm-up that counts calls and
    # unconditional backward jumps, not the conditional jump closing a
    # `while <condition>` loop, and one scan call often covers a long run.
    def scan(self, i: int, end: int, prev: float) -> tuple[int, Optional[tuple]]:
        addrs, held = self._addrs, self._held
        if self._profiling:
            # the first item's bump; the kernel profiles the rest of the run
            a = addrs[i]
            if a >= prev:
                return i, None
            c = self._hot[a] + 1
            if c < self._threshold:
                self._hot[a] = c
                return i, None
            self._hot[a] = 0
            self._start(i, a)
            if held[a]:
                return i, self._entered(i)
            prev = a
            i += 1
        while True:
            if i >= end:
                return end, None
            a = addrs[i]
            region = self._see(i, a, prev)
            if region is not None:
                return i, region
            if held[a]:
                return i, self._entered(i)
            prev = a
            i += 1

    def _start(self, i: int, a: int) -> None:
        raise NotImplementedError

    def _see(self, i: int, a: int, prev: float) -> Optional[tuple]:
        raise NotImplementedError

    def _entered(self, i: int) -> Optional[tuple]:
        return None

    # the benchmark harness still wraps this; nothing calls it
    def _handle(self, *args) -> None: ...

    def begin(self, source: Trace | TraceFile, start: int, end: int,
              held: Sequence[int]) -> None:
        self._source, self._window_end, self._held = source, end, held
        self._hot = array("q", [0]) * len(held)

    def attach(self, chunk: Trace, base: int) -> None:
        self._addrs, self._col, self._sizes = chunk._ids, np.asarray(chunk._ids), chunk.sizes
        self._base = base
        # the window's end, in the chunk's indices
        self._end = self._window_end - base

    def detach(self) -> None:
        self._addrs = self._col = self._sizes = None

    def _span(self, lo: int, hi: int) -> tuple[np.ndarray, Sequence[int]]:
        """The ids and the sizes of trace items ``lo..hi-1``, each indexed
        from 0: views of the chunk when it holds them all, else read from
        the source."""
        base = self._base
        if lo >= base and hi - base <= len(self._sizes):
            return self._col[lo - base:hi - base], memoryview(self._sizes)[lo - base:hi - base]
        part = self._source.read(lo, hi)
        return np.asarray(part._ids), part.sizes

    def complete(self, items: list[tuple[int, int]], due: int) -> tuple:
        return (items,)


class NetManager(RegionManager):
    """Next-executing-tail profiling and linear recording.

    Targets of backward branches taken interpreter-side and targets
    executed right after a region exit accumulate hotness; reaching the
    threshold starts a recording seeded with that instruction and resets
    its counter.  Recording stops on a backward branch, on entry into an
    existing region, or at the size cap; the stopping instruction is not
    appended.
    """

    def __init__(self, config: RFTConfig):
        super().__init__(config)
        # the recording in flight; empty while profiling
        self._rec: list[tuple[int, int]] = []

    def _start(self, i, a):
        self._rec = [(a, self._sizes[i])]
        self._profiling = False

    def _see(self, i, a, prev):
        return self._emit(i) if self._record(i, a, prev) else None

    def _record(self, i: int, a: int, prev: float) -> bool:
        """Append item ``i`` to the recording, or return True if it stops
        the recording instead."""
        if a < prev or len(self._rec) >= self._max_size:
            return True
        self._rec.append((a, self._sizes[i]))
        return False

    def _entered(self, i):
        return self._emit(i + 1) if i + 1 < self._end else None

    def _emit(self, due: int) -> tuple:
        rec, self._rec = self._rec, []
        self._profiling = True
        return self.complete(rec, self._base + due)


class NetRManager(NetManager):
    """Relaxed stop condition: a repeated recorded address ends the
    recording instead of a backward branch, so emitted recordings never
    contain duplicates."""

    def __init__(self, config: RFTConfig):
        super().__init__(config)
        self._rec_set: set[int] = set()

    def _start(self, i, a):
        super()._start(i, a)
        self._rec_set = {a}

    def _record(self, i, a, prev):
        if a in self._rec_set or len(self._rec) >= self._max_size:
            return True
        self._rec.append((a, self._sizes[i]))
        self._rec_set.add(a)
        return False


_IDLE, _REC1, _ARMED, _REC2 = range(4)


class Mret2Manager(NetManager):
    """Two recording passes from the same entry; emits their intersection.

    The second pass arms when the first stops and begins on the next
    interpreter-side execution of the entry address, with no second climb
    to the threshold.  Profiling is suspended while a formation is in
    flight.  Each pass records and stops as in net.
    """

    def __init__(self, config: RFTConfig):
        super().__init__(config)
        self._state = _IDLE
        self._pass1: list[tuple[int, int]] = []
        self._entry = -1

    def _start(self, i, a):
        super()._start(i, a)
        self._state = _REC1

    def _see(self, i, a, prev):
        if self._state != _ARMED:
            if not self._record(i, a, prev):
                return None
            if self._state == _REC2:
                return self._emit(i)
            self._end_pass1()
        # armed: the entry starts the second pass
        if a == self._entry:
            self._state = _REC2
            self._rec = [(a, self._sizes[i])]
        return None

    def _entered(self, i):
        if i + 1 < self._end:
            if self._state == _REC2:
                return self._emit(i + 1)
            if self._state == _REC1:
                # the first pass stops on the next item, which follows a
                # region entry and so cannot start the second pass
                self._end_pass1()
        return None

    def _end_pass1(self) -> None:
        self._pass1, self._rec = self._rec, []
        self._entry = self._pass1[0][0]
        self._state = _ARMED

    def _emit(self, due):
        self._rec = mret2_intersect(self._pass1, self._rec)
        self._state = _IDLE
        return super()._emit(due)


class LeiManager(RegionManager):
    """Last-executed-iteration regions from a history buffer.

    Every interpreter-side instruction is pushed through a history of the
    last ``history_capacity`` pushes; a repeated address in it marks a
    cycle and bumps the cycle head's hotness.  Once hot, the slice
    covering the last iteration is emitted with inner repetitions
    collapsed to their final occurrence, capped at the size limit, and
    the history restarts at the cycle head.

    The history is an ``automaton.History``: each address keeps one
    record at its id, its latest push position and its cycle count, and
    a ring holds the trace index of each of the latest pushes.  A restart
    only raises its floor.  lei has no formation in flight, so it always
    lends the history to the kernel as its ``exit_counts``, and the kernel
    pushes each item it steps after an interpreter-side one.  The scan
    pushes item ``i`` alone, the item the kernel stopped at unwritten, and
    emits when that push is hot.
    An emission reads the trace indices of the cycle's push positions
    from the ring, and the items from the trace a run of consecutive
    indices at a time (``_span``); each address takes its size from its
    last occurrence there, and the cycle head from the emitting item.
    """

    def __init__(self, config: RFTConfig):
        super().__init__(config)
        self._capacity = config.history_capacity

    def begin(self, source, start, end, held):
        super().begin(source, start, end, held)
        self._history = automaton.History(len(held), self._capacity, end - start)
        self._hot = self._history.counts

    def attach(self, chunk, base):
        super().attach(chunk, base)
        self._history.base = base

    @property
    def exit_counts(self) -> automaton.History:
        """The history, which the kernel pushes through."""
        return self._history

    def scan(self, i, end, prev):
        h = self._history
        a = self._addrs[i]
        pos = h.pos
        prior = h.last[a]
        h.last[a] = pos
        h.pos = pos + 1
        region = None
        if prior >= h.floor and pos - prior <= h.capacity:
            c = self._hot[a] + 1
            if c < self._threshold:
                self._hot[a] = c
            else:
                self._hot[a] = 0
                h.floor = pos
                region = self.complete(self._emit(i, prior, pos), self._base + i)
        # after the emission, which may read the slot it takes
        h.ring[pos % len(h.ring)] = self._base + i
        return i, region

    def _emit(self, i, prior, pos) -> list[tuple[int, int]]:
        # the trace indices of the pushes at positions [prior, pos), read
        # newest run of consecutive ones first, keeping each address at its
        # last occurrence
        ring = self._history.ring
        first, stop = prior % len(ring), (pos - 1) % len(ring) + 1
        t = ring[first:stop] if first < stop else ring[first:] + ring[:stop]
        cut = [0, *(k for k in range(1, len(t)) if t[k] != t[k - 1] + 1), len(t)]
        kept: list[tuple[int, int]] = []
        done: set[int] = set()
        for lo, hi in zip(reversed(cut[:-1]), reversed(cut[1:])):
            addrs, sizes = self._span(t[lo], t[hi - 1] + 1)
            for x, s in zip(reversed(addrs.tolist()), reversed(sizes)):
                if x not in done:
                    done.add(x)
                    kept.append((x, s))
        kept.reverse()
        # the cycle head, pushed at prior, takes the emitting item's size
        kept[0] = (kept[0][0], self._sizes[i])
        return kept[: self._max_size]


# --- look-ahead expansion ---------------------------------------------------


def _levels(sources: Collection, step: Callable, limit: int) -> dict:
    """Breadth-first search: each node reached from ``sources`` in at most
    ``limit`` steps, sources excluded, mapped to its fewest steps, where
    ``step(node)`` gives a node's neighbours.  Stops early once a step
    reaches no new node."""
    levels: dict = {}
    frontier = list(sources)
    d = 0
    while frontier and d < limit:
        d += 1
        nxt = []
        for u in frontier:
            for v in step(u):
                if v not in levels and v not in sources:
                    levels[v] = d
                    nxt.append(v)
        frontier = nxt
    return levels


def netplus_expand(cfg: Mapping[int, Sequence], recording: Sequence[tuple[int, int]],
                   depth: int, extended: bool = False,
                   ) -> tuple[tuple[tuple[int, int], ...], dict[int, tuple[int, ...]]]:
    """Bounded look-ahead over the observed control flow.

    ``cfg`` maps address -> (size, successor address set), reflecting all
    instruction pairs observed so far, in the trace window up to the
    emission's due index.  Starting from every successor of a recorded address that
    leaves the recording, walks of at most ``depth`` outside addresses are
    explored; a walk is accepted when it re-reaches the recording's entry
    (``extended=False``) or any recorded address (``extended=True``).
    Returns ``(members, successors)``, ``append_region``'s expansion
    arguments: the addresses on accepted walks, in address order with
    their sizes, and the observed successor relation restricted to the
    accepted and recorded addresses.

    The look-ahead is two breadth-first searches through ``_levels``.  The
    forward one, from the recording over known successors, gives each
    outside address the fewest outside addresses on a walk to it; the
    backward one, from the accepting addresses over predecessors among
    those reached, gives the fewest on a walk from it back.  An address
    is accepted when the two, less the address they share, sum to at
    most ``depth``.

    With sensible traces never-executed code cannot appear: the search
    knows only instructions that actually ran.
    """
    # the recorded addresses, once each in first-occurrence order
    region = dict.fromkeys(a for a, _ in recording)
    targets = region if extended else {recording[0][0]}
    reach = _levels(region, lambda u: [v for v in cfg[u][1] if v in cfg] if u in cfg else (),
                    depth)
    pred: dict[int, list[int]] = {}
    for u in reach:
        for v in cfg[u][1]:
            pred.setdefault(v, []).append(u)
    ret = _levels(targets, lambda v: pred.get(v, ()), depth)
    accepted = sorted(u for u, f in reach.items() if u in ret and f + ret[u] - 1 <= depth)
    acc_set = set(accepted)
    successors: dict[int, tuple[int, ...]] = {}
    for u in accepted:
        outs = sorted(v for v in cfg[u][1] if v in acc_set or v in region)
        if outs:
            successors[u] = tuple(outs)
    for a in region:
        outs = sorted(v for v in cfg[a][1] if v in acc_set) if a in cfg else ()
        if outs:
            successors[a] = tuple(outs)
    members = tuple((u, cfg[u][0]) for u in accepted)
    return members, successors


class _ExpansionMixin:
    """Adds emit-time look-ahead to a linear recording manager.

    The flow map is caught up lazily to each emission's due index ``i``:
    it knows each id in ``trace[start:i + 1]`` with its first size, and
    each pair ``(ids[j - 1], ids[j])`` with ``start < j <= i``.

    The catch-up reads the trace's id column in chunks of
    ``automaton._PASS_CHUNK`` items, each with the item before it so that
    the pair across the boundary is kept.  A sort finds a chunk's distinct
    ids, with the first index of each, and a sort of its pairs, each coded
    ``u * m + v`` for a table of ``m`` addresses, its distinct pairs.
    Only those distinct ids and pairs reach the map, so Python-level work
    grows with the flow's size, not the trace's, and a catch-up holds only
    one chunk's arrays at a time.
    """

    extended = False

    def __init__(self, config: RFTConfig):
        super().__init__(config)
        self._depth = config.expansion_depth

    def begin(self, source, start, end, held):
        super().begin(source, start, end, held)
        self._first = self._covered = start
        self._cfg: dict[int, list] = {}

    def complete(self, items, due):
        cfg = self._cfg
        m = np.uint64(len(self._held))
        lo = self._covered
        while lo <= due:
            hi = min(due + 1, lo + automaton._PASS_CHUNK)
            col, sizes = self._span(lo - 1 if lo > self._first else lo, hi)
            keys, first = np.unique(col, return_index=True)
            for a, f in zip(keys.tolist(), first.tolist()):
                if a not in cfg:
                    cfg[a] = [sizes[f], set()]
            ids = col.astype(np.uint64)
            # np.sort and a mask, several times faster than np.unique here
            pairs = np.sort(ids[:-1] * m + ids[1:])
            pairs = pairs[_runs(pairs)[0]]
            for u, v in zip((pairs // m).tolist(), (pairs % m).tolist()):
                cfg[u][1].add(v)
            lo = hi
        self._covered = lo
        return (items, *netplus_expand(cfg, items, self._depth, self.extended))


class NetPlusManager(_ExpansionMixin, NetManager):
    """Linear recording as in net, expanded with return paths to the entry."""


class NetPlusExtRManager(_ExpansionMixin, NetRManager):
    """Relaxed recording as in net-r, expanded with return paths to any
    recorded address."""

    extended = True


_MANAGERS = {
    "net": NetManager,
    "mret2": Mret2Manager,
    "lei": LeiManager,
    "netplus": NetPlusManager,
    "net-r": NetRManager,
    "netplus-e-r": NetPlusExtRManager,
}


def make_rft(config: RFTConfig) -> RegionManager:
    """Instantiate the manager for the configured technique."""
    return _MANAGERS[config.technique](config)
