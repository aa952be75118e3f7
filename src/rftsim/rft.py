"""Region formation techniques.

A region manager scans each interpreter-side run of the trace in one
call.  It sees each item together with whether the *previous* item
left a region, keeps its own hotness counters and recording buffers,
and occasionally emits a finished recording as the region to install.
Items executed inside regions are never shown to it: every technique
ignores native-side transitions except the entry into a region, which
ends a recording, and the scan handles that entry where it sees it.  An
idle manager lends its region-exit counters to the automaton's stepping
kernel, which counts the item after a region exit itself when that item
enters a region at once.  The engine installs an emitted region into
the automaton before performing the emitting item's transition, so a
recording stopped by a loop-closing branch catches that very branch
target as its first native execution.

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

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Collection, Mapping, Optional, Sequence

import numpy as np

from .trace_io import Trace, _distinct, _runs

TECHNIQUES = ("net", "mret2", "lei", "netplus", "net-r", "netplus-e-r")

DEFAULT_THRESHOLD = 1024
DEFAULT_MAX_REGION_SIZE = 1024
DEFAULT_EXPANSION_DEPTH = 10
DEFAULT_HISTORY_CAPACITY = 8192
# items per catch-up step of the lazy flow map, and the largest chunk of
# a scan's numpy pass, bounding their transient arrays to a few MB
_FLOW_CHUNK = 1 << 16
# items an idle stretch of a scan steps one by one before it hands the
# rest of its run to a numpy pass, and that pass's first chunk.  Measured
# as one chunk against stepping the same items one by one, on warm
# managers (Python 3.11, 2-core x86 host): for net a chunk of 512 items
# breaks even on uniform noise over 16k addresses (1.02x the per-item
# time; 0.44x at 65,536) and takes 0.66x on a 50-instruction loop, where
# 256 items break even.  lei takes 0.72x at 512 items on the loop, but on
# the noise, where a chunk holds almost as many addresses as items, it
# breaks even only near 16k items (1.89x at 512, 0.86x at 16k, 0.42x at
# 65,536), which the doubling chunks reach after about 16k items.
_HANDOFF = 512


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
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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

# The scans loop with `while True`: CPython 3.11 specializes a function's
# bytecode only after a warm-up that counts calls and unconditional
# backward jumps, not the conditional jump closing a `while <condition>`
# loop, and one scan call often covers a whole window.

class RegionManager:
    """Base contract: ``scan`` consumes one interpreter-side run.

    ``scan(addrs, sizes, i, end, la, kind, held)`` is called while the
    automaton's cursor sits on the interpreter state.  It visits items
    from ``i`` in trace order.  ``kind`` describes the item before item
    ``i``, whose address is ``la`` (-1 before a window's first item): 2
    when that item was a landing that left a region, so item ``i`` follows
    a region exit, and 0 when it stayed interpreter-side.  Every later item
    follows an interpreter-side item.  It returns ``(k, region)`` and
    stops at whichever comes first:

    - an emission while seeing item ``k``, due at ``k``;
    - the first item ``k`` whose address ``held`` (``Automaton.held``)
      contains: that item enters a region.  A recording in flight would
      stop on the next item, seen after the entry, so when ``k + 1 < end``
      the scan emits it at once, due at ``k + 1``; otherwise ``region`` is
      None;
    - ``end``: ``(end, None)``.

    ``region`` is None or the positional arguments of
    ``Automaton.append_region``, which the engine installs before it steps
    item ``k``.  Installing an emission due at ``k + 1`` that early changes
    nothing: item ``k``'s address is already held by an earlier region,
    which keeps it.  A scan never acts on an item past the one it stops
    at, and a recording in flight never outlives its scan unless that scan
    reached the window's end.

    ``held`` is a collection of addresses: the engine passes
    ``Automaton.held``, a dict, and ``tests/conftest.py::scan_run`` a set.
    A scan tests it for membership and, in its numpy pass, for emptiness.

    The engine calls ``attach(trace, start)`` before replaying
    ``trace[start:]``; the manager keeps the trace's u64 address column
    (``Trace.column``), which its numpy passes slice.  The built-in scans
    step each item in Python until an idle stretch (no recording in
    flight, which for ``lei`` is always) has taken ``_HANDOFF`` items;
    then they hand the rest of the run to a numpy pass (``_profile`` for
    net, its variants and an idle mret2, ``LeiManager._push`` for lei).
    The pass reads the column in chunks of ``_HANDOFF`` items doubling up
    to ``_FLOW_CHUNK`` and returns the first item that stops the scan, a
    held item or one whose bump or push reaches the threshold, with every
    item before it applied; the scan then steps that item itself.  Scans
    shorter than ``_HANDOFF`` never hand off: numpy's cost per call would
    outweigh what it saves on them.

    Each emission passes its recorded ``(address, size)`` pairs through
    ``complete(items, due)``, which returns the region; look-ahead
    managers expand the recording there by the window's flow up to
    ``due``.

    ``exit_counts`` is read after each scan.  It is None, or the dict in
    which the manager counts a region-exit follower (the item after a
    landing that left a region) when that follower is all it would do
    with it: bump its count below the threshold and return at it, since
    it enters a region.  The engine hands that dict and the threshold to
    the kernel (``Automaton.run_native_stretch``), which then makes that
    bump itself for a held follower and steps on.  So a scan with
    ``kind`` 2 still sees the followers that are not held, those whose
    bump reaches the threshold, and every follower while the dict is
    None: while a formation is in flight, and always for ``lei``, whose
    history takes every interpreter-side item.
    """

    exit_counts: Optional[dict[int, int]] = None

    def scan(self, addrs: Sequence[int], sizes: Sequence[int], i: int, end: int,
             la: int, kind: int, held: Collection[int]) -> tuple[int, Optional[tuple]]:
        raise NotImplementedError

    # the benchmark harness still wraps this; nothing calls it
    def _handle(self, *args) -> None: ...

    def attach(self, trace: Trace, start: int) -> None:
        self._col = trace.column

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
        self._threshold = config.threshold
        self._max_size = config.max_region_size
        self._hot: dict[int, int] = {}
        # the recording in flight; empty while profiling
        self._rec: list[tuple[int, int]] = []

    @property
    def exit_counts(self) -> Optional[dict[int, int]]:
        """The hotness counters while no recording is in flight."""
        return None if self._rec else self._hot

    def _start(self, a: int, s: int) -> None:
        self._rec = [(a, s)]

    def _append(self, a: int, s: int) -> None:
        self._rec.append((a, s))

    def _stops(self, la: int, a: int) -> bool:
        return a < la or len(self._rec) >= self._max_size

    def scan(self, addrs, sizes, i, end, la, kind, held):
        hot = self._hot
        threshold = self._threshold
        rec = self._rec
        # a region-exit target is profiled whatever its address
        prev = math.inf if kind == 2 else la
        stop = i + _HANDOFF if end - i > _HANDOFF and not rec else end
        while True:
            if i >= stop:
                if i < end:
                    if not rec:
                        i = _profile(hot, threshold, self._col, i, end, held)
                        prev = addrs[i - 1]
                    stop = end
                if i >= end:
                    return end, None
            a = addrs[i]
            if rec:
                if self._stops(prev, a):
                    self._rec = []
                    return i, self.complete(rec, i)
                self._append(a, sizes[i])
            elif a < prev:
                c = hot.get(a, 0) + 1
                if c < threshold:
                    hot[a] = c
                else:
                    hot[a] = 0
                    self._start(a, sizes[i])
                    rec = self._rec
            if a in held:
                if rec and i + 1 < end:
                    self._rec = []
                    return i, self.complete(rec, i + 1)
                return i, None
            prev = a
            i += 1


class NetRManager(NetManager):
    """Relaxed stop condition: a repeated recorded address ends the
    recording instead of a backward branch, so emitted recordings never
    contain duplicates."""

    def __init__(self, config: RFTConfig):
        super().__init__(config)
        self._rec_set: set[int] = set()

    def _start(self, a, s):
        self._rec = [(a, s)]
        self._rec_set = {a}

    def _append(self, a, s):
        self._rec.append((a, s))
        self._rec_set.add(a)

    def _stops(self, la, a):
        return a in self._rec_set or len(self._rec) >= self._max_size


_IDLE, _REC1, _ARMED, _REC2 = range(4)


class Mret2Manager(RegionManager):
    """Two recording passes from the same entry; emits their intersection.

    The second pass arms when the first stops and begins on the next
    interpreter-side execution of the entry address, with no second climb
    to the threshold.  Profiling is suspended while a formation is in
    flight.
    """

    def __init__(self, config: RFTConfig):
        self._threshold = config.threshold
        self._max_size = config.max_region_size
        self._hot: dict[int, int] = {}
        self._state = _IDLE
        self._rec: list[tuple[int, int]] = []
        self._pass1: list[tuple[int, int]] = []
        self._entry = -1

    @property
    def exit_counts(self) -> Optional[dict[int, int]]:
        """The hotness counters while no formation is in flight."""
        return self._hot if self._state == _IDLE else None

    def _end_pass1(self) -> None:
        self._pass1 = self._rec
        self._rec = []
        self._entry = self._pass1[0][0]

    def _emit(self) -> list[tuple[int, int]]:
        pass2 = self._rec
        self._rec = []
        self._state = _IDLE
        return mret2_intersect(self._pass1, pass2)

    def scan(self, addrs, sizes, i, end, la, kind, held):
        hot = self._hot
        threshold = self._threshold
        st = self._state
        # a region-exit target is profiled whatever its address
        prev = math.inf if kind == 2 else la
        stop = i + _HANDOFF if end - i > _HANDOFF and st == _IDLE else end
        while True:
            if i >= stop:
                if i < end:
                    if st == _IDLE:
                        i = _profile(hot, threshold, self._col, i, end, held)
                        prev = addrs[i - 1]
                    stop = end
                if i >= end:
                    self._state = st
                    return end, None
            a = addrs[i]
            if st == _IDLE:
                if a < prev:
                    c = hot.get(a, 0) + 1
                    if c < threshold:
                        hot[a] = c
                    else:
                        hot[a] = 0
                        st = _REC1
                        self._rec = [(a, sizes[i])]
            elif st == _ARMED:
                if a == self._entry:
                    st = _REC2
                    self._rec = [(a, sizes[i])]
            elif a < prev or len(self._rec) >= self._max_size:
                if st == _REC2:
                    return i, self.complete(self._emit(), i)
                self._end_pass1()
                if a == self._entry:
                    st = _REC2
                    self._rec = [(a, sizes[i])]
                else:
                    st = _ARMED
            else:
                self._rec.append((a, sizes[i]))
            if a in held:
                if i + 1 < end:
                    if st == _REC2:
                        return i, self.complete(self._emit(), i + 1)
                    if st == _REC1:
                        # the first pass stops on the next item, which
                        # follows a region entry and so cannot start the
                        # second pass
                        self._end_pass1()
                        st = _ARMED
                self._state = st
                return i, None
            prev = a
            i += 1


class LeiManager(RegionManager):
    """Last-executed-iteration regions from a history buffer.

    Every interpreter-side instruction is pushed through a history of the
    last ``history_capacity`` pushes; a repeated address in it marks a
    cycle and bumps the cycle head's hotness.  Once hot, the slice
    covering the last iteration is emitted with inner repetitions
    collapsed to their final occurrence, capped at the size limit, and
    the history restarts at the cycle head.

    The history is not stored item by item.  Each push gets a global
    position, and the pushes of one scan are consecutive trace items, so
    the history is held as runs, one ``(first position, first trace
    index)`` per scan; runs wholly before the last ``history_capacity``
    pushes are trimmed now and then.  A restart only raises the floor: a
    prior push counts when it is among the last ``history_capacity``
    pushes and not below the floor.  Each address keeps one record, its
    latest push position and its cycle count, in the slot of two lists
    that a dict gives it, so a push is one lookup and the numpy pass
    reads and writes a chunk's records once per distinct address.
    An emission maps the window's positions back to trace indices
    through the runs; each address takes its size from its last
    occurrence there, and the cycle head from the emitting item.
    """

    def __init__(self, config: RFTConfig):
        self._threshold = config.threshold
        self._max_size = config.max_region_size
        self._capacity = config.history_capacity
        # address -> its record's slot in the two columns below
        self._slot: dict[int, int] = {}
        # per slot: the latest push position and the cycle count
        self._last: list[int] = []
        self._count: list[int] = []
        # (first push position, first trace index) per scan, oldest first
        self._runs: list[tuple[int, int]] = []
        self._pos = 0  # position of the next push
        self._floor = 0  # position of the latest restart
        self._trim_at = 2 * config.history_capacity

    def scan(self, addrs, sizes, i, end, la, kind, held):
        slot = self._slot
        last = self._last
        count = self._count
        threshold = self._threshold
        cap = self._capacity
        floor = self._floor
        pos = self._pos
        if pos >= self._trim_at:
            self._trim(pos)
        self._runs.append((pos, i))
        stop = i + _HANDOFF if end - i > _HANDOFF else end
        while True:
            if i >= stop:
                if i < end:
                    k = self._push_run(i, end, pos, held)
                    pos += k - i
                    i = k
                    stop = end
                if i >= end:
                    self._pos = pos
                    return end, None
            a = addrs[i]
            r = slot.get(a)
            if r is None:
                slot[a] = len(last)
                last.append(pos)
                count.append(0)
            else:
                prior = last[r]
                last[r] = pos
                if prior >= floor and pos - prior <= cap:
                    c = count[r] + 1
                    if c >= threshold:
                        count[r] = 0
                        self._floor = pos
                        self._pos = pos + 1
                        return i, self.complete(self._emit(addrs, sizes, i, prior, pos), i)
                    count[r] = c
            pos += 1
            if a in held:
                self._pos = pos
                return i, None
            i += 1

    # kept out of scan, whose locals this closure would turn into cell
    # variables, slower to read in its per-item loop
    def _push_run(self, i, end, pos, held) -> int:
        """Push items from ``i``, the first at position ``pos``, in numpy
        chunks up to the first item that stops the scan (see ``_push``);
        returns that item's index, or ``end``."""
        shift = pos - i  # push position minus trace index
        return _chunked(lambda lo, hi: self._push(lo, hi, lo + shift, held), i, end)

    def _push(self, lo, hi, pos, held) -> int:
        """Push items ``lo..hi-1``, the first at position ``pos``, as the
        per-item loop would, unless one of them stops the scan: a held
        item, or one whose push reaches the threshold.  Returns ``hi``, or
        the index of the first such item with nothing pushed."""
        col = self._col[lo:hi]
        n = hi - lo
        keys, starts, lengths, items = _grouped(col)
        klist = keys.tolist()
        last = self._last
        count = self._count
        # each address's record, if it has one: its slot, its latest push
        # (-1, below any floor, if none) and its cycle count
        slots = np.fromiter(map(self._slot.get, klist, repeat(-1)),
                            dtype=np.int64, count=len(klist))
        known = slots >= 0
        olds = slots[known].tolist()
        latest = np.full(len(klist), -1, dtype=np.int64)
        latest[known] = np.fromiter(map(last.__getitem__, olds), dtype=np.int64, count=len(olds))
        base = np.zeros(len(klist), dtype=np.int64)
        base[known] = np.fromiter(map(count.__getitem__, olds), dtype=np.int64, count=len(olds))
        # each item's prior push: the previous item of its address in the
        # chunk, or its address's latest push
        at = items + pos
        prior = np.empty(n, dtype=np.int64)
        prior[1:] = at[:-1]
        prior[starts] = latest
        cyc = (prior >= self._floor) & (at - prior <= self._capacity)
        # each address's running count of cycles, from its record's count
        run = np.cumsum(cyc)
        run += np.repeat(base - run[starts] + cyc[starts], lengths)
        hot = items[cyc & (run >= self._threshold)]
        k = _first_held(col, held) if held else n
        if len(hot):
            k = min(k, int(hot.min()))
        if k < n:
            return lo + k
        ends = starts + lengths - 1
        latest = at[ends]
        cycles = run[ends]
        for r, p, c in zip(olds, latest[known].tolist(), cycles[known].tolist()):
            last[r] = p
            count[r] = c
        # the per-item loop's first push of an address adds its record
        fresh = ~known
        top = len(last)
        self._slot.update(zip(keys[fresh].tolist(), range(top, top + len(klist) - len(olds))))
        last.extend(latest[fresh].tolist())
        count.extend(cycles[fresh].tolist())
        return hi

    def _trim(self, pos: int) -> None:
        runs = self._runs
        oldest = pos - self._capacity
        j = 0
        while j + 1 < len(runs) and runs[j + 1][0] <= oldest:
            j += 1
        del runs[:j]
        self._trim_at = pos + self._capacity

    def _emit(self, addrs, sizes, i, prior, pos) -> list[tuple[int, int]]:
        # walk the pushes at positions [prior, pos) newest first, keeping
        # each address at its last occurrence
        kept: list[tuple[int, int]] = []
        done: set[int] = set()
        stop = pos
        for p, t in reversed(self._runs):
            shift = t - p  # trace index minus push position in this run
            for j in reversed(range(max(p, prior) + shift, stop + shift)):
                x = addrs[j]
                if x not in done:
                    done.add(x)
                    kept.append((x, sizes[j]))
            if p <= prior:
                break
            stop = p
        kept.reverse()
        # the cycle head, pushed at prior, takes the emitting item's size
        kept[0] = (kept[0][0], sizes[i])
        return kept[: self._max_size]


# --- numpy passes over trace chunks -------------------------------------------

def _grouped(col: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(keys, starts, lengths, items)``: ``items`` lists the indices of
    ``col`` ordered by value, then by index; the group of ``keys[g]``, the
    g-th smallest distinct value, is the ``lengths[g]`` items from
    ``items[starts[g]]``.

    When the values' span allows, one sort of the u64 codes
    ``(value - smallest) * n + index`` orders them, several times faster
    than a stable argsort, which orders wider spans."""
    n = len(col)
    low = int(col.min())
    if (int(col.max()) - low + 1) * n <= 1 << 64:
        code = np.sort((col - np.uint64(low)) * np.uint64(n) + np.arange(n, dtype=np.uint64))
        ordered, items = np.divmod(code, np.uint64(n))
        starts, lengths = _runs(ordered)
        keys = ordered[starts] + np.uint64(low)
    else:
        items = np.argsort(col, kind="stable")
        starts, lengths = _runs(col[items])
        keys = col[items[starts]]
    return keys, starts, lengths, items.astype(np.int64)


def _first_held(col: np.ndarray, held: Collection[int]) -> int:
    """The index of the first element of ``col`` that ``held`` contains,
    or ``len(col)``."""
    hit = [a for a in _distinct(np.sort(col)).tolist() if a in held]
    if not hit:
        return len(col)
    return int(np.isin(col, np.array(hit, dtype=np.uint64)).argmax())


def _chunked(step: Callable[[int, int], int], i: int, end: int) -> int:
    """Run ``step(lo, hi)`` over ``[i, end)`` in chunks of ``_HANDOFF``
    items doubling up to ``_FLOW_CHUNK``.  A step applies its chunk and
    returns ``hi``, or returns the index of the chunk's first item that
    stops the scan with nothing applied; the items before that one are
    then applied as a shorter chunk, and that index is returned."""
    size = min(_HANDOFF, _FLOW_CHUNK)
    while i < end:
        hi = min(end, i + size)
        k = step(i, hi)
        if k < hi:
            if k > i:
                step(i, k)
            return k
        i = hi
        size = min(2 * size, _FLOW_CHUNK)
    return end


def _profile(hot: dict[int, int], threshold: int, column: np.ndarray, i: int,
             end: int, held: Collection[int]) -> int:
    """Profile items ``i..end-1`` of the u64 address ``column`` as an idle
    net or mret2 scan would after stepping item ``i - 1`` itself, so that
    item ``i`` is bumped when it is a backward-branch target, and return
    the index of the first item that stops the scan, with every item
    before it profiled: the first held item, or the first whose bump
    reaches the threshold.  Returns ``end`` if none does."""

    def step(lo, hi):
        col = column[lo:hi]
        n = hi - lo
        back = col < column[lo - 1:hi - 1]
        k = _first_held(col, held) if held else n
        at = back[:k].nonzero()[0]
        targets = col[at]
        ordered = np.sort(targets)
        starts, bumps = _runs(ordered)
        klist = ordered[starts].tolist()
        base = np.fromiter(map(hot.get, klist, repeat(0)), dtype=np.int64, count=len(klist))
        total = base + bumps
        over = total >= threshold
        if over.any():
            # an address over the threshold crossed it at the bump that
            # took its record's count to the threshold
            _, starts, _, items = _grouped(targets)
            k = int(at[items[(starts + threshold - base - 1)[over]]].min())
        if k < n:
            return lo + k
        hot.update(zip(klist, total.tolist()))
        return hi

    return _chunked(step, i, end)


# --- look-ahead expansion ---------------------------------------------------


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

    With sensible traces never-executed code cannot appear: the search
    knows only instructions that actually ran.
    """
    rec_addrs = [a for a, _ in recording]
    region = set(rec_addrs)
    targets = region if extended else {rec_addrs[0]}
    # forward pass: fewest outside addresses needed to reach each node
    reach: dict[int, int] = {}
    frontier = list(region)
    d = 0
    while frontier and d < depth:
        nxt: list[int] = []
        for u in frontier:
            ent = cfg.get(u)
            if not ent:
                continue
            for v in ent[1]:
                if v not in region and v not in reach and v in cfg:
                    reach[v] = d + 1
                    nxt.append(v)
        frontier = nxt
        d += 1
    if not reach:
        return (), {}
    # backward pass: fewest outside addresses from each node to acceptance
    rev: dict[int, list[int]] = {}
    ret: dict[int, int] = {}
    frontier = []
    for u in reach:
        accepts = False
        for v in cfg[u][1]:
            if v in targets:
                accepts = True
            elif v in reach:
                rev.setdefault(v, []).append(u)
        if accepts:
            ret[u] = 1
            frontier.append(u)
    d = 1
    while frontier:
        nxt = []
        for v in frontier:
            for u in rev.get(v, ()):
                if u not in ret:
                    ret[u] = d + 1
                    nxt.append(u)
        frontier = nxt
        d += 1
    accepted = sorted(u for u, f in reach.items() if u in ret and f + ret[u] - 1 <= depth)
    if not accepted:
        return (), {}
    acc_set = set(accepted)
    successors: dict[int, tuple[int, ...]] = {}
    for u in accepted:
        outs = sorted(v for v in cfg[u][1] if v in acc_set or v in region)
        if outs:
            successors[u] = tuple(outs)
    seen_rec: set[int] = set()
    for a in rec_addrs:
        if a in seen_rec:
            continue
        seen_rec.add(a)
        ent = cfg.get(a)
        if not ent:
            continue
        outs = sorted(v for v in ent[1] if v in acc_set)
        if outs:
            successors[a] = tuple(outs)
    members = tuple((u, cfg[u][0]) for u in accepted)
    return members, successors


class _ExpansionMixin:
    """Adds emit-time look-ahead to a linear recording manager.

    The flow map is caught up lazily to each emission's due index ``i``:
    it knows each address in ``trace[start:i + 1]`` with its first size,
    and each pair ``(addresses[j - 1], addresses[j])`` with
    ``start < j <= i``.

    The catch-up reads the trace's u64 address column in chunks of
    ``_FLOW_CHUNK`` items, each with the item before it so that the pair
    across the boundary is kept.  A sort finds a chunk's distinct addresses,
    which number each item, and a sort of the numbered pairs finds its
    distinct pairs.  Only those distinct addresses and pairs reach the
    map, so Python-level work grows with the flow's size, not the
    trace's, and a catch-up holds only one chunk's arrays at a time.
    """

    extended = False

    def __init__(self, config: RFTConfig):
        super().__init__(config)
        self._depth = config.expansion_depth
        self._cfg: dict[int, list] = {}

    def attach(self, trace, start):
        super().attach(trace, start)
        self._sizes = trace.sizes
        self._base = self._covered = start
        self._cfg = {}

    def complete(self, items, due):
        cfg = self._cfg
        sizes = self._sizes
        lo = self._covered
        while lo <= due:
            hi = min(due + 1, lo + _FLOW_CHUNK)
            j = lo - 1 if lo > self._base else lo
            col = self._col[j:hi]
            keys = _distinct(np.sort(col))
            ids = np.searchsorted(keys, col)
            n, m = len(col), len(keys)
            # each distinct address's first index in the chunk
            first = np.full(m, n)
            np.minimum.at(first, ids, np.arange(n))
            for a, f in zip(keys.tolist(), first.tolist()):
                if a not in cfg:
                    cfg[a] = [sizes[j + f], set()]
            # a pair of ids (u, v) is coded u * m + v, below 2**33
            pairs = _distinct(np.sort(ids[:-1] * m + ids[1:]))
            for u, v in zip(keys[pairs // m].tolist(), keys[pairs % m].tolist()):
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
