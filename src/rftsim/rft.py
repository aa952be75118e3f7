"""Region formation techniques.

A region manager watches every consumed instruction together with the
transition the automaton performed for the *previous* instruction, keeps
its own hotness counters and recording buffers, and occasionally emits a
finished recording.  The engine installs emitted recordings into the
automaton before performing the current instruction's transition, so a
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

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .automaton import TransitionKind
from .trace_io import Trace, TraceItem

TECHNIQUES = ("net", "mret2", "lei", "netplus", "net-r", "netplus-e-r")

DEFAULT_THRESHOLD = 1024
DEFAULT_MAX_REGION_SIZE = 1024
DEFAULT_EXPANSION_DEPTH = 10
DEFAULT_HISTORY_CAPACITY = 8192
# items per catch-up step of the lazy flow map, bounding its transient lists
_FLOW_CHUNK = 1 << 12

_STAYED_INTERP = int(TransitionKind.STAYED_INTERP)
_INTERP_TO_NATIVE = int(TransitionKind.INTERP_TO_NATIVE)
_NATIVE_TO_INTERP = int(TransitionKind.NATIVE_TO_INTERP)


def was_backward_branch(last: Optional[TraceItem], current: TraceItem) -> bool:
    """True iff flow from ``last`` to ``current`` is a taken backward branch.

    Backward means non-sequential (``current.address != last.address +
    last.size``) and targeting a lower address.  With sizes >= 1 the
    address comparison alone implies non-sequential flow; both clauses are
    kept for traces that violate the size invariant.
    """
    if last is None:
        return False
    return current[0] != last[0] + last[1] and current[0] < last[0]


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


@dataclass(frozen=True)
class RegionExpansion:
    """Look-ahead result: extra (address, size) members plus the observed
    successor relation used to wire them into the appended region."""

    members: tuple[tuple[int, int], ...]
    successors: Mapping[int, tuple[int, ...]]


class RegionRecording:
    """Ordered (address, size) pairs captured during one recording pass."""

    __slots__ = ("items", "expansion")

    def __init__(self, items: Sequence[tuple[int, int]],
                 expansion: Optional[RegionExpansion] = None):
        if not items:
            raise ValueError("empty recording")
        self.items = list(items)
        self.expansion = expansion

    @property
    def entry_address(self) -> int:
        return self.items[0][0]

    def addresses(self) -> list[int]:
        return [a for a, _ in self.items]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __eq__(self, other):
        return (isinstance(other, RegionRecording)
                and self.items == other.items and self.expansion == other.expansion)

    def __repr__(self):
        return f"RegionRecording({self.items!r}, expansion={self.expansion!r})"


def mret2_intersect(pass1: RegionRecording, pass2: RegionRecording) -> RegionRecording:
    """Elements of pass1, in pass1 order, whose addresses also occur in
    pass2.  Both passes must share the same entry address, so the entry
    always survives."""
    if pass1.entry_address != pass2.entry_address:
        raise ValueError("recording passes have different entry addresses")
    in_pass2 = {a for a, _ in pass2.items}
    return RegionRecording([(a, s) for a, s in pass1.items if a in in_pass2])


def netr_stop_condition(recording: Sequence[tuple[int, int]], current: TraceItem,
                        kind: TransitionKind, max_region_size: int) -> bool:
    """Relaxed stop test: a repeated address (cycle), the size cap, or
    entry into an existing region ends the recording; backward branches do
    not."""
    if kind == _INTERP_TO_NATIVE:
        return True
    if len(recording) >= max_region_size:
        return True
    addr = current[0]
    return any(a == addr for a, _ in recording)


# --- managers --------------------------------------------------------------


class RegionManager:
    """Base contract: one call per consumed instruction.

    ``kind`` is the transition the automaton performed for the previous
    instruction; the current instruction has not been stepped yet when the
    manager runs, which lets an emitted region capture it.

    ``native_idle`` and ``backward_only`` advertise when calls can be
    elided: while ``native_idle`` holds, calls whose ``kind`` is
    native-side (STAYED_NATIVE / NATIVE_TO_NATIVE) are no-ops; while
    ``backward_only`` holds and no region exists, only backward-branch
    items can have any effect.  Every manager keeps both flags current.

    The engine calls ``attach(trace, start)`` before replaying
    ``trace[start:]``, and passes each emitted recording through
    ``complete(recording, index)``, ``index`` being the emitting item's
    trace position; look-ahead managers expand the recording there.
    """

    technique = "?"

    def __init__(self):
        self.native_idle = True
        self.backward_only = True

    def handle_new_instruction(self, last: Optional[TraceItem], current: TraceItem,
                               kind: TransitionKind) -> Optional[RegionRecording]:
        if last is None:
            return self._handle(-1, 0, current[0], current[1], kind)
        return self._handle(last[0], last[1], current[0], current[1], kind)

    def _handle(self, la: int, ls: int, a: int, s: int,
                kind: int) -> Optional[RegionRecording]:
        raise NotImplementedError

    def attach(self, trace: Trace, start: int) -> None:
        pass

    def complete(self, recording: RegionRecording, index: int) -> RegionRecording:
        return recording


class NetManager(RegionManager):
    """Next-executing-tail profiling and linear recording.

    Targets of backward branches taken interpreter-side and targets
    executed right after a region exit accumulate hotness; reaching the
    threshold starts a recording seeded with that instruction and resets
    its counter.  Recording stops on a backward branch, on entry into an
    existing region, or at the size cap; the stopping instruction is not
    appended.
    """

    technique = "net"

    def __init__(self, config: RFTConfig):
        super().__init__()
        self._threshold = config.threshold
        self._max_size = config.max_region_size
        self._hot: dict[int, int] = {}
        self._recording = False
        self._rec: list[tuple[int, int]] = []

    def _start(self, a: int, s: int) -> None:
        self._rec = [(a, s)]

    def _append(self, a: int, s: int) -> None:
        self._rec.append((a, s))

    def _stop(self, la: int, ls: int, a: int, kind: int) -> bool:
        return kind == 1 or a < la or len(self._rec) >= self._max_size

    def _handle(self, la, ls, a, s, kind):
        if self._recording:
            if self._stop(la, ls, a, kind):
                self._recording = False
                self.native_idle = True
                self.backward_only = True
                items = self._rec
                self._rec = []
                return RegionRecording(items)
            self._append(a, s)
            return None
        if (kind == 0 and a < la) or kind == 2:
            hot = self._hot
            c = hot.get(a, 0) + 1
            if c >= self._threshold:
                hot[a] = 0
                self._recording = True
                self.native_idle = False
                self.backward_only = False
                self._start(a, s)
            else:
                hot[a] = c
        return None


class NetRManager(NetManager):
    """Relaxed stop condition: a repeated recorded address ends the
    recording instead of a backward branch, so emitted recordings never
    contain duplicates."""

    technique = "net-r"

    def __init__(self, config: RFTConfig):
        super().__init__(config)
        self._rec_set: set[int] = set()

    def _start(self, a, s):
        self._rec = [(a, s)]
        self._rec_set = {a}

    def _append(self, a, s):
        self._rec.append((a, s))
        self._rec_set.add(a)

    def _stop(self, la, ls, a, kind):
        return a in self._rec_set or kind == 1 or len(self._rec) >= self._max_size


class Mret2Manager(RegionManager):
    """Two recording passes from the same entry; emits their intersection.

    The second pass arms when the first stops and begins on the next
    interpreter-side execution of the entry address, with no second climb
    to the threshold.  Profiling is suspended while a formation is in
    flight.
    """

    technique = "mret2"

    _IDLE, _REC1, _ARMED, _REC2 = range(4)

    def __init__(self, config: RFTConfig):
        super().__init__()
        self._threshold = config.threshold
        self._max_size = config.max_region_size
        self._hot: dict[int, int] = {}
        self._state = self._IDLE
        self._rec: list[tuple[int, int]] = []
        self._pass1: list[tuple[int, int]] = []
        self._entry = -1

    def _stop(self, la, a, kind):
        return kind == 1 or a < la or len(self._rec) >= self._max_size

    def _handle(self, la, ls, a, s, kind):
        st = self._state
        if st == self._IDLE:
            if (kind == 0 and a < la) or kind == 2:
                hot = self._hot
                c = hot.get(a, 0) + 1
                if c >= self._threshold:
                    hot[a] = 0
                    self._state = self._REC1
                    self._rec = [(a, s)]
                    self.native_idle = False
                    self.backward_only = False
                else:
                    hot[a] = c
            return None
        if st == self._REC1:
            if self._stop(la, a, kind):
                self._pass1 = self._rec
                self._rec = []
                self._entry = self._pass1[0][0]
                if a == self._entry and (kind == 0 or kind == 2):
                    self._state = self._REC2
                    self._rec = [(a, s)]
                else:
                    self._state = self._ARMED
                    self.native_idle = True
            else:
                self._rec.append((a, s))
            return None
        if st == self._ARMED:
            if a == self._entry and (kind == 0 or kind == 2):
                self._state = self._REC2
                self._rec = [(a, s)]
                self.native_idle = False
            return None
        if self._stop(la, a, kind):
            pass2 = RegionRecording(self._rec)
            self._rec = []
            self._state = self._IDLE
            self.native_idle = True
            self.backward_only = True
            return mret2_intersect(RegionRecording(self._pass1), pass2)
        self._rec.append((a, s))
        return None


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


def _dedup_keep_last(addresses: list[int]) -> list[int]:
    last = {a: i for i, a in enumerate(addresses)}
    return [a for i, a in enumerate(addresses) if last[a] == i]


class LeiManager(RegionManager):
    """Last-executed-iteration regions from a history buffer.

    Every interpreter-side instruction is pushed through the buffer; a
    repeated address marks a cycle and bumps the cycle head's hotness.
    Once hot, the slice covering the last iteration is emitted with inner
    repetitions collapsed to their final occurrence, capped at the size
    limit, and the buffer is cleared.
    """

    technique = "lei"

    def __init__(self, config: RFTConfig):
        super().__init__()
        self.backward_only = False
        self._threshold = config.threshold
        self._max_size = config.max_region_size
        self._hist = HistoryBuffer(config.history_capacity)
        self._hot: dict[int, int] = {}
        self._sizes: dict[int, int] = {}

    def _handle(self, la, ls, a, s, kind):
        if kind != 0 and kind != 2:
            return None
        self._sizes[a] = s
        hist = self._hist
        prior = hist.find(a)
        if prior is None:
            hist.observe(a)
            return None
        hot = self._hot
        c = hot.get(a, 0) + 1
        if c < self._threshold:
            hot[a] = c
            hist.observe(a)
            return None
        hot[a] = 0
        # take the last-iteration window before pushing: a full buffer
        # could evict the prior occurrence
        window = hist.slice_to_newest(prior, include_newest=True)
        hist.clear()
        hist.observe(a)
        kept = _dedup_keep_last(window)[: self._max_size]
        sizes = self._sizes
        return RegionRecording([(x, sizes[x]) for x in kept])


# --- look-ahead expansion ---------------------------------------------------


def netplus_expand(cfg: Mapping[int, Sequence], recording: Sequence[tuple[int, int]],
                   depth: int, extended: bool = False) -> RegionExpansion:
    """Bounded look-ahead over the observed control flow.

    ``cfg`` maps address -> (size, successor address set), reflecting all
    instruction pairs observed so far, in the trace window up to the emit
    index.  Starting from every successor of a recorded address that
    leaves the recording, walks of at most ``depth`` outside addresses are
    explored; a walk is accepted when it re-reaches the recording's entry
    (``extended=False``) or any recorded address (``extended=True``).  The
    union of addresses on accepted walks is returned, wired with the
    observed successor relation restricted to the accepted and recorded
    addresses.

    With sensible traces never-executed code cannot appear: the search
    knows only instructions that actually ran.
    """
    rec_items = list(recording)
    rec_addrs = [a for a, _ in rec_items]
    region = set(rec_addrs)
    targets = region if extended else {rec_addrs[0]}
    # forward pass: fewest outside addresses needed to reach each node
    reach: dict[int, int] = {}
    frontier: list[int] = []
    for a in region:
        ent = cfg.get(a)
        if not ent:
            continue
        for v in ent[1]:
            if v not in region and v not in reach and v in cfg:
                reach[v] = 1
                frontier.append(v)
    d = 1
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
        return RegionExpansion((), {})
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
        return RegionExpansion((), {})
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
    return RegionExpansion(members, successors)


class _ExpansionMixin:
    """Adds emit-time look-ahead to a linear recording manager.

    The flow map is caught up lazily to each emit index ``i``: it knows
    each address in ``trace[start:i + 1]`` with its first size, and each
    pair ``(addresses[j - 1], addresses[j])`` with ``start < j <= i``.
    """

    extended = False

    def __init__(self, config: RFTConfig):
        super().__init__(config)
        self._depth = config.expansion_depth
        self._cfg: dict[int, list] = {}

    def attach(self, trace, start):
        self._trace = trace
        self._base = self._covered = start
        self._cfg = {}

    def complete(self, recording, index):
        cfg = self._cfg
        addrs = self._trace.addresses
        sizes = self._trace.sizes
        lo = self._covered
        while lo <= index:
            hi = min(index + 1, lo + _FLOW_CHUNK)
            # reversed, so the chunk's first size of each address wins
            for a, s in dict(zip(reversed(addrs[lo:hi]), reversed(sizes[lo:hi]))).items():
                if a not in cfg:
                    cfg[a] = [s, set()]
            j = max(lo, self._base + 1)
            for u, v in set(zip(addrs[j - 1:hi - 1], addrs[j:hi])):
                cfg[u][1].add(v)
            lo = hi
        self._covered = lo
        expansion = netplus_expand(cfg, recording.items, self._depth, self.extended)
        if expansion.members:
            recording.expansion = expansion
        return recording


class NetPlusManager(_ExpansionMixin, NetManager):
    """Linear recording as in net, expanded with return paths to the entry."""

    technique = "netplus"
    extended = False


class NetPlusExtRManager(_ExpansionMixin, NetRManager):
    """Relaxed recording as in net-r, expanded with return paths to any
    recorded address."""

    technique = "netplus-e-r"
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
    cls = _MANAGERS.get(config.technique)
    if cls is None:
        raise ValueError(f"unknown technique {config.technique!r}; "
                         f"expected one of {', '.join(TECHNIQUES)}")
    return cls(config)
