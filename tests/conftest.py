"""Shared builders: randomized traces, the benchmark's traces, the
engine's scan and kernel protocol with a given held set, the stepping kernel driven
item list by item list, automata that count the items their kernel steps
in the numpy pass and log their chain heads' memos, and a naive reference
simulation.

The naive loop below is the behavioral oracle for the engine: it drives
the per-item reference managers and the literal automaton of
``reference.py`` one item at a time, so it shares no stepping, counting
or flow-map code with the engine, and any divergence points at a
fast-path bug.
"""

from __future__ import annotations

import functools
import importlib.util
import random
import sys
from array import array
from pathlib import Path

import numpy as np

from reference import SI, FlowMap, LiteralAutomaton, make_reference, region_of
from rftsim import LoopSpec, ProgramSpec, RFTConfig, Trace, generate_trace
from rftsim.automaton import Automaton
from rftsim.engine import SimulationConfig


def naive_run(trace: Trace, config: SimulationConfig) -> LiteralAutomaton:
    """Reference simulation: per item, the reference manager call (with the
    previous item and its transition kind) and, on emission, an install of
    its region, expanded over the literal flow map up to that item; then
    one literal automaton step."""
    automaton = LiteralAutomaton()
    manager = make_reference(config.rft)
    flow = FlowMap()
    n = len(trace)
    start = min(config.skip, n)
    end = n if config.limit is None else min(n, start + config.limit)
    kind = SI
    last = None
    addresses = trace.addresses.tolist()
    for i in range(start, end):
        item = (addresses[i], trace.sizes[i])
        flow.add(*item)
        formed = manager.handle(last, item, kind)
        if formed is not None:
            automaton.append(*region_of(config.rft, formed, flow))
        kind = automaton.step(item[0])
        last = item
    return automaton


def lei_history(history, addrs) -> list:
    """The addresses in lei's ``History``, oldest first: its pushes from
    the later of the restart and the last ``capacity`` pushes on, mapped
    to trace indices through its ring, ``addrs`` being the trace's."""
    ring = history.ring
    oldest = max(history.floor, history.pos - history.capacity)
    return [addrs[ring[q % len(ring)]] for q in range(oldest, history.pos)]


class PassAutomaton(Automaton):
    """The automaton, counting the items its kernel steps in the numpy pass
    (``passed``)."""

    def __init__(self):
        super().__init__()
        self.passed = 0

    def _pass(self, addrs, i, end, *args):
        k, prev = super()._pass(addrs, i, end, *args)
        self.passed += k - i
        return k, prev


class MemoAutomaton(PassAutomaton):
    """The automaton, logging each walk its kernel installs as a chain
    head's memo (``walks``) and counting every memo hit (``hits``), whether
    flushed when its memo was replaced or when a report read the counts,
    and the items its numpy pass steps."""

    def __init__(self):
        super().__init__()
        self.walks: list[list[int]] = []
        self.flushed = 0

    @property
    def hits(self) -> int:
        return self.flushed + sum(r.hits for r in self._regions)

    def _keep(self, r, addrs, ws, we):
        walk, hits = r.walk, r.hits
        super()._keep(r, addrs, ws, we)
        if r.walk is not walk:
            self.walks.append(list(r.walk))
            self.flushed += hits

    def _executions(self):
        self.flushed += sum(r.hits for r in self._regions)
        return super()._executions()


def drive(automaton, addrs) -> float:
    """Step ``addrs`` (4-byte items) through the automaton's stepping
    kernel, one call per stop; returns the ``prev`` of the last call."""
    sizes = [4] * len(addrs)
    i, prev = 0, -1
    while i < len(addrs):
        i, prev = automaton.run_native_stretch(addrs, sizes, i, len(addrs), i)
    return prev


IDENTITY = 1 << 16


def identity_automaton(cls=Automaton) -> Automaton:
    """An automaton numbering addresses by themselves: bound to the table
    of the addresses below ``IDENTITY``, so the ids of the hand-made items
    the automaton tests step are their addresses."""
    automaton = cls()
    automaton.bind(range(IDENTITY))
    return automaton


def addressed(region: tuple, table) -> tuple:
    """An emitted region, ``append_region``'s positional arguments in
    ids, with each id replaced by its address in ``table``."""
    out = ([(table[a], s) for a, s in region[0]],)
    if len(region) > 1:
        members, successors = region[1:]
        out += (tuple((table[a], s) for a, s in members),
                {table[u]: tuple(table[v] for v in vs) for u, vs in successors.items()})
    return out


def bind(manager, trace: Trace, held=()) -> array:
    """Bind ``manager`` to the whole of ``trace`` as the engine binds it to
    a window replayed as one chunk, with the addresses of ``held`` held by
    a region.  Returns the held mask the manager reads, by id: nonzero for
    a held id, as in ``Automaton.held``."""
    table = trace.table()
    mask = array("I", [0]) * len(table)
    for a in held:
        k = int(np.searchsorted(table, np.uint64(a)))
        if k < len(table) and table[k] == a:
            mask[k] = 1
    manager.begin(trace, 0, len(trace), mask)
    manager.attach(trace, 0)
    return mask


def scan_run(manager, addrs, sizes, held=()) -> list[tuple]:
    """Drive ``manager.scan`` and the stepping kernel as the engine does
    over a window in which the addresses of ``held`` are each held by a
    one-state region, so that an item runs natively exactly when its
    address is held; each emitted region is installed before the item the
    scan stopped at steps, and the kernel profiles an idle manager's runs
    with its lent counts.

    Returns ``(due, region)`` per emission, ``due`` being the trace index
    the manager passed to its ``complete``: the emission is due there, and
    ``region`` its ids mapped back to addresses."""
    end = len(addrs)
    trace = Trace(list(addrs), list(sizes))
    table, ids = trace.table().tolist(), trace._ids
    rank = {a: k for k, a in enumerate(table)}
    automaton = Automaton()
    automaton.bind(trace.table())
    for a in sorted(held):
        if a in rank:
            automaton.append_region([(rank[a], 4)])
    manager.begin(trace, 0, end, automaton.held)
    manager.attach(trace, 0)
    dues = []
    complete = manager.complete

    def noted(items, due):
        dues.append(due)
        return complete(items, due)
    manager.complete = noted
    out = []
    i, prev = 0, -1
    while i < end:
        k, region = manager.scan(i, end, prev)
        assert len(dues) == (region is not None)
        if region is not None:
            automaton.append_region(*region)
            out.append((dues.pop(), addressed(region, table)))
        elif k == end:
            break
        i, prev = automaton.run_native_stretch(ids, sizes, i, end, k, manager.exit_counts,
                                               manager._threshold)
    return out


@functools.lru_cache(maxsize=None)
def _bench_workloads():
    """``bench/workloads.py``, loaded once."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it executes
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def bench_render(workload: str, items: int) -> Trace:
    """A benchmark workload rendered at seed 1 for ``items`` items.  For
    graph-walk and interp-noise that is the first ``items`` items of the
    full-size workload; loop-nest sizes its loops for ``items``, so it
    renders a scaled-down nest: at 2,000 items it visits the 54 addresses
    of all three loops, where the full-size workload's first 2,000 items
    visit the nested loop's 18 (see ``bench_prefix``)."""
    return _bench_workloads().WORKLOADS[workload].generate(1, items)


def bench_prefix(workload: str, items: int) -> Trace:
    """The first ``items`` items of a benchmark workload rendered at seed 1
    and full size."""
    full = _bench_workloads().WORKLOADS[workload]
    trace = full.generate(1, full.items)
    return Trace(trace.addresses[:items], trace.sizes[:items])


def detour_trace(rounds: int = 30, detour: int = 20) -> Trace:
    """A three-instruction loop at 0x100 that, after every three
    iterations, leaves through a forward branch for a ``detour``-item
    straight path at 0x2000 that branches back to the loop's head.  At
    threshold 3, net and net-r record the loop alone, and the look-ahead
    finds the detour only at a depth of at least ``detour``."""
    loop = [0x100, 0x104, 0x108]
    addrs = (loop * 3 + [0x2000 + 4 * k for k in range(detour)]) * rounds
    return Trace(addrs, [4] * len(addrs))


def random_loop_spec(rng: random.Random, budget: int) -> ProgramSpec:
    loops = []
    base = 0x1000
    for _ in range(rng.randint(1, 3)):
        body = rng.randint(1, 6)
        isize = rng.choice((1, 2, 4))
        iters = rng.randint(1, max(1, budget // (body * 3)))
        children = ()
        if rng.random() < 0.4:
            cbody = rng.randint(1, 4)
            citers = rng.randint(1, 6)
            children = (LoopSpec(base=base + body * isize + 16, body=cbody,
                                 iters=citers, isize=isize),)
        loops.append(LoopSpec(base=base, body=body, iters=iters, isize=isize,
                              children=children))
        base += 0x1000
    return ProgramSpec(tuple(loops))


def random_graph_walk(rng: random.Random, length: int) -> Trace:
    n = rng.randint(2, 30)
    addrs = rng.sample(range(0x100, 0x100 + 64 * n, 4), n)
    sizes = {a: rng.choice((1, 2, 4)) for a in addrs}
    succ = {a: [rng.choice(addrs) for _ in range(rng.randint(1, 3))] for a in addrs}
    cur = addrs[0]
    out_a, out_s = [], []
    for _ in range(length):
        out_a.append(cur)
        out_s.append(sizes[cur])
        cur = rng.choice(succ[cur])
    return Trace(out_a, out_s)


def random_noise(rng: random.Random, length: int) -> Trace:
    span = rng.randint(4, 64)
    addrs = [rng.randrange(0x100, 0x100 + span * 4) for _ in range(length)]
    sizes = [rng.randint(1, 8) for _ in range(length)]
    return Trace(addrs, sizes)


def high_walk(rng, length, wide=True):
    """A random walk over addresses on both sides of 2**63, and with
    ``wide`` also up to 2**64 - 1, each item with its own size, so an
    address's first size differs from its later ones."""
    pool = [(1 << 63) + 4 * k for k in range(-8, 8)]
    if wide:
        pool += [(1 << 64) - 4 * k for k in range(2, 10)] + [(1 << 64) - 1]
    nodes = rng.sample(pool, rng.randint(4, len(pool)))
    succ = {a: [rng.choice(nodes) for _ in range(rng.randint(1, 3))] for a in nodes}
    cur = nodes[0]
    addrs = []
    for _ in range(length):
        addrs.append(cur)
        cur = rng.choice(succ[cur])
    return Trace(addrs, [rng.randint(1, 8) for _ in addrs])


def random_trace(rng: random.Random, max_items: int = 2000) -> Trace:
    style = rng.random()
    if style < 0.45:
        spec = random_loop_spec(rng, max_items)
        trace = generate_trace(spec)
        if len(trace) > max_items:
            trace = Trace(trace.addresses[:max_items], trace.sizes[:max_items])
        return trace
    if style < 0.8:
        return random_graph_walk(rng, rng.randint(10, max_items))
    return random_noise(rng, rng.randint(1, max_items))


def random_rft_config(rng: random.Random, technique: str) -> RFTConfig:
    return RFTConfig(
        technique=technique,
        threshold=rng.choice((1, 2, 3, 5, 8, 16)),
        max_region_size=rng.choice((2, 4, 16, 64, 1024)),
        expansion_depth=rng.choice((1, 2, 3, 5, 10)),
        history_capacity=rng.choice((4, 16, 64, 8192)),
    )
