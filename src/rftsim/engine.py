"""Simulation driver.

The engine binds the trace window and the automaton's held addresses to
the region manager once (``begin``), then replays the window chunk by
chunk.  A ``Trace`` in memory is one chunk, replayed in place; a binary
``TraceFile`` is read ``trace_io._REPLAY_CHUNK`` items at a time, so a
run holds one chunk of it, never the whole trace.  Each chunk re-binds
the manager (``attach``), and within it the engine alternates two calls
that hand each other a chunk index ``i`` and ``prev``, the address item
``i`` is compared with for a backward branch; both carry over into the
next chunk, as does the automaton's cursor: a native run the chunk's end
cut short is continued by the kernel before the next scan.  The
manager's ``scan(i, end, prev)`` consumes an interpreter-side run and
stops at an emission, at the first item that enters a region, or at the
chunk's end; a scan of an idle manager (one that profiles, with no
formation in flight) sees item ``i`` alone.  The automaton's stepping
kernel then credits the scanned items to the interpreter and steps from
the item the scan stopped at, returning the next ``(i, prev)``.  It also
takes the manager's ``exit_counts`` and the threshold.  While the
manager is busy, or for ``lei``, these are None, and the kernel steps
the native run that follows, up to a region exit.  While the manager is
idle, the kernel profiles the interpreter-side runs itself, by the rule
the scan applies, and steps on through native and interpreter-side
items alike: it stops only at the chunk's end or at a bump that reaches
the threshold, where the scan makes that bump and starts a recording.
So an idle stretch costs one kernel call, not a scan and a call per
region exit.  A scan that emits hands back the region to install, its
look-ahead (if any) already run where the recording was emitted; the
engine installs it before the kernel steps the item the scan stopped at,
so a recording stopped by the loop-closing branch lands its own stop
instruction inside the fresh region.  Each item is scanned at most once,
in trace order.  Chunk boundaries change only how the work is cut up,
never the counts: a scan or a numpy pass that reaches a chunk's end stops
there, and a chain head's memo walk that would run past it is stepped
item by item.

The engine, the managers and the automaton work on address ids, not on
addresses: before the first item, the engine binds the automaton to the
source's sorted table of distinct addresses (``table()``), which a trace
in memory builds at its first simulation, with its id column, and a
``TraceFile`` at ``validate()``, mapping each chunk it reads.  An id is
an address's rank in the table, so ids keep the addresses' order.

Every technique's ``scan`` is one driver, ``RegionManager.scan``, which
steps items one by one in Python, reading the ``array`` that holds the
chunk's ids, as the kernel does, and leaves what a technique does with
an item to its hooks.  Once a scan of ``lei`` has taken
``automaton._HANDOFF`` items, the rest of the run goes to its numpy pass
over slices of the id column, which reads chunks that start at that
length and double up to ``automaton._PASS_CHUNK`` and stops at the
first item the scan must see itself, with everything before it
applied.  The
kernel does the same, by the same two constants: a call that has
stepped ``_HANDOFF`` items gives the rest of its run to its own numpy
pass over the id column, which also profiles an idle manager's
interpreter-side items.  So a long cold, noisy or native run costs a few
numpy passes, not one Python step per item, while the short calls and
scans never pay numpy's per-call cost.

Recording is purely observational: while a manager records, instructions
keep being attributed to the states actually traversed.

Identical inputs produce bit-identical results; an equivalence test pins
the engine to a per-item reference loop.  Each run ends by checking the
automaton's invariants and raises ``InvariantError`` when one fails.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .automaton import Automaton
from .metrics import (CostBreakdown, CostParams, MetricsReport, compute_report,
                      estimate_times)
from .rft import RFTConfig, _check_int, make_rft
from .trace_io import Trace, TraceFile


class InvariantError(Exception):
    """An end-of-run automaton invariant failed: a simulator defect, not
    bad input, so deliberately not a ``ValueError``."""


@dataclass(frozen=True)
class SimulationConfig:
    """One run: technique configuration, trace window, optional costing."""

    rft: RFTConfig = field(default_factory=RFTConfig)
    skip: int = 0
    limit: Optional[int] = None
    cost: Optional[CostParams] = None
    collect_dump: bool = False

    def __post_init__(self):
        if _check_int("skip", self.skip) < 0:
            raise ValueError("skip must be >= 0")
        if self.limit is not None and _check_int("limit", self.limit) < 0:
            raise ValueError("limit must be >= 0")


@dataclass
class SimulationResult:
    config: SimulationConfig
    report: MetricsReport
    cost: Optional[CostBreakdown]
    dump: Optional[dict]
    items_consumed: int


@dataclass
class SweepOutcome:
    """Per-config result of a sweep; exactly one of result/error is set."""

    config: SimulationConfig
    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    invariant_violated: bool = False


def _run_items(automaton: Automaton, manager, source: Trace | TraceFile, start: int,
               end: int, threshold: int) -> None:
    scan = manager.scan
    append = automaton.append_region
    advance = automaton.run_native_stretch
    automaton.bind(source.table())
    manager.begin(source, start, end, automaton.held)
    i, prev = start, -1
    for base, chunk in source.chunks(start, end):
        manager.attach(chunk, base)
        addrs, sizes = chunk._ids, chunk.sizes
        i -= base
        stop = min(len(chunk), end - base)
        if i < stop and automaton.in_region:
            i, prev = advance(addrs, sizes, i, stop, i, manager.exit_counts, threshold)
        while i < stop:
            k, region = scan(i, stop, prev)
            if region is not None:
                append(*region)
            elif k == stop:
                automaton.bulk_interp(stop - i)
                i, prev = stop, addrs[stop - 1]
                break
            i, prev = advance(addrs, sizes, i, stop, k, manager.exit_counts, threshold)
        i += base
        # let go of this chunk before the next one is read
        del chunk, addrs, sizes
        manager.detach()


def _check_invariants(report: MetricsReport, items: int) -> None:
    if report.total_instructions != items:
        raise InvariantError(f"interpreted plus native instructions are "
                             f"{report.total_instructions}, items consumed {items}")
    for r in report.regions:
        if r.completed_traversals > r.head_executions:
            raise InvariantError(f"region {r.rid} completed {r.completed_traversals} "
                                 f"traversals in {r.head_executions} head executions")


def run_simulation(trace: Trace | TraceFile, config: SimulationConfig) -> SimulationResult:
    """Replay one trace window through one technique; deterministic.  A
    ``TraceFile`` is read in chunks; one not yet validated is validated
    first, whole, and raises ``TraceFormatError`` at its first bad record."""
    automaton = Automaton()
    manager = make_rft(config.rft)
    n = len(trace)
    start = min(config.skip, n)
    end = n if config.limit is None else min(n, start + config.limit)
    _run_items(automaton, manager, trace, start, end, config.rft.threshold)
    report = compute_report(automaton, cold_threshold=config.rft.threshold)
    _check_invariants(report, end - start)
    cost = estimate_times(report, config.cost) if config.cost is not None else None
    dump = automaton.dump() if config.collect_dump else None
    return SimulationResult(config=config, report=report, cost=cost, dump=dump,
                            items_consumed=end - start)


# set by _init_worker in each forked sweep worker: (trace, configs)
_worker_sweep: Optional[tuple[Trace | TraceFile, Sequence[SimulationConfig]]] = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _run_config(trace: Trace | TraceFile, config: SimulationConfig) -> SweepOutcome:
    try:
        return SweepOutcome(config=config, result=run_simulation(trace, config))
    except Exception as exc:  # noqa: BLE001 - reported per config
        return SweepOutcome(config=config, error=f"{type(exc).__name__}: {exc}",
                            invariant_violated=isinstance(exc, InvariantError))


def _init_worker(trace: Trace | TraceFile, configs: Sequence[SimulationConfig]) -> None:
    global _worker_sweep
    _worker_sweep = (trace, configs)


def _run_indexed(index: int) -> SweepOutcome:
    trace, configs = _worker_sweep
    return _run_config(trace, configs[index])


def run_sweep(trace: Trace | TraceFile, configs: Sequence[SimulationConfig],
              parallelism: int = 1) -> list[SweepOutcome]:
    """Run several configurations over one shared trace.

    Each configuration gets a private automaton and manager, so results
    are identical at any ``parallelism`` and independent of sibling
    configs.  A failing config reports its error without aborting the
    others; outcomes keep config order.

    Configs run in ``min(parallelism, len(configs), usable CPUs)`` worker
    processes started with ``fork``.  Each worker inherits a loaded trace
    copy-on-write, or an open ``TraceFile``, whose chunks it reads itself
    by position, so the trace is never pickled; only config indices go
    to the workers and only ``SweepOutcome``s come back.  With one worker,
    or where ``fork`` is unavailable, configs run in this process.  Fork
    copies only the calling thread, so call this with more than one worker
    only from a process whose other threads hold no lock the simulation
    needs.
    """
    if not configs:
        raise ValueError("configs must be non-empty")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    workers = min(parallelism, len(configs), _usable_cpus())
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_run_config(trace, c) for c in configs]
    # the workers' collections then leave this process's objects alone, so
    # they copy none of its pages that only their collector would write
    gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker,
                                 initargs=(trace, configs)) as pool:
            return list(pool.map(_run_indexed, range(len(configs))))
    finally:
        gc.unfreeze()
