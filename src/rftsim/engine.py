"""Simulation driver.

The engine alternates two calls.  The region manager's ``scan`` consumes
an interpreter-side run: it sees each item with the previous item's
transition and stops at an emission, at the first item that enters a
region, or at the window's end.  The automaton's stepping kernel then
credits the scanned items to the interpreter and steps from the item the
scan stopped at through the native run that follows, up to a region
exit.  The engine hands the kernel the manager's ``exit_counts`` and the
threshold: while the manager is idle, the kernel counts an exit's
follower that enters a region at once and steps on, with no scan in
between.  A scan that emits hands back the region to install, its
look-ahead (if any) already run where the recording was emitted; the
engine installs it before the kernel steps the item the scan stopped at,
so a recording stopped by the loop-closing branch lands its own stop
instruction inside the fresh region.  Each item is scanned at most once,
in trace order.

A scan steps items one by one in Python, reading the trace's address and
size lists.  Once an idle stretch of it (no recording in flight) has
taken ``rft._HANDOFF`` items, the rest of the run goes to a numpy pass
over slices of the trace's u64 address column, which the engine hands
the manager through ``attach`` before the replay.  The pass reads chunks
that start at that length and double up to ``rft._FLOW_CHUNK``, and
stops at the first item the scan must see itself, with everything
before it applied.  So a long cold or noisy run costs a few numpy
passes, not one Python step per item, while the short scans between
region exits, most of them a handful of items, never pay numpy's
per-call cost.

Recording is purely observational: while a manager records, instructions
keep being attributed to the states actually traversed.

Identical inputs produce bit-identical results; an equivalence test pins
the engine to a per-item reference loop.  Each run ends by checking the
automaton's invariants and raises ``InvariantError`` when one fails.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .automaton import Automaton
from .metrics import (CostBreakdown, CostParams, MetricsReport, compute_report,
                      estimate_times)
from .rft import RFTConfig, make_rft
from .trace_io import Trace


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
        if self.skip < 0:
            raise ValueError("skip must be >= 0")
        if self.limit is not None and self.limit < 0:
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


def _run_items(automaton: Automaton, manager, trace: Trace, start: int, end: int,
               threshold: int) -> None:
    addrs = trace.addresses
    sizes = trace.sizes
    scan = manager.scan
    append = automaton.append_region
    advance = automaton.run_native_stretch
    held = automaton.held
    kind = 0
    la = -1
    i = start
    while i < end:
        k, region = scan(addrs, sizes, i, end, la, kind, held)
        if region is not None:
            append(*region)
        elif k == end:
            automaton.bulk_interp(end - i)
            return
        i, kind = advance(addrs, sizes, i, end, k, manager.exit_counts, threshold)
        la = addrs[i - 1]


def _check_invariants(report: MetricsReport, items: int) -> None:
    if report.total_instructions != items:
        raise InvariantError(f"interpreted plus native instructions are "
                             f"{report.total_instructions}, items consumed {items}")
    for r in report.regions:
        if r.completed_traversals > r.head_executions:
            raise InvariantError(f"region {r.rid} completed {r.completed_traversals} "
                                 f"traversals in {r.head_executions} head executions")


def run_simulation(trace: Trace, config: SimulationConfig) -> SimulationResult:
    """Replay one trace window through one technique; deterministic."""
    automaton = Automaton()
    manager = make_rft(config.rft)
    n = len(trace)
    start = min(config.skip, n)
    end = n if config.limit is None else min(n, start + config.limit)
    manager.attach(trace, start)
    _run_items(automaton, manager, trace, start, end, config.rft.threshold)
    report = compute_report(automaton, cold_threshold=config.rft.threshold)
    _check_invariants(report, end - start)
    cost = estimate_times(report, config.cost) if config.cost is not None else None
    dump = automaton.dump() if config.collect_dump else None
    return SimulationResult(config=config, report=report, cost=cost, dump=dump,
                            items_consumed=end - start)


# set by _init_worker in each forked sweep worker: (trace, configs)
_worker_sweep: Optional[tuple[Trace, Sequence[SimulationConfig]]] = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _run_config(trace: Trace, config: SimulationConfig) -> SweepOutcome:
    try:
        return SweepOutcome(config=config, result=run_simulation(trace, config))
    except Exception as exc:  # noqa: BLE001 - reported per config
        return SweepOutcome(config=config, error=f"{type(exc).__name__}: {exc}",
                            invariant_violated=isinstance(exc, InvariantError))


def _init_worker(trace: Trace, configs: Sequence[SimulationConfig]) -> None:
    global _worker_sweep
    _worker_sweep = (trace, configs)


def _run_indexed(index: int) -> SweepOutcome:
    trace, configs = _worker_sweep
    return _run_config(trace, configs[index])


def run_sweep(trace: Trace, configs: Sequence[SimulationConfig],
              parallelism: int = 1) -> list[SweepOutcome]:
    """Run several configurations over one shared trace.

    The trace is loaded once; each configuration gets a private automaton
    and manager, so results are identical at any ``parallelism`` and
    independent of sibling configs.  A failing config reports its error
    without aborting the others; outcomes keep config order.

    Configs run in ``min(parallelism, len(configs), usable CPUs)`` worker
    processes started with ``fork``.  Each worker inherits the loaded
    trace copy-on-write, so it is never pickled; only config indices go
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
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=(trace, configs)) as pool:
        return list(pool.map(_run_indexed, range(len(configs))))
