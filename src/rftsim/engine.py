"""Simulation driver.

For every consumed instruction the engine first hands (last item, current
item, previous transition) to the region manager, installs any emitted
recording into the automaton, and only then performs the current
instruction's transition.  A recording stopped by the loop-closing branch
therefore lands its own stop instruction inside the fresh region, and the
manager observes each item at most once, in trace order.  An emitted
recording first passes through the manager's ``complete`` hook with its
trace index; look-ahead techniques read the window's flow up to it there.

Recording is purely observational: while a manager records, instructions
keep being attributed to the states actually traversed.

Identical inputs produce bit-identical results.  Two elisions, open to
every manager, keep the loop fast without changing any counter: before
the first region exists, stretches of interpreter-side sequential flow
are accounted in bulk when the manager only reacts to backward branches,
and manager calls are dropped while the previous transition was
native-side and the manager advertises native idleness.  An equivalence
test pins both paths to the naive per-item loop.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .automaton import Automaton
from .metrics import (CostBreakdown, CostParams, MetricsReport, compute_report,
                      estimate_times)
from .rft import RFTConfig, make_rft
from .trace_io import Trace, TraceItem, TraceStream


@dataclass(frozen=True)
class SimulationConfig:
    """One run: technique configuration, trace window, optional costing."""

    rft: RFTConfig = field(default_factory=RFTConfig)
    skip: int = 0
    limit: Optional[int] = None
    cost: Optional[CostParams] = None
    cold_threshold: Optional[int] = None
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
    wall_time_s: float


@dataclass
class SweepOutcome:
    """Per-config result of a sweep; exactly one of result/error is set."""

    config: SimulationConfig
    result: Optional[SimulationResult] = None
    error: Optional[str] = None


def _as_trace(trace: Union[Trace, TraceStream, Iterable[TraceItem]]) -> Trace:
    if isinstance(trace, Trace):
        return trace
    if isinstance(trace, TraceStream):
        return trace.read_all()
    return Trace.from_items(trace)


def _run_items(automaton: Automaton, manager, trace: Trace, start: int, end: int) -> None:
    addrs = trace.addresses
    sizes = trace.sizes
    step = automaton.step_addr
    handle = manager._handle
    complete = manager.complete
    append = automaton.append_region
    bulk = automaton.bulk_interp
    stretch = automaton.run_native_stretch
    kind = 0
    la = -1
    ls = 0
    native_idle = manager.native_idle
    backward_only = manager.backward_only
    regionless = automaton.num_regions == 0
    bw = None
    bw_pos = 0
    i = start
    while i < end:
        if kind >= 3:
            if native_idle:
                # the manager ignores native-side flow; let the automaton
                # consume the stretch without per-item manager calls
                j, kind = stretch(addrs, sizes, i, end)
                la = addrs[j - 1]
                ls = sizes[j - 1]
                i = j
                continue
        elif kind == 0 and regionless and backward_only and i > start:
            # interpreter cruise before any region: only backward branches
            # can matter, so account the gap in bulk
            if bw is None:
                bw = trace.backward_indices()
                bw_len = len(bw)
            while bw_pos < bw_len and bw[bw_pos] < i:
                bw_pos += 1
            j = int(bw[bw_pos]) if bw_pos < bw_len else end
            if j >= end:
                bulk(end - i)
                break
            if j > i:
                bulk(j - i)
                la = addrs[j - 1]
                ls = sizes[j - 1]
                i = j
        a = addrs[i]
        s = sizes[i]
        formed = handle(la, ls, a, s, kind)
        if formed is not None:
            formed = complete(formed, i)
            expansion = formed.expansion
            if expansion is None:
                append(formed.items)
            else:
                append(formed.items, expansion.members, expansion.successors)
            regionless = False
        native_idle = manager.native_idle
        backward_only = manager.backward_only
        kind = step(a, s)
        la = a
        ls = s
        i += 1


def run_simulation(trace: Union[Trace, TraceStream, Iterable[TraceItem]],
                   config: SimulationConfig) -> SimulationResult:
    """Replay one trace window through one technique; deterministic."""
    trace = _as_trace(trace)
    t0 = time.perf_counter()
    automaton = Automaton()
    manager = make_rft(config.rft)
    n = len(trace)
    start = min(config.skip, n)
    end = n if config.limit is None else min(n, start + config.limit)
    manager.attach(trace, start)
    _run_items(automaton, manager, trace, start, end)
    wall = time.perf_counter() - t0
    cold = config.cold_threshold if config.cold_threshold is not None else config.rft.threshold
    report = compute_report(automaton, cold_threshold=cold)
    cost = estimate_times(report, config.cost) if config.cost is not None else None
    dump = automaton.dump() if config.collect_dump else None
    return SimulationResult(config=config, report=report, cost=cost, dump=dump,
                            items_consumed=end - start, wall_time_s=wall)


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
        return SweepOutcome(config=config, error=f"{type(exc).__name__}: {exc}")


def _init_worker(trace: Trace, configs: Sequence[SimulationConfig]) -> None:
    global _worker_sweep
    _worker_sweep = (trace, configs)


def _run_indexed(index: int) -> SweepOutcome:
    trace, configs = _worker_sweep
    return _run_config(trace, configs[index])


def run_sweep(trace: Union[Trace, TraceStream, Iterable[TraceItem]],
              configs: Sequence[SimulationConfig],
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
    shared = _as_trace(trace)
    workers = min(parallelism, len(configs), _usable_cpus())
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_run_config(shared, c) for c in configs]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=(shared, configs)) as pool:
        return list(pool.map(_run_indexed, range(len(configs))))
