"""Per-layer tracing for the rftsim benchmark.

The package is timed from outside, without editing it: while a
``LayerTracer`` is installed, ``rftsim.engine.Automaton`` and
``rftsim.engine.make_rft`` return instances whose ``step_addr``,
``run_native_stretch``, ``bulk_interp``, ``append_region`` and ``_handle``
are counting and timing wrappers, and ``rftsim.rft.netplus_expand``,
``rftsim.engine.compute_report`` and ``rftsim.engine.estimate_times`` are
wrapped in place.  Self time of a layer is its wrapped time minus the
wrapped time of the layers it calls: ``_handle`` calls ``netplus_expand``
(through ``_finish``), and ``run_simulation`` calls everything else.

``LAYER_METRICS`` lists every per-layer metric the traced run prints,
with its unit, which direction is better, and the end-to-end metric and
workload it is meant to move.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import rftsim.engine as engine
import rftsim.rft as rft
from rftsim.rft import TECHNIQUES

# the techniques whose managers run the look-ahead expansion; for the
# others expansion counts and time are zero by construction
EXPANDING = ("netplus", "netplus-e-r")

_NETPLUS = ("sim_items_per_s, through engine.items_per_s.netplus and "
            "engine.items_per_s.netplus-e-r,")

# (name, unit, better, meant to move); "{rft}" expands to each technique
LAYER_METRICS = (
    ("rft.handle_calls.{rft}", "count", "lower",
     f"{_NETPLUS} on loop-nest and interp-noise; for net, mret2 and net-r "
     "the same on interp-noise only, and nothing on loop-nest"),
    ("rft.handle_calls_per_item.{rft}", "ratio", "lower",
     "same as rft.handle_calls.<rft>"),
    ("rft.self_s.{rft}", "s", "lower",
     "same as rft.handle_calls.<rft>"),
    ("rft.expand_calls.{rft}", "count", "lower",
     f"{_NETPLUS} on graph-walk"),
    ("rft.expand_s.{rft}", "s", "lower",
     f"{_NETPLUS} on graph-walk"),
    ("automaton.step_calls.{rft}", "count", "lower",
     "sim_items_per_s, through engine.items_per_s.<rft>, on loop-nest and interp-noise"),
    ("automaton.stretch_calls.{rft}", "count", "lower",
     "sim_items_per_s, through engine.items_per_s.<rft>, on loop-nest and interp-noise"),
    ("automaton.stretch_items.{rft}", "count", "higher",
     "sim_items_per_s, through engine.items_per_s.<rft>, on loop-nest and interp-noise"),
    ("automaton.bulk_items.{rft}", "count", "higher",
     "sim_items_per_s, through engine.items_per_s.<rft>, on loop-nest and interp-noise"),
    ("automaton.self_s.{rft}", "s", "lower",
     "sim_items_per_s, through engine.items_per_s.<rft>, on loop-nest and interp-noise"),
    ("automaton.append_calls.{rft}", "count", "lower",
     "sim_items_per_s, through engine.items_per_s.<rft>, on graph-walk"),
    ("automaton.append_states.{rft}", "count", "lower",
     "sim_items_per_s, through engine.items_per_s.<rft>, on graph-walk"),
    ("engine.items_per_s.{rft}", "1/s", "higher",
     "sim_items_per_s on every workload; an untraced rate, scaled like the "
     "end-to-end times, kept per layer because one technique's rate spread "
     "by more than a tenth between runs"),
    ("engine.self_s.{rft}", "s", "lower",
     "sim_items_per_s, through engine.items_per_s.<rft>, on every workload"),
    ("metrics.report_s.{rft}", "s", "lower",
     "cli_sweep_s on graph-walk"),
    ("engine.sweep_s", "s", "lower",
     "cli_sweep_s on every workload"),
    ("engine.sweep_speedup", "ratio", "higher",
     "cli_sweep_s on every workload"),
    ("trace_io.load_s", "s", "lower",
     "setup_s, cli_sweep_s and cli_peak_rss_mb on every workload"),
    ("trace_io.load_ns_per_item", "ns", "lower",
     "setup_s, cli_sweep_s and cli_peak_rss_mb on every workload"),
    ("trace_io.backward_indices_s", "s", "lower",
     "setup_s, cli_sweep_s and cli_peak_rss_mb on every workload"),
    ("trace_io.write_s", "s", "lower", "setup_s on every workload"),
    ("trace_io.generate_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_s", "s", "lower",
     "nothing: the cost of this tracing, traced minus untraced simulation time"),
)


def expand_names() -> list[tuple[str, str, str, str]]:
    """``LAYER_METRICS`` with every ``{rft}`` template expanded, in order."""
    out = []
    for name, unit, better, moves in LAYER_METRICS:
        if "{rft}" not in name:
            out.append((name, unit, better, moves))
            continue
        tags = EXPANDING if name.startswith("rft.expand_") else TECHNIQUES
        out.extend((name.format(rft=t), unit, better, moves) for t in tags)
    return out


_SLOTS = ("automaton.step", "automaton.stretch", "automaton.bulk",
          "automaton.append", "rft.handle", "rft.expand", "metrics.report")


def _wrap(slot: list, fn: Callable, items: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` so each call adds 1 to ``slot[0]``, its duration to
    ``slot[1]`` and ``items(args, result)`` to ``slot[2]``."""
    perf = time.perf_counter
    if items is None:
        def wrapped(*args, **kwargs):
            t = perf()
            result = fn(*args, **kwargs)
            slot[1] += perf() - t
            slot[0] += 1
            return result
    else:
        def wrapped(*args, **kwargs):
            t = perf()
            result = fn(*args, **kwargs)
            slot[1] += perf() - t
            slot[0] += 1
            slot[2] += items(args, result)
            return result
    return wrapped


def _stretch_items(args, result) -> int:
    return result[0] - args[2]


def _bulk_items(args, result) -> int:
    return args[0]


def _append_states(args, result) -> int:
    return len(args[0]) + (len(args[1]) if len(args) > 1 else 0)


class LayerTracer:
    """Counts and times calls into the automaton, manager and metrics
    layers of every simulation run while installed."""

    def __init__(self):
        # slot: [calls, seconds, items]
        self._acc = {name: [0, 0.0, 0] for name in _SLOTS}

    def reset(self) -> None:
        for slot in self._acc.values():
            slot[:] = [0, 0.0, 0]

    def _automaton(self, cls):
        acc = self._acc

        def factory():
            a = cls()
            a.step_addr = _wrap(acc["automaton.step"], a.step_addr)
            a.run_native_stretch = _wrap(acc["automaton.stretch"], a.run_native_stretch,
                                         _stretch_items)
            a.bulk_interp = _wrap(acc["automaton.bulk"], a.bulk_interp, _bulk_items)
            a.append_region = _wrap(acc["automaton.append"], a.append_region,
                                    _append_states)
            return a
        return factory

    def _manager(self, make):
        slot = self._acc["rft.handle"]

        def factory(config):
            m = make(config)
            m._handle = _wrap(slot, m._handle)
            return m
        return factory

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        saved = (engine.Automaton, engine.make_rft, engine.compute_report,
                 engine.estimate_times, rft.netplus_expand)
        report = self._acc["metrics.report"]
        engine.Automaton = self._automaton(saved[0])
        engine.make_rft = self._manager(saved[1])
        engine.compute_report = _wrap(report, saved[2])
        engine.estimate_times = _wrap(report, saved[3])
        rft.netplus_expand = _wrap(self._acc["rft.expand"], saved[4])
        try:
            yield self
        finally:
            (engine.Automaton, engine.make_rft, engine.compute_report,
             engine.estimate_times, rft.netplus_expand) = saved

    def counts(self) -> dict:
        """Layer counters of the runs since the last reset, untagged."""
        acc = self._acc
        return {
            "rft.handle_calls": acc["rft.handle"][0],
            "rft.expand_calls": acc["rft.expand"][0],
            "automaton.step_calls": acc["automaton.step"][0],
            "automaton.stretch_calls": acc["automaton.stretch"][0],
            "automaton.stretch_items": acc["automaton.stretch"][2],
            "automaton.bulk_items": acc["automaton.bulk"][2],
            "automaton.append_calls": acc["automaton.append"][0],
            "automaton.append_states": acc["automaton.append"][2],
        }

    def metrics(self, tag: str, items: int, run_s: float) -> dict:
        """Per-layer metrics of one ``run_simulation`` call of ``items``
        items that took ``run_s`` seconds, named for technique ``tag``."""
        acc = self._acc
        auto_s = sum(acc[k][1] for k in _SLOTS if k.startswith("automaton."))
        handle_s = acc["rft.handle"][1]
        expand_s = acc["rft.expand"][1]
        report_s = acc["metrics.report"][1]
        out = {f"{name}.{tag}": value for name, value in self.counts().items()
               if tag in EXPANDING or not name.startswith("rft.expand")}
        out[f"rft.handle_calls_per_item.{tag}"] = acc["rft.handle"][0] / items
        out[f"rft.self_s.{tag}"] = handle_s - expand_s
        if tag in EXPANDING:
            out[f"rft.expand_s.{tag}"] = expand_s
        out[f"automaton.self_s.{tag}"] = auto_s
        out[f"metrics.report_s.{tag}"] = report_s
        out[f"engine.self_s.{tag}"] = run_s - auto_s - handle_s - report_s
        return out
