"""Run metrics and the abstract cost model.

Pure functions over finished-automaton counters.  All aggregates are
deterministic, and averages over zero regions are reported as None (the
serialisers print ``NA``).  The 90% cover set is None when even the full
region set covers less than 90% of the executed instructions.

A region is counted cold when its total entry count is below the
configured threshold; that definition is echoed in the JSON metadata so
downstream tooling never has to guess it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .automaton import Automaton, RegionStats

Number = Union[int, float]

COLD_REGION_DEFINITION = "entries < threshold"


@dataclass(frozen=True)
class MetricsReport:
    """The aggregate metrics of one simulation run."""

    total_instructions: int
    interpreted_instructions: int
    native_instructions: int
    num_regions: int
    coverage: float
    num_transitions: int
    hot_static_size: int
    avg_static_region_size: Optional[float]
    avg_dynamic_region_size: Optional[float]
    completion_ratio: Optional[float]
    ninety_percent_cover_set: Optional[int]
    cold_region_fraction: float
    duplication_ratio: float
    cold_threshold: int
    regions: tuple[RegionStats, ...] = ()


@dataclass(frozen=True)
class CostParams:
    """Abstract per-unit costs; time units are arbitrary but consistent."""

    interp_cost: Number = 10
    native_cost: Number = 1
    gen_cost: Number = 5
    compiler_init_cost: Number = 100
    transition_cost: Number = 2

    def __post_init__(self):
        for name in ("interp_cost", "native_cost", "gen_cost",
                     "compiler_init_cost", "transition_cost"):
            value = getattr(self, name)
            # an int is always finite, and math.isfinite overflows on one past a float's range
            if value < 0 or isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class CostBreakdown:
    """Modelled run time split into its four components, plus the
    interpret-everything baseline it competes against."""

    interp_time: Number
    native_time: Number
    gen_time: Number
    transition_time: Number
    total_time: Number
    baseline_time: Number
    profitable: bool


def completion_ratio(completed_traversals: int, head_executions: int) -> Optional[float]:
    """Completed traversals per head execution; None when the head never ran."""
    if head_executions == 0:
        return None
    return completed_traversals / head_executions


def ninety_percent_cover_set(dynamic_counts: Sequence[int], total_freq: int) -> Optional[int]:
    """Smallest number of regions whose dynamic counts reach 90% of
    ``total_freq``; None when unreachable.  Exact integer arithmetic."""
    if total_freq == 0:
        return 0
    need_x10 = 9 * total_freq
    acc = 0
    for k, c in enumerate(sorted(dynamic_counts, reverse=True), start=1):
        acc += c
        if 10 * acc >= need_x10:
            return k
    return None


def cold_region_fraction(regions: Sequence[RegionStats], threshold: int) -> float:
    """Fraction of regions entered fewer than ``threshold`` times; 0.0 for
    a region-free run."""
    if not regions:
        return 0.0
    cold = sum(1 for r in regions if r.entries < threshold)
    return cold / len(regions)


def compute_report(automaton: Automaton, cold_threshold: int = 1024) -> MetricsReport:
    """Assemble the run report purely from automaton counters."""
    stats = tuple(automaton.all_region_stats())
    interp = automaton.interp
    # every native item executes exactly one region state
    native = sum(r.dynamic_instructions for r in stats)
    total = interp + native
    num_regions = len(stats)
    hot_static = sum(r.static_size for r in stats)
    avg_static = hot_static / num_regions if num_regions else None
    # a region never entered adds 0.0 to the sum, which changes no bit of it
    avg_dynamic = (sum(r.dynamic_instructions / r.entries for r in stats if r.entries)
                   / num_regions if num_regions else None)
    heads = sum(r.head_executions for r in stats)
    completed = sum(r.completed_traversals for r in stats)
    # the address index maps each id some region state holds to a state
    distinct = int(np.count_nonzero(automaton.held))
    duplication = (hot_static - distinct) / hot_static if hot_static else 0.0
    return MetricsReport(
        total_instructions=total,
        interpreted_instructions=interp,
        native_instructions=native,
        num_regions=num_regions,
        coverage=(native / total) if total else 0.0,
        num_transitions=sum(r.entries_from_native for r in stats),
        hot_static_size=hot_static,
        avg_static_region_size=avg_static,
        avg_dynamic_region_size=avg_dynamic,
        completion_ratio=completion_ratio(completed, heads),
        ninety_percent_cover_set=ninety_percent_cover_set(
            [r.dynamic_instructions for r in stats], total),
        cold_region_fraction=cold_region_fraction(stats, cold_threshold),
        duplication_ratio=duplication,
        cold_threshold=cold_threshold,
        regions=stats,
    )


def estimate_times(report: MetricsReport, params: CostParams) -> CostBreakdown:
    """Evaluate the cost model; exact when fed integral inputs.

    The four components are per-unit costs times the matching frequencies
    (generation also pays a per-region initialisation); translation is
    profitable only when their sum is strictly below interpreting every
    instruction.
    """
    interp_time = params.interp_cost * report.interpreted_instructions
    native_time = params.native_cost * report.native_instructions
    gen_time = (params.gen_cost * report.hot_static_size
                + params.compiler_init_cost * report.num_regions)
    transition_time = params.transition_cost * report.num_transitions
    total = interp_time + native_time + gen_time + transition_time
    baseline = params.interp_cost * report.total_instructions
    return CostBreakdown(
        interp_time=interp_time,
        native_time=native_time,
        gen_time=gen_time,
        transition_time=transition_time,
        total_time=total,
        baseline_time=baseline,
        profitable=total < baseline,
    )


# --- serialisation ----------------------------------------------------------

REPORT_COLUMNS = (
    "total_instructions",
    "interpreted_instructions",
    "native_instructions",
    "coverage",
    "num_regions",
    "num_transitions",
    "hot_static_size",
    "avg_static_region_size",
    "avg_dynamic_region_size",
    "completion_ratio",
    "ninety_percent_cover_set",
    "cold_region_fraction",
    "duplication_ratio",
)

COST_COLUMNS = (
    "interp_time",
    "native_time",
    "gen_time",
    "transition_time",
    "total_time",
    "baseline_time",
    "profitable",
)


def format_cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def report_csv_row(report: MetricsReport) -> list[str]:
    """Metric cells in REPORT_COLUMNS order.  The cover set prints
    ``unreachable`` when 90% coverage cannot be met."""
    cells = []
    for col in REPORT_COLUMNS:
        value = getattr(report, col)
        if col == "ninety_percent_cover_set" and value is None:
            cells.append("unreachable")
        else:
            cells.append(format_cell(value))
    return cells


def report_json_dict(report: MetricsReport) -> dict:
    """Structured report: metric fields plus a per-region table."""
    metrics = {col: getattr(report, col) for col in REPORT_COLUMNS}
    # each region's counters, ``rid`` named ``id``, and its completion ratio
    regions = [{"id": r.rid, **{f.name: getattr(r, f.name) for f in fields(r)[1:]},
                "completion_ratio": completion_ratio(r.completed_traversals, r.head_executions)}
               for r in report.regions]
    return {
        "metrics": metrics,
        "cold_threshold": report.cold_threshold,
        "cold_region_definition": COLD_REGION_DEFINITION,
        "regions": regions,
    }


def cost_json_dict(cost: CostBreakdown) -> dict:
    return {col: getattr(cost, col) for col in COST_COLUMNS}
