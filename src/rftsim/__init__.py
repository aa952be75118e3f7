"""Trace-driven simulator for region formation in dynamic translators."""

from .automaton import Automaton, RegionStats
from .engine import (InvariantError, SimulationConfig, SimulationResult,
                     SweepOutcome, run_simulation, run_sweep)
from .metrics import (CostBreakdown, CostParams, MetricsReport,
                      cold_region_fraction, completion_ratio, compute_report,
                      estimate_times, ninety_percent_cover_set)
from .rft import (RFTConfig, RegionManager, TECHNIQUES, make_rft,
                  mret2_intersect, netplus_expand)
from .trace_io import (AlternatingPaths, LoopSpec, ProgramSpec, Trace, TraceFile,
                       TraceFormatError, TraceSpecError, generate_trace,
                       load_trace, parse_program_spec, write_trace)

__version__ = "0.1.0"
