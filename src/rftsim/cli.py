"""Batch command-line front end.

Subcommands:

simulate    replay one trace through one technique and emit a report
sweep       cartesian runs of techniques x parameter points, one row each
compare     run several techniques and normalise every metric by a baseline
gen-trace   render a JSON loop-nest spec into a trace file
dump        replay a trace and write the resulting automaton as JSON

Reports are CSV (fixed, documented columns) or JSON (superset with the
config echo and per-region detail).  Identical invocations over identical
traces produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 I/O or data error, 3 internal
invariant violation.  ``sweep`` and ``compare`` exit 3 when any config
broke an invariant and 2 when configs failed otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from itertools import product
from typing import Optional, Sequence

from .engine import SimulationConfig, SimulationResult, run_simulation, run_sweep
from .metrics import (COST_COLUMNS, REPORT_COLUMNS, CostParams, cost_json_dict,
                      format_cell, report_csv_row, report_json_dict)
from .rft import (DEFAULT_EXPANSION_DEPTH, DEFAULT_HISTORY_CAPACITY,
                  DEFAULT_MAX_REGION_SIZE, DEFAULT_THRESHOLD, TECHNIQUES, RFTConfig)
from .trace_io import (FORMATS, TraceFile, TraceFormatError, TraceSpecError,
                       generate_trace, load_text, parse_program_spec, write_trace)

CONFIG_COLUMNS = ("technique", "threshold", "max_region_size",
                  "expansion_depth", "history_capacity")

_COLUMN_DOC = """\
report columns:
  config echo : %s
  metrics     : %s
  costs       : %s (only with --costs)
NA marks an average over zero regions; the 90%% cover set prints
'unreachable' when even all regions cover less than 90%%.
""" % (", ".join(CONFIG_COLUMNS), ", ".join(REPORT_COLUMNS), ", ".join(COST_COLUMNS))

_PARALLELISM_HELP = ("worker processes, capped at the config count and usable CPUs "
                     "(default: 1); results are identical at any level")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for I/O
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_int_list(text: str) -> list[int]:
    """Comma list ('2,4,8') or inclusive range ('4:12:2')."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {text!r}; expected start:stop[:step]")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step < 1:
            raise ValueError("range step must be >= 1")
        values = list(range(start, stop + 1, step))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
    values = [int(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def _parse_techniques(text: str) -> list[str]:
    tags = [t.strip() for t in text.split(",") if t.strip()]
    if not tags:
        raise ValueError("technique list is empty")
    for t in tags:
        if t not in TECHNIQUES:
            raise ValueError(f"unknown technique {t!r}; expected one of {', '.join(TECHNIQUES)}")
    return tags


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", required=True, help="trace file path")
    p.add_argument("--trace-format", choices=FORMATS, default="binary",
                   help="trace file format (default: binary)")
    p.add_argument("--skip", type=int, default=0,
                   help="items to discard before simulating (default: 0)")
    p.add_argument("--limit", type=int, default=None,
                   help="max items to simulate (default: whole trace)")


def _add_param_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                   help=f"hotness threshold (default: {DEFAULT_THRESHOLD})")
    p.add_argument("--max-region-size", type=int, default=DEFAULT_MAX_REGION_SIZE,
                   help=f"recording length cap (default: {DEFAULT_MAX_REGION_SIZE})")
    p.add_argument("--netplus-depth", type=int, default=DEFAULT_EXPANSION_DEPTH,
                   help=f"look-ahead depth for the netplus family (default: {DEFAULT_EXPANSION_DEPTH})")
    p.add_argument("--history-capacity", type=int, default=DEFAULT_HISTORY_CAPACITY,
                   help=f"lei history buffer capacity (default: {DEFAULT_HISTORY_CAPACITY})")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="-", help="output path, '-' for stdout (default)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="report format (default: csv)")


def _add_cost_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--costs", action="store_true",
                   help="append cost-model columns to the report")
    p.add_argument("--interp-cost", type=float, default=10.0,
                   help="cost per interpreted instruction (default: 10)")
    p.add_argument("--native-cost", type=float, default=1.0,
                   help="cost per natively emulated instruction (default: 1)")
    p.add_argument("--gen-cost", type=float, default=5.0,
                   help="cost per compiled static instruction (default: 5)")
    p.add_argument("--compiler-init-cost", type=float, default=100.0,
                   help="per-region compiler start cost (default: 100)")
    p.add_argument("--transition-cost", type=float, default=2.0,
                   help="cost per region-to-region transition (default: 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rftsim",
                     description="Trace-driven simulator for region formation "
                                 "in dynamic translators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="single run, single technique",
                           epilog=_COLUMN_DOC,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_trace_args(p_sim)
    p_sim.add_argument("--rft", required=True, choices=TECHNIQUES, help="technique to simulate")
    _add_param_args(p_sim)
    _add_output_args(p_sim)
    _add_cost_args(p_sim)

    p_sweep = sub.add_parser("sweep", help="techniques x parameter points",
                             epilog=_COLUMN_DOC,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_trace_args(p_sweep)
    p_sweep.add_argument("--rfts", required=True,
                         help="comma-separated technique list")
    _add_param_args(p_sweep)
    p_sweep.add_argument("--thresholds", default=None,
                         help="threshold values: comma list or start:stop[:step]")
    p_sweep.add_argument("--depths", default=None,
                         help="netplus depth values: comma list or start:stop[:step]")
    p_sweep.add_argument("--max-region-sizes", default=None,
                         help="size-cap values: comma list or start:stop[:step]")
    p_sweep.add_argument("--history-capacities", default=None,
                         help="lei capacity values: comma list or start:stop[:step]")
    p_sweep.add_argument("--parallelism", type=int, default=1, help=_PARALLELISM_HELP)
    _add_output_args(p_sweep)
    _add_cost_args(p_sweep)

    p_cmp = sub.add_parser("compare", help="normalise techniques against a baseline",
                           epilog=_COLUMN_DOC,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_trace_args(p_cmp)
    p_cmp.add_argument("--rfts", required=True, help="comma-separated technique list")
    p_cmp.add_argument("--baseline", default="net",
                       help="technique whose values normalise every row (default: net)")
    _add_param_args(p_cmp)
    p_cmp.add_argument("--parallelism", type=int, default=1, help=_PARALLELISM_HELP)
    _add_output_args(p_cmp)

    p_gen = sub.add_parser("gen-trace", help="render a loop-nest spec into a trace file")
    p_gen.add_argument("--spec", required=True, help="JSON program spec path")
    p_gen.add_argument("--out", required=True, help="trace file to write")
    p_gen.add_argument("--trace-format", choices=FORMATS, default="binary")

    p_dump = sub.add_parser("dump", help="write the post-run automaton as JSON")
    _add_trace_args(p_dump)
    p_dump.add_argument("--rft", required=True, choices=TECHNIQUES)
    _add_param_args(p_dump)
    p_dump.add_argument("--out", default="-", help="output path, '-' for stdout (default)")

    return parser


def _rft_config(args, technique: str) -> RFTConfig:
    return RFTConfig(technique=technique, threshold=args.threshold,
                     max_region_size=args.max_region_size,
                     expansion_depth=args.netplus_depth,
                     history_capacity=args.history_capacity)


def _cost_params(args) -> Optional[CostParams]:
    if not getattr(args, "costs", False):
        return None
    return CostParams(interp_cost=args.interp_cost, native_cost=args.native_cost,
                      gen_cost=args.gen_cost, compiler_init_cost=args.compiler_init_cost,
                      transition_cost=args.transition_cost)


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _config_cells(config: SimulationConfig) -> list[str]:
    return [str(getattr(config.rft, col)) for col in CONFIG_COLUMNS]


def _config_echo(config: SimulationConfig) -> dict:
    echo = {col: getattr(config.rft, col) for col in CONFIG_COLUMNS}
    echo.update(skip=config.skip, limit=config.limit)
    return echo


def _result_json(result: SimulationResult) -> dict:
    doc = {
        "config": _config_echo(result.config),
        "items_consumed": result.items_consumed,
        "report": report_json_dict(result.report),
    }
    if result.cost is not None:
        doc["cost"] = cost_json_dict(result.cost)
    return doc


def _write_json(out, doc) -> None:
    out.write(json.dumps(doc, indent=2, sort_keys=True))
    out.write("\n")


def _write_rows(out, header: list[str], rows: list[list[str]]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _report_header(with_costs: bool) -> list[str]:
    header = list(CONFIG_COLUMNS) + list(REPORT_COLUMNS)
    if with_costs:
        header += list(COST_COLUMNS)
    return header


def _report_row(result: SimulationResult, with_costs: bool) -> list[str]:
    row = _config_cells(result.config) + report_csv_row(result.report)
    if with_costs:
        row += [format_cell(getattr(result.cost, col)) for col in COST_COLUMNS]
    return row


@contextmanager
def _replayed(args):
    """The trace to replay: a binary file, checked whole before any config
    runs and then read in chunks, or a text file, loaded whole."""
    if args.trace_format == "text":
        yield load_text(args.trace)
        return
    with TraceFile(args.trace) as source:
        source.validate()
        yield source


def cmd_simulate(args) -> int:
    with _replayed(args) as trace:
        config = SimulationConfig(rft=_rft_config(args, args.rft), skip=args.skip,
                                  limit=args.limit, cost=_cost_params(args))
        result = run_simulation(trace, config)
    with _open_out(args.out) as out:
        if args.format == "json":
            _write_json(out, _result_json(result))
        else:
            _write_rows(out, _report_header(args.costs), [_report_row(result, args.costs)])
    return 0


def _sweep_configs(args) -> list[SimulationConfig]:
    def values(text, default):
        return _parse_int_list(text) if text else [default]
    # RFTConfig field -> its values, in the sweep's nesting order, outermost first
    axes = {
        "technique": _parse_techniques(args.rfts),
        "threshold": values(args.thresholds, args.threshold),
        "expansion_depth": values(args.depths, args.netplus_depth),
        "max_region_size": values(args.max_region_sizes, args.max_region_size),
        "history_capacity": values(args.history_capacities, args.history_capacity),
    }
    cost = _cost_params(args)
    return [SimulationConfig(rft=RFTConfig(**dict(zip(axes, point))),
                             skip=args.skip, limit=args.limit, cost=cost)
            for point in product(*axes.values())]


def cmd_sweep(args) -> int:
    configs = _sweep_configs(args)
    with _replayed(args) as trace:
        outcomes = run_sweep(trace, configs, parallelism=args.parallelism)
    with _open_out(args.out) as out:
        if args.format == "json":
            runs = []
            for o in outcomes:
                if o.error is not None:
                    runs.append({"config": _config_echo(o.config), "error": o.error})
                else:
                    runs.append(_result_json(o.result))
            _write_json(out, {"runs": runs})
        else:
            rows = [_report_row(o.result, args.costs) for o in outcomes if o.result is not None]
            _write_rows(out, _report_header(args.costs), rows)
    return _report_failures(outcomes)


def _report_failures(outcomes) -> int:
    """Print each failed config's error; returns the exit code: 3 when a
    config broke an invariant, 2 when configs failed otherwise, else 0."""
    failed = [o for o in outcomes if o.error is not None]
    for o in failed:
        print(f"rftsim: {o.config.rft.technique}: {o.error}", file=sys.stderr)
    if any(o.invariant_violated for o in failed):
        return 3
    return 2 if failed else 0


def _normalise(value, base):
    if value is None or base is None or base == 0:
        return None
    return value / base


def cmd_compare(args) -> int:
    techniques = _parse_techniques(args.rfts)
    if args.baseline not in techniques:
        raise ValueError(f"baseline {args.baseline!r} is not in the run set")
    with _replayed(args) as trace:
        configs = [SimulationConfig(rft=_rft_config(args, tech), skip=args.skip,
                                    limit=args.limit)
                   for tech in techniques]
        outcomes = run_sweep(trace, configs, parallelism=args.parallelism)
    code = _report_failures(outcomes)
    if code:
        return code
    by_tech = {o.config.rft.technique: o.result for o in outcomes}
    base_report = by_tech[args.baseline].report
    header = ["technique"] + [f"{col}_vs_{args.baseline}" for col in REPORT_COLUMNS]
    rows = []
    json_rows = []
    for tech in techniques:
        report = by_tech[tech].report
        normalised = {col: _normalise(getattr(report, col), getattr(base_report, col))
                      for col in REPORT_COLUMNS}
        rows.append([tech] + [format_cell(normalised[col]) for col in REPORT_COLUMNS])
        json_rows.append({"technique": tech, "normalized": normalised})
    with _open_out(args.out) as out:
        if args.format == "json":
            _write_json(out, {"baseline": args.baseline, "runs": json_rows})
        else:
            _write_rows(out, header, rows)
    return 0


def cmd_gen_trace(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = parse_program_spec(fh.read())
    trace = generate_trace(spec)
    write_trace(args.out, trace, args.trace_format)
    print(f"rftsim: wrote {len(trace)} items to {args.out}", file=sys.stderr)
    return 0


def cmd_dump(args) -> int:
    with _replayed(args) as trace:
        config = SimulationConfig(rft=_rft_config(args, args.rft), skip=args.skip,
                                  limit=args.limit, collect_dump=True)
        result = run_simulation(trace, config)
    with _open_out(args.out) as out:
        _write_json(out, result.dump)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "gen-trace": cmd_gen_trace,
    "dump": cmd_dump,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except (TraceFormatError, TraceSpecError) as exc:
        print(f"rftsim: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"rftsim: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"rftsim: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - invariant violations surface as exit 3
        print(f"rftsim: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
