"""rftsim benchmark: one seeded workload, end-to-end or per-layer.

Run from the repository root:

    python3 bench/run.py --workload loop-nest --seed 1 --seconds 14 --trace 0

The workload (see ``workloads.py``) is rendered from the seed, written as
a binary v1 trace file under ``.bench_work/`` and loaded back; that
set-up is repeated three times and ``setup_s`` is its median.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Rounds of six ``run_simulation`` calls, one per technique at the default
operating point, repeat while the next round fits in ``--seconds``, and
``sim_items_per_s`` sums each technique's median call time.  Then a
child process runs ``rftsim sweep`` over the trace file for all six
techniques at parallelism ``nproc``, through ``cli_child.py``, twice;
the median wall time and the peak RSS are the CLI metrics.  Every
end-to-end time is scaled to the reference host speed (see
``hostspeed.py``); the unscaled figures are printed as comments.

``--trace 1`` makes one untraced round, one round under ``LayerTracer``
(see ``layers.py``) and one untraced in-process ``run_sweep`` at
parallelism ``nproc``, and prints the per-layer metrics.

Every report produced is checked: conservation of items, completions
bounded by head executions, in-process reports equal to the CLI's (or to
the traced and swept ones), and, at the default seed, report digests
equal to those in ``digests.json``.  A workload-shape guard prints the
property the workload was chosen for and checks it at the default seed.
The last stdout line is one JSON object with the keys ``correct``,
``attempted`` (checks made), ``failed`` (checks failed) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

if not (SRC / "rftsim").is_dir():
    sys.exit(f"bench: no rftsim sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from rftsim.engine import SimulationConfig, run_simulation, run_sweep  # noqa: E402
from rftsim.metrics import CostParams, cost_json_dict, report_json_dict  # noqa: E402
from rftsim.rft import TECHNIQUES, RFTConfig  # noqa: E402
from rftsim.trace_io import load_trace, write_trace  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from layers import LayerTracer, expand_names  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

SETUP_REPS = 3
CLI_REPS = 2
CLI_TIMEOUT_S = 60
CLI_PROBE_INTERVAL_S = 0.2

# the CLI's default cost parameters, as the floats it parses them into,
# so in-process cost blocks serialise exactly as the CLI's do
CLI_COSTS = CostParams(interp_cost=10.0, native_cost=1.0, gen_cost=5.0,
                       compiler_init_cost=100.0, transition_cost=2.0)

# report fields covered by the committed digests; fields added to the
# report later do not change a digest, any change to these does
DIGEST_METRICS = (
    "total_instructions", "interpreted_instructions", "native_instructions",
    "coverage", "num_regions", "num_transitions", "hot_static_size",
    "avg_static_region_size", "avg_dynamic_region_size", "completion_ratio",
    "ninety_percent_cover_set", "cold_region_fraction", "duplication_ratio")
DIGEST_REGION = (
    "id", "entry_address", "static_size", "recorded_size", "expansion_size",
    "entries_from_interpreter", "entries_from_native", "dynamic_instructions",
    "head_executions", "tail_executions", "completed_traversals")
DIGEST_COST = ("interp_time", "native_time", "gen_time", "transition_time",
               "total_time", "baseline_time", "profitable")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the enclosing git checkout, read without a subprocess, or
    ``unknown`` outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(workload: str, seed: int, items: int) -> dict:
    return {"workload": workload, "seed": seed, "items": items, "nproc": nproc(),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": git_commit()}


class Checks:
    """Tally of correctness checks; prints each failure to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {name} {detail}".rstrip(), file=sys.stderr)


def sim_config(tag: str) -> SimulationConfig:
    return SimulationConfig(rft=RFTConfig(technique=tag), cost=CLI_COSTS)


def report_doc(result) -> dict:
    """A run as the CLI's JSON sweep prints it (config echo aside)."""
    return {"items_consumed": result.items_consumed,
            "report": report_json_dict(result.report),
            "cost": cost_json_dict(result.cost)}


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc: dict) -> str:
    report = doc["report"]
    core = {
        "items_consumed": doc["items_consumed"],
        "metrics": {k: report["metrics"][k] for k in DIGEST_METRICS},
        "regions": [{k: r[k] for k in DIGEST_REGION} for r in report["regions"]],
        "cost": {k: doc["cost"][k] for k in DIGEST_COST},
    }
    return hashlib.sha256(canonical(core).encode()).hexdigest()


def check_report(checks: Checks, source: str, tag: str, doc: dict, items: int) -> None:
    m = doc["report"]["metrics"]
    regions = doc["report"]["regions"]
    total, interp, native = (m["total_instructions"], m["interpreted_instructions"],
                             m["native_instructions"])
    checks.check(f"conservation.{source}.{tag}",
                 interp + native == total == doc["items_consumed"] == items
                 and sum(r["dynamic_instructions"] for r in regions) == native,
                 f"interp {interp} native {native} total {total} items {items}")
    checks.check(f"completions.{source}.{tag}",
                 all(r["completed_traversals"] <= r["head_executions"] for r in regions))


def check_equal(checks: Checks, name: str, docs: dict, reference: dict) -> None:
    for tag in TECHNIQUES:
        checks.check(f"{name}.{tag}", tag in docs
                     and canonical(docs[tag]) == canonical(reference[tag]))


def check_digests(checks: Checks, wl: Workload, seed: int, items: int,
                  docs: dict) -> None:
    if seed != DEFAULT_SEED or items != wl.items:
        return
    committed = json.loads(DIGESTS.read_text()).get(wl.name, {})
    fresh = committed.get("items") == items
    for tag in TECHNIQUES:
        checks.check(f"digest.{tag}", fresh
                     and committed["reports"].get(tag) == digest(docs[tag]))


def shape_guard(checks: Checks, wl: Workload, seed: int, items: int, docs: dict,
                net_counts: Optional[dict]) -> None:
    for name, ok, detail in wl.guard(docs, net_counts):
        print(f"# {name} {'holds' if ok else 'FAILS'}: {detail}")
        if seed == DEFAULT_SEED and items == wl.items:
            checks.check(name, ok, detail)


def setup(wl: Workload, seed: int, items: int, workdir: Path, speed: HostSpeed):
    """Render, write and reload the workload ``SETUP_REPS`` times.

    Returns the last loaded trace, its file, the median wall time of each
    phase, and the median scaled set-up time.  The backward-branch index
    is built, and timed, outside the set-up, so no timed simulation pays
    for it."""
    path = workdir / "trace.rtr"
    phases = {"generate": [], "write": [], "load": [], "index": [], "setup": []}
    scaled = []

    def render_write_load():
        t0 = time.perf_counter()
        generated = wl.generate(seed, items)
        t1 = time.perf_counter()
        write_trace(path, generated)
        t2 = time.perf_counter()
        del generated
        loaded = load_trace(path)
        phases["generate"].append(t1 - t0)
        phases["write"].append(t2 - t1)
        t3 = time.perf_counter()
        phases["load"].append(t3 - t2)
        phases["setup"].append(t3 - t0)
        return loaded

    trace = None
    for _ in range(SETUP_REPS):
        trace = None
        gc.collect()
        trace, _, setup_s = speed.timed(render_write_load)
        scaled.append(setup_s)
        t0 = time.perf_counter()
        trace.backward_indices()
        phases["index"].append(time.perf_counter() - t0)
    return (trace, path, {k: statistics.median(v) for k, v in phases.items()},
            statistics.median(scaled))


def simulate_round(trace, speed: HostSpeed) -> tuple[dict, dict, dict]:
    """One untraced run_simulation per technique: (wall seconds, scaled
    seconds, report docs), each keyed by technique."""
    walls, scaled, docs = {}, {}, {}
    for tag in TECHNIQUES:
        config = sim_config(tag)
        gc.collect()
        result, walls[tag], scaled[tag] = speed.timed(run_simulation, trace, config)
        docs[tag] = report_doc(result)
    return walls, scaled, docs


def traced_net_counts(trace) -> dict:
    tracer = LayerTracer()
    with tracer.installed():
        run_simulation(trace, sim_config("net"))
    return tracer.counts()


def cli_sweep(checks: Checks, path: Path, workdir: Path, speed: HostSpeed):
    """Run the sweep CLI once in a child, through ``cli_child.py``.

    The parent probes the host speed every ``CLI_PROBE_INTERVAL_S`` while
    it waits, so the scaled time follows speed changes during the run.
    Returns (wall s, scaled s, peak RSS MiB, report docs by technique)."""
    out = workdir / "sweep.json"
    err = workdir / "sweep.stderr"
    rss = workdir / "sweep.rss"
    for stale in (out, rss):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "cli_child.py"), str(rss), "sweep",
           "--trace", str(path), "--rfts", ",".join(TECHNIQUES),
           "--parallelism", str(nproc()), "--format", "json", "--costs",
           "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = [speed.probe()]
    with open(err, "w") as err_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err_fh)
        try:
            while True:
                try:
                    proc.wait(timeout=CLI_PROBE_INTERVAL_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.perf_counter() - t0 > CLI_TIMEOUT_S:
                        raise
                    probes.append(speed.probe())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    probes.append(speed.probe())
    checks.check("cli.exit_status", proc.returncode == 0 and rss.is_file(),
                 f"exit {proc.returncode}: {err.read_text().strip()}")
    rss_mib = int(rss.read_text()) / 1024 if rss.is_file() else 0.0
    docs = {}
    if out.is_file():
        for run in json.loads(out.read_text())["runs"]:
            if "error" not in run:
                docs[run["config"]["technique"]] = {
                    k: run[k] for k in ("items_consumed", "report", "cost")}
    return wall, speed.scale(wall, probes), rss_mib, docs


def end_to_end(wl: Workload, seed: int, seconds: float, items: int,
               workdir: Path, checks: Checks) -> dict:
    speed = HostSpeed()
    trace, path, phases, setup_s = setup(wl, seed, items, workdir, speed)
    walls, scaled = [], []
    docs = None
    start = time.perf_counter()
    while True:
        round_walls, round_scaled, round_docs = simulate_round(trace, speed)
        walls.append(round_walls)
        scaled.append(round_scaled)
        if docs is None:
            docs = round_docs
        else:
            check_equal(checks, "determinism.round", round_docs, docs)
        elapsed = time.perf_counter() - start
        # stop before a round that would run past the budget
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    net_counts = traced_net_counts(trace) if wl.guard_needs_counts else None
    del trace
    gc.collect()
    cli_walls, cli_scaled, rss = [], [], []
    for _ in range(CLI_REPS):
        cli_wall, cli_s, rss_mib, cli_docs = cli_sweep(checks, path, workdir, speed)
        cli_walls.append(cli_wall)
        cli_scaled.append(cli_s)
        rss.append(rss_mib)
        for tag in TECHNIQUES:
            if tag in cli_docs:
                check_report(checks, "cli", tag, cli_docs[tag], items)
        check_equal(checks, "cli_equals_inproc", cli_docs, docs)

    for tag in TECHNIQUES:
        check_report(checks, "inproc", tag, docs[tag], items)
    check_digests(checks, wl, seed, items, docs)
    shape_guard(checks, wl, seed, items, docs, net_counts)

    sim = {tag: statistics.median(r[tag] for r in scaled) for tag in TECHNIQUES}
    sim_wall = {tag: statistics.median(r[tag] for r in walls) for tag in TECHNIQUES}
    print(f"# rounds {len(walls)}; scaled items/s: "
          + " ".join(f"{t} {items / sim[t]:.4g}" for t in TECHNIQUES))
    print(f"# unscaled: setup_s {phases['setup']:.4g} sim_items_per_s "
          f"{len(TECHNIQUES) * items / sum(sim_wall.values()):.4g} "
          f"cli_sweep_s {statistics.median(cli_walls):.4g}")
    return {
        "setup_s": (setup_s, "s"),
        "sim_items_per_s": (len(TECHNIQUES) * items / sum(sim.values()), "1/s"),
        "cli_sweep_s": (statistics.median(cli_scaled), "s"),
        "cli_peak_rss_mb": (max(rss), "MiB"),
    }


def per_layer(wl: Workload, seed: int, items: int, workdir: Path,
              checks: Checks) -> dict:
    speed = HostSpeed()
    trace, _, phases, _ = setup(wl, seed, items, workdir, speed)
    plain_times, plain_scaled, docs = simulate_round(trace, speed)

    tracer = LayerTracer()
    units = {name: unit for name, unit, _, _ in expand_names()}
    metrics = {}
    traced_docs = {}
    traced_total = 0.0
    with tracer.installed():
        for tag in TECHNIQUES:
            config = sim_config(tag)
            tracer.reset()
            gc.collect()
            t0 = time.perf_counter()
            result = run_simulation(trace, config)
            run_s = time.perf_counter() - t0
            traced_total += run_s
            traced_docs[tag] = report_doc(result)
            for name, value in tracer.metrics(tag, items, run_s).items():
                metrics[name] = (value, units[name])
            if tag == "net":
                net_counts = tracer.counts()

    gc.collect()
    t0 = time.perf_counter()
    outcomes = run_sweep(trace, [sim_config(t) for t in TECHNIQUES], parallelism=nproc())
    sweep_s = time.perf_counter() - t0
    sweep_docs = {o.config.rft.technique: report_doc(o.result)
                  for o in outcomes if o.result is not None}

    for tag in TECHNIQUES:
        check_report(checks, "inproc", tag, docs[tag], items)
    check_equal(checks, "traced_equals_untraced", traced_docs, docs)
    check_equal(checks, "sweep_equals_sequential", sweep_docs, docs)
    check_digests(checks, wl, seed, items, docs)
    shape_guard(checks, wl, seed, items, docs, net_counts)

    plain_total = sum(plain_times.values())
    for tag in TECHNIQUES:
        metrics[f"engine.items_per_s.{tag}"] = (items / plain_scaled[tag], "1/s")
    for name, value in (
            ("engine.sweep_s", sweep_s),
            ("engine.sweep_speedup", plain_total / sweep_s),
            ("trace_io.load_s", phases["load"]),
            ("trace_io.load_ns_per_item", phases["load"] * 1e9 / items),
            ("trace_io.backward_indices_s", phases["index"]),
            ("trace_io.write_s", phases["write"]),
            ("trace_io.generate_s", phases["generate"]),
            ("trace.overhead_s", traced_total - plain_total)):
        metrics[name] = (value, units[name])
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        items: Optional[int] = None) -> dict:
    """One benchmark run; returns the result object printed last.

    ``items`` overrides the workload's item count (for quick tests); the
    digest and shape checks then are skipped."""
    wl = WORKLOADS[workload]
    items = wl.items if items is None else items
    print("# env " + json.dumps(env_stamp(workload, seed, items), sort_keys=True))
    checks = Checks()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        if trace:
            metrics = per_layer(wl, seed, items, workdir, checks)
        else:
            metrics = end_to_end(wl, seed, seconds, items, workdir, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_checks {checks.failed} of checks_attempted {checks.attempted}")
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def record_digests() -> None:
    """Rewrite ``digests.json`` from fresh reports at the default seed."""
    out = {}
    for name, wl in WORKLOADS.items():
        _, _, docs = simulate_round(wl.generate(DEFAULT_SEED, wl.items), HostSpeed())
        out[name] = {"seed": DEFAULT_SEED, "items": wl.items,
                     "reports": {t: digest(docs[t]) for t in TECHNIQUES}}
    DIGESTS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json at the default seed and exit")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
