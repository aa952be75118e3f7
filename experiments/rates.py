"""Simulation rates across the operating range.

For each of the six techniques, the benchmark's three workloads at seed 1
(``bench/workloads.py``) and thresholds 8, 64, 256 and 1024, this runs
``run_simulation`` in-process and records the items simulated per second
of process time and the stepping kernel's calls
(``Automaton.run_native_stretch``): 72 configs.  Each round runs every
config in a fresh worker process, a short one several times; a config's
rate is its best round (its minimum time) and its range runs from its
worst round to its best.
``--src PATH`` also runs the ``src/`` of the checkout at PATH over the
same traces, the two alternating round by round, prints both tables and
names each config this checkout runs slower than PATH's range: its best
rate below PATH's worst.  The tables go to stdout as Markdown, the
progress to stderr, and the JSON, with an environment stamp, to ``--out``.

    python experiments/rates.py                     # writes RATES.json
    python experiments/rates.py --src ../parent     # A/B against a checkout
    python experiments/rates.py --items 2000 --rounds 1 --out /tmp/r.json

``netplus`` and ``netplus-e-r`` take seconds each on interp-noise at
threshold 8, so a round takes about 30 s on one core of a 2-core x86
host.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THRESHOLDS = (8, 64, 256, 1024)
SEED = 1
# a round reruns a config, up to REPEAT runs, until its runs take SHORT_S,
# and keeps its fastest run: interp-noise runs in a few ms above threshold
# 8, where one run's time is mostly noise
REPEAT, SHORT_S = 10, 0.1


def _worker(src: Path, traces: Path) -> dict:
    """Every config once with the rftsim under ``src``, over the traces
    saved in ``traces``: ``{"workload/threshold/technique": [seconds,
    kernel calls]}``."""
    sys.path.insert(0, str(src / "src"))
    from rftsim import RFTConfig, SimulationConfig, Trace, run_simulation
    from rftsim.automaton import Automaton
    from rftsim.rft import TECHNIQUES

    kernel = Automaton.run_native_stretch
    calls = [0]

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return kernel(self, *args, **kwargs)
    Automaton.run_native_stretch = counted
    result = {}
    for path in sorted(traces.glob("*.npz")):
        saved = np.load(path)
        trace = Trace(saved["addresses"], saved["sizes"])
        for threshold in THRESHOLDS:
            for technique in TECHNIQUES:
                config = SimulationConfig(rft=RFTConfig(technique, threshold=threshold))
                times = []
                while len(times) < REPEAT and sum(times) < SHORT_S:
                    calls[0] = 0
                    gc.collect()
                    t0 = time.process_time()
                    run_simulation(trace, config)
                    times.append(time.process_time() - t0)
                key = f"{path.stem.split('-', 1)[1]}/{threshold}/{technique}"
                result[key] = [min(times), calls[0]]
    return result


def _commit(checkout: Path) -> str:
    """The checkout's HEAD, with ``-dirty`` when its files differ from it."""
    done = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty",
                           "--abbrev=40"], capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def _round(src: Path, traces: Path) -> dict:
    done = subprocess.run([sys.executable, __file__, "--worker", str(src), str(traces)],
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def _table(runs: list[dict], items: dict) -> dict:
    """Per config, from its rounds: items, kernel calls, and the best and
    worst rates."""
    table = {}
    for key in runs[0]:
        times = [run[key][0] for run in runs]
        n = items[key.split("/")[0]]
        table[key] = {"items": n, "kernel_calls": runs[0][key][1],
                      "items_per_s": round(n / max(min(times), 1e-9)),
                      "worst_items_per_s": round(n / max(max(times), 1e-9))}
    return table


def _markdown(title: str, table: dict) -> str:
    techniques = list(dict.fromkeys(key.split("/")[2] for key in table))
    rows = list(dict.fromkeys(key.rsplit("/", 1)[0] for key in table))
    lines = [f"### {title}", "",
             "M items/s (kernel calls), best round",
             "", "| workload | threshold | " + " | ".join(techniques) + " |",
             "|---|---:|" + "---:|" * len(techniques)]
    for row in rows:
        cells = [f"{table[f'{row}/{t}']['items_per_s'] / 1e6:.2f} "
                 f"({table[f'{row}/{t}']['kernel_calls']})" for t in techniques]
        lines.append("| " + " | ".join(row.split("/")) + " | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=None,
                        help="also run the checkout at SRC, alternating rounds with this one")
    parser.add_argument("--items", type=int, default=None,
                        help="run each workload's first ITEMS items")
    parser.add_argument("--rounds", type=int, default=4,
                        help="rounds per checkout; an even number gives each side each slot "
                             "as often")
    parser.add_argument("--out", type=Path, default=ROOT / "RATES.json")
    parser.add_argument("--worker", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(*args.worker)))
        return 0
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS
    sides = [ROOT] + ([args.src.resolve()] if args.src else [])
    runs = {side: [] for side in sides}
    items = {}
    with tempfile.TemporaryDirectory() as traces:
        for k, (name, workload) in enumerate(WORKLOADS.items()):
            trace = workload.generate(SEED, workload.items if args.items is None
                                      else min(args.items, workload.items))
            # numbered, so that workers take them in the benchmark's order
            np.savez(Path(traces) / f"{k}-{name}.npz", addresses=trace.addresses,
                     sizes=np.asarray(trace.sizes))
            items[name] = len(trace)
        for r in range(args.rounds):
            # alternate which side goes first
            for side in sides[::-1] if r % 2 else sides:
                print(f"round {r + 1} of {args.rounds}: {side}", file=sys.stderr, flush=True)
                runs[side].append(_round(side, Path(traces)))
    tables = {side: _table(runs[side], items) for side in sides}
    doc = {"env": {"python": platform.python_version(), "numpy": np.__version__,
                   "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
                   "git_commit": _commit(ROOT), "seed": SEED, "rounds": args.rounds,
                   "items": items, "clock": "process_time"},
           "rates": tables[ROOT]}
    print(_markdown(f"Rates at {doc['env']['git_commit'][:12]}", tables[ROOT]))
    if args.src:
        other = tables[sides[1]]
        slower = [key for key, row in tables[ROOT].items()
                  if row["items_per_s"] < other[key]["worst_items_per_s"]]
        doc["against"] = {"git_commit": _commit(sides[1]), "rates": other, "slower": slower}
        print(_markdown(f"Rates at {doc['against']['git_commit'][:12]}", other))
        print("Slower than the other checkout's range: " + (", ".join(slower) or "none"))
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
