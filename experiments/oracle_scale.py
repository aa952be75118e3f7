"""The engine against the naive per-item reference loop at benchmark scale.

For each of the benchmark's three workloads (``bench/workloads.py``),
each of the six techniques and thresholds 64 and 1024, this runs the
engine and ``naive_run`` of ``tests/conftest.py`` over the same trace and
compares their automaton dumps: 36 configs.  It prints one line per
config and exits 1 if any dump differs.

    python experiments/oracle_scale.py               # full size, seed 1
    python experiments/oracle_scale.py --items 5000  # each trace's prefix

The reference loop steps every item in Python, so the full-size run
takes a minute or more on one core.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from conftest import naive_run  # noqa: E402
from rftsim import RFTConfig, SimulationConfig, Trace, run_simulation  # noqa: E402
from rftsim.rft import TECHNIQUES  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

THRESHOLDS = (64, 1024)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--items", type=int, default=None,
                        help="compare on each trace's first ITEMS items")
    args = parser.parse_args(argv)
    differing = 0
    for name, workload in WORKLOADS.items():
        trace = workload.generate(DEFAULT_SEED, workload.items)
        if args.items is not None:
            trace = Trace(trace.addresses[:args.items], trace.sizes[:args.items])
        for threshold in THRESHOLDS:
            for technique in TECHNIQUES:
                config = SimulationConfig(rft=RFTConfig(technique, threshold=threshold),
                                          collect_dump=True)
                same = run_simulation(trace, config).dump == naive_run(trace, config).dump()
                differing += not same
                print(f"{name} {technique} threshold {threshold} {len(trace)} items: "
                      f"{'same' if same else 'DIFFERS'}", flush=True)
    print(f"{differing} of {len(WORKLOADS) * len(THRESHOLDS) * len(TECHNIQUES)} dumps differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
