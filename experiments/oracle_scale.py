"""The engine against the naive per-item reference loop at benchmark scale.

For each of the benchmark's three workloads (``bench/workloads.py``) and
two traces derived from graph-walk, each of the six techniques and
thresholds 64 and 1024, this runs the engine and ``naive_run`` of
``tests/conftest.py`` over the same trace and compares their automaton
dumps: 60 configs.  The derived traces take the engine's other address
ids: ``many-addresses`` runs 70,000 fresh addresses once each below
graph-walk's, so its ids are u32 and graph-walk's above 65,535, and
``wide-span`` moves each address ``a`` to ``a << 24``, a span wider than
the dense lookup's, so its ids come from the binary search.  It prints
one line per config, with the items the stepping kernel's numpy pass
stepped, the interpreter-side items the kernel profiled for an idle
manager and the items it pushed through ``lei``'s history, each in its
per-item loop and in its pass, the walks it stepped in one go along a
chain head's memo (memo hits), and the items the pass resolved onto a
copy through exceptional edges, with the longest such walk.  It exits 1
if any dump differs, if the pass stepped no item on loop-nest or on
graph-walk, whose long native runs it exists for, if the pass profiled
no item for ``net`` or pushed none for ``lei`` on graph-walk, whose idle
stretches it exists for, if no loop-nest config hit a memo, whose inner
loops the memo exists for, or if the pass followed no walk longer than
one item for ``netplus`` on graph-walk, whose look-ahead copies chain.

    python experiments/oracle_scale.py               # full size, seed 1
    python experiments/oracle_scale.py --items 5000  # each trace's prefix

The reference loop steps every item in Python, so the full-size run
takes a minute or more on one core.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from conftest import naive_run  # noqa: E402
from rftsim import RFTConfig, SimulationConfig, Trace, run_simulation  # noqa: E402
from rftsim.automaton import Automaton, History, Region  # noqa: E402
from rftsim.rft import TECHNIQUES  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

THRESHOLDS = (64, 1024)
# addresses run once each before graph-walk's in the many-addresses trace
FRESH = 70_000
# the workloads on which the kernel's numpy pass must step some items
PASSED = ("loop-nest", "graph-walk")
# the configs whose interpreter-side items the pass must profile some of,
# and push some of
PROFILED = ("graph-walk", "net")
PUSHED = ("graph-walk", "lei")
# the config whose walks of exceptional edges the pass must follow past
# their first item
CHAINED = ("graph-walk", "netplus")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--items", type=int, default=None,
                        help="compare on each trace's first ITEMS items")
    args = parser.parse_args(argv)
    differing = 0
    traces = {}
    for name, workload in WORKLOADS.items():
        trace = workload.generate(DEFAULT_SEED, workload.items)
        if args.items is not None:
            trace = Trace(trace.addresses[:args.items], trace.sizes[:args.items])
        traces[name] = trace
    walk = traces["graph-walk"]
    fresh = np.arange(0, 4 * FRESH, 4, dtype=np.uint64)
    traces["many-addresses"] = Trace(np.concatenate([fresh, walk.addresses + np.uint64(4 * FRESH)]),
                                     np.concatenate([np.full(FRESH, 4), walk.sizes]))
    traces["wide-span"] = Trace(walk.addresses << np.uint64(24), walk.sizes)
    # the items the kernel's numpy pass steps, the interpreter-side items
    # the kernel profiles in its loop and in its pass, the items it pushes
    # through lei's history in its loop and in its pass, and the memo
    # hits, the items the pass resolves onto a copy and its longest walk
    # of them, in the current config, and the items the pass steps per
    # trace
    stepped = [0] * 8
    passed = dict.fromkeys(traces, 0)
    kernel, step, flush = Automaton.run_native_stretch, Automaton._pass, Region.flush
    resolve = Automaton._resolve

    def work(exit_counts, interp):
        """What a kernel call or pass lent ``exit_counts`` has profiled or
        pushed, as ``(index into stepped, count)``."""
        if isinstance(exit_counts, History):
            return 3, exit_counts.pos
        return 1, interp

    def counted_call(self, addrs, sizes, i, end, h, exit_counts=None, threshold=1):
        k, before = work(exit_counts, self.interp + h - i)
        result = kernel(self, addrs, sizes, i, end, h, exit_counts, threshold)
        if exit_counts is not None:
            stepped[k] += work(exit_counts, self.interp)[1] - before
        return result

    def counted(self, addrs, i, end, landed, exit_counts, threshold):
        k, before = work(exit_counts, self.interp)
        result = step(self, addrs, i, end, landed, exit_counts, threshold)
        stepped[0] += result[0] - i
        if exit_counts is not None:
            done = work(exit_counts, self.interp)[1] - before
            stepped[k] -= done
            stepped[k + 1] += done
        return result

    def flushed(self):
        # every hit is flushed once, at the latest when a report is built
        stepped[5] += self.hits
        flush(self)
    def resolved(self, st, ids, tid):
        # a walk ends before an item on its held state, so the runs of
        # items moved off it are the walks, or a walk's piece in a window
        held = st.copy()
        resolve(self, st, ids, tid)
        moved = np.flatnonzero(st != held)
        stepped[6] += len(moved)
        if len(moved):
            ends = np.flatnonzero(np.diff(moved, append=-1) != 1)
            stepped[7] = max(stepped[7], int(np.diff(ends, prepend=-1).max()))
    Automaton.run_native_stretch, Automaton._pass, Region.flush = counted_call, counted, flushed
    Automaton._resolve = resolved
    profiled = pushed = hits = longest = 0
    try:
        for name, trace in traces.items():
            for threshold in THRESHOLDS:
                for technique in TECHNIQUES:
                    config = SimulationConfig(rft=RFTConfig(technique, threshold=threshold),
                                              collect_dump=True)
                    stepped[:] = [0] * 8
                    same = run_simulation(trace, config).dump == naive_run(trace, config).dump()
                    differing += not same
                    passed[name] += stepped[0]
                    if name == "loop-nest":
                        hits += stepped[5]
                    if (name, technique) == PROFILED:
                        profiled += stepped[2]
                    if (name, technique) == PUSHED:
                        pushed += stepped[4]
                    if (name, technique) == CHAINED:
                        longest = max(longest, stepped[7])
                    print(f"{name} {technique} threshold {threshold} ({stepped[0]} in the "
                          f"pass; profiled {stepped[1]} in the loop, {stepped[2]} in the "
                          f"pass; pushed {stepped[3]} in the loop, {stepped[4]} in the "
                          f"pass; {stepped[5]} memo hits; {stepped[6]} onto copies, longest "
                          f"walk {stepped[7]}) {len(trace)} items: "
                          f"{'same' if same else 'DIFFERS'}",
                          flush=True)
    finally:
        Automaton.run_native_stretch, Automaton._pass, Region.flush = kernel, step, flush
        Automaton._resolve = resolve
    unused = [name for name in PASSED if not passed[name]]
    for name in unused:
        print(f"the kernel's numpy pass stepped no item on {name}", file=sys.stderr)
    if not profiled:
        print("the kernel's numpy pass profiled no item for {1} on {0}".format(*PROFILED),
              file=sys.stderr)
    if not pushed:
        print("the kernel's numpy pass pushed no item for {1} on {0}".format(*PUSHED),
              file=sys.stderr)
    if not hits:
        print("no config hit a chain head's memo on loop-nest", file=sys.stderr)
    if longest < 2:
        print("the kernel's numpy pass followed no walk longer than one item for {1} on {0}"
              .format(*CHAINED), file=sys.stderr)
    print(f"{differing} of {len(traces) * len(THRESHOLDS) * len(TECHNIQUES)} dumps differ")
    return 1 if differing or unused or not profiled or not pushed or not hits or longest < 2 else 0


if __name__ == "__main__":
    sys.exit(main())
