"""Seeded trace workloads for the rftsim benchmark.

Each workload is rendered from a seed into a trace of exactly ``items``
items; the simulator only ever sees the trace file.  loop-nest and
graph-walk have a fixed shape that the seed places in memory (see
``graph_walk`` for why); interp-noise draws its addresses from the seed.
The three workloads stress different layers:

loop-nest     native-dominated: once ``net`` has formed its regions,
              most items run inside ``Automaton.run_native_stretch``.
graph-walk    formation- and transition-heavy: over a hundred regions and
              about 180k region-to-region transitions, so
              ``append_region``, edge creation and ``netplus_expand``
              write the automaton instead of only reading it.
interp-noise  interpreter-only: no technique forms a region at the
              default threshold, so every item costs manager calls,
              bulk interpreter accounting and the ``lei`` history buffer.

Each workload also carries a shape guard: the property it was chosen for,
checked at the default seed so a seed or size change cannot quietly turn
one workload into another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from rftsim.rft import TECHNIQUES
from rftsim.trace_io import (AlternatingPaths, LoopSpec, ProgramSpec, Trace,
                             generate_trace)

DEFAULT_SEED = 1
# the seed of graph-walk's CFG and walk (see graph_walk), one on which
# net forms well over 100 regions
GRAPH_SEED = 5
GRAPH_NODES = 60
NOISE_SLOTS = 16384


def _layout(rng: np.random.Generator, spans: list[int]) -> list[int]:
    """Seeded base addresses for consecutive code blocks of the given
    byte spans: blocks keep their order in memory, separated by random
    gaps, so every branch keeps its direction."""
    bases = []
    cursor = 0x1000 + 4 * int(rng.integers(0, 4096))
    for span in spans:
        bases.append(cursor)
        cursor += span + 4 * int(rng.integers(1, 1024))
    return bases


def loop_nest(seed: int, items: int) -> Trace:
    """A fixed loop nest placed at seeded addresses: a loop with a nested
    child, a phased loop (two bodies sharing an entry, switched every 128
    iterations) with a nested child, and a flat loop."""
    nested_body, inner_body, inner_iters = 12, 6, 4
    phases = AlternatingPaths(body_a=10, body_b=8, period=128)
    phased_body = 1 + phases.body_a + phases.body_b
    phased_inner_body, phased_inner_iters = 5, 3
    flat_body = 20
    nested_base, inner_base, phased_base, phased_inner_base, flat_base = _layout(
        np.random.default_rng(seed),
        [4 * n for n in (nested_body, inner_body, phased_body, phased_inner_body,
                         flat_body)])
    inner = LoopSpec(base=inner_base, body=inner_body, iters=inner_iters)
    nested = LoopSpec(base=nested_base, body=nested_body, iters=1, children=(inner,))
    phased_inner = LoopSpec(base=phased_inner_base, body=phased_inner_body,
                            iters=phased_inner_iters)
    phased = LoopSpec(base=phased_base, body=phased_body, iters=1, phases=phases,
                      children=(phased_inner,))
    flat = LoopSpec(base=flat_base, body=flat_body, iters=1)
    loops = [replace(loop, iters=-(-int(items * share) // loop.total_items()))
             for loop, share in ((nested, 0.4), (phased, 0.4), (flat, 0.2))]
    # a phase-B iteration is shorter than the phase-A one sized above
    while ProgramSpec(tuple(loops)).total_items() < items:
        loops = [replace(loop, iters=loop.iters + loop.iters // 16 + 1) for loop in loops]
    trace = generate_trace(ProgramSpec(tuple(loops)))
    return Trace(trace.addresses[:items], trace.sizes[:items])


def graph_walk(seed: int, items: int) -> Trace:
    """A fixed uniform random walk over a fixed strongly connected CFG of
    ``GRAPH_NODES`` instructions with out-degree 1-3, placed at seeded
    addresses that keep the nodes' order in memory.

    The CFG and the walk come from ``GRAPH_SEED``, not from ``seed``:
    region formation on a 60-node walk is chaotic, and with a fresh CFG or
    walk per seed the manager and automaton calls of one technique varied
    by 11-44% (interquartile range over ten seeds), which would swamp any
    timing.  The first successor of every node follows a random
    Hamiltonian cycle, so the walk cannot be trapped in a small sink
    component."""
    shape = np.random.default_rng(GRAPH_SEED)
    rank = shape.permutation(GRAPH_NODES).tolist()
    sizes = shape.choice((1, 2, 4), size=GRAPH_NODES).tolist()
    order = shape.permutation(GRAPH_NODES).tolist()
    succ = [[] for _ in range(GRAPH_NODES)]
    for k, u in enumerate(order):
        succ[u].append(order[(k + 1) % GRAPH_NODES])
    for u in range(GRAPH_NODES):
        succ[u].extend(shape.integers(0, GRAPH_NODES, size=int(shape.integers(0, 3))).tolist())
    # repeat each successor list to six entries (the lcm of degrees 1-3)
    # so one uniform draw in [0, 6) picks a successor uniformly
    table = [s * (6 // len(s)) for s in succ]
    walk = []
    cur = 0
    for r in shape.integers(0, 6, size=items).tolist():
        walk.append(cur)
        cur = table[cur][r]
    slots = _layout(np.random.default_rng(seed), [4] * GRAPH_NODES)
    addrs = [slots[rank[u]] for u in range(GRAPH_NODES)]
    return Trace([addrs[u] for u in walk], [sizes[u] for u in walk])


def interp_noise(seed: int, items: int) -> Trace:
    """Uniform random addresses over ``NOISE_SLOTS`` instruction slots 8 bytes
    apart, each slot with a fixed size in 1-8; no address gets hot enough
    to form a region at the default threshold."""
    rng = np.random.default_rng(seed)
    slot_sizes = rng.integers(1, 9, size=NOISE_SLOTS)
    picks = rng.integers(0, NOISE_SLOTS, size=items)
    return Trace((0x10000 + 8 * picks).tolist(), slot_sizes[picks].tolist())


def _loop_nest_guard(reports: dict, net_counts: dict) -> list[tuple[str, bool, str]]:
    net = reports["net"]["report"]["metrics"]
    items = net["total_instructions"]
    stretch = net_counts["automaton.stretch_items"]
    return [
        ("shape.net_coverage_ge_0.9", net["coverage"] >= 0.9,
         f"net coverage {net['coverage']:.4f}"),
        ("shape.net_stretch_majority", 2 * stretch > items,
         f"net stretch items {stretch} of {items}"),
    ]


def _graph_walk_guard(reports: dict, net_counts: Optional[dict]) -> list[tuple[str, bool, str]]:
    net = reports["net"]["report"]["metrics"]
    return [
        ("shape.net_regions_ge_100", net["num_regions"] >= 100,
         f"net regions {net['num_regions']}"),
        ("shape.net_transitions_ge_100k", net["num_transitions"] >= 100_000,
         f"net transitions {net['num_transitions']}"),
    ]


def _interp_noise_guard(reports: dict, net_counts: Optional[dict]) -> list[tuple[str, bool, str]]:
    regions = {t: reports[t]["report"]["metrics"]["num_regions"] for t in TECHNIQUES}
    return [("shape.no_regions", not any(regions.values()), f"regions {regions}")]


@dataclass(frozen=True)
class Workload:
    name: str
    items: int
    generate: Callable[[int, int], Trace]
    # (reports by technique, net layer counts or None) -> [(check, ok, detail)]
    guard: Callable[[dict, Optional[dict]], list[tuple[str, bool, str]]]
    # the guard reads layer counts of a traced net run
    guard_needs_counts: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("loop-nest", 1_500_000, loop_nest, _loop_nest_guard, True),
        Workload("graph-walk", 600_000, graph_walk, _graph_walk_guard),
        Workload("interp-noise", 300_000, interp_noise, _interp_noise_guard),
    )
}
