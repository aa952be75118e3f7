"""Shared builders: randomized traces and a naive reference simulation.

The naive loop below is the behavioral oracle for the engine: it drives
the public per-item APIs directly, with none of the engine's batching, so
any divergence points at a fast-path bug.
"""

from __future__ import annotations

import random

from rftsim import (Automaton, LoopSpec, ProgramSpec, RFTConfig, Trace,
                    TraceItem, TransitionKind, generate_trace, make_rft)
from rftsim.engine import SimulationConfig


def naive_run(trace: Trace, config: SimulationConfig) -> Automaton:
    """Reference simulation: per-item manager call (previous transition),
    the emit-time hook and append on emission, then the automaton step."""
    automaton = Automaton()
    manager = make_rft(config.rft)
    n = len(trace)
    start = min(config.skip, n)
    end = n if config.limit is None else min(n, start + config.limit)
    manager.attach(trace, start)
    kind = TransitionKind.STAYED_INTERP
    last = None
    for i in range(start, end):
        item = trace[i]
        formed = manager.handle_new_instruction(last, item, kind)
        if formed is not None:
            formed = manager.complete(formed, i)
            if formed.expansion is None:
                automaton.append_region(formed.items)
            else:
                automaton.append_region(formed.items, formed.expansion.members,
                                        formed.expansion.successors)
        kind = automaton.step(item)
        last = item
    return automaton


def random_loop_spec(rng: random.Random, budget: int) -> ProgramSpec:
    loops = []
    base = 0x1000
    for _ in range(rng.randint(1, 3)):
        body = rng.randint(1, 6)
        isize = rng.choice((1, 2, 4))
        iters = rng.randint(1, max(1, budget // (body * 3)))
        children = ()
        if rng.random() < 0.4:
            cbody = rng.randint(1, 4)
            citers = rng.randint(1, 6)
            children = (LoopSpec(base=base + body * isize + 16, body=cbody,
                                 iters=citers, isize=isize),)
        loops.append(LoopSpec(base=base, body=body, iters=iters, isize=isize,
                              children=children))
        base += 0x1000
    return ProgramSpec(tuple(loops))


def random_graph_walk(rng: random.Random, length: int) -> Trace:
    n = rng.randint(2, 30)
    addrs = rng.sample(range(0x100, 0x100 + 64 * n, 4), n)
    sizes = {a: rng.choice((1, 2, 4)) for a in addrs}
    succ = {a: [rng.choice(addrs) for _ in range(rng.randint(1, 3))] for a in addrs}
    cur = addrs[0]
    out_a, out_s = [], []
    for _ in range(length):
        out_a.append(cur)
        out_s.append(sizes[cur])
        cur = rng.choice(succ[cur])
    return Trace(out_a, out_s)


def random_noise(rng: random.Random, length: int) -> Trace:
    span = rng.randint(4, 64)
    addrs = [rng.randrange(0x100, 0x100 + span * 4) for _ in range(length)]
    sizes = [rng.randint(1, 8) for _ in range(length)]
    return Trace(addrs, sizes)


def random_trace(rng: random.Random, max_items: int = 2000) -> Trace:
    style = rng.random()
    if style < 0.45:
        spec = random_loop_spec(rng, max_items)
        trace = generate_trace(spec)
        if len(trace) > max_items:
            trace = Trace(trace.addresses[:max_items], trace.sizes[:max_items])
        return trace
    if style < 0.8:
        return random_graph_walk(rng, rng.randint(10, max_items))
    return random_noise(rng, rng.randint(1, max_items))


def random_rft_config(rng: random.Random, technique: str) -> RFTConfig:
    return RFTConfig(
        technique=technique,
        threshold=rng.choice((1, 2, 3, 5, 8, 16)),
        max_region_size=rng.choice((2, 4, 16, 64, 1024)),
        expansion_depth=rng.choice((1, 2, 3, 5, 10)),
        history_capacity=rng.choice((4, 16, 64, 8192)),
    )
