"""Shared builders: randomized traces, the engine's scan protocol with a
given held set, the stepping kernel driven item list by item list, and a
naive reference simulation.

The naive loop below is the behavioral oracle for the engine: it drives
the per-item reference managers and the literal automaton of
``reference.py`` one item at a time, so it shares no stepping or counting
code with the engine, and any divergence points at a fast-path bug.
"""

from __future__ import annotations

import random

from reference import SI, LiteralAutomaton, held_addresses, make_reference
from rftsim import (LoopSpec, ProgramSpec, RFTConfig, Trace, generate_trace,
                    make_rft)
from rftsim.engine import SimulationConfig


def naive_run(trace: Trace, config: SimulationConfig) -> LiteralAutomaton:
    """Reference simulation: per item, the reference manager call (with the
    previous item and its transition kind), the library's emit-time hook
    and an install on emission, then one literal automaton step."""
    automaton = LiteralAutomaton()
    manager = make_reference(config.rft)
    hooks = make_rft(config.rft)
    n = len(trace)
    start = min(config.skip, n)
    end = n if config.limit is None else min(n, start + config.limit)
    hooks.attach(trace, start)
    kind = SI
    last = None
    for i in range(start, end):
        item = (trace.addresses[i], trace.sizes[i])
        formed = manager.handle(last, item, kind)
        if formed is not None:
            formed = hooks.complete(formed, i)
            if formed.expansion is None:
                automaton.append(formed.items)
            else:
                automaton.append(formed.items, formed.expansion.members,
                                 formed.expansion.successors)
        kind = automaton.step(item[0])
        last = item
    return automaton


def drive(automaton, addrs) -> int:
    """Step ``addrs`` (4-byte items) through the automaton's stepping
    kernel, one call per stop; returns the ``kind`` of the last call."""
    sizes = [4] * len(addrs)
    i = kind = 0
    while i < len(addrs):
        i, kind = automaton.run_native_stretch(addrs, sizes, i, len(addrs), i)
    return kind


def scan_run(manager, addrs, sizes, held=()) -> list[tuple]:
    """Drive ``manager.scan`` as the engine does over a window in which, as
    in the automaton, an item runs natively exactly when its address is
    held; each emission passes through the emit-time hook and is installed
    (its addresses join ``held``) before the emitting item steps.

    Returns ``(index, recording, entered)`` per emission, ``index`` being
    the trace position the emission is due at."""
    held = set(held)
    end = len(addrs)
    manager.attach(Trace(list(addrs), list(sizes)), 0)
    out = []
    i, la, kind = 0, -1, SI
    while i < end:
        k, rec, entered = manager.scan(addrs, sizes, i, end, la, kind, held)
        if rec is not None:
            index = k + 1 if entered else k
            rec = manager.complete(rec, index)
            out.append((index, rec, entered))
            held.update(held_addresses(rec))
        elif k == end:
            break
        # the kernel: item k alone if it stays interpreter-side, else the
        # native run from it and the landing that ends that run
        i, kind = k + 1, SI
        if addrs[k] in held:
            while i < end and addrs[i] in held:
                i += 1
            if i == end:
                break
            i, kind = i + 1, 2
        la = addrs[i - 1]
    return out


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
