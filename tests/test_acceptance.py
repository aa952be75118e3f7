"""Acceptance suite: one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion.
"""

import json
import random
import time
from fractions import Fraction
from itertools import accumulate

import pytest

from conftest import random_rft_config, random_trace
from reference import literal_expand
from rftsim.engine import SimulationConfig, run_simulation, run_sweep
from rftsim.metrics import (CostParams, MetricsReport, estimate_times,
                            ninety_percent_cover_set, report_csv_row,
                            report_json_dict)
from rftsim.rft import RFTConfig, TECHNIQUES, netplus_expand
from rftsim.trace_io import (AlternatingPaths, LoopSpec, ProgramSpec, Trace,
                             generate_trace)

A1_SPEC = ProgramSpec((LoopSpec(base=0x100, body=3, iters=10, isize=4),))


def region_address_sets(dump):
    """Recorded and expansion address sets per region, from a dump."""
    states = dump["states"]
    out = []
    for region in dump["regions"]:
        recorded = [states[s]["address"] for s in region["recorded_states"]]
        expansion = [states[s]["address"] for s in region["expansion_states"]]
        out.append((recorded, expansion))
    return out


def run(trace, technique, threshold, **kw):
    config = SimulationConfig(rft=RFTConfig(technique=technique, threshold=threshold,
                                            **kw), collect_dump=True)
    return run_simulation(trace, config)


def test_A1_exact_single_loop_oracle():
    trace = generate_trace(A1_SPEC)
    t0 = time.perf_counter()
    result = run(trace, "net", 2, max_region_size=1024)
    elapsed = time.perf_counter() - t0
    r = result.report
    assert r.num_regions == 1
    recorded, expansion = region_address_sets(result.dump)[0]
    assert recorded == [0x100, 0x104, 0x108] and expansion == []
    stats = r.regions[0]
    assert stats.entries_from_interpreter == 1
    assert stats.dynamic_instructions == 21
    assert r.coverage == 21 / 30
    assert stats.completed_traversals == 7 and stats.head_executions == 7
    assert r.num_transitions == 0
    assert elapsed < 1.0
    print("\nA1 exact single-loop oracle: PASS")


def test_A2_conservation_over_randomized_traces():
    rng = random.Random(0xA2)
    runs = 0
    for case in range(170):
        trace = random_trace(rng, max_items=2000 if case % 10 else 10_000)
        for technique in TECHNIQUES:
            config = SimulationConfig(rft=random_rft_config(rng, technique))
            report = run_simulation(trace, config).report
            assert (report.interpreted_instructions + report.native_instructions
                    == report.total_instructions)
            assert (sum(s.dynamic_instructions for s in report.regions)
                    == report.native_instructions)
            runs += 1
    assert runs >= 1000
    print(f"\nA2 conservation over {runs} randomized runs: PASS")


def test_A3_mret2_subset_and_completion():
    spec = ProgramSpec((LoopSpec(base=0x100, body=0, iters=80, isize=4,
                                 phases=AlternatingPaths(body_a=3, body_b=3,
                                                         period=1)),))
    trace = generate_trace(spec)
    net = run(trace, "net", 4)
    mret2 = run(trace, "mret2", 4)
    net_addrs = set().union(*(set(rec) for rec, _ in region_address_sets(net.dump)))
    mret2_addrs = set().union(*(set(rec) for rec, _ in region_address_sets(mret2.dump)))
    assert mret2_addrs < net_addrs  # strict containment
    assert mret2.report.completion_ratio > net.report.completion_ratio
    print("\nA3 mret2 subset law and completion gain: PASS")


def test_A4_netplus_superset_and_depth_stabilization():
    # outer 3-instruction body around a 6-iteration inner pair: the return
    # path to the inner entry crosses three outside instructions
    spec = ProgramSpec((LoopSpec(base=0x100, body=3, iters=30, isize=4,
                                 children=(LoopSpec(base=0x10C, body=2, iters=6,
                                                    isize=4),)),))
    trace = generate_trace(spec)
    net = run(trace, "net", 8)
    by_depth = {d: run(trace, "netplus", 8, expansion_depth=d)
                for d in (1, 2, 3, 4, 5, 7, 10)}
    # superset at the shared trigger: the first regions start identically
    net_first_rec, _ = region_address_sets(net.dump)[0]
    plus_first_rec, plus_first_exp = region_address_sets(by_depth[10].dump)[0]
    assert set(net_first_rec) <= set(plus_first_rec) | set(plus_first_exp)
    assert (by_depth[10].report.avg_static_region_size
            >= net.report.avg_static_region_size)
    # exact stabilization at the fixture's longest return path (three)
    serialized = {d: json.dumps(report_json_dict(r.report), sort_keys=True)
                  for d, r in by_depth.items()}
    assert serialized[3] == serialized[4] == serialized[5] == serialized[7] == serialized[10]
    assert serialized[2] != serialized[3]  # depth genuinely exercised
    print("\nA4 netplus superset and depth stabilization: PASS")


def test_A5_expansion_equals_brute_force_enumeration():
    rng = random.Random(0xA5)
    cases = 0
    for _ in range(250):
        n = rng.randint(2, 50)
        nodes = list(range(n))
        cfg_map = {u: [rng.choice((1, 2, 4)),
                       set(rng.sample(nodes, rng.randint(1, min(3, n))))]
                   for u in nodes}
        rec = [(a, 4) for a in rng.sample(nodes, rng.randint(1, max(1, n // 3)))]
        depth = rng.randint(1, 4)
        for extended in (False, True):
            got = netplus_expand(cfg_map, rec, depth, extended)
            assert got == literal_expand(cfg_map, rec, depth, extended)
            cases += 1
    assert cases >= 500
    print(f"\nA5 expansion brute-force equality over {cases} cases: PASS")


def test_A6_netr_distinct_addresses_and_relaxed_growth():
    rng = random.Random(0xA6)
    checked = 0
    for _ in range(60):
        trace = random_trace(rng, max_items=1500)
        for technique in ("net-r", "netplus-e-r"):
            result = run(trace, technique, rng.choice((1, 2, 4)),
                         max_region_size=rng.choice((8, 64, 1024)))
            for recorded, _ in region_address_sets(result.dump):
                assert len(set(recorded)) == len(recorded)
                checked += 1
    # recording that crosses a backward branch before repeating
    P, Q, R = 0x200, 0x100, 0x300
    trace = Trace([P, Q, R] * 40, [4] * 120)
    net = run(trace, "net", 2)
    netr = run(trace, "net-r", 2)
    net_first = set(region_address_sets(net.dump)[0][0])
    netr_first = set(region_address_sets(netr.dump)[0][0])
    assert net_first < netr_first
    print(f"\nA6 relaxed-stop cycle properties ({checked} recordings): PASS")


def test_A7_cover_set_equals_sorted_prefix_oracle():
    rng = random.Random(0xA7)

    def oracle(counts, total):
        if total == 0:
            return 0
        target = Fraction(9, 10) * total
        for k, cum in enumerate(accumulate(sorted(counts, reverse=True)), 1):
            if cum >= target:
                return k
        return None

    for case in range(1000):
        counts = [rng.randint(0, 10**6) for _ in range(rng.randint(0, 50))]
        if case % 3 == 0:
            total = sum(counts) + rng.randint(0, 10**5)
        else:
            total = rng.randint(0, 10**7)
        assert ninety_percent_cover_set(counts, total) == oracle(counts, total)
    print("\nA7 cover-set oracle equality over 1000 vectors: PASS")


def test_A8_cost_model_exact_arithmetic():
    rng = random.Random(0xA8)

    def report(interp, native, regions, transitions, hot_static):
        return MetricsReport(
            total_instructions=interp + native, interpreted_instructions=interp,
            native_instructions=native, num_regions=regions, coverage=0.0,
            num_transitions=transitions, hot_static_size=hot_static,
            avg_static_region_size=None, avg_dynamic_region_size=None,
            completion_ratio=None, ninety_percent_cover_set=None,
            cold_region_fraction=0.0, duplication_ratio=0.0, cold_threshold=1024)

    for _ in range(100):
        interp, native = rng.randint(0, 10**9), rng.randint(0, 10**9)
        regions, transitions = rng.randint(0, 10**4), rng.randint(0, 10**6)
        hot_static = rng.randint(0, 10**6)
        ic, nc, gc, cc, tc = (rng.randint(0, 1000) for _ in range(5))
        cost = estimate_times(report(interp, native, regions, transitions, hot_static),
                              CostParams(ic, nc, gc, cc, tc))
        assert cost.interp_time == ic * interp
        assert cost.native_time == nc * native
        assert cost.gen_time == gc * hot_static + cc * regions
        assert cost.transition_time == tc * transitions
        total = ic * interp + nc * native + gc * hot_static + cc * regions + tc * transitions
        assert cost.total_time == total
        assert cost.profitable == (total < ic * (interp + native))
    # strict-inequality boundary: all-interpreted run never profits
    boundary = estimate_times(report(100, 0, 0, 0, 0), CostParams(7, 1, 1, 1, 1))
    assert boundary.total_time == boundary.baseline_time
    assert not boundary.profitable
    print("\nA8 cost model exact over 100 random pairs: PASS")


def test_A9_threshold_trend_on_multi_loop_fixture():
    iters = (150, 40, 12, 5)
    spec = ProgramSpec(tuple(LoopSpec(base=0x1000 * (i + 1), body=3, iters=n, isize=4)
                             for i, n in enumerate(iters)))
    trace = generate_trace(spec)
    regions, coverages, natives = [], [], []
    for threshold in (2, 8, 32, 128):
        report = run(trace, "net", threshold).report
        regions.append(report.num_regions)
        coverages.append(report.coverage)
        natives.append(report.native_instructions)
        # closed form: a loop of n iterations turns native at iteration
        # threshold+2, contributing 3*(n-threshold-1) instructions
        assert report.native_instructions == sum(
            3 * max(0, n - threshold - 1) for n in iters)
    assert regions == [4, 3, 2, 1]
    assert all(a >= b for a, b in zip(regions, regions[1:]))
    assert all(a >= b for a, b in zip(coverages, coverages[1:]))
    print("\nA9 threshold trend (regions/coverage non-increasing): PASS")


def test_A10_determinism_and_parallel_equivalence():
    spec = ProgramSpec((
        LoopSpec(base=0x100, body=4, iters=300, isize=4,
                 children=(LoopSpec(base=0x140, body=3, iters=4, isize=4),)),
        LoopSpec(base=0x1000, body=0, iters=200, isize=4,
                 phases=AlternatingPaths(body_a=3, body_b=2, period=3)),
    ))
    trace = generate_trace(spec)
    configs = [SimulationConfig(rft=RFTConfig(technique=t, threshold=8))
               for t in TECHNIQUES]

    def serialized(parallelism):
        outcomes = run_sweep(trace, configs, parallelism=parallelism)
        blob = {
            "json": [report_json_dict(o.result.report) for o in outcomes],
            "csv": [report_csv_row(o.result.report) for o in outcomes],
        }
        return json.dumps(blob, sort_keys=True).encode()

    runs = [serialized(p) for _ in range(3) for p in (1, 6)]
    assert all(r == runs[0] for r in runs)
    print("\nA10 byte-identical reports across parallelism {1,6} x3: PASS")


def test_A11_throughput_smoke():
    spec = ProgramSpec((LoopSpec(base=0x1000, body=25, iters=200_000, isize=4),
                        LoopSpec(base=0x8000, body=25, iters=200_000, isize=4)))
    trace = generate_trace(spec)
    assert len(trace) == 10_000_000
    config = SimulationConfig(rft=RFTConfig(technique="net"))
    t0 = time.perf_counter()
    result = run_simulation(trace, config)
    elapsed = time.perf_counter() - t0
    rate = len(trace) / elapsed
    assert result.report.total_instructions == 10_000_000
    assert rate >= 1_000_000, f"{rate:.0f} items/s"
    print(f"\nA11 throughput {rate/1e6:.2f}M items/s (>= 1M required): PASS")
