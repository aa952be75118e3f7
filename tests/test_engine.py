import gc
import inspect
import json
import math
import multiprocessing
import random
import re
import tracemalloc

import numpy as np
import pytest

from conftest import MemoAutomaton, PassAutomaton, bind, naive_run, random_rft_config, random_trace
from rftsim import automaton, engine
from rftsim.engine import SimulationConfig, run_simulation, run_sweep
from rftsim.metrics import CostParams, report_json_dict
from rftsim.rft import _ARMED, _IDLE, _REC1, _REC2, RFTConfig, TECHNIQUES, make_rft
from rftsim.trace_io import AlternatingPaths, LoopSpec, ProgramSpec, Trace, generate_trace

A1_SPEC = ProgramSpec((LoopSpec(base=0x100, body=3, iters=10, isize=4),))

# hand-traced expectation for the 3x10 loop with threshold 2: the region
# forms at the fourth arrival of 0x100 and captures it as its first native
# execution, leaving 9 interpreted and 21 native instructions
A1_GOLDEN_DUMP = {
    "total_instructions": 30,
    "interpreted_instructions": 9,
    "native_instructions": 21,
    "region_transitions": 0,
    "states": [
        {"id": 0, "address": None, "size": None, "region": None,
         "executions": 9, "edges": [[0x100, 1, 1]]},
        {"id": 1, "address": 0x100, "size": 4, "region": 0,
         "executions": 7, "edges": [[0x104, 2, 7]]},
        {"id": 2, "address": 0x104, "size": 4, "region": 0,
         "executions": 7, "edges": [[0x108, 3, 7]]},
        {"id": 3, "address": 0x108, "size": 4, "region": 0,
         "executions": 7, "edges": [[0x100, 1, 6]]},
    ],
    "regions": [
        {"id": 0, "entry_address": 0x100, "entry_state": 1,
         "core_tail_state": 3, "recorded_states": [1, 2, 3],
         "expansion_states": [], "entries_from_interpreter": 1,
         "entries_from_native": 0, "dynamic_instructions": 21,
         "head_executions": 7, "tail_executions": 7,
         "completed_traversals": 7},
    ],
}


def test_single_loop_run_matches_hand_trace():
    trace = generate_trace(A1_SPEC)
    config = SimulationConfig(rft=RFTConfig(technique="net", threshold=2),
                              collect_dump=True)
    result = run_simulation(trace, config)
    assert result.dump == A1_GOLDEN_DUMP
    r = result.report
    assert r.num_regions == 1
    assert r.coverage == 21 / 30
    assert r.completion_ratio == 1.0
    assert r.num_transitions == 0


def test_empty_trace_zeroed_report():
    result = run_simulation(Trace([], []), SimulationConfig())
    assert result.report.total_instructions == 0
    assert result.items_consumed == 0


def test_straight_line_no_regions():
    trace = Trace([0x100 + 4 * i for i in range(5000)], [4] * 5000)
    for tech in TECHNIQUES:
        r = run_simulation(trace, SimulationConfig(rft=RFTConfig(technique=tech,
                                                                 threshold=2))).report
        assert r.num_regions == 0
        assert r.coverage == 0.0


def test_skip_limit_window():
    trace = generate_trace(A1_SPEC)
    # a window inside the trace, and a skip beyond its end
    for skip, limit, consumed in ((3, 12, 12), (40, None, 0)):
        config = SimulationConfig(rft=RFTConfig(threshold=2), skip=skip, limit=limit)
        result = run_simulation(trace, config)
        assert result.items_consumed == consumed
        assert result.report.total_instructions == consumed


@pytest.mark.parametrize("field", ["skip", "limit"])
@pytest.mark.parametrize("value", [2.0, 2.5, False, "2"])
def test_window_fields_must_be_ints(field, value):
    """A float skip failed in a slice and a float limit leaked into
    ``items_consumed``, so every non-int, bools included, is rejected by
    name at construction; a None limit still means the whole trace."""
    message = f"{field} must be an integer, not {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SimulationConfig(**{field: value})
    assert SimulationConfig(limit=None).limit is None


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_trace_from_any_int_sequence_runs_as_from_a_list(technique):
    """A tuple, a ``range`` or a numpy array of addresses builds a trace
    that every technique replays as it does the same addresses in a list;
    an array once reached the kernel's slice comparison of a chain head's
    memo and failed there."""
    loop = generate_trace(ProgramSpec((LoopSpec(base=0x100, body=8, iters=20),)))
    addrs = loop.addresses.tolist()
    config = SimulationConfig(rft=RFTConfig(technique, threshold=2), collect_dump=True)
    span = range(0x100, 0x100 + 4 * 40, 4)
    for seq, shapes in ((addrs, (tuple(addrs), np.array(addrs),
                                 np.array(addrs, dtype=np.uint64))),
                        (list(span), (span,))):
        sizes = [4] * len(seq)
        want = run_simulation(Trace(seq, sizes), config).dump
        for shape in shapes:
            trace = Trace(shape, sizes)
            assert trace.addresses.dtype == np.uint64 and trace.addresses.tolist() == seq
            assert run_simulation(trace, config).dump == want, type(shape)
    assert run_simulation(Trace(addrs, [4] * len(addrs)), config).dump["regions"]


def test_simulation_takes_no_whole_length_copy():
    # the kernel and the scans read the trace's addresses in place, so a
    # simulation's traced peak does not grow with the trace: a list of its
    # addresses would add 8 bytes or more per item
    peaks = {}
    for n in (200_000, 800_000):
        trace = generate_trace(ProgramSpec((LoopSpec(base=0x1000, body=10, iters=n // 10),)))
        for technique in TECHNIQUES:
            gc.collect()
            tracemalloc.start()
            try:
                run_simulation(trace, SimulationConfig(rft=RFTConfig(technique)))
                peaks[technique, n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for technique in TECHNIQUES:
        grown = peaks[technique, 800_000] - peaks[technique, 200_000]
        assert grown < 4 * 600_000, (technique, grown / 600_000)


def test_cost_attached_when_requested():
    trace = generate_trace(A1_SPEC)
    config = SimulationConfig(rft=RFTConfig(threshold=2),
                              cost=CostParams(10, 1, 5, 100, 2))
    cost = run_simulation(trace, config).cost
    assert cost.total_time == 226 and cost.profitable


def test_engine_equals_naive_loop_all_techniques():
    rng = random.Random(0xC0FFEE)
    for case in range(40):
        trace = random_trace(rng, max_items=1200)
        tech = TECHNIQUES[case % len(TECHNIQUES)]
        config = SimulationConfig(rft=random_rft_config(rng, tech),
                                  collect_dump=True)
        if rng.random() < 0.25 and len(trace):
            config = SimulationConfig(rft=config.rft, collect_dump=True,
                                      skip=rng.randrange(len(trace)),
                                      limit=rng.randrange(1, len(trace) + 1))
        result = run_simulation(trace, config)
        # the report is computed from counters the dump holds, so equal
        # dumps give equal reports
        assert result.dump == naive_run(trace, config).dump(), (case, tech)


# loop-nest's shape, small: a loop with a nested child, and a phased loop
# (two bodies sharing an entry) with a nested child
PHASED_NEST = ProgramSpec((
    LoopSpec(base=0x1000, body=12, iters=40, children=(LoopSpec(base=0x1400, body=6, iters=4),)),
    LoopSpec(base=0x2000, body=19, iters=40,
             phases=AlternatingPaths(body_a=10, body_b=8, period=16),
             children=(LoopSpec(base=0x2400, body=5, iters=3),)),
))


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_engine_equals_naive_loop_on_a_phased_nest(monkeypatch, technique):
    """Chain heads replay walks through expansion states and inner loops
    here; each run's dump must still equal the per-item reference's."""
    autos = []

    class Logged(MemoAutomaton):
        def __init__(self):
            super().__init__()
            autos.append(self)

    monkeypatch.setattr(engine, "Automaton", Logged)
    trace = generate_trace(PHASED_NEST)
    config = SimulationConfig(rft=RFTConfig(technique=technique, threshold=4),
                              collect_dump=True)
    dump = run_simulation(trace, config).dump
    assert dump == naive_run(trace, config).dump()
    (auto,) = autos
    if technique in ("lei", "netplus"):
        assert auto.hits > 50
    if technique == "netplus":
        # some walks leave the recording for expansion states, and some
        # run an inner loop more than once
        expansion = {dump["states"][sid]["address"]
                     for r in dump["regions"] for sid in r["expansion_states"]}
        # a walk holds ids, each its address's index in the table
        assert any(expansion & set(auto._table[w].tolist()) for w in auto.walks)
        assert any(len(set(w)) < len(w) for w in auto.walks)


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_engine_equals_naive_loop_with_the_kernel_pass_on_a_phased_nest(monkeypatch,
                                                                         technique):
    """With the kernel's hand-off at 8 items, its numpy pass steps most of
    this nest's native items, through expansion states and inner loops;
    each run's dump must still equal the per-item reference's."""
    autos = []

    class Logged(PassAutomaton):
        def __init__(self):
            super().__init__()
            autos.append(self)

    monkeypatch.setattr(engine, "Automaton", Logged)
    monkeypatch.setattr(automaton, "_HANDOFF", 8)
    trace = generate_trace(PHASED_NEST)
    config = SimulationConfig(rft=RFTConfig(technique=technique, threshold=4),
                              collect_dump=True)
    dump = run_simulation(trace, config).dump
    assert dump == naive_run(trace, config).dump()
    (auto,) = autos
    assert 2 * auto.passed > dump["native_instructions"], auto.passed
    if technique == "netplus":
        # some native items run in expansion states
        assert any(dump["states"][sid]["executions"]
                   for r in dump["regions"] for sid in r["expansion_states"])


def test_scans_visit_each_item_at_most_once(monkeypatch):
    """The scans of one run together visit no item twice: a scan stopping
    at item k has visited items i..k, and the next one starts after k."""
    visited = []

    def counting_rft(config):
        manager = make_rft(config)
        scan = manager.scan

        def counted(i, end, prev):
            k, region = scan(i, end, prev)
            visited.append(min(k + 1, end) - i)
            return k, region
        manager.scan = counted
        return manager

    monkeypatch.setattr(engine, "make_rft", counting_rft)
    rng = random.Random(0x5CA9)
    for case in range(60):
        trace = random_trace(rng, max_items=1200)
        config = SimulationConfig(rft=random_rft_config(rng, TECHNIQUES[case % 6]))
        visited.clear()
        result = run_simulation(trace, config)
        assert visited or not len(trace)
        assert sum(visited) <= result.items_consumed, case


# a backward branch to 0x100 at item 1 triggers at threshold 1; the branch
# back to 0x104 at item 4 ends net's and net-r's recording (0x104 repeats)
# and mret2's first pass, whose second starts at the entry 0x100, item 6,
# and ends at item 9
EXIT_COUNTS_TRACE = [0x108, 0x100, 0x104, 0x10C, 0x104, 0x108, 0x100, 0x104, 0x10C,
                     0x104]
# after each item of EXIT_COUNTS_TRACE: True where the manager declares its
# hotness dict, False where it declares None
IDLE_AFTER = {
    "net": [True, False, False, False, True, True, False, False, False, True],
    "mret2": [True] + [False] * 8 + [True],
    "lei": [False] * 10,
}


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_exit_counts_declared_only_while_idle(technique):
    """Scanned one item at a time, net and net-r declare their hotness dict
    except while a recording is in flight, mret2 only in its idle state
    (not in either pass or while armed), and lei never."""
    manager = make_rft(RFTConfig(technique=technique, threshold=1))
    addrs = EXIT_COUNTS_TRACE
    sizes = [4] * len(addrs)
    trace = Trace(addrs, sizes)
    bind(manager, trace)
    ids = trace._ids
    declared, states = [], []
    for i in range(len(addrs)):
        manager.scan(i, i + 1, ids[i - 1] if i else -1)
        counts = manager.exit_counts
        assert counts is None or counts is manager._hot
        declared.append(counts is not None)
        states.append(getattr(manager, "_state", None))
    base = {"net-r": "net", "netplus": "net", "netplus-e-r": "net"}.get(technique, technique)
    assert declared == IDLE_AFTER[base]
    if technique == "mret2":
        assert states == [_IDLE] + [_REC1] * 3 + [_ARMED] * 2 + [_REC2] * 3 + [_IDLE]


def test_no_scan_starts_at_a_follower_the_kernel_counts(monkeypatch):
    """A scan never starts at an item that the kernel, lent an idle
    manager's counts, could have profiled and stepped past.  Such a
    kernel call stops only at the end of the window or at a bump that
    reaches the threshold, so an idle manager's scan after the window's
    first item starts at a bumped item, a region-exit follower or a
    backward-branch target, whose count plus one reaches the threshold.
    The scans that start at a held region-exit follower are those the
    kernel must leave: the threshold is reached, the manager is busy, or
    it is ``lei``."""
    fallbacks = []
    hot = []

    def checked_rft(config):
        manager = make_rft(config)
        scan = manager.scan

        def checked(i, end, prev):
            addrs = manager._addrs
            counts = manager.exit_counts
            if counts is not None and i:
                assert addrs[i] < prev and counts[addrs[i]] + 1 >= config.threshold, config
                hot.append(config.technique)
            if prev == math.inf and i < end and manager._held[addrs[i]]:
                assert counts is None or counts[addrs[i]] + 1 >= config.threshold, config
                fallbacks.append(config.technique)
            return scan(i, end, prev)
        manager.scan = checked
        return manager

    monkeypatch.setattr(engine, "make_rft", checked_rft)
    rng = random.Random(0xF011)
    for case in range(60):
        trace = random_trace(rng, max_items=1200)
        run_simulation(trace, SimulationConfig(rft=random_rft_config(rng, TECHNIQUES[case % 6])))
    assert {"net", "mret2", "lei"} <= set(fallbacks)
    assert set(hot) == set(TECHNIQUES) - {"lei"}


def test_sweep_results_match_standalone_runs():
    trace = generate_trace(A1_SPEC)
    configs = [SimulationConfig(rft=RFTConfig(technique=t, threshold=2))
               for t in TECHNIQUES]
    outcomes = run_sweep(trace, configs, parallelism=3)
    assert [o.config for o in outcomes] == configs
    for outcome in outcomes:
        solo = run_simulation(trace, outcome.config)
        assert outcome.result.report == solo.report


def test_sweep_single_config_equals_run():
    trace = generate_trace(A1_SPEC)
    config = SimulationConfig(rft=RFTConfig(threshold=2))
    outcome = run_sweep(trace, [config])[0]
    assert outcome.result.report == run_simulation(trace, config).report


def test_sweep_threshold_arrivals():
    # a loop head arrives n-1 times; a region forms only when the trigger
    # fits with one spare iteration to close the recording
    loop = ProgramSpec((LoopSpec(base=0x100, body=3, iters=4, isize=4),))
    trace = generate_trace(loop)
    for threshold, expected in ((2, 1), (4, 0), (8, 0)):
        config = SimulationConfig(rft=RFTConfig(threshold=threshold))
        assert run_simulation(trace, config).report.num_regions == expected


@pytest.fixture
def two_cpus(monkeypatch):
    """Let a sweep at parallelism 2 fork workers even on a one-CPU host."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)


def test_sweep_isolates_config_errors(two_cpus):
    trace = generate_trace(A1_SPEC)
    bad = SimulationConfig(rft=RFTConfig(threshold=2))
    # corrupt post-validation: RFTConfig rejects unknown techniques, so
    # make_rft just looks the technique up
    object.__setattr__(bad.rft, "technique", "bogus")
    good = SimulationConfig(rft=RFTConfig(threshold=3))
    for parallelism in (1, 2):
        outcomes = run_sweep(trace, [bad, good], parallelism=parallelism)
        assert [o.config for o in outcomes] == [bad, good]
        assert outcomes[0].result is None
        assert outcomes[0].error == "KeyError: 'bogus'"
        assert outcomes[1].error is None
        assert outcomes[1].result.report == run_simulation(trace, good).report


def test_sweep_dumps_and_costs_cross_processes(two_cpus):
    rng = random.Random(11)
    trace = random_trace(rng, max_items=3000)
    configs = [SimulationConfig(rft=RFTConfig(technique=t, threshold=3),
                                cost=CostParams(10, 1, 5, 100, 2), collect_dump=True)
               for t in TECHNIQUES]
    serial = run_sweep(trace, configs, parallelism=1)
    forked = run_sweep(trace, configs, parallelism=2)
    assert [o.result.dump for o in forked] == [o.result.dump for o in serial]
    assert [o.result.cost for o in forked] == [o.result.cost for o in serial]
    assert all(o.result.cost is not None for o in forked)


@pytest.mark.parametrize("cpus", [None, 4])
def test_sweep_worker_count_capped(monkeypatch, cpus):
    if cpus is not None:
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
    cpus = engine._usable_cpus()
    requested = []

    class InProcessExecutor:
        """Stands in for the process pool: records its size, runs in-process."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            requested.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", InProcessExecutor)
    monkeypatch.setattr(engine, "_worker_sweep", None)
    trace = generate_trace(A1_SPEC)
    configs = [SimulationConfig(rft=RFTConfig(technique=t, threshold=2))
               for t in TECHNIQUES]
    outcomes = run_sweep(trace, configs, parallelism=10_000)
    workers = min(len(configs), cpus)
    assert requested == ([workers] if workers > 1 else [])
    assert [o.config for o in outcomes] == configs
    assert all(o.error is None for o in outcomes)
    assert not multiprocessing.active_children()


def test_sweep_empty_configs_rejected():
    with pytest.raises(ValueError):
        run_sweep(Trace([], []), [])


def _serialized_reports(trace, configs, parallelism):
    outcomes = run_sweep(trace, configs, parallelism=parallelism)
    return json.dumps([report_json_dict(o.result.report) for o in outcomes],
                      sort_keys=True)


def test_parallelism_does_not_change_results():
    rng = random.Random(5)
    trace = random_trace(rng, max_items=3000)
    configs = [SimulationConfig(rft=RFTConfig(technique=t, threshold=3))
               for t in TECHNIQUES]
    baseline = _serialized_reports(trace, configs, 1)
    assert _serialized_reports(trace, configs, 6) == baseline


def test_completions_beyond_head_executions_raise_invariant_error(monkeypatch):
    """A kernel that books one completion too many per call breaks the
    completions <= head executions invariant, and nothing else."""
    kernel = engine.Automaton.run_native_stretch

    def overcounting(self, *args):
        out = kernel(self, *args)
        if self._regions:
            self._regions[0].completions += 1
        return out
    monkeypatch.setattr(engine.Automaton, "run_native_stretch", overcounting)
    config = SimulationConfig(rft=RFTConfig(technique="net", threshold=2))
    with pytest.raises(engine.InvariantError, match="region 0 completed"):
        run_simulation(generate_trace(A1_SPEC), config)
    assert not issubclass(engine.InvariantError, ValueError)


def test_benchmark_hooks_exist():
    """The names the benchmark (``bench/layers.py``, ``bench/run.py``)
    reads or wraps, pinned here so a rename fails the test suite before it
    breaks the benchmark."""
    from rftsim import metrics, rft, trace_io

    for name in ("Automaton", "make_rft", "compute_report", "estimate_times",
                 "SimulationConfig", "run_simulation", "run_sweep"):
        assert callable(getattr(engine, name)), name
    assert callable(rft.netplus_expand) and callable(rft.RFTConfig)
    assert len(rft.TECHNIQUES) == 6
    for name in ("CostParams", "cost_json_dict", "report_json_dict"):
        assert callable(getattr(metrics, name)), name
    for name in ("load_trace", "write_trace"):
        assert callable(getattr(trace_io, name)), name
    automaton = engine.Automaton()
    for name in ("step_addr", "run_native_stretch", "bulk_interp", "append_region"):
        assert callable(getattr(automaton, name)), name
    # the engine binds each automaton to its trace's table; here ids are addresses
    automaton.bind(range(0x300))
    # positional kernel arguments and the consumed index in result[0]
    assert automaton.run_native_stretch([0x100, 0x104], [4, 4], 0, 2, 1)[0] == 2
    # bench/layers.py books result[0] - args[2] items per kernel call, so i stays
    # the third positional argument and the next index the result's first
    params = list(inspect.signature(engine.Automaton.run_native_stretch).parameters)
    assert params == ["self", "addrs", "sizes", "i", "end", "h", "exit_counts", "threshold"]
    args = ([0x200, 0x204, 0x208, 0x20C], [4] * 4, 1, 4, 3)
    interp = automaton.interp
    result = automaton.run_native_stretch(*args)
    assert result[0] == 4 and result[0] - args[2] == automaton.interp - interp == 3
    automaton.bulk_interp(1)
    assert automaton.append_region([(0x100, 4)]) == 0
    for tech in TECHNIQUES:
        assert callable(engine.make_rft(RFTConfig(technique=tech))._handle), tech
    trace = Trace([0x108, 0x100], [4, 4])
    assert len(trace) == 2 and trace.backward_indices().tolist() == [1]
    config = SimulationConfig(rft=RFTConfig(technique="net"),
                              cost=CostParams(10.0, 1.0, 5.0, 100.0, 2.0))
    outcome = run_sweep(trace, [config])[0]
    result = outcome.result
    assert outcome.config.rft.technique == "net"
    assert result.items_consumed == 2 and result.cost is not None
    assert "metrics" in report_json_dict(result.report)
    assert "total_time" in metrics.cost_json_dict(result.cost)
