import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (addressed, bind, detour_trace, random_graph_walk, random_noise,
                      random_rft_config, random_trace, scan_run)
from reference import (SI, FlowMap, HistoryBuffer, literal_expand, netr_stop_condition,
                       reference_run, was_backward_branch)
from rftsim import SimulationConfig, Trace, run_simulation
from rftsim.rft import (LeiManager, Mret2Manager, NetManager, NetPlusExtRManager,
                        NetPlusManager, NetRManager, RFTConfig, TECHNIQUES, make_rft,
                        _levels, mret2_intersect, netplus_expand)


def cfg(technique="net", **kw):
    return RFTConfig(technique=technique, **kw)


def feed(manager, seq, held=()):
    """Drive a manager's scan over (address, size) pairs as the engine
    does, the items whose address is in ``held`` (or in an emitted
    region) running natively; returns emissions as (due index, region)
    pairs."""
    return scan_run(manager, [a for a, _ in seq], [s for _, s in seq], held)


def loop_feed(addrs, iters, size=4):
    return [(a, size) for _ in range(iters) for a in addrs]


def addresses(region):
    """The recorded addresses of a region, in order."""
    return [a for a, _ in region[0]]


def lei_history(mgr, addrs):
    """The addresses in a lei manager's history, oldest first: its pushes
    from the later of the restart and the last ``history_capacity`` pushes
    on, mapped to trace indices through its runs."""
    oldest = max(mgr._floor, mgr._pos - mgr._capacity)
    runs = mgr._runs + [(mgr._pos, None)]
    return [addrs[t + q - p] for (p, t), (nxt, _) in zip(runs, runs[1:])
            for q in range(max(p, oldest), nxt)]


def seed_lei_cycle_counts(mgr, counts):
    """Give a fresh lei manager's addresses cycle counts as it is bound to
    a trace; their latest push position, -1, lies below the history, so it
    marks no cycle."""
    begin = mgr.begin

    def seeded(source, start, end, held):
        begin(source, start, end, held)
        table = source.table().tolist()
        for a, c in counts.items():
            mgr._hot[table.index(a)] = c
    mgr.begin = seeded


# --- scan against the per-item reference model --------------------------------

def test_scan_matches_reference_managers():
    """Every technique's scan emits the region its per-item reference
    manager emits, due at the same index, over random items and random
    held sets; the look-ahead techniques' regions are expanded over the
    reference's literal flow map."""
    rng = random.Random(0x5CA7)
    for case in range(360):
        tech = TECHNIQUES[case % len(TECHNIQUES)]
        config = random_rft_config(rng, tech)
        trace = random_trace(rng, max_items=600)
        addrs, sizes = trace.addresses.tolist(), trace.sizes
        share = rng.choice((0.0, 0.05, 0.2, 0.5))
        held = {a for a in set(addrs) if rng.random() < share}
        got = scan_run(make_rft(config), addrs, sizes, held)
        assert got == reference_run(config, addrs, sizes, held), (case, tech)


def test_lei_scan_matches_reference_on_long_windows():
    """lei over 4,000-item windows, long enough that its history is
    trimmed many times between emissions, matches the reference."""
    rng = random.Random(0x1E1)
    for case in range(60):
        make = random_graph_walk if case % 2 else random_noise
        trace = make(rng, 4000)
        config = RFTConfig(technique="lei", threshold=rng.choice((8, 16, 32, 64)),
                           max_region_size=rng.choice((16, 64, 1024)),
                           history_capacity=rng.choice((16, 32, 64, 128, 256)))
        addrs, sizes = trace.addresses.tolist(), trace.sizes
        held = {a for a in set(addrs) if rng.random() < 0.3}
        got = scan_run(make_rft(config), addrs, sizes, held)
        assert got == reference_run(config, addrs, sizes, held), case


# --- the reference model's backward-branch test -------------------------------

def test_backward_branch_target():
    assert was_backward_branch((0x108, 4), (0x100, 4))


def test_sequential_not_backward():
    assert not was_backward_branch((0x100, 4), (0x104, 4))


def test_forward_branch_not_backward():
    assert not was_backward_branch((0x100, 4), (0x200, 4))


def test_no_last_not_backward():
    assert not was_backward_branch(None, (0x100, 4))


# --- net ----------------------------------------------------------------------

def test_net_single_loop_recording():
    # loop A,B,C with T=2: hotness of A reaches 2 at its third arrival,
    # recording emits at the next loop-closing branch
    mgr = NetManager(cfg(threshold=2))
    A, B, C = 0x100, 0x104, 0x108
    emissions = feed(mgr, loop_feed([A, B, C], 4))
    assert emissions == [(9, ([(A, 4), (B, 4), (C, 4)],))]


def test_net_straight_line_never_records():
    mgr = NetManager(cfg(threshold=1))
    seq = [(0x100 + 4 * i, 4) for i in range(200)]
    assert feed(mgr, seq) == []


def test_net_stops_on_entering_existing_region():
    mgr = NetManager(cfg(threshold=1))
    # the backward branch to 0x100 starts recording at once (T=1); 0x104
    # enters an existing region, so the recording is emitted before the
    # item after it, without that item
    seq = [(0x200, 4), (0x100, 4), (0x104, 4), (0x300, 4)]
    assert feed(mgr, seq, {0x104}) == [(3, ([(0x100, 4), (0x104, 4)],))]


def test_net_size_cap():
    mgr = NetManager(cfg(threshold=1, max_region_size=3))
    seq = [(0x200, 4), (0x100, 4)]  # arm via backward branch
    seq += [(0x104 + 4 * i, 4) for i in range(10)]
    emissions = feed(mgr, seq)
    assert len(emissions) == 1
    assert len(addresses(emissions[0][1])) == 3


def test_net_profiles_exit_targets():
    mgr = NetManager(cfg(threshold=1))
    # 0x500 leaves the region at 0x400, so the following 0x600 is profiled
    # although reached by a forward branch; its recording stops at the
    # backward branch to 0x5f0
    seq = [(0x400, 4), (0x500, 4), (0x600, 4), (0x604, 4), (0x5F0, 4)]
    assert feed(mgr, seq, held={0x400}) == \
        [(4, ([(0x600, 4), (0x604, 4)],))]


def test_net_no_profiling_on_native_kinds():
    mgr = NetManager(cfg(threshold=1))
    assert feed(mgr, [(0x200, 4), (0x100, 4)], held={0x200, 0x100}) == []
    assert not any(mgr._hot)


# --- mret2 ----------------------------------------------------------------------

def test_mret2_intersect_identity():
    p = [(1, 4), (2, 4)]
    assert mret2_intersect(p, p) == p


def test_mret2_intersect_keeps_pass1_order():
    p1 = [(10, 4), (11, 4), (12, 4), (13, 4)]
    p2 = [(10, 4), (12, 4), (13, 4), (14, 4)]
    assert mret2_intersect(p1, p2) == [(10, 4), (12, 4), (13, 4)]


def test_mret2_intersect_entry_survives():
    assert mret2_intersect([(10, 4), (11, 4)], [(10, 4)]) == [(10, 4)]


def test_mret2_intersect_rejects_different_entries():
    with pytest.raises(ValueError, match="entry"):
        mret2_intersect([(1, 4)], [(2, 4)])


def test_mret2_identical_passes_on_plain_loop():
    mgr = Mret2Manager(cfg("mret2", threshold=2))
    A, B, C = 0x100, 0x104, 0x108
    emissions = feed(mgr, loop_feed([A, B, C], 5))
    # one pass later than net, same content
    assert emissions == [(12, ([(A, 4), (B, 4), (C, 4)],))]


def test_mret2_diverging_passes_keep_intersection():
    mgr = Mret2Manager(cfg("mret2", threshold=1))
    E, P, Q, R, S = 0x100, 0x104, 0x108, 0x10C, 0x110
    seq = loop_feed([E, P, Q, R], 2) + loop_feed([E, P, Q, S], 2)
    emissions = feed(mgr, seq)
    assert addresses(emissions[0][1]) == [E, P, Q]


# --- the reference history buffer / lei ----------------------------------------

def test_history_buffer_membership():
    h = HistoryBuffer(8)
    for a in (1, 2, 3):
        assert h.observe(a) is None
    assert h.observe(1) == 0


def test_history_buffer_miss_pushes():
    h = HistoryBuffer(8)
    for a in (1, 2, 3):
        h.observe(a)
    assert h.observe(4) is None
    assert 4 in h


def test_history_buffer_eviction():
    h = HistoryBuffer(3)
    for a in (1, 2, 3):
        h.observe(a)
    assert h.observe(4) is None  # evicts 1
    assert h.observe(1) is None  # 1 was evicted: no cycle
    assert h.observe(3) == 2


def test_history_buffer_slice():
    h = HistoryBuffer(8)
    for a in (7, 8, 9):
        h.observe(a)
    prior = h.observe(7)
    assert h.slice_to_newest(prior) == [7, 8, 9]


def test_lei_single_loop_emits_last_iteration():
    mgr = LeiManager(cfg("lei", threshold=3))
    X, Y, Z = 0x100, 0x104, 0x108
    emissions = feed(mgr, loop_feed([X, Y, Z], 4))
    assert emissions == [(9, ([(X, 4), (Y, 4), (Z, 4)],))]


def test_lei_cold_cycle_emits_nothing():
    mgr = LeiManager(cfg("lei", threshold=100))
    seq = loop_feed([0x100, 0x104], 20)
    assert feed(mgr, seq) == []
    assert len(lei_history(mgr, [a for a, _ in seq])) > 0  # buffer intact


def test_lei_inner_loop_kept_once():
    # window with the inner pair iterated five times collapses to the
    # final iteration only
    mgr = LeiManager(cfg("lei", threshold=1))
    X, A_, Y, Z, B_ = 0x100, 0x104, 0x108, 0x10C, 0x110
    window = [X, A_] + [Y, Z] * 5 + [B_]
    # X must get hot on its first cycle; inner must not
    seed_lei_cycle_counts(mgr, {X: 0, Y: -10**6, Z: -10**6})
    seq = [(a, 4) for a in window + [X]]
    emissions = feed(mgr, seq)
    assert len(emissions) == 1
    assert addresses(emissions[0][1]) == [X, A_, Y, Z, B_]


def test_lei_ignores_native_side():
    mgr = LeiManager(cfg("lei", threshold=1))
    seq = loop_feed([0x100, 0x104], 20)
    assert feed(mgr, seq, held={0x100, 0x104}) == []
    # only the entry into the region was interpreter-side
    assert lei_history(mgr, [a for a, _ in seq]) == [0x100]


def test_lei_window_spans_region_entry_and_native_run():
    """Hand-worked: the history skips the items the kernel steps.  H and N
    are held; H enters a region and is pushed (a scanned item is pushed
    even when it enters a region), N runs natively and the landing C is
    stepped by the kernel, so the scan after it starts at D.  X's second
    cycle (threshold 2) sees the pushes X A B A H D since its previous
    push; A is kept at its last occurrence with that occurrence's size,
    and the head X takes the emitting item's size."""
    X, A_, B_, H, N, C, D = 0x100, 0x104, 0x108, 0x200, 0x204, 0x10C, 0x110
    seq = [(X, 4), (X, 4), (A_, 4), (B_, 4), (A_, 2), (H, 4), (N, 4), (C, 4),
           (D, 4), (X, 6)]
    mgr = LeiManager(cfg("lei", threshold=2))
    assert feed(mgr, seq, held={H, N}) == [
        (9, ([(X, 6), (B_, 4), (A_, 2), (H, 4), (D, 4)],))]


def test_lei_respects_size_cap():
    mgr = LeiManager(cfg("lei", threshold=1, max_region_size=3))
    addrs = [0x100 + 4 * i for i in range(10)]
    emissions = feed(mgr, [(a, 4) for a in addrs + addrs])
    assert emissions and len(addresses(emissions[0][1])) == 3


# --- net-r (the reference model's stop test) -----------------------------------

def test_netr_stop_on_cycle():
    rec = [(1, 4), (2, 4), (3, 4)]
    assert netr_stop_condition(rec, (2, 4), SI, 1024)


def test_netr_backward_branch_does_not_stop():
    rec = [(10, 4), (11, 4), (12, 4)]
    assert not netr_stop_condition(rec, (5, 4), SI, 1024)


def test_netr_stop_at_cap():
    rec = [(1, 4), (2, 4)]
    assert netr_stop_condition(rec, (9, 4), SI, 2)


def test_netr_records_across_backward_branch():
    # cycle P(0x200) -> Q(0x100) -> R(0x300) -> P: the recording started at Q
    # reaches the backward branch R -> P before any address repeats
    P, Q, R = 0x200, 0x100, 0x300
    seq = loop_feed([P, Q, R], 4)
    net = feed(NetManager(cfg(threshold=2)), list(seq))
    netr = feed(NetRManager(cfg("net-r", threshold=2)), list(seq))
    assert addresses(net[0][1]) == [Q, R]
    assert addresses(netr[0][1]) == [Q, R, P]
    assert set(addresses(net[0][1])) < set(addresses(netr[0][1]))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_netr_recordings_have_distinct_addresses(seed, threshold):
    rng = random.Random(seed)
    addrs = [0x100 + 4 * i for i in range(rng.randint(2, 12))]
    mgr = NetRManager(cfg("net-r", threshold=threshold, max_region_size=8))
    seq = [(rng.choice(addrs), 4) for _ in range(400)]
    held = {a for a in addrs if rng.random() < 0.25}
    for _, rec in feed(mgr, seq, held):
        assert len(set(addresses(rec))) == len(addresses(rec))


# --- netplus expansion ----------------------------------------------------------

def mkcfg(edges, sizes=None):
    """Adjacency dict in the observed-flow shape: addr -> [size, {succ}]."""
    nodes = {u for u, _ in edges} | {v for _, v in edges}
    out = {u: [(sizes or {}).get(u, 4), set()] for u in nodes}
    for u, v in edges:
        out[u][1].add(v)
    return out


def expansion_addresses(expansion):
    """The member addresses of a ``(members, successors)`` expansion."""
    return {a for a, _ in expansion[0]}


def test_expand_single_reentrant_path():
    g = mkcfg([("A", "B"), ("B", "C"), ("C", "A")])
    res = netplus_expand(g, [("A", 4), ("B", 4)], depth=2)
    assert expansion_addresses(res) == {"C"}


def test_expand_depth_one_keeps_direct_return():
    g = mkcfg([("A", "B"), ("B", "C"), ("C", "A")])
    res = netplus_expand(g, [("A", 4), ("B", 4)], depth=1)
    assert expansion_addresses(res) == {"C"}


def test_expand_two_hop_needs_depth_two():
    g = mkcfg([("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])
    assert expansion_addresses(netplus_expand(g, [("A", 4), ("B", 4)], 1)) == set()
    assert expansion_addresses(netplus_expand(g, [("A", 4), ("B", 4)], 2)) == {"C", "D"}


def test_expand_extended_accepts_mid_region_return():
    g = mkcfg([("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "B")])
    rec = [("A", 4), ("B", 4), ("C", 4)]
    assert expansion_addresses(netplus_expand(g, rec, 10, extended=False)) == set()
    assert expansion_addresses(netplus_expand(g, rec, 10, extended=True)) == {"D", "E"}


def test_expand_successor_map_wires_region():
    g = mkcfg([(0x100, 0x104), (0x104, 0x108), (0x108, 0x100)])
    members, successors = netplus_expand(g, [(0x100, 4), (0x104, 4)], depth=2)
    assert members == ((0x108, 4),)
    assert successors == {0x108: (0x100,), 0x104: (0x108,)}


def test_expand_empty_when_no_return():
    g = mkcfg([("A", "B"), ("B", "C")])
    assert expansion_addresses(netplus_expand(g, [("A", 4), ("B", 4)], 10)) == set()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.integers(1, 4))
def test_expand_matches_brute_force(seed, extended, depth):
    rng = random.Random(seed)
    n = rng.randint(2, 20)
    nodes = list(range(n))
    edges = []
    for u in nodes:
        for v in rng.sample(nodes, rng.randint(1, min(3, n))):
            edges.append((u, v))
    g = mkcfg(edges)
    rec_len = rng.randint(1, max(1, n // 2))
    rec = [(a, 4) for a in rng.sample(nodes, rec_len)]
    assert netplus_expand(g, rec, depth, extended) == literal_expand(g, rec, depth, extended)


@pytest.mark.parametrize("extended", [False, True])
def test_expand_matches_literal_model_on_flow_maps(extended):
    """On flow maps built from random walks, at every depth from 1 to 12,
    the look-ahead equals the explicit enumeration of walks, members and
    successors alike."""
    rng = random.Random(0xE7 + extended)
    expanded = 0
    for _ in range(20):
        trace = random_graph_walk(rng, rng.randint(10, 300))
        flow = FlowMap()
        items = list(zip(trace.addresses.tolist(), trace.sizes))
        for item in items:
            flow.add(*item)
        # a recorded stretch of the walk, repeats and all
        lo = rng.randrange(len(trace))
        rec = items[lo:lo + rng.randint(1, 6)]
        for depth in range(1, 13):
            got = netplus_expand(flow.cfg, rec, depth, extended)
            assert got == literal_expand(flow.cfg, rec, depth, extended), depth
            expanded += bool(got[0])
    assert expanded >= 80


def test_levels_fewest_steps_within_limit():
    graph = {"s": ["a", "c"], "a": ["b", "s"], "b": ["c"], "c": ["d"], "d": ["e"],
             "t": ["s"]}
    expanded = []

    def step(u):
        expanded.append(u)
        return graph.get(u, ())

    # the sources are never reached, though a and t lead back to s
    assert _levels({"s", "t"}, step, 2) == {"a": 1, "c": 1, "b": 2, "d": 2}
    assert _levels({"s", "t"}, step, 10) == {"a": 1, "c": 1, "b": 2, "d": 2, "e": 3}
    assert _levels({"s"}, step, 0) == {}
    # past the last new node the search stops: each node is expanded once
    expanded.clear()
    assert _levels({"s", "t"}, step, 2**40) == {"a": 1, "c": 1, "b": 2, "d": 2, "e": 3}
    assert sorted(expanded) == ["a", "b", "c", "d", "e", "s", "t"]


@pytest.mark.parametrize("technique", ["netplus", "netplus-e-r"])
def test_lookahead_above_any_walk_length(technique):
    """A depth of 2**40 gives the run at a depth of the number of distinct
    addresses, which no walk of distinct outside addresses can exceed."""

    def dump(trace, depth):
        config = SimulationConfig(rft=cfg(technique, threshold=3, expansion_depth=depth),
                                  collect_dump=True)
        return run_simulation(trace, config).dump

    rng = random.Random(0x5EED)
    for trace in [random_graph_walk(rng, 3000) for _ in range(4)]:
        assert dump(trace, 2**40) == dump(trace, len(set(trace.addresses.tolist())))
    # the loop's one way back outside it is the 20-item detour
    trace = detour_trace()
    deep = dump(trace, 2**40)
    assert deep == dump(trace, 23) == dump(trace, 20)
    assert [len(r["expansion_states"]) for r in deep["regions"]] == [20]
    assert dump(trace, 19)["regions"][0]["expansion_states"] == []


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_expand_depth_monotone(seed):
    rng = random.Random(seed)
    nodes = list(range(12))
    edges = [(u, v) for u in nodes for v in rng.sample(nodes, 2)]
    g = mkcfg(edges)
    rec = [(0, 4), (1, 4)]
    prev: set = set()
    sets = []
    for depth in range(1, 26):
        cur = expansion_addresses(netplus_expand(g, rec, depth))
        assert prev <= cur
        prev = cur
        sets.append(cur)
    # stabilises once the depth covers the longest shortest return walk
    assert sets[-1] == sets[-2]


def test_netplus_manager_attaches_expansion():
    mgr = NetPlusManager(cfg("netplus", threshold=5, expansion_depth=10))
    X0, X1, Y0, Y1 = 0x100, 0x104, 0x108, 0x10C
    seq = []
    for _ in range(4):
        seq += [(X0, 4), (X1, 4)]
        seq += [(Y0, 4), (Y1, 4)] * 4
    emissions = feed(mgr, seq)
    assert emissions
    region = emissions[0][1]
    assert addresses(region) == [Y0, Y1]
    assert expansion_addresses(region[1:]) == {X0, X1}


def test_netplus_superset_of_net_at_same_trigger():
    X0, X1, Y0, Y1 = 0x100, 0x104, 0x108, 0x10C
    seq = []
    for _ in range(4):
        seq += [(X0, 4), (X1, 4)]
        seq += [(Y0, 4), (Y1, 4)] * 4
    net = feed(NetManager(cfg(threshold=5)), list(seq))
    plus = feed(NetPlusManager(cfg("netplus", threshold=5)), list(seq))
    assert net[0][0] == plus[0][0]
    net_addrs = set(addresses(net[0][1]))
    plus_region = plus[0][1]
    plus_addrs = set(addresses(plus_region)) | expansion_addresses(plus_region[1:])
    assert net_addrs <= plus_addrs


def test_netplus_emission_on_region_entry_sees_the_next_item():
    """Hand-worked due index.  The backward branch X -> E starts a
    recording at E (threshold 1); it takes A, then H, which enters a held
    region, so the scan stops at item 3 and emits E A H due at item 4.  The
    pair H -> X, first seen at item 4, opens the return path X -> E: the
    flow up to item 4 expands the region by X, the flow up to item 3 by
    nothing.  The idle scan starts at E, as after a kernel call that
    stepped X and stopped at the bump of E that reaches the threshold."""
    E, A_, H, X = 0x100, 0x104, 0x200, 0x300
    addrs = [X, E, A_, H, X]
    sizes = [4] * len(addrs)
    mgr = NetPlusManager(cfg("netplus", threshold=1))
    trace = Trace(addrs, sizes)
    bind(mgr, trace, {H})
    k, region = mgr.scan(1, len(addrs), trace._ids[0])
    assert (k, addressed(region, trace.table().tolist())) == \
        (3, ([(E, 4), (A_, 4), (H, 4)], ((X, 4),), {H: (X,), X: (E,)}))


# --- make_rft -------------------------------------------------------------------

def test_make_rft_all_tags():
    classes = {"net": NetManager, "mret2": Mret2Manager, "lei": LeiManager,
               "netplus": NetPlusManager, "net-r": NetRManager,
               "netplus-e-r": NetPlusExtRManager}
    assert set(classes) == set(TECHNIQUES)
    for tag in TECHNIQUES:
        assert type(make_rft(cfg(tag))) is classes[tag], tag


def test_make_rft_paper_point_defaults():
    config = RFTConfig()
    assert config.threshold == 1024
    assert config.expansion_depth == 10
    assert config.max_region_size == 1024
    assert isinstance(make_rft(config), NetManager)


def test_unknown_technique_rejected():
    with pytest.raises(ValueError, match="unknown technique"):
        RFTConfig(technique="hotpath")


def test_config_validation():
    with pytest.raises(ValueError, match="threshold"):
        RFTConfig(threshold=0)


@pytest.mark.parametrize("field", ["threshold", "max_region_size", "expansion_depth",
                                   "history_capacity"])
@pytest.mark.parametrize("value", [3.0, 2.5, True, "3", None])
def test_config_fields_must_be_ints(field, value):
    """A float field ran on short traces and failed on long ones, so every
    non-int, bools included, is rejected by name at construction."""
    message = f"{field} must be an integer, not {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RFTConfig(**{field: value})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(TECHNIQUES), st.integers(1, 8))
def test_all_recordings_respect_cap(seed, technique, cap):
    rng = random.Random(seed)
    mgr = make_rft(cfg(technique, threshold=rng.choice((1, 2, 3)),
                       max_region_size=cap))
    addrs = [0x100 + 4 * i for i in range(rng.randint(2, 10))]
    seq = [(rng.choice(addrs), 4) for _ in range(300)]
    held = {a for a in addrs if rng.random() < 0.3}
    for _, region in feed(mgr, seq, held):
        assert len(addresses(region)) <= cap


# --- invariant properties -------------------------------------------------------

pair_lists = st.lists(st.tuples(st.integers(0, 200), st.integers(1, 8)),
                      min_size=1, max_size=20)


@settings(max_examples=100)
@given(pair_lists, pair_lists)
def test_mret2_subset_law(p1_items, p2_items):
    p2_items = [p1_items[0]] + p2_items  # shared entry
    result = mret2_intersect(p1_items, p2_items)
    assert {a for a, _ in result} <= {a for a, _ in p1_items}
    # order is a subsequence of pass 1
    it = iter(p1_items)
    assert all(any(pair == cand for cand in it) for pair in result)


@settings(max_examples=120)
@given(st.integers(0, 2**64 - 1), st.integers(1, 2**32 - 1),
       st.integers(0, 2**64 - 1), st.integers(1, 2**32 - 1))
def test_backward_branch_is_address_decrease(la, ls, a, s):
    # with sizes >= 1 the two-clause definition collapses to an address
    # comparison, which the managers rely on
    assert was_backward_branch((la, ls), (a, s)) == (a < la)
