import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drive, identity_automaton
from rftsim.metrics import (CostParams, MetricsReport, cold_region_fraction,
                            completion_ratio, compute_report, estimate_times,
                            format_cell, ninety_percent_cover_set,
                            report_csv_row, report_json_dict)


# --- cover set ----------------------------------------------------------------

def test_cover_set_single_dominant():
    assert ninety_percent_cover_set([900, 50, 30, 20], 1000) == 1


def test_cover_set_three_needed():
    assert ninety_percent_cover_set([300, 300, 300, 100], 1000) == 3


def test_cover_set_unreachable():
    assert ninety_percent_cover_set([100], 1000) is None


def test_cover_set_zero_total():
    assert ninety_percent_cover_set([], 0) == 0


def oracle_cover_set(counts, total):
    if total == 0:
        return 0
    target = Fraction(9, 10) * total
    for k, cum in enumerate(accumulate(sorted(counts, reverse=True)), 1):
        if cum >= target:
            return k
    return None


@settings(max_examples=200)
@given(st.lists(st.integers(0, 10**6), max_size=40), st.integers(0, 10**7))
def test_cover_set_matches_oracle(counts, total):
    assert ninety_percent_cover_set(counts, total) == oracle_cover_set(counts, total)


# --- completion ratio -----------------------------------------------------------

def test_completion_all():
    assert completion_ratio(7, 7) == 1.0


def test_completion_half():
    assert completion_ratio(5, 10) == 0.5


def test_completion_no_heads():
    assert completion_ratio(0, 0) is None


# --- cold regions ----------------------------------------------------------------

def _stats(entries):
    from rftsim.automaton import RegionStats
    return RegionStats(rid=0, entry_address=0, static_size=1,
                       recorded_size=1, expansion_size=0,
                       entries_from_interpreter=entries, entries_from_native=0,
                       dynamic_instructions=0, head_executions=0,
                       tail_executions=0, completed_traversals=0)


def test_cold_fraction_single_cold_region():
    assert cold_region_fraction([_stats(1)], 1024) == 1.0


def test_cold_fraction_no_regions():
    assert cold_region_fraction([], 1024) == 0.0


def test_cold_fraction_half():
    assert cold_region_fraction([_stats(2000), _stats(5)], 1024) == 0.5


# --- cost model ------------------------------------------------------------------

def _report(total=0, interp=0, native=0, regions=0, transitions=0, hot_static=0):
    return MetricsReport(
        total_instructions=total, interpreted_instructions=interp,
        native_instructions=native, num_regions=regions, coverage=0.0,
        num_transitions=transitions, hot_static_size=hot_static,
        avg_static_region_size=None, avg_dynamic_region_size=None,
        completion_ratio=None, ninety_percent_cover_set=None,
        cold_region_fraction=0.0, duplication_ratio=0.0, cold_threshold=1024)


def test_interp_time_product():
    cost = estimate_times(_report(total=100, interp=100), CostParams(interp_cost=10))
    assert cost.interp_time == 1000


def test_all_interp_run_not_profitable():
    report = _report(total=50, interp=50)
    cost = estimate_times(report, CostParams())
    assert cost.total_time == cost.baseline_time
    assert not cost.profitable


def test_cost_model_hand_values():
    # interp=9, native=21, 1 region of 3 static instructions, 0 transitions
    report = _report(total=30, interp=9, native=21, regions=1, hot_static=3)
    params = CostParams(interp_cost=10, native_cost=1, gen_cost=5,
                        compiler_init_cost=100, transition_cost=2)
    cost = estimate_times(report, params)
    assert cost.interp_time == 90
    assert cost.native_time == 21
    assert cost.gen_time == 115
    assert cost.transition_time == 0
    assert cost.total_time == 226
    assert cost.baseline_time == 300
    assert cost.profitable


@settings(max_examples=150)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 500),
       st.integers(0, 500), st.integers(0, 10**4),
       st.tuples(*[st.integers(0, 100)] * 5))
def test_cost_model_matches_direct_arithmetic(interp, native, regions,
                                              transitions, hot_static, costs):
    ic, nc, gc, cc, tc = costs
    report = _report(total=interp + native, interp=interp, native=native,
                     regions=regions, transitions=transitions, hot_static=hot_static)
    cost = estimate_times(report, CostParams(ic, nc, gc, cc, tc))
    assert cost.interp_time == ic * interp
    assert cost.native_time == nc * native
    assert cost.gen_time == gc * hot_static + cc * regions
    assert cost.transition_time == tc * transitions
    expected_total = ic * interp + nc * native + gc * hot_static + cc * regions + tc * transitions
    assert cost.total_time == expected_total
    assert cost.baseline_time == ic * (interp + native)
    assert cost.profitable == (expected_total < ic * (interp + native))


def test_cost_linearity_in_each_param():
    report = _report(total=120, interp=40, native=80, regions=3,
                     transitions=7, hot_static=25)
    base = estimate_times(report, CostParams(3, 2, 4, 10, 5))
    scaled = estimate_times(report, CostParams(9, 2, 4, 10, 5))
    assert scaled.interp_time == 3 * base.interp_time
    assert scaled.native_time == base.native_time


def test_negative_cost_rejected():
    with pytest.raises(ValueError):
        CostParams(interp_cost=-1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_cost_rejected(value):
    with pytest.raises(ValueError, match="gen_cost must be finite"):
        CostParams(gen_cost=value)


def test_huge_int_cost_accepted():
    # an int is always finite, and math.isfinite(10**400) would overflow
    assert CostParams(transition_cost=10**400).transition_cost == 10**400


# --- compute_report ---------------------------------------------------------------

def test_report_zero_regions_na_markers():
    auto = identity_automaton()
    drive(auto, [0x100, 0x104, 0x108])
    report = compute_report(auto)
    assert report.num_regions == 0
    assert report.coverage == 0.0
    assert report.avg_static_region_size is None
    assert report.avg_dynamic_region_size is None
    assert report.completion_ratio is None
    assert report.ninety_percent_cover_set is None


def test_report_empty_run_all_zero():
    report = compute_report(identity_automaton())
    assert report.total_instructions == 0
    assert report.coverage == 0.0
    assert report.ninety_percent_cover_set == 0


def test_report_transition_chain():
    # R1's exit always enters R2, crossing k times
    auto = identity_automaton()
    auto.append_region([(0x100, 4), (0x104, 4)])
    auto.append_region([(0x200, 4), (0x204, 4)])
    k = 5
    for _ in range(k):
        drive(auto, [0x100, 0x104, 0x200, 0x204, 0x900])
    report = compute_report(auto)
    assert report.num_transitions == k
    assert report.num_regions == 2


def test_report_duplication_ratio():
    auto = identity_automaton()
    auto.append_region([(0x100, 4), (0x104, 4)])
    auto.append_region([(0x104, 4), (0x108, 4)])
    report = compute_report(auto)
    assert report.hot_static_size == 4
    assert report.duplication_ratio == 0.25


def test_report_invariants_restate_conservation():
    auto = identity_automaton()
    auto.append_region([(0x100, 4), (0x104, 4)])
    drive(auto, [0x100, 0x104, 0x900, 0x100, 0x104])
    r = compute_report(auto)
    assert r.interpreted_instructions + r.native_instructions == r.total_instructions
    assert r.avg_static_region_size * r.num_regions == r.hot_static_size
    assert 0.0 <= r.coverage <= 1.0


# --- serialisation ----------------------------------------------------------------

def test_csv_row_na_and_unreachable_markers():
    auto = identity_automaton()
    drive(auto, [0x100])
    row = report_csv_row(compute_report(auto))
    assert "unreachable" in row
    assert "NA" in row


def test_json_report_carries_region_table():
    auto = identity_automaton()
    auto.append_region([(0x100, 4)])
    drive(auto, [0x100, 0x100])
    doc = report_json_dict(compute_report(auto))
    assert doc["metrics"]["num_regions"] == 1
    assert doc["regions"][0]["completion_ratio"] == 1.0
    assert doc["cold_region_definition"] == "entries < threshold"


def test_format_cell():
    assert format_cell(None) == "NA"
    assert format_cell(True) == "true"
    assert format_cell(0.5) == "0.5"


def test_avg_static_times_count_recovers_hot_static():
    import math
    auto = identity_automaton()
    auto.append_region([(0x100, 4), (0x104, 4), (0x108, 4), (0x10C, 4)])
    auto.append_region([(0x200, 4), (0x204, 4), (0x208, 4)])
    auto.append_region([(0x300, 4), (0x304, 4), (0x308, 4)])
    r = compute_report(auto)
    assert math.isclose(r.avg_static_region_size * r.num_regions, r.hot_static_size,
                        rel_tol=1e-12)
