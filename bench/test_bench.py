"""Tests of the benchmark's own code.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import re
from pathlib import Path

import pytest

import run
from hostspeed import HostSpeed
from layers import LayerTracer, expand_names
from rftsim.engine import run_simulation
from rftsim.rft import TECHNIQUES
from rftsim.trace_io import write_trace
from workloads import WORKLOADS

SMALL = 4000
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_trace_bytes(name, tmp_path):
    generate = WORKLOADS[name].generate
    paths = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        paths[label] = tmp_path / f"{label}.rtr"
        trace = generate(seed, SMALL)
        assert len(trace) == SMALL
        write_trace(paths[label], trace)
    data = {label: path.read_bytes() for label, path in paths.items()}
    assert data["a"] == data["b"]
    assert data["a"] != data["c"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_counts_and_keep_digests(name):
    trace = WORKLOADS[name].generate(3, SMALL)
    _, _, plain = run.simulate_round(trace, HostSpeed())
    counts = []
    for _ in range(2):
        tracer = LayerTracer()
        observed = {}
        with tracer.installed():
            for tag in TECHNIQUES:
                tracer.reset()
                doc = run.report_doc(run_simulation(trace, run.sim_config(tag)))
                assert run.digest(doc) == run.digest(plain[tag])
                observed[tag] = tracer.counts()
        counts.append(observed)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_match_benchmark_json(trace, capsys):
    result = run.run("interp-noise", 5, 0.1, trace, items=SMALL)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in emitted:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert emitted == {m["name"]: m["unit"] for m in declared}
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# env ")
    stamp = json.loads(lines[0][len("# env "):])
    assert {"nproc", "python", "numpy", "git_commit", "seed", "items"} <= set(stamp)


def test_per_layer_list_matches_layers_module():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, _ in expand_names()]


def test_workload_items_match_benchmark_json():
    for w in BENCHMARK["workloads"]:
        assert f"{WORKLOADS[w['name']].items:,} items" in w["why"]


def test_guard_fails_on_a_wrong_shape():
    # a loop trace is not noise: its regions must trip the interp-noise guard
    trace = WORKLOADS["loop-nest"].generate(1, 60_000)
    _, _, docs = run.simulate_round(trace, HostSpeed())
    (_, ok, _), = WORKLOADS["interp-noise"].guard(docs, None)
    assert not ok


def test_cli_peak_rss_is_the_childs_own(tmp_path):
    # the parent's resident set must not leak into the child's peak, as
    # it does through getrusage(RUSAGE_CHILDREN)
    ballast = b"\x01" * (256 << 20)
    path = tmp_path / "trace.rtr"
    write_trace(path, WORKLOADS["interp-noise"].generate(1, SMALL))
    checks = run.Checks()
    _, _, rss_mib, docs = run.cli_sweep(checks, path, tmp_path, HostSpeed())
    assert checks.failed == 0 and set(docs) == set(TECHNIQUES)
    assert 0 < rss_mib < len(ballast) / (1 << 20) / 2
