import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rftsim.automaton import Automaton
from rftsim.cli import main
from rftsim.metrics import REPORT_COLUMNS
from rftsim.trace_io import (LoopSpec, ProgramSpec, Trace, generate_trace,
                             load_trace, write_trace)

A1_SPEC = ProgramSpec((LoopSpec(base=0x100, body=3, iters=10, isize=4),))


@pytest.fixture
def loop_trace(tmp_path):
    path = tmp_path / "loop.rtr"
    write_trace(path, generate_trace(A1_SPEC))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# --- simulate ---------------------------------------------------------------

def test_simulate_csv_columns(capsys, loop_trace):
    code, out, _ = run_cli(capsys, "simulate", "--trace", str(loop_trace),
                           "--rft", "net", "--threshold", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:5] == ["technique", "threshold", "max_region_size",
                          "expansion_depth", "history_capacity"]
    assert header[5:] == list(REPORT_COLUMNS)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["technique"] == "net"
    assert row["coverage"] == "0.7"
    assert row["num_regions"] == "1"


def test_simulate_unknown_technique_usage_error(capsys, loop_trace):
    code, _, err = run_cli(capsys, "simulate", "--trace", str(loop_trace),
                           "--rft", "hotspot")
    assert code == 1
    assert "invalid choice" in err


def test_simulate_missing_trace_io_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--trace", str(tmp_path / "no.rtr"),
                           "--rft", "net")
    assert code == 2
    assert "error" in err


def test_simulate_json_echoes_depth(capsys, loop_trace):
    code, out, _ = run_cli(capsys, "simulate", "--trace", str(loop_trace),
                           "--rft", "netplus", "--netplus-depth", "10",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["expansion_depth"] == 10
    assert doc["config"]["technique"] == "netplus"
    assert doc["report"]["metrics"]["total_instructions"] == 30


def test_simulate_costs_columns(capsys, loop_trace):
    code, out, _ = run_cli(capsys, "simulate", "--trace", str(loop_trace),
                           "--rft", "net", "--threshold", "2", "--costs")
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["total_time"] == "226.0"
    assert row["profitable"] == "true"


def test_simulate_deterministic_bytes(capsys, loop_trace):
    _, out1, _ = run_cli(capsys, "simulate", "--trace", str(loop_trace),
                         "--rft", "lei", "--threshold", "2", "--format", "json")
    _, out2, _ = run_cli(capsys, "simulate", "--trace", str(loop_trace),
                         "--rft", "lei", "--threshold", "2", "--format", "json")
    assert out1 == out2


def test_simulate_to_file(capsys, loop_trace, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "simulate", "--trace", str(loop_trace),
                           "--rft", "net", "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("technique,")


def test_simulate_text_trace(capsys, tmp_path):
    path = tmp_path / "t.txt"
    write_trace(path, generate_trace(A1_SPEC), "text")
    code, out, _ = run_cli(capsys, "simulate", "--trace", str(path),
                           "--trace-format", "text", "--rft", "net",
                           "--threshold", "2")
    assert code == 0
    assert "0.7" in out


@pytest.mark.parametrize("rft", ["net", "netplus"])
def test_simulate_text_address_outside_u64_data_error(capsys, tmp_path, rft):
    path = tmp_path / "t.txt"
    path.write_text("100 4\n-10 4\n")
    code, _, err = run_cli(capsys, "simulate", "--trace", str(path),
                           "--trace-format", "text", "--rft", rft)
    assert code == 2
    assert ":2: address" in err


def test_simulate_text_size_beyond_u32_data_error(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("100 4\n104 4294967295\n200 4294967296\n")
    code, _, err = run_cli(capsys, "simulate", "--trace", str(path),
                           "--trace-format", "text", "--rft", "net")
    assert code == 2
    assert ":3: instruction size 4294967296 outside [1, 2**32)" in err


# --- sweep --------------------------------------------------------------------

def test_sweep_cartesian_rows(capsys, loop_trace):
    code, out, _ = run_cli(capsys, "sweep", "--trace", str(loop_trace),
                           "--rfts", "net,mret2", "--thresholds", "2,4,8")
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 6
    assert [r[0] for r in rows] == ["net"] * 3 + ["mret2"] * 3
    assert [r[1] for r in rows] == ["2", "4", "8"] * 2


def test_sweep_range_syntax(capsys, loop_trace):
    code, out, _ = run_cli(capsys, "sweep", "--trace", str(loop_trace),
                           "--rfts", "netplus", "--depths", "4:12:2",
                           "--threshold", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert [r[3] for r in rows] == ["4", "6", "8", "10", "12"]
    code, _, err = run_cli(capsys, "sweep", "--trace", str(loop_trace),
                           "--rfts", "net", "--thresholds", "4:2")
    assert code == 1
    assert "empty range '4:2'" in err


def test_sweep_empty_rfts_usage_error(capsys, loop_trace):
    code, _, err = run_cli(capsys, "sweep", "--trace", str(loop_trace),
                           "--rfts", "")
    assert code == 1
    assert "empty" in err


def test_sweep_parallelism_identical_output(capsys, loop_trace):
    args = ("sweep", "--trace", str(loop_trace), "--rfts",
            "net,mret2,lei,netplus,net-r,netplus-e-r", "--threshold", "2",
            "--format", "json")
    _, out1, _ = run_cli(capsys, *args, "--parallelism", "1")
    _, out6, _ = run_cli(capsys, *args, "--parallelism", "6")
    assert out1 == out6


def test_sweep_cli_forked_workers_identical_output(loop_trace):
    # a fresh interpreter, as a user or the benchmark runs the CLI, so the
    # forked workers start from a process that imported nothing else
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    args = [sys.executable, "-m", "rftsim.cli", "sweep", "--trace", str(loop_trace),
            "--rfts", "net,mret2,lei,netplus,net-r,netplus-e-r", "--threshold", "2",
            "--format", "json", "--costs"]
    runs = [subprocess.run(args + ["--parallelism", p], env=env, capture_output=True,
                           timeout=120)
            for p in ("1", "2")]
    for run in runs:
        assert run.returncode == 0, run.stderr.decode()
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["runs"][0]["report"]["metrics"]["num_regions"] == 1


# --- compare --------------------------------------------------------------------

def make_alternating_trace(tmp_path):
    # seven iterations of a loop sharing entry e and prefix p,q: four close
    # via r, three via s; with threshold 3 net keeps [e,p,q,r] while mret2's
    # second pass sees the s path and the intersection drops r
    e, p, q, r, s = 0x100, 0x104, 0x108, 0x10C, 0x110
    addrs = [e, p, q, r] * 4 + [e, p, q, s] * 3
    path = tmp_path / "alt.rtr"
    write_trace(path, Trace(addrs, [4] * len(addrs)))
    return path


def test_compare_baseline_row_and_ratio(capsys, tmp_path):
    path = make_alternating_trace(tmp_path)
    code, out, _ = run_cli(capsys, "compare", "--trace", str(path),
                           "--rfts", "net,mret2", "--baseline", "net",
                           "--threshold", "3")
    assert code == 0
    header, rows = parse_csv(out)
    net_row = dict(zip(header, rows[0]))
    mret2_row = dict(zip(header, rows[1]))
    assert net_row["technique"] == "net"
    assert net_row["avg_static_region_size_vs_net"] == "1.0"
    assert mret2_row["avg_static_region_size_vs_net"] == "0.75"
    # baseline has zero transitions: normalised cell is NA, not an error
    assert mret2_row["num_transitions_vs_net"] == "NA"


def test_compare_baseline_missing_usage_error(capsys, loop_trace):
    code, _, err = run_cli(capsys, "compare", "--trace", str(loop_trace),
                           "--rfts", "mret2,lei", "--baseline", "net")
    assert code == 1
    assert "baseline" in err


# --- gen-trace -------------------------------------------------------------------

def test_gen_trace_roundtrip(capsys, tmp_path):
    spec_path = tmp_path / "prog.json"
    spec_path.write_text('{"loops": [{"base": "0x100", "body": 3, "iters": 10}]}')
    out_path = tmp_path / "gen.rtr"
    code, _, err = run_cli(capsys, "gen-trace", "--spec", str(spec_path),
                           "--out", str(out_path))
    assert code == 0
    assert "30 items" in err
    trace = load_trace(out_path)
    assert len(trace) == 30
    assert trace.addresses[:3].tolist() == [0x100, 0x104, 0x108]


def test_gen_trace_nested_matches_library(capsys, tmp_path):
    spec_path = tmp_path / "prog.json"
    spec_path.write_text(
        '{"loops": [{"base": "0x100", "body": 2, "iters": 3,'
        ' "children": [{"base": "0x200", "body": 2, "iters": 2}]}]}')
    out_path = tmp_path / "gen.rtr"
    assert run_cli(capsys, "gen-trace", "--spec", str(spec_path),
                   "--out", str(out_path))[0] == 0
    inner = LoopSpec(base=0x200, body=2, iters=2)
    outer = LoopSpec(base=0x100, body=2, iters=3, children=(inner,))
    expected = generate_trace(ProgramSpec((outer,)))
    assert load_trace(out_path).addresses.tolist() == expected.addresses.tolist()


def test_gen_trace_overlap_rejected(capsys, tmp_path):
    spec_path = tmp_path / "prog.json"
    spec_path.write_text(
        '{"loops": [{"base": "0x100", "body": 4, "iters": 1},'
        ' {"base": "0x104", "body": 4, "iters": 1}]}')
    code, _, err = run_cli(capsys, "gen-trace", "--spec", str(spec_path),
                           "--out", str(tmp_path / "x.rtr"))
    assert code == 2
    assert "overlap" in err


def test_gen_trace_size_beyond_u32_data_error(capsys, tmp_path):
    spec_path = tmp_path / "prog.json"
    spec_path.write_text('{"loops": [{"base": "0x100", "body": 2, "iters": 1,'
                         ' "isize": 4294967297}]}')
    code, _, err = run_cli(capsys, "gen-trace", "--spec", str(spec_path),
                           "--out", str(tmp_path / "x.rtr"))
    assert code == 2
    assert "loops[0]: isize 4294967297 outside [1, 2**32)" in err


@pytest.mark.parametrize("body, shown", [("2.5", "2.5"), ("true", "True"), ('"2"', "'2'")])
def test_gen_trace_non_integer_number_data_error(capsys, tmp_path, body, shown):
    spec_path = tmp_path / "prog.json"
    spec_path.write_text(f'{{"loops": [{{"base": "0x100", "body": {body}, "iters": 1}}]}}')
    out_path = tmp_path / "x.rtr"
    code, _, err = run_cli(capsys, "gen-trace", "--spec", str(spec_path), "--out", str(out_path))
    assert code == 2
    assert f"loops[0]: body must be an integer, not {shown}" in err
    assert not out_path.exists()


def test_gen_trace_negative_base_rejected(capsys, tmp_path):
    spec_path = tmp_path / "prog.json"
    spec_path.write_text('{"loops": [{"base": "-0x10", "body": 4, "iters": 1}]}')
    code, _, err = run_cli(capsys, "gen-trace", "--spec", str(spec_path),
                           "--out", str(tmp_path / "x.rtr"))
    assert code == 2
    assert "outside" in err


# --- dump --------------------------------------------------------------------------

def test_dump_structure(capsys, loop_trace):
    code, out, _ = run_cli(capsys, "dump", "--trace", str(loop_trace),
                           "--rft", "net", "--threshold", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_instructions"] == 30
    assert len(doc["regions"]) == 1
    assert doc["states"][0]["region"] is None
    assert doc["regions"][0]["dynamic_instructions"] == 21


def test_sweep_depth_scan_monotone_static_size(capsys, tmp_path):
    nested = ProgramSpec((LoopSpec(base=0x100, body=3, iters=30, isize=4,
                                   children=(LoopSpec(base=0x10C, body=2, iters=6,
                                                      isize=4),)),))
    path = tmp_path / "nested.rtr"
    write_trace(path, generate_trace(nested))
    code, out, _ = run_cli(capsys, "sweep", "--trace", str(path),
                           "--rfts", "netplus", "--depths", "1:5",
                           "--threshold", "8")
    assert code == 0
    header, rows = parse_csv(out)
    col = header.index("avg_static_region_size")
    sizes = [float(r[col]) for r in rows]
    assert len(sizes) == 5
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] > sizes[0]  # the look-ahead actually grows the region


def test_compare_json_format(capsys, tmp_path):
    path = make_alternating_trace(tmp_path)
    code, out, _ = run_cli(capsys, "compare", "--trace", str(path),
                           "--rfts", "net,mret2", "--baseline", "net",
                           "--threshold", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["baseline"] == "net"
    rows = {r["technique"]: r["normalized"] for r in doc["runs"]}
    assert rows["net"]["coverage"] == 1.0
    assert rows["mret2"]["avg_static_region_size"] == 0.75
    assert rows["mret2"]["num_transitions"] is None


# --- end-of-run invariants ------------------------------------------------------

@pytest.fixture
def lossy_kernel(monkeypatch):
    """A stepping kernel that drops one interpreter count per call."""
    kernel = Automaton.run_native_stretch

    def lossy(self, *args):
        out = kernel(self, *args)
        self.interp -= 1
        return out
    monkeypatch.setattr(Automaton, "run_native_stretch", lossy)


@pytest.mark.parametrize("argv", [
    ("simulate", "--rft", "net"),
    ("dump", "--rft", "net"),
    ("sweep", "--rfts", "net,lei"),
    ("compare", "--rfts", "net,lei"),
])
def test_invariant_violation_exits_3(capsys, loop_trace, lossy_kernel, argv):
    code, _, err = run_cli(capsys, *argv, "--trace", str(loop_trace), "--threshold", "2")
    assert code == 3
    assert "InvariantError" in err and "items consumed 30" in err


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_other_config_error_exits_2(capsys, loop_trace, monkeypatch, command):
    def broken(self, *args):
        raise RuntimeError("kernel failed")
    monkeypatch.setattr(Automaton, "run_native_stretch", broken)
    code, _, err = run_cli(capsys, command, "--trace", str(loop_trace),
                           "--rfts", "net,lei", "--threshold", "2")
    assert code == 2
    assert "RuntimeError: kernel failed" in err
