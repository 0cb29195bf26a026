"""The benchmark's own tests: its workloads, checks and tracing.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import measure
import program
import spans
import workloads
from teescrow import ledger

NAMES = ("sweep", "claim_race", "resubmit_chain")
SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_passes_its_checks(name):
    tally = measure.drive(workloads.make(name, 7, tiny=True), windows=1)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.errors


# The real expectations, kept before a test patches them.
EXPECTED_SWEEP = workloads.expected_sweep_payoffs
EXPECTED_RACE = workloads.expected_race
EXPECTED_CHAIN = workloads.expected_chain


def _off_by_one_payoffs(econ):
    cells = dict(EXPECTED_SWEEP(econ))
    value, node = cells[("honest", "honest")]
    cells[("honest", "honest")] = (value + 1, node)
    return cells


def _last_claim_expected_to_win(plan):
    expected = EXPECTED_RACE(plan)
    return expected[:-1] + [None]


def _wrong_locked_funds(plan):
    return {**EXPECTED_CHAIN(plan), "locked": -1}


@pytest.mark.parametrize("name, attr, wrong", [
    ("sweep", "expected_sweep_payoffs", _off_by_one_payoffs),
    ("claim_race", "expected_race", _last_claim_expected_to_win),
    ("resubmit_chain", "expected_chain", _wrong_locked_funds),
])
def test_wrong_expectation_is_a_failed_op(monkeypatch, name, attr, wrong):
    monkeypatch.setattr(workloads, attr, wrong)
    workload = workloads.make(name, 7, tiny=True)
    tally = measure.drive(workload, windows=1)
    # One wrong op in every unit of the window, and no crash.
    assert tally.failed == workload.window
    assert tally.errors == []


def test_an_op_that_raises_is_a_failed_op(monkeypatch):
    def broken(*_args, **_kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "_run_scenario", broken)
    workload = workloads.make("resubmit_chain", 7, tiny=True)
    tally = measure.drive(workload, windows=1)
    assert tally.failed == tally.attempted == workload.window
    assert "injected" in tally.errors[0]


@pytest.mark.parametrize("name", NAMES)
def test_second_seed_changes_inputs_not_checks(name):
    first = workloads.make(name, 7, tiny=True)
    second = workloads.make(name, 8, tiny=True)
    assert first.plan(0) != second.plan(0)
    assert first.plan(0) == workloads.make(name, 7, tiny=True).plan(0)
    a = measure.drive(first, windows=1)
    b = measure.drive(second, windows=1)
    assert a.failed == b.failed == 0
    assert a.digest(first.window) != b.digest(second.window)


def test_sweep_window_holds_every_input_combination():
    workload = workloads.make("sweep", 3)
    plans = [workload.plan(i) for i in range(workload.window)]
    combos = {(len(p.config.inputs), p.config.function_name,
               p.config.deliver_to_third_party) for p in plans}
    assert combos == set(workloads.Sweep.combos)


def test_metric_names_match_benchmark_json(tmp_path):
    tally = measure.drive(workloads.make("sweep", 1), windows=1)
    e2e = measure.end_to_end(tally, [0.1], measure.peak_rss_mb())
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value, _ in e2e.values())

    tally, per_layer, differing = measure.traced("sweep", 1, 0,
                                                 tmp_path / "spans.csv")
    assert sorted(per_layer) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in per_layer.items()} == units
    assert differing == 0 and tally.failed == 0
    # Two parties plus the null and contract accounts.
    assert per_layer["ledger.accounts"][0] == 4
    assert per_layer["crypto.new_result_keys.self_us"][0] > 0
    lines = (tmp_path / "spans.csv").read_text().splitlines()
    assert lines[0] == "op,name,start_ns,end_ns,parent"
    assert len(lines) > tally.ops


def test_claim_race_traced_layers():
    _, per_layer, differing = measure.traced("claim_race", 1, 0, None)
    assert differing == 0
    assert per_layer["ledger.submit_transaction.calls"][0] == 1
    assert per_layer["crypto.canonical_json_bytes.calls"][0] == 0
    assert per_layer["ledger.accounts"][0] > 500


def test_instrument_restores_the_program():
    original = vars(ledger.Ledger)["submit_transaction"]
    with spans.instrument(spans.SpanLog()):
        assert vars(ledger.Ledger)["submit_transaction"] is not original
    assert vars(ledger.Ledger)["submit_transaction"] is original


def test_self_time_subtracts_children():
    log = spans.SpanLog()
    inner = log.span("inner", lambda: sum(range(20000)))
    outer = log.span("outer", lambda: inner() + inner())
    log.run_op(outer)
    self_ns, calls = log.totals()
    durations = {log.names[n]: 0 for n in log.name}
    for i, n in enumerate(log.name):
        durations[log.names[n]] += log.end[i] - log.start[i]
    assert calls == {"op": 1, "outer": 1, "inner": 2}
    assert self_ns["inner"] == durations["inner"]
    assert self_ns["outer"] == durations["outer"] - durations["inner"]
    assert self_ns["op"] == durations["op"] - durations["outer"]


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(program.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_spread_of_one_run_is_zero():
    import repeat

    assert repeat.spread([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5,
                                    "spread": 0.0}
