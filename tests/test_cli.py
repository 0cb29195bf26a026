from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st
from conftest import FormatsAsSeven
from test_golden_traces import RUNNER_SETUPS, golden_configs
from test_harness import RACES, race_config

import teescrow
from teescrow import actors, cli
from teescrow.cli import EXIT_CLOSED_STDOUT, main
from teescrow.config import (
    INT_LIMIT,
    MAX_RESUBMITS,
    NODE_STRATEGIES,
    REQUESTOR_STRATEGIES,
    ConfigInvalid,
    ScenarioConfig,
)
from teescrow.enclave import BUILTIN_BODIES, EnclaveHost
from teescrow.harness import ScenarioRunner
from teescrow.ledger import (
    DEFAULT_CONFIRMATION_DELAY,
    DEFAULT_GAS_PER_FUNCTION,
    TIERS,
)

UNIT = 10**18

SMALL = {
    "value_of_result": 100,
    "payment": 10,
    "compute_cost": 3,
    "threshold": 5,
    "initial_balance": 1000,
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_default_json(capsys):
    code, out, _ = run_cli(capsys, "scenario", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["requestorPayoff"] == 90 * UNIT
    assert obj["nodePayoff"] == 7 * UNIT
    assert obj["receivedValidResult"] is True
    assert obj["infoFlowViolations"] == []


def test_scenario_with_config_and_strategies(capsys, config_file):
    code, out, _ = run_cli(
        capsys, "scenario", "--config", config_file,
        "--requestor", "no-confirm", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["requestorPayoff"] == 85
    assert obj["nodePayoff"] == -3
    assert obj["lockedInContract"] == 15


def test_scenario_table_format(capsys, config_file):
    code, out, _ = run_cli(capsys, "scenario", "--config", config_file)
    assert code == 0
    assert "requestorPayoff" in out
    assert "90" in out


def test_scenario_output_stable_for_fixed_seed(capsys, config_file):
    _, first, _ = run_cli(capsys, "scenario", "--config", config_file,
                          "--seed", "5", "--format", "json")
    _, second, _ = run_cli(capsys, "scenario", "--config", config_file,
                           "--seed", "5", "--format", "json")
    assert first == second


def test_scenario_export_and_inspect_roundtrip(capsys, tmp_path, config_file):
    trace_file = str(tmp_path / "trace.jsonl")
    code, _, _ = run_cli(capsys, "scenario", "--config", config_file,
                         "--node", "compute-no-deliver",
                         "--export-trace", trace_file)
    assert code == 0
    code, out, _ = run_cli(capsys, "inspect", "--trace", trace_file,
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["reconstructionOk"] is True
    assert obj["requestorPayoff"] == -15


@pytest.mark.parametrize("race", RACES)
@pytest.mark.parametrize("tier", TIERS)
def test_inspect_replays_a_race(capsys, tmp_path, tier, race):
    """A run whose reveal races the requestor's timeout, won by either."""
    config, trace_file = tmp_path / "config.json", str(tmp_path / "t.jsonl")
    config.write_text(json.dumps(race_config(tier, race).to_json_obj()))
    code, _, _ = run_cli(capsys, "scenario", "--config", str(config),
                         "--export-trace", trace_file)
    assert code == 0
    code, out, _ = run_cli(capsys, "inspect", "--trace", trace_file,
                           "--format", "json")
    assert (code, json.loads(out)["reconstructionOk"]) == (0, True)


def test_export_writes_the_trace_bytes(capsys, tmp_path, config_file):
    # No newline translation: the file is the trace, on every OS.
    trace_file = tmp_path / "trace.jsonl"
    run_cli(capsys, "scenario", "--config", config_file,
            "--export-trace", str(trace_file))
    runner = ScenarioRunner(ScenarioConfig(**SMALL))
    runner.run()
    assert trace_file.read_bytes() == runner.trace.to_jsonl().encode()


def test_inspect_rejects_edited_trace(capsys, tmp_path, config_file):
    trace_file = tmp_path / "trace.jsonl"
    run_cli(capsys, "scenario", "--config", config_file,
            "--export-trace", str(trace_file))
    lines = trace_file.read_text().splitlines()
    doctored = []
    for line in lines:
        record = json.loads(line)
        if record.get("type") == "outcome":
            record["requestorPayoff"] += 1
        doctored.append(json.dumps(record, sort_keys=True,
                                   separators=(",", ":")))
    trace_file.write_text("\n".join(doctored) + "\n")
    code, out, _ = run_cli(capsys, "inspect", "--trace", str(trace_file),
                           "--format", "json")
    assert code == 1
    assert json.loads(out)["reconstructionOk"] is False


def test_inspect_missing_file(capsys):
    code, _, err = run_cli(capsys, "inspect", "--trace", "/no/such/file")
    assert code == 2
    assert "file not found" in err


def test_payoffs_json_all_nine_cells(capsys, config_file):
    code, out, _ = run_cli(capsys, "payoffs", "--config", config_file,
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["cells"]) == 9
    assert obj["cells"]["honest/honest"]["requestorPayoff"] == 90
    assert obj["cells"]["honest/claim-only"]["nodePayoff"] == -5


def test_payoffs_text_table(capsys):
    code, out, _ = run_cli(capsys, "payoffs")
    assert code == 0
    header, *rows = out.splitlines()
    assert len(rows) == 3
    assert header.split() == ["requestor", "\\", "node", *NODE_STRATEGIES]
    assert rows[0].startswith("honest ")
    assert ("90000000000000000000 / 7000000000000000000"
            in rows[0].split("  "))


def test_matrix_text_table_lists_all_cells(capsys, config_file):
    _, table, _ = run_cli(capsys, "payoffs", "--config", config_file)
    assert "claim-only" in table and "withhold-input" in table
    assert "90 / 7" in table


def test_payoffs_exits_1_on_a_host_leak(capsys, monkeypatch):
    provision = EnclaveHost.provision

    def leaky(self, instance, *args, task_id):
        provision(self, instance, *args, task_id=task_id)
        self.flow.grant(task_id, "inputs")

    monkeypatch.setattr(EnclaveHost, "provision", leaky)
    code, out, _ = run_cli(capsys, "payoffs")
    assert code == 1
    assert len(out.splitlines()) == 4


#: A config whose no-confirm requestor saves more confirmation gas than it
#: forfeits in deposit: outside the rational regime.
GAS_IN_PAYOFFS = {"gas_charging": True, "include_gas_in_payoffs": True,
                  "threshold": 10**15}
NO_CONFIRM_PAYS = ("requestor no-confirm (89995945109497737360) not "
                   "dominated by honest (89995775867417885814)")


def test_payoffs_exits_1_on_a_dominance_violation(capsys, monkeypatch,
                                                   tmp_path):
    # The regime admits no config that violates dominance; made to admit
    # this one, the command prints the same tables, then each violation.
    monkeypatch.setattr(ScenarioConfig, "in_rational_regime", True)
    config = tmp_path / "gas.json"
    config.write_text(json.dumps(GAS_IN_PAYOFFS))
    code, out, err = run_cli(capsys, "payoffs", "--config", str(config))
    assert (code, err) == (1, f"dominance violation: {NO_CONFIRM_PAYS}\n")
    assert len(out.splitlines()) == 4
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([SMALL, GAS_IN_PAYOFFS]))
    code, grid_out, err = run_cli(capsys, "payoffs", "--grid", str(grid))
    assert (code, err) == (
        1, f"dominance violation: entry 2: {NO_CONFIRM_PAYS}\n")
    assert grid_out.endswith(out) and len(grid_out.splitlines()) == 8
    # Without a violation the command exits 0 and writes no stderr.
    grid.write_text(json.dumps([SMALL, dict(SMALL, payment=20)]))
    assert run_cli(capsys, "payoffs", "--grid", str(grid))[::2] == (0, "")


def test_payoffs_grid_file(capsys, tmp_path):
    other = dict(SMALL, payment=20)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([SMALL, other]))
    code, out, _ = run_cli(capsys, "payoffs", "--grid", str(grid),
                           "--format", "json")
    assert code == 0
    # One JSON list, with one object per grid entry.
    docs = json.loads(out)
    assert [doc["config"]["payment"] for doc in docs] == [10, 20]


def test_payoffs_grid_and_config_exclusive(capsys, tmp_path, config_file):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([SMALL]))
    with pytest.raises(SystemExit) as excinfo:
        main(["payoffs", "--grid", str(grid), "--config", config_file])
    assert excinfo.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_payoffs_seed_applies_to_every_grid_entry(capsys, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([SMALL, dict(SMALL, rng_seed=3)]))
    code, out, _ = run_cli(capsys, "payoffs", "--grid", str(grid),
                           "--seed", "7", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert [doc["config"]["rng_seed"] for doc in docs] == [7, 7]
    # The same seed draws the same secrets in both matrices.
    assert [doc["cells"]["honest/honest"]["traceId"] for doc in docs] == [
        docs[0]["cells"]["honest/honest"]["traceId"]] * 2


@pytest.mark.parametrize("config", [dict(SMALL, value_of_result=10),
                                    GAS_IN_PAYOFFS],
                         ids=["value-is-payment", "gas-in-payoffs"])
def test_payoffs_degenerate_config_exits_2(capsys, tmp_path, config):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "payoffs", "--config", str(bad))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("config error: parameters outside the rational "
                           "regime (need cost > 0, value - payment > "
                           "g(submitTask) + g(finalizeRequestor), ")


def test_gas_table_has_published_total(capsys):
    code, out, _ = run_cli(capsys, "gas", "--tier", "standard")
    assert code == 0
    assert "582159" in out


def test_gas_report_table_output(capsys):
    _, table, _ = run_cli(capsys, "gas", "--tier", "standard")
    assert "Total per task" in table
    assert "582159" in table


def test_gas_json_per_function(capsys):
    code, out, _ = run_cli(capsys, "gas", "--tier", "slow", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["perFunctionGas"]["submitTask"] == 277880
    assert obj["tier"] == "slow"


def test_latency_json(capsys):
    code, out, _ = run_cli(capsys, "latency", "--tier", "fast",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["onChainSeconds"] == 480


@pytest.mark.parametrize("gas", [False, True],
                         ids=["gas-excluded", "gas-in-payoffs"])
@pytest.mark.parametrize("tier", TIERS)
def test_reports_refuse_a_result_past_the_deadline(capsys, tmp_path, tier,
                                                   gas):
    """At 2 * delay + execution_delay = expires the honest result arrives
    just in time; one second later the requestor's timeout is sent first."""
    edge = ScenarioConfig.expires - 2 * DEFAULT_CONFIRMATION_DELAY[tier]
    for delay, want in ((edge, 0), (edge + 1, 2)):
        config = tmp_path / f"{delay}.json"
        config.write_text(json.dumps({
            "tier": tier, "execution_delay": delay, "gas_charging": gas,
            "include_gas_in_payoffs": gas}))
        for command in (["payoffs"], ["latency", "--tier", tier]):
            code, _, err = run_cli(capsys, *command, "--config", str(config))
            assert code == want, command
            if want:
                assert err.startswith("config error: ")
                assert ("2 * confirmation delay + execution_delay <= expires"
                        in err)
            else:
                assert err == ""
    # Latency judges the config at the report's tier.
    code, _, _ = run_cli(capsys, "latency", "--tier", "fast",
                         "--config", str(config))
    assert code == (0 if tier != "fast" else 2)


def _report_invocations() -> list[tuple[str, ...]]:
    """The report commands: gas and latency on every tier, gas and latency
    under overrides, payoffs on the default config and on a grid."""
    invocations = []
    for fmt in ("table", "json"):
        for tier in TIERS:
            invocations.append(("gas", "--tier", tier, "--format", fmt))
            invocations.append(("latency", "--tier", tier, "--format", fmt))
        invocations += [
            ("gas", "--tier", "fast", "--config", "gas.json", "--format", fmt),
            ("latency", "--tier", "slow", "--config", "gas.json",
             "--format", fmt),
            ("payoffs", "--format", fmt),
            ("payoffs", "--grid", "grid.json", "--format", fmt),
        ]
    return invocations


#: SHA-256 over (argv, exit code, stdout) of every report invocation, in
#: order: the report commands' exact output.
REPORT_OUTPUT_DIGEST = "ba6155b5bebf691e"


def test_report_output_unchanged(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("gas.json").write_text(json.dumps({
        "gas_per_function": {"submitTask": 300_000, "claimTask": 1},
        "gas_price_per_tier": {"fast": 7 * 10**10},
        "confirmation_delay_per_tier": {"slow": 33},
        "execution_delay": 5}))
    Path("grid.json").write_text(json.dumps([SMALL, dict(SMALL, payment=20)]))
    digest = hashlib.sha256()
    for argv in _report_invocations():
        code, out, _ = run_cli(capsys, *argv)
        digest.update(json.dumps([argv, code, out]).encode())
    assert digest.hexdigest()[:16] == REPORT_OUTPUT_DIGEST


def test_unknown_strategy_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["scenario", "--requestor", "vigilante"])
    assert excinfo.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_config_file_unknown_key_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SMALL, fee=1)))
    code, _, err = run_cli(capsys, "scenario", "--config", str(bad))
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("override, message", [
    ({"payment": "10"}, "payment must be an integer"),
    ({"gas_per_function": {"submitTask": 0}}, "must be positive"),
    ({"expires": 1.5}, "expires must be an integer"),
    ({"requestor_deposit": -3}, "requestor_deposit must equal threshold"),
    ({"node_deposit": -7}, "node_deposit must be at least the threshold"),
    # -1.0 == -1, so the type check must run before -1 derives a deposit.
    ({"node_deposit": -1.0}, "node_deposit must be an integer"),
], ids=["string-amount", "zero-gas", "float-seconds",
        "negative-requestor-deposit", "negative-node-deposit",
        "float-derive-deposit"])
def test_config_file_bad_value_exits_2(capsys, tmp_path, override, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SMALL, **override)))
    code, _, err = run_cli(capsys, "scenario", "--config", str(bad))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("override, message", [
    ({"gas_per_function": {"submitTsk": 5}},
     "unknown gas_per_function keys: ['submitTsk']"),
    ({"gas_price_per_tier": {"medium": 5}},
     "unknown gas_price_per_tier keys: ['medium']"),
    ({"confirmation_delay_per_tier": {"medium": 5}},
     "unknown confirmation_delay_per_tier keys: ['medium']"),
], ids=["gas-per-function", "gas-price-per-tier", "delay-per-tier"])
def test_override_map_unknown_key_exits_2(capsys, tmp_path, override,
                                          message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SMALL, **override)))
    for argv in (["scenario"], ["gas", "--tier", "slow"]):
        code, out, err = run_cli(capsys, *argv, "--config", str(bad))
        assert code == 2
        assert message in err
        assert out == ""


#: Amounts that each pass the value rules, but a claim-only run of
#: them would lock about 1.6 * 10^4300 in the contract: more digits than
#: Python writes as a string.
_UNWRITABLE = dict(SMALL, node_strategy="claim-only",
                   initial_balance=int("9" * 4300), threshold=6 * 10**4299,
                   node_deposit=int("9" * 4300))


@pytest.mark.parametrize("config, argv", [
    (_UNWRITABLE, ["scenario"]),
    (_UNWRITABLE, ["payoffs"]),
    # Its per-task bill in ether does not fit a float.
    ({"gas_price_per_tier": {"slow": int("9" * 331)}},
     ["gas", "--tier", "slow", "--format", "json"]),
], ids=["scenario", "payoffs", "gas"])
def test_amount_too_wide_exits_2(capsys, tmp_path, config, argv):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *argv, "--config", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert "below 2**256 in magnitude" in err


@pytest.mark.parametrize("field", ["payment", "rng_seed", "gas_price_per_tier"])
def test_config_integers_stop_at_2_to_the_256(field):
    def config(value):
        if field == "gas_price_per_tier":
            value = {"slow": value}
        return ScenarioConfig(**{field: value})

    for value in (2**256 - 1, -(2**256) + 1):
        # Within the bound: refused, if at all, by a value rule.
        try:
            config(value)
        except ConfigInvalid as exc:
            assert "2**256" not in str(exc)
    for value in (2**256, -(2**256), 10**5000):
        with pytest.raises(ConfigInvalid, match="below 2\\*\\*256"):
            config(value)


def test_gas_report_at_the_widest_amounts(capsys, tmp_path):
    widest = 2**256 - 1
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "gas_price_per_tier": {"slow": widest},
        "gas_per_function": dict.fromkeys(DEFAULT_GAS_PER_FUNCTION, widest)}))
    code, out, _ = run_cli(capsys, "gas", "--tier", "slow", "--format",
                           "json", "--config", str(path))
    assert code == 0
    assert json.loads(out)["totalPerTaskCostEther"] < float("inf")


@pytest.mark.parametrize("config, argv, message", [
    ({"initial_balance": 11 * UNIT, "max_resubmits": 5},
     ["--requestor", "withhold-input"], "cannot fund the requestor"),
    ({"gas_charging": True, "initial_balance": 10 * UNIT + 5 * 10**17},
     [], "cannot fund the requestor"),
    (dict(SMALL, node_deposit=400, max_resubmits=2),
     ["--node", "claim-only"], "cannot fund the node"),
    (dict(SMALL, max_resubmits=-1), [], "max_resubmits must be non-negative"),
], ids=["resubmits", "gas", "node-deposits", "negative-resubmits"])
def test_unfundable_config_exits_2(capsys, tmp_path, config, argv, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "scenario", "--config", str(bad), *argv)
    assert code == 2
    assert message in err


#: Funds every task a run at the resubmit cap, and one past it, can lock.
_LONG_RUN = {"requestor_strategy": "withhold-input",
             "initial_balance": 10**39}


@pytest.mark.parametrize("command", ["scenario", "payoffs"])
def test_resubmits_past_the_cap_exit_2(capsys, tmp_path, command):
    long = tmp_path / "long.json"
    long.write_text(json.dumps(dict(_LONG_RUN,
                                    max_resubmits=MAX_RESUBMITS + 1)))
    code, out, err = run_cli(capsys, command, "--config", str(long))
    assert (code, out) == (2, "")
    assert err == f"config error: max_resubmits must be at most {MAX_RESUBMITS}\n"


def test_resubmits_at_the_cap_are_valid():
    ScenarioConfig(**_LONG_RUN, max_resubmits=MAX_RESUBMITS)


def test_scenario_strategy_from_config_file(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL, requestor_strategy="no-confirm")))
    code, out, _ = run_cli(capsys, "scenario", "--config", str(path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["requestorPayoff"] == 85  # no-confirm, not honest


@pytest.mark.parametrize("config, message", [
    ({"threshold": 0}, "threshold must be positive"),
    ({"node_strategy": "bogus"}, "unknown node strategy 'bogus'"),
], ids=["threshold", "strategy"])
@pytest.mark.parametrize("command", ["gas", "latency"])
def test_reports_refuse_an_invalid_config(capsys, tmp_path, command, config,
                                          message):
    """A config no run could use is refused by the reports too, although
    ``latency`` runs its own strategies and ``gas`` runs nothing."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--tier", "slow", "--config",
                             str(bad))
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("entry, message", [
    ({"compute_cost": 0}, "parameters outside the rational regime"),
    ({"threshold": 0}, "threshold must be positive"),
], ids=["outside-the-regime", "invalid"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_payoffs_refuses_a_grid_before_printing(capsys, tmp_path, entry,
                                                message, fmt):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([SMALL, entry]))
    code, out, err = run_cli(capsys, "payoffs", "--grid", str(grid),
                             "--format", fmt)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith(f"config error: entry 2: {message}")


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "entry 1: a config must be a JSON object"),
    ("nope", "grid is not valid JSON"),
], ids=["entry-not-an-object", "not-json"])
def test_payoffs_bad_grid_exits_2(capsys, tmp_path, text, message):
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    code, _, err = run_cli(capsys, "payoffs", "--grid", str(grid))
    assert code == 2
    assert f"config error: {message}" in err


@pytest.mark.parametrize("argv, text, message", [
    (["scenario", "--config"], json.dumps(dict(SMALL, node_strategy="bogus")),
     "unknown node strategy 'bogus'"),
    (["scenario", "--config"], json.dumps(dict(SMALL, tier="medium")),
     "unknown tier 'medium'"),
    (["scenario", "--config"], json.dumps(dict(SMALL, payment=-1)),
     "payment must be non-negative"),
    (["scenario", "--config"], json.dumps(dict(SMALL, execution_delay=-1)),
     "execution_delay must be non-negative"),
    (["payoffs", "--grid"], json.dumps(SMALL),
     "grid file must hold a JSON list"),
], ids=["node-strategy", "tier", "negative-payment",
        "negative-execution-delay", "grid-not-a-list"])
def test_invalid_config_file_exits_2_with_one_line(capsys, tmp_path, argv,
                                                   text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(bad))
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_number_exits_2(capsys, tmp_path, token):
    # A trace that repeated the value would not be strict JSON.
    config = tmp_path / "config.json"
    config.write_text(f'{{"inputs": [1.5, {token}]}}')
    grid = tmp_path / "grid.json"
    grid.write_text(f'[{{"inputs": [{token}]}}]')
    trace = tmp_path / "trace.jsonl"
    for argv in (["scenario", "--config", str(config),
                  "--export-trace", str(trace)],
                 ["payoffs", "--config", str(config)],
                 ["payoffs", "--grid", str(grid)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"config error: {token} is not a finite number" in err
        assert out == ""
    assert not trace.exists()


@pytest.mark.parametrize("data, message", [
    (b'{"inputs": "\xff"}', "'utf-8' codec can't decode"),
    (b'{"rng_seed": ' + b"1" * 5000 + b"}", "Exceeds the limit"),
    (b'{"inputs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
     "maximum recursion depth exceeded"),
], ids=["not-utf-8", "int-past-digit-limit", "nested-100000"])
def test_unreadable_json_exits_2(capsys, tmp_path, data, message):
    config = tmp_path / "config.json"
    config.write_bytes(data)
    grid = tmp_path / "grid.json"
    grid.write_bytes(b"[" + data + b"]")
    for flag, path, what in (("--config", config, "config"),
                             ("--grid", grid, "grid")):
        code, _, err = run_cli(capsys, "payoffs", flag, str(path))
        assert code == 2
        assert f"config error: {what} is not valid JSON: " in err
        assert message in err


def test_inspect_directory_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "inspect", "--trace", str(tmp_path))
    assert code == 2
    assert "not a file" in err


@pytest.mark.parametrize("argv", [
    ("scenario", "--config"),
    ("payoffs", "--grid"),
    ("inspect", "--trace"),
    ("scenario", "--export-trace"),
], ids=["config", "grid", "trace", "export-trace"])
def test_path_through_a_regular_file_exits_2(capsys, tmp_path, argv):
    regular = tmp_path / "regular"
    regular.write_text("{}")
    code, out, err = run_cli(capsys, *argv, str(regular / "x"))
    assert code == 2
    assert out == ""
    assert err == f"cannot open: {regular / 'x'}\n"


def test_an_error_with_no_path_is_raised(capsys, monkeypatch):
    # An OSError that names no file is not a usage error: main lets it out.
    def failing(args):
        raise OSError(errno.EIO, "device failed")

    monkeypatch.setattr(cli, "_cmd_gas", failing)
    with pytest.raises(OSError) as raised:
        main(["gas", "--tier", "slow"])
    assert raised.value.errno == errno.EIO
    assert capsys.readouterr().err == ""


def test_inspect_non_json_trace_exits_1(capsys, tmp_path):
    trace_file = tmp_path / "trace.jsonl"
    for text in ("not json\n", "[" * 100_000 + "]" * 100_000 + "\n"):
        trace_file.write_text(text)
        code, _, err = run_cli(capsys, "inspect", "--trace", str(trace_file))
        assert code == 1
        assert "malformed trace" in err


def test_inspect_record_missing_field_exits_1(capsys, tmp_path, config_file):
    trace_file = tmp_path / "trace.jsonl"
    run_cli(capsys, "scenario", "--config", config_file,
            "--export-trace", str(trace_file))
    records = [json.loads(line)
               for line in trace_file.read_text().splitlines()]
    del records[-1]["nodeBalanceDelta"]  # the outcome record
    trace_file.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, _, err = run_cli(capsys, "inspect", "--trace", str(trace_file))
    assert code == 1
    # json.dumps puts a space after each separator, so the first line
    # already differs from the replay's.
    assert err == "trace mismatch: line 1 differs from the replay\n"


@pytest.mark.parametrize("argv", [
    ("gas", "--tier", "slow"),
    ("payoffs", "--format", "json"),
], ids=["short-output", "long-output"])
def test_closed_stdout_exits_quietly(argv):
    # The read end is closed before the child has imported anything, so its
    # first write (or its final flush, for short output) meets a closed pipe.
    src = str(Path(teescrow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    with subprocess.Popen([sys.executable, "-m", "teescrow.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as child:
        child.stdout.close()
        err = child.stderr.read().decode()
        code = child.wait(timeout=60)
    assert "Traceback" not in err
    assert "Exception ignored" not in err
    assert code == EXIT_CLOSED_STDOUT


# ----------------------------------------------------------------------
# inspect replays the recorded config and compares bytes


def _canonical(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _trace_lines(**overrides) -> list[str]:
    runner = ScenarioRunner(ScenarioConfig(**dict(SMALL, **overrides)))
    runner.run()
    return runner.trace.to_jsonl().splitlines(keepends=True)


def _inspect_bytes(path: Path, data: bytes) -> tuple[int, str, str]:
    """``inspect`` on a file holding ``data``: (exit code, stdout, stderr)."""
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["inspect", "--trace", str(path), "--format", "json"])
    return code, out.getvalue(), err.getvalue()


def _rename_confirm_zero_trace_id(lines):
    *body, outcome = lines
    record = json.loads(outcome)
    record["traceId"] = "0" * 16
    return [line.replace('"function":"finalizeRequestor"',
                         '"function":"timeout"') for line in body
            ] + [_canonical(record)]


def _drop_events_and_contract_state(lines):
    return [line for line in lines
            if json.loads(line)["type"] not in ("event", "contract_state")]


def _underpay(lines):
    record = json.loads(lines[0])
    record["config"]["payment"] = 1
    return [_canonical(record)] + lines[1:]


@pytest.mark.parametrize("forge", [
    _rename_confirm_zero_trace_id, _drop_events_and_contract_state, _underpay,
], ids=["confirm-renamed-timeout", "no-events-no-state", "payment-1"])
def test_inspect_rejects_forged_honest_trace(tmp_path, forge):
    lines = _trace_lines()
    assert _inspect_bytes(tmp_path / "t", "".join(lines).encode())[0] == 0
    code, out, err = _inspect_bytes(tmp_path / "t",
                                    "".join(forge(lines)).encode())
    assert code == 1
    assert json.loads(out)["reconstructionOk"] is False
    assert err.startswith("trace mismatch: line ")


def _bump(record, path):
    *keys, last = path
    for key in keys:
        record = record[key]
    record[last] += 1


#: Per record type, the path of one integer field to edit.
_EDITS = {
    "scenario": ("config", "expires"),
    "call": ("blockHeight",),
    "event": ("payload", "payment"),
    "enclave": ("instanceId",),
    "message": ("taskId",),
    "clock": ("now",),
    "contract_state": ("state", "threshold"),
    "outcome": ("requestorPayoff",),
}


@pytest.mark.parametrize("kind", sorted(_EDITS))
def test_inspect_rejects_one_edited_field(tmp_path, kind):
    # A no-confirm requestor facing an honest node writes every record type.
    lines = _trace_lines(requestor_strategy="no-confirm")
    number, record = next((n, json.loads(line))
                          for n, line in enumerate(lines, 1)
                          if json.loads(line)["type"] == kind)
    _bump(record, _EDITS[kind])
    lines[number - 1] = _canonical(record)
    code, _, err = _inspect_bytes(tmp_path / "t", "".join(lines).encode())
    assert code == 1
    # An edited config replays to other bytes further on.
    if kind != "scenario":
        assert err == f"trace mismatch: line {number} differs from the replay\n"


@pytest.mark.parametrize("edit, line", [
    (lambda lines: lines[:5] + lines[6:], 6),
    (lambda lines: lines[:6] + lines[5:], 7),
    (lambda lines: lines[:4] + [lines[5], lines[4]] + lines[6:], 5),
    (lambda lines: lines[:-1], 16),
    (lambda lines: [line.replace("\n", "\r\n") for line in lines], 1),
], ids=["dropped", "duplicated", "reordered", "truncated", "crlf"])
def test_inspect_rejects_moved_lines(tmp_path, edit, line):
    lines = _trace_lines(requestor_strategy="no-confirm")
    assert len(set(lines)) == len(lines) == 16
    code, _, err = _inspect_bytes(tmp_path / "t",
                                  "".join(edit(lines)).encode())
    assert code == 1
    assert err == f"trace mismatch: line {line} differs from the replay\n"


#: The golden runs a config file can make; the rest need a runner hook.
_FILE_CONFIGS = {name: config for name, config in golden_configs().items()
                 if name not in RUNNER_SETUPS}


@pytest.mark.parametrize("name", sorted(_FILE_CONFIGS))
def test_inspect_accepts_every_exported_golden_run(capsys, tmp_path, name):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(_FILE_CONFIGS[name].to_json_obj()))
    trace_file = tmp_path / "trace.jsonl"
    assert run_cli(capsys, "scenario", "--config", str(config_file),
                   "--export-trace", str(trace_file))[0] == 0
    code, out, err = run_cli(capsys, "inspect", "--trace", str(trace_file),
                             "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["reconstructionOk"] is True


@pytest.mark.parametrize("name", sorted(RUNNER_SETUPS))
def test_inspect_rejects_a_run_its_config_does_not_make(tmp_path, name):
    runner = ScenarioRunner(golden_configs()[name])
    RUNNER_SETUPS[name](runner)
    runner.run()
    code, _, err = _inspect_bytes(tmp_path / "t",
                                  runner.trace.to_jsonl().encode())
    assert code == 1
    assert err.startswith("trace mismatch: line ")


def _first_line(config) -> bytes:
    return _canonical({"config": config, "type": "scenario"}).encode()


@pytest.mark.parametrize("data, message", [
    (b"", "JSONDecodeError"),
    (b"\xff\n", "UnicodeDecodeError"),
    (_first_line([1]), "a config must be a JSON object"),
    (_first_line(dict(SMALL, fee=1)), "unknown config keys: ['fee']"),
    (_first_line(dict(SMALL, threshold=0)), "threshold must be positive"),
    (_first_line(dict(SMALL, payment="10")), "payment must be an integer"),
    (b'{"type":"scenario"}\n', "KeyError('config')"),
    (_first_line(_UNWRITABLE), "below 2**256 in magnitude"),
], ids=["empty", "not-utf-8", "config-not-an-object", "unknown-key",
        "out-of-range", "string-amount", "no-config",
        "unwritable-amount"])
def test_inspect_hostile_trace_exits_1(tmp_path, data, message):
    code, out, err = _inspect_bytes(tmp_path / "t", data)
    assert (code, out) == (1, "")
    assert err.startswith("malformed trace: ")
    assert message in err


def test_inspect_replays_no_more_tasks_than_the_file_submits(tmp_path,
                                                             monkeypatch):
    lines = _trace_lines(requestor_strategy="withhold-input", max_resubmits=3)
    record = json.loads(lines[0])
    record["config"].update(max_resubmits=MAX_RESUBMITS,
                            initial_balance=10**40)
    submitted = []
    submit = actors.RequestorActor._submit_task

    def counted(requestor, run):
        submitted.append(None)
        assert len(submitted) <= 4, "the replay outran the file"
        submit(requestor, run)

    monkeypatch.setattr(actors.RequestorActor, "_submit_task", counted)
    code, _, err = _inspect_bytes(tmp_path / "t", "".join(
        [_canonical(record)] + lines[1:]).encode())
    assert code == 1
    assert len(submitted) == 4
    # Only the outcome's traceId (a hash over the first line) differs.
    assert err == f"trace mismatch: line {len(lines)} differs from the replay\n"


# ----------------------------------------------------------------------
# every config the simulator accepts writes a trace inspect accepts


_INT_FIELDS = ("value_of_result", "payment", "compute_cost", "threshold",
               "requestor_deposit", "node_deposit", "expires", "rng_seed",
               "execution_delay", "initial_balance", "max_resubmits")
_AMOUNT_FIELDS = ("value_of_result", "payment", "compute_cost", "threshold",
                  "requestor_deposit", "node_deposit", "initial_balance")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=8)


@st.composite
def _config_fields(draw):
    """Every field, drawn so that most configs can be built."""
    threshold = draw(st.integers(1, 20))
    fields = dict(
        requestor_strategy=draw(st.sampled_from(REQUESTOR_STRATEGIES)),
        node_strategy=draw(st.sampled_from(NODE_STRATEGIES)),
        value_of_result=draw(st.integers(0, 40)),
        payment=draw(st.integers(0, 40)),
        compute_cost=draw(st.integers(0, 40)),
        threshold=threshold,
        requestor_deposit=draw(st.sampled_from([-1, threshold])),
        node_deposit=draw(st.just(-1) | st.integers(threshold, 3 * threshold)),
        expires=draw(st.integers(1, 10**6)),
        tier=draw(st.sampled_from(TIERS)),
        rng_seed=draw(st.integers()),
        execution_delay=draw(st.integers(0, 10**4)),
        gas_charging=draw(st.booleans()),
        include_gas_in_payoffs=draw(st.booleans()),
        deliver_to_third_party=draw(st.booleans()),
        function_name=draw(st.sampled_from(sorted(BUILTIN_BODIES))),
        inputs=draw(_JSON_VALUES),
        # Gas at the default prices needs about 10^16 per party.
        initial_balance=draw(st.integers(10**16, 10**22)
                             | st.integers(0, 200)),
        max_resubmits=draw(st.integers(0, 3)),
        gas_per_function=draw(st.dictionaries(
            st.sampled_from(sorted(DEFAULT_GAS_PER_FUNCTION)),
            st.integers(1, 10**6), max_size=2)),
        gas_price_per_tier=draw(st.dictionaries(
            st.sampled_from(TIERS), st.integers(1, 10**12), max_size=2)),
        confirmation_delay_per_tier=draw(st.dictionaries(
            st.sampled_from(TIERS), st.integers(0, 10**3), max_size=2)),
    )
    # In one draw of four, every amount scaled up to at most the config
    # integer bound, so a run derives amounts as wide as a config allows.
    if draw(st.sampled_from([False, False, False, True])):
        prices = fields["gas_price_per_tier"]
        amounts = [name for name in _AMOUNT_FIELDS if fields[name] != -1]
        widest = max([fields[name] for name in amounts] + list(prices.values()))
        limit = (INT_LIMIT - 1) // widest
        factor = draw(st.integers(1, limit) | st.just(limit))
        fields.update((name, fields[name] * factor) for name in amounts)
        fields["gas_price_per_tier"] = {
            tier: price * factor for tier, price in prices.items()}
    # In one draw of eight, the inputs of ``sum`` are an object whose keys
    # are not strings, which JSON would write as strings: the run would add
    # the keys it has, and the replay fault on the ones the trace holds.
    if draw(st.sampled_from([False] * 7 + [True])):
        keys = draw(st.sampled_from(
            [st.none(), st.booleans(), st.integers(), st.floats()]))
        fields["function_name"] = "sum"
        fields["inputs"] = draw(st.dictionaries(keys, _JSON_VALUES,
                                                min_size=1, max_size=3))
    # In one draw of four, one integer field or override map subclassed.
    if draw(st.sampled_from([False, False, False, True])):
        wrapped = draw(st.sampled_from(
            _INT_FIELDS + ("gas_per_function", "gas_price_per_tier",
                           "confirmation_delay_per_tier")))
        value = fields[wrapped]
        fields[wrapped] = (
            FormatsAsSeven(value) if wrapped in _INT_FIELDS
            else {key: FormatsAsSeven(v) for key, v in value.items()})
    return fields


@settings(max_examples=150, deadline=None)
@given(fields=_config_fields())
def test_every_accepted_config_writes_a_trace_inspect_accepts(
        tmp_path_factory, fields):
    try:
        runner = ScenarioRunner(ScenarioConfig(**fields))
    except ConfigInvalid as exc:
        note(f"refused: {exc}")
        return
    runner.run()
    data = runner.trace.to_jsonl()
    for line in data.splitlines(keepends=True):
        assert _canonical(json.loads(line)) == line
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    code, out, err = _inspect_bytes(path, data.encode())
    assert (code, err) == (0, ""), err
    assert json.loads(out)["reconstructionOk"] is True
