from __future__ import annotations

import json

import pytest

from teescrow.cli import main

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


def test_payoffs_grid_file(capsys, tmp_path):
    other = dict(SMALL, payment=20)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([SMALL, other]))
    code, out, _ = run_cli(capsys, "payoffs", "--grid", str(grid),
                           "--format", "json")
    assert code == 0
    # One JSON document per grid entry.
    docs = json.loads("[" + out.replace("}\n{", "},\n{") + "]")
    assert len(docs) == 2


def test_payoffs_degenerate_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SMALL, value_of_result=10)))
    code, _, err = run_cli(capsys, "payoffs", "--config", str(bad))
    assert code == 2
    assert "config error" in err


def test_gas_table_has_published_total(capsys):
    code, out, _ = run_cli(capsys, "gas", "--tier", "standard")
    assert code == 0
    assert "582159" in out


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
], ids=["string-amount", "zero-gas", "float-seconds",
        "negative-requestor-deposit", "negative-node-deposit"])
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


def test_scenario_strategy_from_config_file(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL, requestor_strategy="no-confirm")))
    code, out, _ = run_cli(capsys, "scenario", "--config", str(path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["requestorPayoff"] == 85  # no-confirm, not honest


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "a config must be a JSON object"),
    ("nope", "grid is not valid JSON"),
], ids=["entry-not-an-object", "not-json"])
def test_payoffs_bad_grid_exits_2(capsys, tmp_path, text, message):
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    code, _, err = run_cli(capsys, "payoffs", "--grid", str(grid))
    assert code == 2
    assert f"config error: {message}" in err


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
    assert "malformed trace: KeyError('nodeBalanceDelta')" in err
