from __future__ import annotations

import dataclasses
import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_traces import RUNNER_SETUPS, golden_configs

from teescrow import config as config_module
from teescrow.config import (
    NODE_STRATEGIES,
    REQUESTOR_STRATEGIES,
    ConfigInvalid,
    ScenarioConfig,
)
from teescrow.contract import EscrowContract, RefusalReason, Task, TaskState
from teescrow.harness import (
    ScenarioOutcome,
    ScenarioRunner,
    Trace,
    dominance_check,
    gas_report,
    latency_report,
    payoff_matrix,
    run_claim_race,
    run_scenario,
)
from teescrow.ledger import NULL_ACCOUNT, Ledger

CFG = ScenarioConfig(value_of_result=100, payment=10, compute_cost=3,
                     threshold=5, initial_balance=1000)


def table_payoffs(value, payment, cost, dep_r, dep_e):
    """Closed-form per-scenario payoffs, evaluated independently."""
    return {
        ("honest", "honest"): (value - payment, payment - cost),
        ("honest", "claim-only"): (-dep_r, -dep_e),
        ("honest", "compute-no-deliver"): (-(payment + dep_r), -cost),
        ("no-confirm", "honest"): (value - payment - dep_r, -cost),
    }


# ----------------------------------------------------------------------
# scenarios and the payoff matrix


def test_named_scenarios_match_formulas():
    expected = table_payoffs(100, 10, 3, 5, 5)
    for (r, n), (req, node) in expected.items():
        outcome = run_scenario(CFG.with_strategies(r, n))
        assert (outcome.requestor_payoff, outcome.node_payoff) == (req, node)


def test_payoff_matrix_random_draws():
    rng = random.Random(99)
    for _ in range(25):
        cost = rng.randint(1, 30)
        payment = cost + rng.randint(1, 30)
        value = payment + rng.randint(1, 60)
        threshold = rng.randint(1, 20)
        deposit = threshold + rng.randint(0, 10)
        config = ScenarioConfig(
            value_of_result=value, payment=payment, compute_cost=cost,
            threshold=threshold, node_deposit=deposit,
            initial_balance=value + payment + deposit + threshold + 100,
            rng_seed=rng.randint(0, 2**31),
        )
        matrix = payoff_matrix(config)
        for cell, (req, node) in table_payoffs(
                value, payment, cost, threshold, deposit).items():
            outcome = matrix.outcome(*cell)
            assert (outcome.requestor_payoff, outcome.node_payoff) == (req, node)


def test_payoff_matrix_rejects_degenerate_regime():
    with pytest.raises(ConfigInvalid):
        payoff_matrix(dataclasses.replace(CFG, value_of_result=CFG.payment))


def test_matrix_text_table_lists_all_cells():
    table = payoff_matrix(CFG).to_text_table()
    assert "claim-only" in table and "withhold-input" in table
    assert "90 / 7" in table


def test_outcome_locked_funds_claim_only():
    outcome = run_scenario(CFG.with_strategies("honest", "claim-only"))
    assert outcome.locked_in_contract == CFG.threshold + CFG.node_deposit


def test_locked_funds_never_decrease_after_timeout():
    from teescrow.ledger import CONTRACT_ACCOUNT, ContractCall

    runner = ScenarioRunner(CFG.with_strategies("honest", "claim-only"))
    runner.run()
    ledger = runner.ledger
    locked = ledger.balance(CONTRACT_ACCOUNT)
    # Nothing anyone does afterwards can free the dead task's deposits.
    for sender in (runner.requestor_account, runner.node_account):
        for function in ("finalizeExecutionNode", "finalizeRequestor",
                         "timeout"):
            args = {"task_id": 0}
            if function == "finalizeExecutionNode":
                args["secret"] = bytes(32)
            receipt = ledger.submit_transaction(
                sender, ContractCall(function, args), 0, "standard")
            assert not receipt.outcome.accepted
    assert ledger.balance(CONTRACT_ACCOUNT) == locked


def test_trace_determinism_same_seed():
    config = CFG.with_strategies("no-confirm", "compute-no-deliver")
    a = ScenarioRunner(config)
    a.run()
    b = ScenarioRunner(config)
    b.run()
    assert a.trace.to_jsonl() == b.trace.to_jsonl()


def _canonical_lines(records) -> str:
    # Bytes values (the hash lock and secret args) are written as hex.
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":"),
                              default=bytes.hex) + "\n"
                   for r in records)


#: The nine strategy pairs on ``CFG``, then every golden-trace case, so the
#: refused, timeout, third-party, gas, tamper and enclave-failure records
#: are all encoded and compared.
_STORED_TRACE_CASES = [
    pytest.param(CFG.with_strategies(*pair), None, id=f"pair{i}")
    for i, pair in enumerate(product(REQUESTOR_STRATEGIES, NODE_STRATEGIES))
] + [
    pytest.param(config, RUNNER_SETUPS.get(name), id=name)
    for name, config in sorted(golden_configs().items())
]


@pytest.mark.parametrize("config, setup", _STORED_TRACE_CASES)
def test_stored_trace_lines_match_records(config, setup):
    # The records are parsed from the stored lines, so every line must be
    # its own canonical encoding.
    runner = ScenarioRunner(config)
    if setup is not None:
        setup(runner)
    runner.run()
    assert runner.trace.to_jsonl() == _canonical_lines(runner.trace.records)


# Strings that need escaping or are not ASCII, and ints at and past the
# edges of fixed-width types; hypothesis mixes in arbitrary values too.
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600aZ09')
                | st.characters())
_INT = (st.sampled_from([0, -1, 2**63, 2**64, 2**64 + 1, -(2**64) - 1])
        | st.integers())
_BYTES = st.binary(max_size=40)


def _record(**fields):
    return st.fixed_dictionaries(
        {key: st.just(value) if isinstance(value, str) else value
         for key, value in fields.items()})


_OUTCOMES = (_record(accepted=st.just(True), taskId=_INT)
             | _record(accepted=st.just(False), reason=_TEXT))
_CALL_ARGS = {
    "submitTask": _record(expires=_INT, function_name=_TEXT,
                          hash_lock=_BYTES),
    "claimTask": _record(task_id=_INT),
    "finalizeExecutionNode": _record(secret=_BYTES, task_id=_INT),
    "finalizeRequestor": _record(task_id=_INT),
    "timeout": _record(task_id=_INT),
}
_EVENT_PAYLOADS = {
    "TaskSubmitted": _record(
        functionName=_TEXT, hashLock=_TEXT, requestor=_TEXT, payment=_INT,
        requestorDeposit=_INT, expires=_INT),
    "TaskClaimed": _record(executionNode=_TEXT, executionNodeDeposit=_INT),
    "TaskFinished": _record(executionNode=_TEXT, depositReturned=_INT),
    "TaskTimedOut": _record(
        paymentReturned=_INT, lockedRequestorDeposit=_INT,
        lockedExecutionNodeDeposit=_INT),
}

#: One strategy per record shape a run writes.
TRACE_RECORDS = {
    **{f"call/{function}": _record(
        type="call", sender=_TEXT, function=function, args=args, value=_INT,
        tier=_TEXT, blockHeight=_INT, timestamp=_INT, gasUsed=_INT,
        gasCost=_INT, outcome=_OUTCOMES, conservationOk=st.booleans())
       for function, args in _CALL_ARGS.items()},
    **{f"event/{kind}": _record(
        type="event", kind=kind, taskId=_INT, blockHeight=_INT,
        payload=payload)
       for kind, payload in _EVENT_PAYLOADS.items()},
    "clock": _record(type="clock", now=_INT, reason=_TEXT),
    "enclave/instantiate": _record(
        type="enclave", op="instantiate", ok=st.just(True), instanceId=_INT,
        measurement=_TEXT),
    "enclave/attest": _record(type="enclave", op="attest", ok=st.just(True),
                              instanceId=_INT),
    "enclave/provision": _record(type="enclave", op="provision",
                                 ok=st.just(True), instanceId=_INT),
    "enclave/execute": _record(type="enclave", op="execute", ok=st.just(True),
                               instanceId=_INT, resourceCost=_INT),
    "enclave/destroy": _record(type="enclave", op="destroy", ok=st.just(True)),
    "enclave/failed": _record(
        type="enclave", ok=st.just(False), detail=_TEXT,
        op=st.sampled_from(["instantiate", "attest", "execute"])),
    "message/result-delivery": _record(
        type="message", kind="result-delivery", destination=_TEXT,
        taskId=_INT, keyId=_TEXT),
    "message/third-party-ack": _record(
        type="message", kind="third-party-ack", taskId=_INT,
        signatureValid=st.booleans()),
}


@pytest.mark.parametrize("shape", sorted(TRACE_RECORDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_trace_lines_match_json_dumps(shape, data):
    records = data.draw(st.lists(TRACE_RECORDS[shape], min_size=1,
                                 max_size=3))
    trace = Trace()
    for record in records:
        trace.add(record)
    assert trace.to_jsonl() == _canonical_lines(records)


_INT_MAPS = st.dictionaries(_TEXT, _INT, min_size=1, max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | _INT | st.floats() | _TEXT,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=12)
_CONFIGS = st.builds(
    ScenarioConfig,
    requestor_strategy=st.sampled_from(REQUESTOR_STRATEGIES),
    node_strategy=st.sampled_from(NODE_STRATEGIES),
    **dict.fromkeys(
        ("value_of_result", "payment", "compute_cost", "threshold",
         "requestor_deposit", "node_deposit", "expires", "rng_seed",
         "execution_delay", "initial_balance", "max_resubmits"), _INT),
    **dict.fromkeys(("gas_charging", "include_gas_in_payoffs",
                     "deliver_to_third_party"), st.booleans()),
    tier=_TEXT, function_name=_TEXT,
    inputs=_JSON | st.lists(_JSON, max_size=4).map(tuple),
    **dict.fromkeys(("gas_per_function", "gas_price_per_tier",
                     "confirmation_delay_per_tier"), _INT_MAPS),
)
_TASKS = st.builds(
    Task, function_name=_TEXT, hash_lock=_BYTES, requestor=_BYTES,
    payment=_INT, requestor_deposit=_INT,
    execution_node=st.just(NULL_ACCOUNT) | _BYTES,
    execution_node_deposit=_INT, start=_INT, expires=_INT,
    state=st.sampled_from(TaskState))


@st.composite
def _contracts(draw):
    contract = EscrowContract(Ledger(), draw(_INT.filter(
        lambda threshold: threshold > 0)))
    ids = draw(st.sets(st.integers(0, 40), max_size=15))
    contract.tasks = {task_id: draw(_TASKS) for task_id in ids}
    contract.num_tasks = draw(st.integers(max(ids, default=-1) + 1))
    return contract


_SCENARIO_OUTCOMES = st.builds(
    ScenarioOutcome,
    **dict.fromkeys(
        ("requestor_payoff", "node_payoff", "locked_in_contract",
         "resource_cost_consumed", "requestor_balance_delta",
         "node_balance_delta", "end_to_end_seconds"), _INT),
    gas_by_party=st.dictionaries(_TEXT, _INT, max_size=3), trace_id=_TEXT,
    received_valid_result=st.booleans(),
    infoflow_violations=st.lists(_TEXT, max_size=3).map(tuple))

#: Once-per-run record kind -> (the source its ``Trace`` method reads, the
#: record built from the source's own JSON form).
RUN_RECORDS = {
    "scenario": (_CONFIGS, lambda config: {
        "type": "scenario", "config": config.to_json_obj()}),
    "contract_state": (_contracts(), lambda contract: {
        "type": "contract_state", "state": contract.state_dump()}),
    "outcome": (_SCENARIO_OUTCOMES, lambda outcome: {
        "type": "outcome", **outcome.to_json_obj()}),
}


@pytest.mark.parametrize("kind", sorted(RUN_RECORDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_record_lines_match_json_dumps(kind, data):
    sources, record = RUN_RECORDS[kind]
    source = data.draw(sources)
    trace = Trace()
    getattr(trace, kind)(source)
    assert trace.to_jsonl() == _canonical_lines([record(source)])


def test_with_strategies_configs_share_one_inputs_encoding(monkeypatch):
    encoded = []
    encoder = config_module.CANONICAL_JSON

    class CountingEncoder:
        def encode(self, value):
            encoded.append(value)
            return encoder.encode(value)

    monkeypatch.setattr(config_module, "CANONICAL_JSON", CountingEncoder())
    base = dataclasses.replace(CFG, inputs=[[1.5, None], "\u00e9", 2**70])
    pairs = list(product(REQUESTOR_STRATEGIES, NODE_STRATEGIES))
    shared = [base.with_strategies(*pair) for pair in pairs]
    alone = [dataclasses.replace(base, requestor_strategy=r, node_strategy=n)
             for r, n in pairs]

    def trace_of(config):
        runner = ScenarioRunner(config)
        runner.run()
        return runner.trace.to_jsonl()

    assert encoded == []  # deriving the configs encodes nothing
    shared_traces = [trace_of(config) for config in shared]
    assert len(encoded) == 1
    assert shared_traces == [trace_of(config) for config in alone]
    assert len(encoded) == 1 + len(pairs)
    # A config replaced after a run writes its own inputs.
    other = trace_of(dataclasses.replace(shared[0], inputs=[7, 8]))
    assert json.loads(other.split("\n")[0])["config"]["inputs"] == [7, 8]


def test_different_seeds_change_secrets_not_payoffs():
    one = run_scenario(dataclasses.replace(CFG, rng_seed=1))
    two = run_scenario(dataclasses.replace(CFG, rng_seed=2))
    assert one.trace_id != two.trace_id
    assert one.requestor_payoff == two.requestor_payoff
    assert one.node_payoff == two.node_payoff


def test_gas_excluded_from_payoffs_by_default():
    config = dataclasses.replace(
        CFG, gas_charging=True,
        initial_balance=10**18,
    )
    outcome = run_scenario(config)
    assert outcome.requestor_payoff == 90
    assert outcome.node_payoff == 7
    assert outcome.gas_by_party["requestor"] > 0
    assert outcome.gas_by_party["node"] > 0


def test_gas_included_when_configured():
    config = dataclasses.replace(
        CFG, gas_charging=True, include_gas_in_payoffs=True,
        initial_balance=10**18,
    )
    outcome = run_scenario(config)
    assert outcome.requestor_payoff == 90 - outcome.gas_by_party["requestor"]
    assert outcome.node_payoff == 7 - outcome.gas_by_party["node"]


def test_config_validation_errors():
    with pytest.raises(ConfigInvalid):
        ScenarioRunner(dataclasses.replace(CFG, expires=0))
    with pytest.raises(ConfigInvalid):
        ScenarioRunner(dataclasses.replace(CFG, node_deposit=1))
    with pytest.raises(ConfigInvalid):
        ScenarioRunner(dataclasses.replace(CFG, requestor_deposit=7))
    with pytest.raises(ConfigInvalid, match="max_resubmits"):
        ScenarioRunner(dataclasses.replace(CFG, max_resubmits=-1))


def minimum_balance(config: ScenarioConfig) -> int:
    """The least initial balance that funds both parties' transactions."""
    schedule = config.gas_schedule()
    price = schedule.gas_price_per_tier[config.tier] * config.gas_charging
    gas = schedule.per_function
    tasks = config.max_resubmits + 1
    requestor = config.payment + tasks * config.threshold + tasks * price * (
        gas["submitTask"] + max(gas["finalizeRequestor"], gas["timeout"]))
    node = tasks * config.node_deposit + tasks * price * (
        gas["claimTask"] + gas["finalizeExecutionNode"])
    return max(requestor, node)


@pytest.mark.parametrize("gas_charging", [False, True])
@pytest.mark.parametrize("pair", list(product(REQUESTOR_STRATEGIES,
                                              NODE_STRATEGIES)),
                         ids="/".join)
def test_minimum_funding_runs_and_one_less_is_refused(pair, gas_charging):
    config = dataclasses.replace(
        CFG.with_strategies(*pair), gas_charging=gas_charging,
        max_resubmits=2, node_deposit=8, tier="fast")
    balance = minimum_balance(config)
    # Every transaction either party sends is funded: no InsufficientBalance.
    run_scenario(dataclasses.replace(config, initial_balance=balance))
    with pytest.raises(ConfigInvalid, match="cannot fund"):
        ScenarioRunner(dataclasses.replace(config, initial_balance=balance - 1))


# ----------------------------------------------------------------------
# dominance


def test_dominance_report_on_random_draws():
    rng = random.Random(7)
    configs = []
    for _ in range(10):
        cost = rng.randint(1, 20)
        payment = cost + rng.randint(1, 20)
        value = payment + rng.randint(1, 40)
        threshold = rng.randint(1, 15)
        configs.append(ScenarioConfig(
            value_of_result=value, payment=payment, compute_cost=cost,
            threshold=threshold,
            initial_balance=value + payment + 2 * threshold + 100,
        ))
    report = dominance_check(configs)
    assert report.ok
    assert report.draws == 10
    assert report.honest_honest_both_positive


def test_dominance_example_inequalities():
    # node: honest 7 beats claim-only -5 and compute-no-deliver -3;
    # requestor: honest 90 beats no-confirm 85.
    matrix = payoff_matrix(CFG)
    honest = matrix.outcome("honest", "honest")
    assert honest.node_payoff > matrix.outcome("honest", "claim-only").node_payoff
    assert honest.node_payoff > matrix.outcome(
        "honest", "compute-no-deliver").node_payoff
    assert honest.requestor_payoff > matrix.outcome(
        "no-confirm", "honest").requestor_payoff


def test_dominance_requires_rational_regime():
    with pytest.raises(ConfigInvalid):
        dominance_check([dataclasses.replace(CFG, compute_cost=CFG.payment)])


# ----------------------------------------------------------------------
# gas and latency reports


def test_gas_report_matches_published_costs():
    report = gas_report("slow")
    assert report.per_function_gas["deploy"] == 1_260_850
    assert report.per_function_gas["submitTask"] == 277_880
    assert report.per_function_gas["claimTask"] == 145_120
    assert report.per_function_gas["finalizeExecutionNode"] == 52_802
    assert report.per_function_gas["finalizeRequestor"] == 106_357
    assert report.total_per_task_gas == 582_159
    # Deploy is reported but excluded from the per-task total.
    assert report.total_per_task_gas < report.per_function_gas["deploy"] + 582_159


def test_gas_report_slow_tier_cost_near_reference():
    report = gas_report("slow")
    ether = report.total_per_task_cost_wei / 10**18
    assert abs(ether - 0.00006) / 0.00006 < 1e-4


def test_gas_report_table_output():
    table = gas_report("standard").to_text_table()
    assert "Total per task" in table
    assert "582159" in table


def test_latency_per_tier():
    for tier, expected in (("slow", 2400), ("standard", 1200), ("fast", 480)):
        report = latency_report(tier, CFG)
        assert report.on_chain_seconds == expected
        assert report.total_seconds == expected


def test_latency_includes_execution_delay():
    config = dataclasses.replace(CFG, execution_delay=50)
    report = latency_report("fast", config)
    assert report.total_seconds == 480 + 50
    assert report.on_chain_seconds == 480


def test_latency_zero_delay_tier():
    config = dataclasses.replace(
        CFG, execution_delay=50,
        confirmation_delay_per_tier={"slow": 0, "standard": 0, "fast": 0},
    )
    report = latency_report("standard", config)
    assert report.total_seconds == 50
    assert report.on_chain_seconds == 0


# ----------------------------------------------------------------------
# claim races


def test_claim_race_first_funded_wins():
    receipts, contract, _ = run_claim_race([4, 3, 7, 9], threshold=5)
    accepted = [r.outcome.accepted for r in receipts]
    assert accepted == [False, False, True, False]
    assert receipts[3].outcome.reason is RefusalReason.ALREADY_CLAIMED


def test_claim_race_none_funded():
    receipts, contract, _ = run_claim_race([1, 2, 3], threshold=5)
    assert not any(r.outcome.accepted for r in receipts)
    assert contract.tasks[0].state is TaskState.OPEN
