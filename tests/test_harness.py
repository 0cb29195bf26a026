from __future__ import annotations

import dataclasses
import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import run_claim_race
from test_golden_traces import RUNNER_SETUPS, golden_configs

from teescrow import config as config_module
from teescrow import crypto
from teescrow.config import (
    NODE_STRATEGIES,
    REQUESTOR_STRATEGIES,
    ConfigInvalid,
    ScenarioConfig,
)
from teescrow.actors import Deliver, ThirdPartyAck
from teescrow.contract import (
    CallOutcome,
    EscrowContract,
    RefusalReason,
    Task,
    TaskState,
)
from teescrow.crypto import ProtectedResult
from teescrow.enclave import EnclaveInstance, FunctionImage
from teescrow.harness import (
    ScenarioOutcome,
    ScenarioRunner,
    Trace,
    dominance_check,
    gas_report,
    latency_report,
    payoff_matrix,
    run_scenario,
)
from teescrow.ledger import (
    NULL_ACCOUNT,
    ContractCall,
    Ledger,
    LedgerEvent,
    Receipt,
)

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
            outcome = matrix.cells[cell]
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
    return st.fixed_dictionaries(fields)


_OUTCOMES = (st.builds(CallOutcome.ok, _INT)
             | st.builds(CallOutcome.refused, st.sampled_from(RefusalReason)))
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


def _events(kind):
    return st.lists(st.builds(
        LedgerEvent, kind=st.just(kind), task_id=_INT, block_height=_INT,
        payload=_EVENT_PAYLOADS[kind]), min_size=1, max_size=3)


def _calls(functions, events):
    """``Trace.call`` arguments: a sender party and a receipt."""
    receipts = st.sampled_from(functions).flatmap(lambda function: st.builds(
        Receipt, sender=_BYTES,
        call=st.builds(ContractCall, st.just(function),
                       _CALL_ARGS[function]),
        value=_INT, tier=_TEXT, block_height=_INT, timestamp=_INT,
        gas_used=_INT, gas_cost=_INT, events=events, outcome=_OUTCOMES))
    return st.tuples(_TEXT, receipts)


def _call_records(sender, receipt):
    o = receipt.outcome
    return [{
        "type": "call", "sender": sender, "function": receipt.call.function,
        "args": receipt.call.args, "value": receipt.value,
        "tier": receipt.tier, "blockHeight": receipt.block_height,
        "timestamp": receipt.timestamp, "gasUsed": receipt.gas_used,
        "gasCost": receipt.gas_cost, "conservationOk": True,
        "outcome": ({"accepted": True, "taskId": o.task_id} if o.accepted
                    else {"accepted": False, "reason": o.reason.value}),
    }] + [{"type": "event", "kind": e.kind, "taskId": e.task_id,
           "blockHeight": e.block_height, "payload": e.payload}
          for e in receipt.events]


_INSTANCES = st.builds(EnclaveInstance, instance_id=_INT, image=st.builds(
    FunctionImage, name=_TEXT, version=_TEXT, body_id=_TEXT, body=st.none(),
    resource_cost=_INT))
#: Enclave op -> the fields its success record reads from the instance.
_ENCLAVE_FIELDS = {
    "instantiate": lambda i: {"instanceId": i.instance_id,
                              "measurement": i.image.measurement.hex()},
    "attest": lambda i: {"instanceId": i.instance_id},
    "provision": lambda i: {"instanceId": i.instance_id},
    "execute": lambda i: {"instanceId": i.instance_id,
                          "resourceCost": i.image.resource_cost},
    "destroy": lambda i: {},
}
_DELIVERIES = st.builds(
    Deliver, task_id=_INT, destination=_TEXT, protected=st.builds(
        ProtectedResult, nonce=_BYTES, ciphertext=_BYTES, signature=_BYTES,
        key_id=_TEXT))

#: Per-transaction record shape -> (the ``Trace`` writer, its arguments as
#: drawn from their sources, the records built from the sources' fields).
TRACE_WRITERS = {
    **{f"call/{function}": ("call", _calls([function], st.just([])),
                            _call_records)
       for function in _CALL_ARGS},
    # A call's events follow its line.
    **{f"event/{kind}": ("call", _calls(sorted(_CALL_ARGS), _events(kind)),
                         _call_records)
       for kind in _EVENT_PAYLOADS},
    "clock": ("clock", st.tuples(_INT, _TEXT), lambda now, reason: [
        {"type": "clock", "now": now, "reason": reason}]),
    **{f"enclave/{op}": (
        "enclave", st.tuples(st.just(op), _INSTANCES), lambda op, i: [
            {"type": "enclave", "op": op, "ok": True,
             **_ENCLAVE_FIELDS[op](i)}])
       for op in _ENCLAVE_FIELDS},
    "enclave/failed": (
        "enclave_failed",
        st.tuples(st.sampled_from(["instantiate", "attest", "execute"]),
                  _TEXT),
        lambda op, detail: [
            {"type": "enclave", "op": op, "ok": False, "detail": detail}]),
    "message/result-delivery": (
        "result_delivery", st.tuples(_DELIVERIES), lambda d: [
            {"type": "message", "kind": "result-delivery",
             "destination": d.destination, "taskId": d.task_id,
             "keyId": d.protected.key_id}]),
    "message/third-party-ack": (
        "third_party_ack",
        st.tuples(st.builds(ThirdPartyAck, _INT, st.booleans())), lambda a: [
            {"type": "message", "kind": "third-party-ack",
             "taskId": a.task_id, "signatureValid": a.signature_valid}]),
}


@pytest.mark.parametrize("shape", sorted(TRACE_WRITERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_trace_lines_match_json_dumps(shape, data):
    method, arguments, records = TRACE_WRITERS[shape]
    drawn = data.draw(st.lists(arguments, min_size=1, max_size=3))
    trace = Trace()
    for args in drawn:
        getattr(trace, method)(*args)
    assert trace.to_jsonl() == _canonical_lines(
        [record for args in drawn for record in records(*args)])


_INT_MAPS = st.dictionaries(_TEXT, _INT, min_size=1, max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | _INT
    | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
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


def _contract_state_record(contract):
    return {"type": "contract_state", "state": {
        "threshold": contract.threshold, "numTasks": contract.num_tasks,
        "tasks": {str(task_id): {
            "functionName": t.function_name, "hashLock": t.hash_lock.hex(),
            "requestor": t.requestor.hex(), "payment": t.payment,
            "requestorDeposit": t.requestor_deposit,
            "executionNode": t.execution_node.hex(),
            "executionNodeDeposit": t.execution_node_deposit,
            # A timed-out task still shows whether it had been claimed.
            "claimed": t.execution_node != NULL_ACCOUNT,
            "completed": t.state is TaskState.COMPLETED,
            "start": t.start, "expires": t.expires, "state": t.state.value,
        } for task_id, t in contract.tasks.items()}}}


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
#: record built from the source's JSON form or its fields).
RUN_RECORDS = {
    "scenario": (_CONFIGS, lambda config: {
        "type": "scenario", "config": config.to_json_obj()}),
    "contract_state": (_contracts(), _contract_state_record),
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


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("inputs", [
    (float("nan"), float("inf")), [-float("inf")], {1, 2}, _nested(5000),
], ids=["nan-inf", "minus-inf", "set", "nested-5000"])
def test_inputs_strict_json_cannot_hold_are_invalid(inputs):
    config = dataclasses.replace(CFG, inputs=inputs)
    with pytest.raises(ConfigInvalid, match="inputs must be strict JSON"):
        config.validate()
    trace = Trace()
    with pytest.raises(ConfigInvalid):
        trace.scenario(config)
    assert trace.to_jsonl() == ""


def test_with_strategies_configs_share_one_inputs_encoding(monkeypatch):
    encoded = []
    encoder = config_module.STRICT_JSON

    class CountingEncoder:
        def encode(self, value):
            encoded.append(value)
            return encoder.encode(value)

    monkeypatch.setattr(config_module, "STRICT_JSON", CountingEncoder())
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
    assert len(encoded) == 1  # validate() encodes, the writer reuses it
    assert shared[0].inputs_json() == crypto.CANONICAL_JSON.encode(base.inputs)
    assert shared_traces == [trace_of(config) for config in alone]
    assert len(encoded) == 1 + len(pairs)
    # A config replaced after a run writes its own inputs.
    other = trace_of(dataclasses.replace(shared[0], inputs=[7, 8]))
    assert json.loads(other.split("\n")[0])["config"]["inputs"] == [7, 8]
    # Inputs that fail to encode are refused by every cell that shares them.
    bad = dataclasses.replace(base, inputs=[float("nan")])
    for pair in pairs:
        with pytest.raises(ConfigInvalid):
            ScenarioRunner(bad.with_strategies(*pair))


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


def test_dominance_example_inequalities():
    # node: honest 7 beats claim-only -5 and compute-no-deliver -3;
    # requestor: honest 90 beats no-confirm 85.
    matrix = payoff_matrix(CFG)
    honest = matrix.cells[("honest", "honest")]
    assert honest.node_payoff > matrix.cells[("honest", "claim-only")].node_payoff
    assert honest.node_payoff > matrix.cells[
        ("honest", "compute-no-deliver")].node_payoff
    assert honest.requestor_payoff > matrix.cells[
        ("no-confirm", "honest")].requestor_payoff


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
