from __future__ import annotations

import dataclasses
import functools
import gc
import json
import random
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import FormatsAsSeven, run_claim_race
from test_golden_traces import (
    PAIRS,
    RUNNER_SETUPS,
    golden_configs,
)

from teescrow import config as config_module
from teescrow import harness as harness_module
from teescrow import crypto, streams
from teescrow.streams import ByteStream
from teescrow.actors import ExecutionNodeActor, RequestorActor
from teescrow.config import (
    NODE_STRATEGIES,
    REQUESTOR_STRATEGIES,
    ConfigInvalid,
    ScenarioConfig,
)
from teescrow.contract import (
    CallOutcome,
    EscrowContract,
    RefusalReason,
    Task,
    TaskState,
)
from teescrow.enclave import (
    BUILTIN_BODIES,
    EnclaveHost,
    EnclaveInstance,
    EnclaveState,
    FunctionImage,
    InfoFlowLedger,
)
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
    DEFAULT_CONFIRMATION_DELAY,
    DEFAULT_GAS_PER_FUNCTION,
    DEFAULT_GAS_PRICE_PER_TIER,
    NULL_ACCOUNT,
    TIERS,
    ConservationViolation,
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
            outcome = matrix[cell]
            assert (outcome.requestor_payoff, outcome.node_payoff) == (req, node)


def test_payoff_matrix_rejects_degenerate_regime():
    with pytest.raises(ConfigInvalid):
        payoff_matrix(dataclasses.replace(CFG, value_of_result=CFG.payment))


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


@pytest.mark.parametrize("name, violation", [
    ("inputs", "node-host saw task0:inputs"),
    ("enc-key", "node-host saw task0:enc-key"),
    ("result", "node-host saw task0:result"),
    ("secret", "node-host saw task0:secret before execution"),
], ids=["inputs", "enc-key", "result", "secret"])
def test_outcome_names_a_host_leak(name, violation):
    # A family of its own: no earlier run's record replaces its flow ledger.
    runner = ScenarioRunner(dataclasses.replace(CFG))
    # Granted before the run, so also before the task is executed.
    runner.flow.grant(0, name)
    assert runner.run().infoflow_violations == (violation,)


def test_outcome_orders_host_leaks_by_task_then_value():
    # Four tasks, none executed; granted out of order, one twice.
    runner = ScenarioRunner(dataclasses.replace(
        CFG, requestor_strategy="withhold-input", max_resubmits=3))
    for task_id, name in ((2, "result"), (0, "secret"), (2, "inputs"),
                          (0, "enc-key"), (2, "result"), (0, "result")):
        runner.flow.grant(task_id, name)
    assert runner.run().infoflow_violations == (
        "node-host saw task0:enc-key",
        "node-host saw task0:result",
        "node-host saw task0:secret before execution",
        "node-host saw task2:inputs",
        "node-host saw task2:result",
    )


def test_a_runner_runs_once():
    runner = ScenarioRunner(CFG)
    runner.run()
    with pytest.raises(RuntimeError, match="^a runner is single-use$"):
        runner.run()


@pytest.mark.parametrize("overrides", [
    {},
    {"deliver_to_third_party": True},
    {"requestor_strategy": "withhold-input", "max_resubmits": 3},
    {"node_strategy": "compute-no-deliver"},
], ids=["honest", "third-party", "withhold-chain-3", "compute-no-deliver"])
def test_a_finished_run_is_freed_without_the_collector(overrides):
    """No reference cycle holds a run's objects: with the cyclic collector
    off, dropping the runner frees them all at once, whether it played its
    family's opening or resumed from the family's record of it, of the
    node's reveal or of the confirm decision.  Nor does one hold a family:
    dropping its configs frees it and all it keeps."""
    family = dataclasses.replace(CFG, **overrides)
    cell = family.with_strategies("no-confirm", "claim-only")
    revealing = family.with_strategies("honest", "compute-no-deliver")
    deciding = family.with_strategies("no-confirm", "honest")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for config in (family, cell, revealing, deciding):
            runner = ScenarioRunner(config)
            runner.run()
            refs = [weakref.ref(obj) for obj in (runner, runner.requestor,
                                                 runner.node, runner.ledger,
                                                 runner.host)]
            del runner
            assert [ref() for ref in refs] == [None] * len(refs)
        # The family also holds the records of the reveal and the decision.
        assert family.family[ScenarioRunner.revealed].pending
        assert family.family[ScenarioRunner.accept].pending
        refs = [weakref.ref(obj)
                for obj in (family, cell, revealing, deciding, family.family)]
        del family, cell, revealing, deciding, config
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


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


def _refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize("config, setup", _STORED_TRACE_CASES)
def test_stored_trace_lines_match_records(config, setup):
    # The records are parsed from the stored lines, so every line must be
    # strict JSON (``json`` reads and writes NaN and infinities unless told
    # not to) and its own canonical encoding.
    runner = ScenarioRunner(config)
    if setup is not None:
        setup(runner)
    runner.run()
    for line in runner.trace.to_jsonl().splitlines():
        json.loads(line, parse_constant=_refuse_constant)
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


_OUTCOMES = (st.builds(CallOutcome, st.just(True), st.none(), _INT)
             | st.builds(CallOutcome, st.just(False),
                         st.sampled_from(RefusalReason)))
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
        "result_delivery", st.tuples(_INT, _TEXT, _TEXT),
        lambda task_id, key_id, destination: [
            {"type": "message", "kind": "result-delivery",
             "destination": destination, "taskId": task_id,
             "keyId": key_id}]),
    "message/third-party-ack": (
        "third_party_ack", st.tuples(_INT, st.booleans()),
        lambda task_id, valid: [
            {"type": "message", "kind": "third-party-ack",
             "taskId": task_id, "signatureValid": valid}]),
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
#: Override maps that a config accepts, as well as ``_INT_MAPS``, which it
#: mostly refuses.
_RUNNABLE_MAPS = {
    "gas_per_function": st.dictionaries(
        st.sampled_from(sorted(DEFAULT_GAS_PER_FUNCTION)),
        st.integers(1, 10**6), max_size=3),
    "gas_price_per_tier": st.dictionaries(
        st.sampled_from(TIERS), st.integers(1, 10**12), max_size=2),
    "confirmation_delay_per_tier": st.dictionaries(
        st.sampled_from(TIERS), st.integers(0, 10**4), max_size=2),
}
_JSON = st.recursive(
    st.none() | st.booleans() | _INT
    | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=12)
#: Configs over each field's legal range, amounts up to 2**200 wide; a
#: balance of at least 2**250 funds any of them.
_CONFIGS = st.builds(
    ScenarioConfig,
    requestor_strategy=st.sampled_from(REQUESTOR_STRATEGIES),
    node_strategy=st.sampled_from(NODE_STRATEGIES),
    **dict.fromkeys(("value_of_result", "payment", "compute_cost",
                     "execution_delay"), st.integers(0, 2**200)),
    threshold=st.integers(1, 2**200),
    node_deposit=st.just(-1) | st.integers(2**200, 2**201),
    expires=st.integers(1, 2**200), rng_seed=_INT,
    initial_balance=st.integers(2**250, 2**256 - 1),
    max_resubmits=st.integers(0, 3),
    **dict.fromkeys(("gas_charging", "include_gas_in_payoffs",
                     "deliver_to_third_party"), st.booleans()),
    tier=st.sampled_from(TIERS),
    function_name=st.sampled_from(sorted(BUILTIN_BODIES)),
    inputs=_JSON | st.lists(_JSON, max_size=4).map(tuple),
    **_RUNNABLE_MAPS,
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
    with pytest.raises(ConfigInvalid, match="^inputs must be strict JSON"):
        dataclasses.replace(CFG, inputs=inputs)


@pytest.mark.parametrize("key", [1, 2.5, True, None, 2**300],
                         ids=["int", "float", "bool", "none", "wide-int"])
def test_inputs_with_a_key_that_is_not_a_string_are_invalid(key):
    # JSON would write the key as a string, so the trace would not replay
    # the run: the enclave sums the int key, the replay a string.
    with pytest.raises(ConfigInvalid, match="^inputs must be strict JSON: "
                                            "the key .* is not a string"):
        ScenarioConfig(function_name="sum", inputs={key: 2})
    with pytest.raises(ConfigInvalid, match="^inputs must be strict JSON"):
        ScenarioConfig(function_name="sum", inputs=[1, [{"a": {key: 2}}]])


def test_with_strategies_configs_share_one_inputs_encoding(monkeypatch):
    encoded = []
    encoder = crypto.CANONICAL_JSON

    class CountingEncoder:
        def encode(self, value):
            encoded.append(value)
            return encoder.encode(value)

    monkeypatch.setattr(config_module, "CANONICAL_JSON", CountingEncoder())
    base = dataclasses.replace(CFG, inputs=[[1.5, None], "\u00e9", 2**70])
    pairs = list(product(REQUESTOR_STRATEGIES, NODE_STRATEGIES))
    shared = [base.with_strategies(*pair) for pair in pairs]
    assert len(encoded) == 1  # building encodes; deriving encodes nothing

    def trace_of(config):
        runner = ScenarioRunner(config)
        runner.run()
        return runner.trace.to_jsonl()

    shared_traces = [trace_of(config) for config in shared]
    assert len(encoded) == 1  # the writer reuses the config's encoding
    head, middle, tail = shared[0].json_parts
    r, n = (json.dumps(name) for name in pairs[0])
    assert (head + n + middle + r + tail
            == crypto.CANONICAL_JSON.encode(shared[0].to_json_obj()))
    alone = [dataclasses.replace(base, requestor_strategy=r, node_strategy=n)
             for r, n in pairs]
    assert len(encoded) == 1 + len(pairs)
    assert shared_traces == [trace_of(config) for config in alone]
    assert len(encoded) == 1 + len(pairs)
    # A config replaced after a run writes its own inputs.
    other = trace_of(dataclasses.replace(shared[0], inputs=[7, 8]))
    assert json.loads(other.split("\n")[0])["config"]["inputs"] == [7, 8]


def test_with_strategies_configs_share_one_gas_schedule(monkeypatch):
    built = []

    class CountingSchedule(config_module.GasSchedule):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(config_module, "GasSchedule", CountingSchedule)
    base = dataclasses.replace(
        CFG, initial_balance=10**9, gas_charging=True,
        gas_per_function={"timeout": 30_000},
        gas_price_per_tier={"standard": 2},
        confirmation_delay_per_tier={"standard": 7})
    assert len(built) == 1  # building the config builds it
    matrix = payoff_matrix(base)
    assert len(built) == 1  # the nine runners share it
    assert base.gas_schedule is built[0]
    # A config built by replace builds its own, once.
    alone = {pair: dataclasses.replace(base, requestor_strategy=pair[0],
                                       node_strategy=pair[1])
             for pair in matrix}

    def trace_of(config):
        runner = ScenarioRunner(config)
        runner.run()
        return runner.trace.to_jsonl()

    assert ([trace_of(base.with_strategies(*pair)) for pair in alone]
            == [trace_of(config) for config in alone.values()])
    assert len(built) == 1 + len(alone)


@pytest.mark.parametrize("pair", [("withhold-input", "honest"),
                                  ("honest", "claim-only")])
def test_host_rng_unseeded_when_nothing_attests(pair, monkeypatch):
    seeds = []

    class Recording(random.Random):
        def seed(self, a=None, version=2):
            seeds.append(a)
            super().seed(a, version)

    monkeypatch.setattr(streams, "Random", Recording)
    # A family of its own, so its run is the first to draw.
    config = dataclasses.replace(CFG, requestor_strategy=pair[0],
                                 node_strategy=pair[1])
    ScenarioRunner(config).run()
    assert seeds == [f"{CFG.rng_seed}:requestor"]


def test_host_rng_stream_unchanged_by_lazy_seeding():
    config = dataclasses.replace(CFG, rng_seed=42)
    runner = ScenarioRunner(config)
    instances = []
    instantiate = runner.host.instantiate

    def keep(function_name):
        instances.append(instantiate(function_name))
        return instances[-1]

    runner.host.instantiate = keep
    assert runner.run().received_valid_result
    [instance] = instances
    assert (instance.channel_binding_key
            == random.Random("42:host").randbytes(32))


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


@pytest.mark.parametrize("build", [
    ScenarioConfig, functools.partial(dataclasses.replace, CFG),
], ids=["init", "replace"])
@pytest.mark.parametrize("name, value", [
    ("payment", "10"),
    ("expires", 1.5),
    ("deliver_to_third_party", 1),
    ("gas_per_function", {"submitTask": float("nan")}),
    ("confirmation_delay_per_tier", {"fast": float("inf")}),
    ("gas_price_per_tier", {"slow": 1.5}),
    # -1.0 == -1: checked before -1 derives the deposit from the threshold.
    ("node_deposit", -1.0),
    # Accepted, it wrote "execution_delay":seven into the trace.
    ("execution_delay", FormatsAsSeven(7)),
    # Refused with a TypeError traceback while sorting the unknown keys.
    ("gas_per_function", {1: 5, "bogus": 3}),
], ids=["string-amount", "float-seconds", "int-flag", "nan-gas",
        "inf-delay", "float-price", "float-derive-deposit", "int-subclass",
        "int-key"])
def test_wrong_typed_field_is_invalid_however_built(build, name, value):
    with pytest.raises(ConfigInvalid, match=f"^{name} must be "):
        build(**{name: value})


def minimum_balance(config: ScenarioConfig) -> int:
    """The least initial balance that funds both parties' transactions."""
    schedule = config.gas_schedule
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
        max_resubmits=2, node_deposit=8, tier="fast", initial_balance=10**30)
    balance = minimum_balance(config)
    # Every transaction either party sends is funded: no InsufficientBalance.
    run_scenario(dataclasses.replace(config, initial_balance=balance))
    with pytest.raises(ConfigInvalid, match="cannot fund"):
        dataclasses.replace(config, initial_balance=balance - 1)


# ----------------------------------------------------------------------
# the fork points a config family plays once: the opening, and the
# requestor's confirm decision


#: Config families as ``broad_configs`` draws them: gas on or off, 0-3
#: resubmits, either delivery route, an execution delay, 0, 3 or 64 inputs;
#: and an ``expires`` and a delay drawn across the edge past which the
#: requestor's timeout beats the node's reveal (see ``_reveals``).
fork_families = st.builds(
    ScenarioConfig,
    value_of_result=st.just(100), payment=st.integers(4, 10),
    compute_cost=st.just(3), threshold=st.integers(1, 5),
    node_deposit=st.integers(5, 8), initial_balance=st.just(10**17),
    tier=st.sampled_from(TIERS), rng_seed=st.integers(0, 2**31),
    function_name=st.sampled_from(sorted(BUILTIN_BODIES)),
    inputs=st.sampled_from([0, 3, 64]).map(lambda n: tuple(range(n))),
    deliver_to_third_party=st.booleans(),
    expires=st.sampled_from([3600]) | st.integers(1, 1500),
    execution_delay=st.sampled_from([0, 5, 60]) | st.integers(0, 1500),
    max_resubmits=st.integers(0, 3), gas_charging=st.booleans(),
    include_gas_in_payoffs=st.booleans())


def _reveals(config: ScenarioConfig) -> bool:
    """The node's reveal lands before the requestor's timeout: the claim
    and the reveal confirm, and the enclave runs, by the deadline."""
    return (DEFAULT_CONFIRMATION_DELAY[config.tier] + config.execution_delay
            <= config.expires)


#: The strategy pairs that play alike up to the node's reveal, where the
#: family records its second fork point.
EXECUTING = tuple(product(("honest", "no-confirm"),
                          ("honest", "compute-no-deliver")))

#: The strategy pairs that play alike up to the requestor's confirm
#: decision, where the family records its third fork point.
DECIDING = (("honest", "honest"), ("no-confirm", "honest"))

#: The strategy pairs that part from the others right after the opening, so
#: a family whose first run is one of them records the opening alone.
OPENING_ONLY = tuple(pair for pair in PAIRS if pair not in EXECUTING)

#: Two families: the default, and one that charges gas, allows resubmits,
#: delays execution and delivers through the third party.
FORK_FAMILIES = {
    "default": CFG,
    "gas-chain-third-party": dataclasses.replace(
        CFG, gas_charging=True, initial_balance=10**17, max_resubmits=2,
        deliver_to_third_party=True, execution_delay=5, tier="fast"),
}


def _expiry_of_task_0(record) -> tuple:
    """The pending expiry of task 0 that a fork record holds: a call of the
    requestor's ``on_expiry``, at the task's deadline."""
    [(task_id, task)] = record.contract[1]
    assert task_id == 0
    return (Task(*task).deadline, "requestor", RequestorActor.on_expiry, (0,))


def _recorded_run(config: ScenarioConfig):
    """The run's trace bytes, its outcome and the bytes of every result it
    delivers (nonce, ciphertext and signature)."""
    runner = ScenarioRunner(config)
    delivered = []
    deliver = runner.deliver

    def recording(task_id, protected, destination):
        delivered.append(protected.nonce + protected.ciphertext
                         + protected.signature)
        deliver(task_id, protected, destination)

    runner.deliver = recording
    outcome = runner.run()
    return runner.trace.to_jsonl(), outcome, delivered


def _run(config: ScenarioConfig, hook=lambda runner: None):
    """The run's trace bytes and outcome, and its host's and information
    flow ledger's state at the end, ``hook`` set before ``run()``."""
    runner = ScenarioRunner(config)
    hook(runner)
    outcome = runner.run()
    return (runner.trace.to_jsonl(), outcome, runner.host.snapshot(),
            runner.flow.snapshot())


@settings(max_examples=25, deadline=None)
@given(family=fork_families, opener=st.sampled_from(OPENING_ONLY))
def test_a_cell_resumed_from_the_opening_runs_as_in_a_fresh_family(
        family, opener):
    """Each cell, run after a first cell that parts right after the
    opening, resumes from the family's record of the opening alone: a hook
    on its delivery, a step no earlier run played, sees what a fresh run
    delivers."""
    for pair in PAIRS:
        shared = dataclasses.replace(family)
        run_scenario(shared.with_strategies(*opener))
        assert shared.family[ScenarioRunner.claim].pending
        cell = shared.with_strategies(*pair)
        # replace() starts a family of its own, which plays the opening.
        assert _recorded_run(cell) == _recorded_run(dataclasses.replace(cell))


@settings(max_examples=25, deadline=None)
@given(family=fork_families, order=st.permutations(PAIRS))
def test_a_cell_resumed_from_a_fork_runs_as_in_a_fresh_family(family, order):
    """With no hook on any runner, so every executing cell after the
    family's first resumes from its record of the node's reveal, or of the
    confirm decision."""
    for pair in order:
        cell = family.with_strategies(*pair)
        assert _run(cell) == _run(dataclasses.replace(cell))
    for point in (ScenarioRunner.revealed, ScenarioRunner.accept):
        if _reveals(family):
            assert family.family[point].pending
        else:  # every cell played its whole run
            assert family.family[point] is None


@pytest.mark.parametrize("third_party", [False, True],
                         ids=["requestor", "third-party"])
def test_the_deciding_cells_verify_one_delivered_result(third_party,
                                                        monkeypatch):
    verified = []
    verify = crypto.verify_result_signature

    def counting(protected, verify_key):
        verified.append(protected)
        return verify(protected, verify_key)

    monkeypatch.setattr(crypto, "verify_result_signature", counting)
    family = dataclasses.replace(CFG, deliver_to_third_party=third_party)
    outcomes = [run_scenario(family.with_strategies(*pair))
                for pair in DECIDING]
    assert len(verified) == 1
    assert [o.received_valid_result for o in outcomes] == [True, True]


@pytest.mark.parametrize("third_party", [False, True],
                         ids=["requestor", "third-party"])
@pytest.mark.parametrize("family", FORK_FAMILIES.values(),
                         ids=FORK_FAMILIES.keys())
def test_either_deciding_cell_records_the_same_decision(family, third_party):
    """The record does not depend on which of the two cells got there."""
    records = []
    for pair in DECIDING:
        config = dataclasses.replace(
            family, deliver_to_third_party=third_party).with_strategies(*pair)
        ScenarioRunner(config).run()
        records.append(config.family[ScenarioRunner.accept])
    assert records[0] == records[1]
    hash(records[0][:6])  # the six snapshots are values
    hash(config.family[ScenarioRunner.revealed][:6])
    (time, role, _, args), expiry = records[0].pending
    assert (time, role, args) == (records[0].ledger[2], "requestor", (0,))
    assert expiry == _expiry_of_task_0(records[0])


@pytest.mark.parametrize("third_party", [False, True],
                         ids=["requestor", "third-party"])
@pytest.mark.parametrize("family", FORK_FAMILIES.values(),
                         ids=FORK_FAMILIES.keys())
def test_every_executing_cell_records_the_same_reveal(family, third_party):
    """The record does not depend on which of the four cells got there; it
    holds the executed instance the node will destroy."""
    records = []
    for pair in EXECUTING:
        config = dataclasses.replace(
            family, deliver_to_third_party=third_party).with_strategies(*pair)
        ScenarioRunner(config).run()
        records.append(config.family[ScenarioRunner.revealed])
    assert records == [records[0]] * len(EXECUTING)
    hash(records[0][:6])  # the six snapshots are values
    (time, role, _, args), expiry = records[0].pending
    assert (time, role, args) == (records[0].ledger[2], "node", (0,))
    assert expiry == _expiry_of_task_0(records[0])
    _, [(task_id, instance, _)] = records[0].node
    assert task_id == 0
    assert EnclaveInstance(*instance).state is EnclaveState.EXECUTED


@pytest.mark.parametrize("third_party", [False, True],
                         ids=["requestor", "third-party"])
@pytest.mark.parametrize("family", FORK_FAMILIES.values(),
                         ids=FORK_FAMILIES.keys())
def test_the_reveal_and_the_decision_differ_only_in_the_node(family,
                                                             third_party):
    """No transaction, draw or host change happens between the two points:
    of the six snapshots only the node's differs, since it destroyed its
    instance in between."""
    config = dataclasses.replace(family, deliver_to_third_party=third_party)
    ScenarioRunner(config).run()
    reveal = config.family[ScenarioRunner.revealed]
    decision = config.family[ScenarioRunner.accept]
    for name in ("ledger", "contract", "requestor", "host", "flow"):
        assert getattr(reveal, name) == getattr(decision, name), name
    assert reveal.node != decision.node


@pytest.mark.parametrize("family", FORK_FAMILIES.values(),
                         ids=FORK_FAMILIES.keys())
def test_every_strategy_pair_plays_the_same_opening(family):
    """What a family records after its first run's opening does not depend
    on that run's strategies: a strategy that decides before the claim
    moves the fork point."""
    openings = []
    for pair in PAIRS:
        config = dataclasses.replace(family.with_strategies(*pair))
        ScenarioRunner(config).run()
        openings.append(config.family[ScenarioRunner.claim])
    assert openings == [openings[0]] * len(PAIRS)
    hash(openings[0][:6])  # the six snapshots are values


#: The three fork points in the order a run passes them.
FORK_POINTS = (ScenarioRunner.claim, ScenarioRunner.revealed,
               ScenarioRunner.accept)


@pytest.mark.parametrize("pair", PAIRS, ids="/".join)
@pytest.mark.parametrize("family", FORK_FAMILIES.values(),
                         ids=FORK_FAMILIES.keys())
def test_a_pair_records_exactly_its_fork_points(family, pair):
    """A fresh family that runs only ``pair`` records, not ``None``, each
    point the pair passes: the claim always, the reveal if it executes, the
    decision if it also decides.  So each pair's table of fork points
    cannot drift from what its actors do."""
    config = dataclasses.replace(family).with_strategies(*pair)
    ScenarioRunner(config).run()
    expected = tuple(point for point, passes in zip(
        FORK_POINTS, (True, pair in EXECUTING, pair in DECIDING)) if passes)
    assert harness_module._FORK_POINTS[pair] == expected
    assert tuple(point for point in FORK_POINTS
                 if config.family.get(point) is not None) == expected


def test_the_start_record_is_what_fresh_objects_snapshot():
    """A family's first run resumes from its start record: the state of
    freshly built objects, with the requestor's ``on_start`` queued."""
    start = harness_module._start(CFG)
    ledger = Ledger()
    for _ in range(2):
        ledger.create_account(CFG.initial_balance)
    flow = InfoFlowLedger()
    assert start[:6] == (
        ledger.snapshot(), EscrowContract(ledger, CFG.threshold).snapshot(),
        RequestorActor(CFG, ByteStream(0), b"").snapshot(),
        ExecutionNodeActor(CFG).snapshot(),
        EnclaveHost({}, flow, ByteStream(0)).snapshot(), flow.snapshot())
    assert start[6:] == ((), ((0, "requestor", RequestorActor.on_start, ()),),
                         0)


def test_a_runner_picks_its_record_when_it_is_built():
    """Of two runners of a fresh family built before either runs, the
    second finds only the start record, and the first claimed every fork
    point: the second plays every step itself and writes what a fresh
    family writes."""
    family = dataclasses.replace(CFG)
    cell = family.with_strategies("no-confirm", "honest")
    first, second = ScenarioRunner(family), ScenarioRunner(cell)
    calls = []
    for name in ("submit", "provision", "deliver"):
        step = getattr(second, name)
        setattr(second, name, lambda *args, step=step, name=name: (
            calls.append(name), step(*args)))
    first.run()
    outcome = second.run()
    assert calls == ["submit", "submit", "provision", "submit", "deliver"]
    assert (second.trace.to_jsonl(), outcome) == _run(
        dataclasses.replace(cell))[:2]


@pytest.mark.parametrize("fork, pair", [
    (ScenarioRunner.claim, ("honest", "claim-only")),
    (ScenarioRunner.revealed, ("honest", "compute-no-deliver")),
    (ScenarioRunner.accept, ("no-confirm", "honest")),
], ids=["opening", "reveal", "decision"])
def test_a_leak_granted_after_a_resumed_cell_is_built_shows(fork, pair):
    """A runner builds its flow ledger from its record when it is built, so
    a leak granted before ``run()`` stays, as in a family of its own."""
    family = dataclasses.replace(CFG)
    run_scenario(family)
    assert family.family[fork].pending
    leak = ("node-host saw task0:inputs",)
    for config in (family.with_strategies(*pair),
                   dataclasses.replace(family.with_strategies(*pair))):
        runner = ScenarioRunner(config)
        runner.flow.grant(0, "inputs")
        assert runner.run().infoflow_violations == leak


@pytest.mark.parametrize("fork, pair", [
    (ScenarioRunner.claim, ("honest", "claim-only")),
    (ScenarioRunner.revealed, ("honest", "compute-no-deliver")),
    (ScenarioRunner.accept, ("no-confirm", "honest")),
], ids=["opening", "reveal", "decision"])
def test_a_resumed_cell_checks_conservation(fork, pair):
    family = dataclasses.replace(CFG)
    ScenarioRunner(family).run()
    record = family.family[fork]
    balances, block_height, now, *gas = record.ledger
    balances = list(balances)
    balances[2] += 1  # the requestor's slot
    family.family[fork] = record._replace(
        ledger=(tuple(balances), block_height, now, *gas))
    runner = ScenarioRunner(family.with_strategies(*pair))
    with pytest.raises(ConservationViolation, match="^balances sum to "):
        runner.run()
    # Raised at resume, before the run's next transaction or clock advance.
    assert (runner.ledger.block_height, runner.ledger.now) == (
        block_height, now)


def _lower_resubmit_limit(runner):
    runner.requestor.resubmit_limit = 1


@pytest.mark.parametrize("hook, pair, timeouts", [
    (_lower_resubmit_limit, ("withhold-input", "honest"), 2),
])
def test_a_hook_set_before_run_applies_to_a_resumed_cell(hook, pair,
                                                         timeouts):
    """The requestor's snapshot leaves out ``inspect``'s resubmit limit, so
    a limit lowered before ``run()`` binds a cell resumed from the
    opening that a clean honest/honest recorded."""
    family = dataclasses.replace(CFG, max_resubmits=3)
    ScenarioRunner(family).run()  # records the three fork points
    assert family.family[ScenarioRunner.revealed].pending
    assert family.family[ScenarioRunner.accept].pending
    cell = family.with_strategies(*pair)
    trace, outcome, *state = _run(cell, hook)
    assert (trace, outcome, *state) == _run(dataclasses.replace(cell), hook)
    assert trace.count('"function":"timeout"') == timeouts


@pytest.mark.parametrize("third_party", [False, True],
                         ids=["requestor", "third-party"])
def test_a_hook_on_a_step_the_family_already_played_never_fires(third_party):
    """No-confirm/honest after honest/honest resumes from the confirm
    decision, so wrappers set on its runner see none of the steps before
    it; in a family of its own they see every one."""
    family = dataclasses.replace(CFG, deliver_to_third_party=third_party)
    run_scenario(family)
    cell = family.with_strategies("no-confirm", "honest")
    seen = []
    for config in (cell, dataclasses.replace(cell)):
        runner, calls = ScenarioRunner(config), []
        for name in ("submit", "provision", "deliver"):
            step = getattr(runner, name)
            setattr(runner, name, lambda *args, step=step, name=name: (
                calls.append(name), step(*args)))
        runner.run()
        seen.append(calls)
    assert seen == [[], ["submit", "submit", "provision", "submit",
                         "deliver"]]


def test_a_hook_on_a_family_s_first_run_reaches_every_later_cell():
    """The family records its first run's state, hook and all: a leak
    granted before an honest/honest's ``run()`` is in the flow ledger of
    all three records, so every clean cell after it names the leak.  In a
    family of its own the same cell names none."""
    leak = ("node-host saw task0:inputs",)
    family = dataclasses.replace(CFG)
    runner = ScenarioRunner(family)
    runner.flow.grant(0, "inputs")
    assert runner.run().infoflow_violations == leak
    for pair in PAIRS:
        cell = family.with_strategies(*pair)
        assert run_scenario(cell).infoflow_violations == leak, pair
        assert run_scenario(dataclasses.replace(cell)).infoflow_violations == ()


@pytest.mark.parametrize("family", [
    dataclasses.replace(CFG, function_name="sum", inputs=("a", "b")),
], ids=["execution-fault"])
def test_a_first_cell_hooked_or_never_deciding_records_none(family):
    """An honest/honest whose execution faults records ``None`` at the
    reveal and the decision: the no-confirm/honest after it resumes from
    the opening, plays the rest itself, and writes what it writes in a
    fresh family."""
    family = dataclasses.replace(family)
    _run(family)
    for point in (ScenarioRunner.revealed, ScenarioRunner.accept):
        assert family.family.get(point) is None
    cell = family.with_strategies("no-confirm", "honest")
    assert _run(cell) == _run(dataclasses.replace(cell))


def test_a_node_holding_an_instance_restores_an_equal_copy():
    """A snapshot taken while the node holds its executed instance is a
    value, and restores an equal instance that is another object: the run
    that took it destroys its own instance, not the copy."""
    runner = ScenarioRunner(dataclasses.replace(CFG))
    submit, held = runner.submit, []

    def submit_while_holding(actor, call, value=0):
        if call.function == "finalizeExecutionNode":  # the instance is held
            [(instance, protected)] = runner.node._done_by_task.values()
            held.append((runner.node.snapshot(), instance,
                         dataclasses.replace(instance), protected))
        submit(actor, call, value)

    runner.submit = submit_while_holding
    runner.run()
    [(state, original, as_held, protected)] = held
    hash(state)
    node = ExecutionNodeActor(CFG, state)
    assert node.snapshot() == state
    [(instance, restored_protected)] = node._done_by_task.values()
    assert instance == as_held
    assert instance is not original
    assert restored_protected == protected
    assert original.state is EnclaveState.DESTROYED
    assert instance.state is EnclaveState.EXECUTED
    # The finished honest run's node destroyed, and so released, it.
    assert runner.node.snapshot() == (((0, CFG.function_name),), ())


# ----------------------------------------------------------------------
# dominance


def cells_of(config: ScenarioConfig) -> dict:
    """Every cell of ``config``'s payoff matrix, run directly: without
    ``payoff_matrix``'s regime check."""
    return {(r, n): run_scenario(config.with_strategies(r, n))
            for r in REQUESTOR_STRATEGIES for n in NODE_STRATEGIES}


def test_dominance_report_on_random_draws():
    rng = random.Random(7)
    for _ in range(10):
        cost = rng.randint(1, 20)
        payment = cost + rng.randint(1, 20)
        value = payment + rng.randint(1, 40)
        threshold = rng.randint(1, 15)
        config = ScenarioConfig(
            value_of_result=value, payment=payment, compute_cost=cost,
            threshold=threshold,
            initial_balance=value + payment + 2 * threshold + 100,
        )
        assert not dominance_check(payoff_matrix(config))


def test_the_verdict_runs_nothing(monkeypatch):
    cells = payoff_matrix(CFG)
    monkeypatch.setattr(harness_module, "run_scenario", None)
    monkeypatch.setattr(harness_module, "ScenarioRunner", None)
    assert dominance_check(cells) == []


def test_dominance_example_inequalities():
    # node: honest 7 beats claim-only -5 and compute-no-deliver -3;
    # requestor: honest 90 beats no-confirm 85.
    matrix = payoff_matrix(CFG)
    honest = matrix[("honest", "honest")]
    assert honest.node_payoff > matrix[("honest", "claim-only")].node_payoff
    assert honest.node_payoff > matrix[
        ("honest", "compute-no-deliver")].node_payoff
    assert honest.requestor_payoff > matrix[
        ("no-confirm", "honest")].requestor_payoff


# Gas counted in the payoffs: a no-confirm requestor forfeits its deposit
# but saves the finalizeRequestor gas, which at the standard tier's price
# costs more than this threshold.
GAS_IN_PAYOFFS = ScenarioConfig(gas_charging=True, include_gas_in_payoffs=True,
                                threshold=10**15, tier="standard")

#: Each tier's price times the gas of finalizeRequestor, at the defaults:
#: at a threshold no higher, a no-confirm requestor does as well as an
#: honest one.
G_FIN_REQ = {"slow": 10_961_644_427_482, "standard": 1_169_242_079_851_546,
             "fast": 3_083_875_985_664_290}


def test_dominance_reports_a_requestor_deviation_that_pays():
    with pytest.raises(ConfigInvalid,
                       match=r"threshold > g\(finalizeRequestor\)"):
        payoff_matrix(GAS_IN_PAYOFFS)
    assert dominance_check(cells_of(GAS_IN_PAYOFFS)) == [
        "requestor no-confirm (89995945109497737360) not dominated "
        "by honest (89995775867417885814)",
    ]
    # The confirmation costs less at the slow tier's gas price.
    slow = dataclasses.replace(GAS_IN_PAYOFFS, tier="slow")
    assert not dominance_check(payoff_matrix(slow))


@pytest.mark.parametrize("tier", TIERS)
def test_the_regime_ends_at_the_confirmation_gas(tier):
    g = G_FIN_REQ[tier]
    assert g == (DEFAULT_GAS_PRICE_PER_TIER[tier]
                 * DEFAULT_GAS_PER_FUNCTION["finalizeRequestor"])

    def at(threshold):  # a fresh config derives both deposits from it
        return ScenarioConfig(gas_charging=True, include_gas_in_payoffs=True,
                              threshold=threshold, tier=tier)

    assert not dominance_check(payoff_matrix(at(g + 1)))
    for threshold in (g, g - 1):
        config = at(threshold)
        with pytest.raises(ConfigInvalid):
            payoff_matrix(config)
        [violation] = dominance_check(cells_of(config))
        assert violation.startswith("requestor no-confirm (")


def test_dominance_reports_honest_losses_and_node_deviations():
    config = ScenarioConfig(
        gas_charging=True, include_gas_in_payoffs=True, tier="fast",
        value_of_result=3 * 10**15, payment=2 * 10**15, compute_cost=10**15,
        threshold=10**13)
    with pytest.raises(ConfigInvalid):
        payoff_matrix(config)
    assert dominance_check(cells_of(config)) == [
        "honest/honest payoffs not both positive",
        "requestor no-confirm (-7067273699863600) not dominated by "
        "honest (-10141149685527890)",
        "requestor withhold-input (-9807004598063600) not dominated "
        "by honest (-10141149685527890)",
        "node claim-only (-4217829132446400) not dominated by honest "
        "(-4738850313892340)",
    ]


def test_dominance_reports_a_cheating_node_that_loses_nothing():
    # No valid config gets here (the node's deposit and compute cost are
    # positive), so the claim-only cell's node payoff is replaced by 0.
    cells = payoff_matrix(CFG)
    cells["honest", "claim-only"] = dataclasses.replace(
        cells["honest", "claim-only"], node_payoff=0)
    assert dominance_check(cells) == [
        "cheating node claim-only did not lose funds (0)"]


def _gas(fields: dict, *functions: str) -> int:
    """The tier's price times the gas of ``functions`` if the payoffs count
    gas, else 0, from the defaults and the config ``fields``' overrides."""
    if not (fields["gas_charging"] and fields["include_gas_in_payoffs"]):
        return 0
    price = {**DEFAULT_GAS_PRICE_PER_TIER, **fields["gas_price_per_tier"]}
    gas = {**DEFAULT_GAS_PER_FUNCTION, **fields["gas_per_function"]}
    return price[fields["tier"]] * sum(gas[name] for name in functions)


#: The rational regime's three gas terms, each as the amount it bounds, the
#: amount that bound starts from and the functions whose gas it adds.
REGIME_TERMS = (
    ("payment", "compute_cost", ("claimTask", "finalizeExecutionNode")),
    ("value_of_result", "payment", ("submitTask", "finalizeRequestor")),
    ("threshold", None, ("finalizeRequestor",)),
)


@st.composite
def gas_charging_configs(draw, failing=None):
    """A gas-charging config whose amounts sit inside the rational regime,
    each past its gas term by a drawn margin; the term bounding the amount
    ``failing`` names gets a margin of at most 0 instead."""
    fields = dict(
        gas_charging=True,
        include_gas_in_payoffs=failing is not None or draw(st.booleans()),
        tier=draw(st.sampled_from(TIERS)),
        deliver_to_third_party=draw(st.booleans()),
        max_resubmits=draw(st.integers(0, 2)),
        rng_seed=draw(st.integers(0, 2**32)),
        initial_balance=10**24,
        gas_per_function=draw(st.dictionaries(
            st.sampled_from(sorted(DEFAULT_GAS_PER_FUNCTION)),
            st.integers(1, 10**6), max_size=2)),
        gas_price_per_tier=draw(st.dictionaries(
            st.sampled_from(TIERS), st.integers(1, 10**11), max_size=2)),
        compute_cost=draw(st.integers(1, 10**16)))
    for amount, start, functions in REGIME_TERMS:
        bound = fields.get(start, 0) + _gas(fields, *functions)
        # A failing margin leaves the amount non-negative, and the threshold
        # positive.
        margin = (st.integers(-bound + (amount == "threshold"), 0)
                  if amount == failing else st.integers(1, 10**16))
        fields[amount] = bound + draw(margin)
    fields["node_deposit"] = fields["threshold"] + draw(st.integers(0, 10**16))
    return ScenarioConfig(**fields)


@settings(deadline=None)
@given(config=gas_charging_configs())
def test_every_config_in_the_regime_gets_an_empty_verdict(config):
    assert config.in_rational_regime
    assert dominance_check(payoff_matrix(config)) == []


@settings(deadline=None)
@given(data=st.data(),
       failing=st.sampled_from([amount for amount, _, _ in REGIME_TERMS]))
def test_a_config_failing_one_gas_term_is_refused_and_not_dominant(
        data, failing):
    config = data.draw(gas_charging_configs(failing))
    with pytest.raises(ConfigInvalid, match="rational regime"):
        payoff_matrix(config)
    assert dominance_check(cells_of(config))


# ----------------------------------------------------------------------
# the deadline: a late reveal races the honest requestor's timeout


ETHER = 10**18
#: honest/honest at the default amounts when the result arrives, and when
#: the task times out first: each party loses its deposit, the node also
#: its compute cost.
PAID = (90 * ETHER, 7 * ETHER)
TIMED_OUT = (-ETHER // 2, -7 * ETHER // 2)

#: Each race at the default ``expires`` E, on a tier of delay d: the
#: execution delay, each call after the claim as (function, refusal or
#: None, time) with D = d + E + 1 the deadline, and the payoffs.  Calls of
#: one time run in the order they were queued, so at the tie the expiry,
#: queued with the task, goes first.
RACES = {
    "in-time": (lambda E, d: E - 2 * d, lambda d, D: [
        ("finalizeExecutionNode", None, D - 1),
        ("finalizeRequestor", None, D - 1 + d)], PAID),
    "timeout-refused-first": (lambda E, d: E - 2 * d + 1, lambda d, D: [
        ("finalizeExecutionNode", None, D),
        ("timeout", "AlreadyCompleted", D + d),
        ("finalizeRequestor", None, D + 2 * d)], PAID),
    "timeout-refused-last": (lambda E, d: E - d, lambda d, D: [
        ("finalizeExecutionNode", None, D - 1 + d),
        ("timeout", "AlreadyCompleted", D - 1 + 2 * d),
        ("finalizeRequestor", None, D - 1 + 3 * d)], PAID),
    "tie": (lambda E, d: E - d + 1, lambda d, D: [
        ("timeout", None, D + d),
        ("finalizeExecutionNode", "TaskDead", D + 2 * d)], TIMED_OUT),
    "late": (lambda E, d: E - d + 2, lambda d, D: [
        ("timeout", None, D + d),
        ("finalizeExecutionNode", "TaskDead", D + 2 * d)], TIMED_OUT),
}


def race_config(tier: str, race: str) -> ScenarioConfig:
    """The default config, charging gas, at ``race``'s execution delay."""
    expires = ScenarioConfig.expires
    delay = RACES[race][0](expires, DEFAULT_CONFIRMATION_DELAY[tier])
    return ScenarioConfig(tier=tier, execution_delay=delay, gas_charging=True)


@pytest.mark.parametrize("race", RACES)
@pytest.mark.parametrize("tier", TIERS)
def test_a_reveal_past_the_deadline_loses_to_the_timeout(tier, race):
    config = race_config(tier, race)
    d = DEFAULT_CONFIRMATION_DELAY[tier]
    _, after_the_claim, payoffs = RACES[race]
    runner = ScenarioRunner(config)
    outcome = runner.run()
    records = runner.trace.records
    calls = [(r["function"], r["outcome"].get("reason"), r["timestamp"])
             for r in records if r["type"] == "call"]
    assert calls == [("submitTask", None, d), ("claimTask", None, 2 * d),
                     *after_the_claim(d, d + config.expires + 1)]
    assert (outcome.requestor_payoff, outcome.node_payoff) == payoffs
    assert outcome.end_to_end_seconds == calls[-1][2]
    # A refused timeout costs the requestor its gas all the same.
    price = DEFAULT_GAS_PRICE_PER_TIER[tier]
    assert outcome.gas_by_party["requestor"] == price * sum(
        DEFAULT_GAS_PER_FUNCTION[function] for function, _, _ in calls
        if function in ("submitTask", "timeout", "finalizeRequestor"))
    # A refused reveal destroys the instance the node executed.
    ops = [r["op"] for r in records if r["type"] == "enclave"]
    assert ops.count("instantiate") == ops.count("destroy") == 1
    assert runner.node.snapshot()[1] == ()


@pytest.mark.parametrize("tier", TIERS)
def test_the_requestor_waits_for_its_result_up_to_the_edge(tier):
    """``in_time`` holds while 2 * delay + execution_delay <= expires, with
    the delay the config itself sets for its tier."""
    edge = ScenarioConfig.expires - 2 * DEFAULT_CONFIRMATION_DELAY[tier]
    assert race_config(tier, "in-time").in_time
    assert not race_config(tier, "timeout-refused-first").in_time
    for delay, expected in ((edge + 10, True), (edge + 11, False)):
        config = ScenarioConfig(tier=tier, execution_delay=delay,
                                confirmation_delay_per_tier={
                                    tier: DEFAULT_CONFIRMATION_DELAY[tier] - 5})
        assert config.in_time is expected


# ----------------------------------------------------------------------
# gas and latency reports


def test_gas_report_matches_published_costs():
    report = gas_report("slow")
    gas = report["perFunctionGas"]
    assert gas["deploy"] == 1_260_850
    assert gas["submitTask"] == 277_880
    assert gas["claimTask"] == 145_120
    assert gas["finalizeExecutionNode"] == 52_802
    assert gas["finalizeRequestor"] == 106_357
    assert report["totalPerTaskGas"] == 582_159
    # Deploy is reported but excluded from the per-task total.
    assert report["totalPerTaskGas"] < gas["deploy"] + 582_159


def test_gas_report_slow_tier_cost_near_reference():
    report = gas_report("slow")
    ether = report["totalPerTaskCostWei"] / 10**18
    assert abs(ether - 0.00006) / 0.00006 < 1e-4


def test_latency_per_tier():
    for tier, expected in (("slow", 2400), ("standard", 1200), ("fast", 480)):
        report = latency_report(tier, CFG)
        assert report["onChainSeconds"] == expected
        assert report["totalSeconds"] == expected


def test_latency_includes_execution_delay():
    config = dataclasses.replace(CFG, execution_delay=50)
    report = latency_report("fast", config)
    assert report["totalSeconds"] == 480 + 50
    assert report["onChainSeconds"] == 480


def test_latency_zero_delay_tier():
    config = dataclasses.replace(
        CFG, execution_delay=50,
        confirmation_delay_per_tier={"slow": 0, "standard": 0, "fast": 0},
    )
    report = latency_report("standard", config)
    assert report["totalSeconds"] == 50
    assert report["onChainSeconds"] == 0


def test_latency_refuses_a_late_result_before_any_run(monkeypatch):
    def no_run(runner):
        raise AssertionError("ran a scenario")

    monkeypatch.setattr(ScenarioRunner, "run", no_run)
    config = dataclasses.replace(CFG, execution_delay=5000)
    with pytest.raises(ConfigInvalid, match="arrives late at standard"):
        latency_report("standard", config)


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
