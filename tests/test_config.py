"""A config is a value, checked once, when it is built: no config a run
refuses can be built, and nothing in a config, nor in the gas schedule it
hands every ledger, can change after it is built, so the values its family
shares always describe the config that reads them."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_traces import PAIRS
from test_harness import _INT_MAPS, _JSON, _RUNNABLE_MAPS, _nested

from teescrow.config import (
    MAX_RESUBMITS,
    UNIT,
    ConfigInvalid,
    ScenarioConfig,
)
from teescrow.enclave import BUILTIN_BODIES
from teescrow.harness import ScenarioRunner
from teescrow.ledger import DEFAULT_GAS_PER_FUNCTION, FrozenDict, GasSchedule

#: The traceId of ``ScenarioConfig(inputs=[1, 2, 3], function_name="sum")``.
SUM_TRACE_ID = "b5a768e5ac7d90a2"

_MAP_FIELDS = ("gas_per_function", "gas_price_per_tier",
               "confirmation_delay_per_tier")


def _recorded_run(config: ScenarioConfig):
    """The run's trace bytes, its outcome and the inputs its enclave was
    provisioned with.  The run has a family of its own, so it provisions
    even when an earlier run of ``config`` did."""
    runner = ScenarioRunner(dataclasses.replace(config))
    provisioned = []
    provision = runner.provision

    def recording(task_id, measurement, nonce, secret, inputs, keys):
        provisioned.append(inputs)
        provision(task_id, measurement, nonce, secret, inputs, keys)

    runner.provision = recording
    outcome = runner.run()
    return runner.trace.to_jsonl(), outcome, provisioned


def _refusals(mapping):
    """Every way to change ``mapping`` in place."""
    return [
        lambda: mapping.__setitem__("submitTask", 1),
        lambda: mapping.__delitem__(next(iter(mapping))),
        lambda: mapping.update(submitTask=1),
        lambda: mapping.setdefault("submitTask", 1),
        lambda: mapping.pop(next(iter(mapping))),
        lambda: mapping.popitem(),
        lambda: mapping.clear(),
        lambda: mapping.__ior__({"submitTask": 1}),
    ]


def test_a_config_refuses_every_change_after_a_run():
    config = ScenarioConfig(
        inputs=[1, [2, 3], {"a": [4]}], function_name="sha256-hex",
        gas_per_function={"submitTask": 300_000},
        gas_price_per_tier={"slow": 5}, confirmation_delay_per_tier={"fast": 6},
        gas_charging=True)
    before = _recorded_run(config)
    with pytest.raises(TypeError):
        config.gas_per_function["submitTask"] = 1
    with pytest.raises(AttributeError):
        config.inputs.append(4)
    with pytest.raises(TypeError):
        config.inputs[1][0] = 9  # a nested list
    with pytest.raises(TypeError):
        config.inputs[2]["a"] = 9  # a nested object
    with pytest.raises(AttributeError):
        config.inputs[2]["a"].append(5)
    for name in _MAP_FIELDS:
        for change in _refusals(getattr(config, name)):
            with pytest.raises(TypeError):
                change()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.inputs = [1]
    assert _recorded_run(config)[0] == before[0]
    assert config.to_json_obj()["gas_per_function"] == {"submitTask": 300_000}


def test_a_ledger_schedule_refuses_every_change():
    runner = ScenarioRunner(ScenarioConfig(gas_per_function={"timeout": 7}))
    schedule = runner.ledger.schedule
    with pytest.raises(TypeError):
        schedule.per_function["claimTask"] = 1
    for name in ("per_function", "gas_price_per_tier",
                 "confirmation_delay_per_tier"):
        for change in _refusals(getattr(schedule, name)):
            with pytest.raises(TypeError):
                change()
    with pytest.raises(dataclasses.FrozenInstanceError):
        schedule.per_function = {}
    runner.run()
    assert schedule.per_function["timeout"] == 7


def test_a_schedule_keeps_a_copy_of_the_maps_it_is_given():
    per_function = dict(DEFAULT_GAS_PER_FUNCTION)
    schedule = GasSchedule(per_function=per_function)
    per_function["claimTask"] = 1
    assert schedule.per_function == DEFAULT_GAS_PER_FUNCTION
    assert type(schedule.per_function) is FrozenDict
    # Reads are a dict's: a copy or a union is a plain, mutable dict.
    assert type(dict(schedule.per_function)) is dict
    assert type(schedule.per_function | {}) is dict


def _twins(config: ScenarioConfig) -> tuple:
    return (copy.copy(config), copy.deepcopy(config),
            pickle.loads(pickle.dumps(config)))


def test_a_frozen_config_copies_pickles_and_hashes_as_a_value():
    config = ScenarioConfig(inputs={"a": [1, {"b": 2}]},
                            gas_price_per_tier={"fast": 9})
    for twin in _twins(config):
        assert twin == config and hash(twin) == hash(config)
        assert type(twin.inputs) is FrozenDict
        assert type(twin.gas_price_per_tier) is FrozenDict
        assert _recorded_run(twin)[0] == _recorded_run(config)[0]
    assert hash(config) != hash(dataclasses.replace(config, inputs={"a": 1}))
    # A config that has run holds its family's records, keys and hash
    # state among them; each twin starts a family of its own.
    runner = ScenarioRunner(config)
    runner.run()
    for twin in _twins(config):
        assert twin == config and twin.family is not config.family
        assert not twin.family
        twin_runner = ScenarioRunner(twin)
        twin_runner.run()
        assert twin_runner.trace.to_jsonl() == runner.trace.to_jsonl()


def test_changing_the_given_inputs_changes_neither_run_nor_trace():
    """The config keeps its own frozen copy: appending to the list it was
    built from leaves its runs, their trace and ``to_json_obj`` alike, and
    the enclave computes over the inputs the trace records."""
    inputs = [1, 2, 3]
    config = ScenarioConfig(inputs=inputs, function_name="sum")
    first = _recorded_run(config)
    inputs.append(4)
    with pytest.raises(AttributeError):
        config.inputs.append(4)
    second = _recorded_run(config)
    assert first == second
    trace, outcome, provisioned = second
    assert outcome.trace_id == SUM_TRACE_ID
    recorded = json.loads(trace.split("\n")[0])["config"]["inputs"]
    assert recorded == config.to_json_obj()["inputs"] == [1, 2, 3]
    assert provisioned == [(1, 2, 3)]
    fresh = ScenarioConfig.from_dict(config.to_json_obj())
    assert _recorded_run(fresh) == second


def _is_plain(value) -> bool:
    """Only ``list``, ``dict`` and JSON scalars, all the way down."""
    if type(value) is list:
        return all(map(_is_plain, value))
    if type(value) is dict:
        return all(map(_is_plain, value.values()))
    return type(value) in (str, int, float, bool, type(None))


def _trace(config: ScenarioConfig) -> str:
    runner = ScenarioRunner(config)
    runner.run()
    return runner.trace.to_jsonl()


@settings(max_examples=60, deadline=None)
@given(inputs=_JSON | st.lists(_JSON, max_size=4).map(tuple),
       maps=st.fixed_dictionaries({name: maps | _INT_MAPS
                                   for name, maps in _RUNNABLE_MAPS.items()}),
       function_name=st.sampled_from(sorted(BUILTIN_BODIES)),
       pair=st.sampled_from(PAIRS), gas_charging=st.booleans())
def test_a_config_read_back_from_its_json_writes_the_same_trace(
        inputs, maps, function_name, pair, gas_charging):
    given_fields = dict(
        requestor_strategy=pair[0], node_strategy=pair[1], inputs=inputs,
        function_name=function_name, gas_charging=gas_charging,
        initial_balance=10**30, **maps)
    try:
        config = ScenarioConfig(**given_fields)
    except ConfigInvalid as exc:
        # The JSON form of what was given is refused alike.
        with pytest.raises(ConfigInvalid) as again:
            ScenarioConfig.from_dict(json.loads(json.dumps(given_fields)))
        assert str(again.value) == str(exc)
        return
    obj = config.to_json_obj()
    assert _is_plain(obj)
    again = ScenarioConfig.from_dict(json.loads(json.dumps(obj)))
    assert again.to_json_obj() == obj
    assert _trace(again) == _trace(config)


def _layers(value) -> list[type]:
    """The type of each layer of nested one-item sequences, outermost
    first, walked without recursion."""
    types = []
    while value:
        types.append(type(value))
        [value] = value
    return types


def test_deep_inputs_are_frozen_and_refused_without_recursion(monkeypatch):
    """Freezing and thawing walk without recursion: inputs deeper than the
    encoder can follow are refused by the JSON check, not by the walk."""
    with pytest.raises(ConfigInvalid, match="^inputs must be strict JSON"):
        ScenarioConfig.from_dict({"inputs": _nested(5000)})
    frozen = []
    monkeypatch.setattr(ScenarioConfig, "_json_parts",
                        lambda config: frozen.append(config.inputs))
    config = ScenarioConfig.from_dict({"inputs": _nested(5000)})
    assert _layers(frozen[0]) == [tuple] * 5000
    assert _layers(config.to_json_obj()["inputs"]) == [list] * 5000


def test_inputs_that_hold_themselves_are_refused():
    inputs = [1]
    inputs.append({"again": inputs})
    with pytest.raises(ConfigInvalid, match="^inputs must be strict JSON"):
        ScenarioConfig(inputs=inputs)
    # The same list twice is no cycle.
    shared = [1, 2]
    config = ScenarioConfig(inputs=[shared, {"b": shared}])
    assert config.inputs == ((1, 2), {"b": (1, 2)})
    ScenarioRunner(config).run()


def test_inputs_that_repeat_one_list_are_frozen_once():
    """A list found on many paths is frozen once and shared, and thawed
    the same way: 16 levels of ``x = [x, x]`` hold 65,536 leaves."""
    inputs = [1]
    for _ in range(16):
        inputs = [inputs, inputs]
    config = ScenarioConfig(inputs=inputs)
    frozen, thawed = config.inputs, config.to_json_obj()["inputs"]
    for _ in range(16):
        assert frozen[0] is frozen[1] and type(frozen) is tuple
        assert thawed[0] is thawed[1] and type(thawed) is list
        frozen, thawed = frozen[0], thawed[0]
    assert frozen == (1,) and thawed == [1]


#: Each value rule a config keeps: (overrides of the defaults, the message).
_RULES = {
    "requestor-strategy": ({"requestor_strategy": "bogus"},
                           "unknown requestor strategy 'bogus'"),
    "node-strategy": ({"node_strategy": "bogus"},
                      "unknown node strategy 'bogus'"),
    "tier": ({"tier": "medium"}, "unknown tier 'medium'"),
    "threshold": ({"threshold": 0}, "threshold must be positive"),
    "node-deposit": ({"node_deposit": 1},
                     "node_deposit must be at least the threshold"),
    "value": ({"value_of_result": -1}, "value_of_result must be non-negative"),
    "payment": ({"payment": -1}, "payment must be non-negative"),
    "cost": ({"compute_cost": -1}, "compute_cost must be non-negative"),
    "expires": ({"expires": 0}, "expires must be positive"),
    "execution-delay": ({"execution_delay": -1},
                        "execution_delay must be non-negative"),
    "negative-resubmits": ({"max_resubmits": -1},
                           "max_resubmits must be non-negative"),
    "resubmits-past-the-cap": ({"max_resubmits": MAX_RESUBMITS + 1},
                               f"max_resubmits must be at most {MAX_RESUBMITS}"),
    "strict-json": ({"inputs": [float("nan")]},
                    "inputs must be strict JSON: "),
    "gas-key": ({"gas_per_function": {"mint": 1}},
                "unknown gas_per_function keys: ['mint']"),
    "price-key": ({"gas_price_per_tier": {"medium": 1}},
                  "unknown gas_price_per_tier keys: ['medium']"),
    "delay-key": ({"confirmation_delay_per_tier": {"medium": 1}},
                  "unknown confirmation_delay_per_tier keys: ['medium']"),
    "zero-gas": ({"gas_per_function": {"timeout": 0}},
                 "gas for 'timeout' must be positive"),
    "zero-price": ({"gas_price_per_tier": {"fast": 0}},
                   "missing or non-positive gas price for 'fast'"),
    "negative-delay": ({"confirmation_delay_per_tier": {"slow": -1}},
                       "missing or negative delay for 'slow'"),
    "fund-requestor": ({"initial_balance": 10 * UNIT},
                       "initial_balance cannot fund the requestor"),
    "fund-node": ({"initial_balance": 11 * UNIT, "node_deposit": 20 * UNIT},
                  "initial_balance cannot fund the node"),
    "function": ({"function_name": "nope"}, "unknown function 'nope'"),
}


@pytest.mark.parametrize("build", [
    lambda overrides: ScenarioConfig(**overrides),
    lambda overrides: dataclasses.replace(ScenarioConfig(), **overrides),
    ScenarioConfig.from_dict,
], ids=["init", "replace", "from-dict"])
@pytest.mark.parametrize("rule", sorted(_RULES))
def test_a_config_no_run_could_use_is_refused_when_built(build, rule):
    overrides, message = _RULES[rule]
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}"):
        build(overrides)


@pytest.mark.parametrize("pair, message", [
    (("bogus", "honest"), "unknown requestor strategy 'bogus'"),
    (("honest", "bogus"), "unknown node strategy 'bogus'"),
    ((None, "honest"), "unknown requestor strategy None"),
], ids=["requestor", "node", "not-a-string"])
def test_with_strategies_refuses_an_unknown_name(pair, message):
    """Deriving checks the two names it sets; the rest it shares."""
    base = ScenarioConfig()
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
        base.with_strategies(*pair)
    derived = base.with_strategies("no-confirm", "claim-only")
    assert derived.gas_schedule is base.gas_schedule
    assert derived.json_parts is base.json_parts
    assert derived.family is base.family
