"""A config is a value: nothing in it, nor in the gas schedule its family
hands every ledger, can change after it is built, so a family's shared
values always describe the config that reads them."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_traces import PAIRS
from test_harness import _INT_MAPS, _JSON, _nested

from teescrow.config import ConfigInvalid, ScenarioConfig
from teescrow.enclave import BUILTIN_BODIES
from teescrow.harness import ScenarioRunner
from teescrow.ledger import (
    DEFAULT_GAS_PER_FUNCTION,
    TIERS,
    FrozenDict,
    GasSchedule,
)

#: The traceId of ``ScenarioConfig(inputs=[1, 2, 3], function_name="sum")``.
SUM_TRACE_ID = "f198d2a3f5f72f23"

_MAP_FIELDS = ("gas_per_function", "gas_price_per_tier",
               "confirmation_delay_per_tier")


def _recorded_run(config: ScenarioConfig):
    """The run's trace bytes, its outcome and the inputs its enclave was
    provisioned with.  The run has a family of its own, so it provisions
    even when an earlier run of ``config`` did."""
    runner = ScenarioRunner(dataclasses.replace(config))
    provisioned = []
    provision = runner.provision

    def recording(instance, task_id, measurement, nonce, secret, inputs,
                  keys):
        provisioned.append(inputs)
        provision(instance, task_id, measurement, nonce, secret, inputs,
                  keys)

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


def test_a_frozen_config_copies_pickles_and_hashes_as_a_value():
    config = ScenarioConfig(inputs={"a": [1, {"b": 2}]},
                            gas_price_per_tier={"fast": 9})
    for twin in (copy.copy(config), copy.deepcopy(config),
                 pickle.loads(pickle.dumps(config))):
        assert twin == config and hash(twin) == hash(config)
        assert type(twin.inputs) is FrozenDict
        assert type(twin.gas_price_per_tier) is FrozenDict
        assert _recorded_run(twin)[0] == _recorded_run(config)[0]
    assert hash(config) != hash(dataclasses.replace(config, inputs={"a": 1}))


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


def _trace_or_refusal(config: ScenarioConfig) -> str:
    try:
        runner = ScenarioRunner(config)
    except ConfigInvalid as exc:
        return f"refused: {exc}"
    runner.run()
    return runner.trace.to_jsonl()


#: Override maps that a run accepts, as well as ``_INT_MAPS``, which it
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


@settings(max_examples=60, deadline=None)
@given(inputs=_JSON | st.lists(_JSON, max_size=4).map(tuple),
       maps=st.fixed_dictionaries({name: maps | _INT_MAPS
                                   for name, maps in _RUNNABLE_MAPS.items()}),
       function_name=st.sampled_from(sorted(BUILTIN_BODIES)),
       pair=st.sampled_from(PAIRS), gas_charging=st.booleans())
def test_a_config_read_back_from_its_json_writes_the_same_trace(
        inputs, maps, function_name, pair, gas_charging):
    config = ScenarioConfig(
        requestor_strategy=pair[0], node_strategy=pair[1], inputs=inputs,
        function_name=function_name, gas_charging=gas_charging,
        initial_balance=10**30, **maps)
    obj = config.to_json_obj()
    assert _is_plain(obj)
    again = ScenarioConfig.from_dict(json.loads(json.dumps(obj)))
    assert again.to_json_obj() == obj
    assert _trace_or_refusal(again) == _trace_or_refusal(config)


def _layers(value) -> list[type]:
    """The type of each layer of nested one-item sequences, outermost
    first, walked without recursion."""
    types = []
    while value:
        types.append(type(value))
        [value] = value
    return types


def test_deep_inputs_are_frozen_and_refused_without_recursion():
    config = ScenarioConfig.from_dict({"inputs": _nested(5000)})
    assert _layers(config.inputs) == [tuple] * 5000
    assert _layers(config.to_json_obj()["inputs"]) == [list] * 5000
    with pytest.raises(ConfigInvalid, match="^inputs must be strict JSON"):
        config.validate()
    with pytest.raises(ConfigInvalid, match="^inputs must be strict JSON"):
        ScenarioRunner(config.with_strategies("honest", "claim-only"))


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
