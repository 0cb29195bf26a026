"""Pinned traceIds: any change that is meant to be speed-only keeps them.

Each value is the ``traceId`` of one seeded run.  A mismatch means the
trace bytes changed, so the change is not behaviour-preserving and must
be made on purpose (and these values re-derived) or not at all.
"""

from __future__ import annotations

from itertools import product

import pytest
from conftest import flip_first_ciphertext_bit

from teescrow.config import NODE_STRATEGIES, REQUESTOR_STRATEGIES, ScenarioConfig
from teescrow.harness import ScenarioRunner
from teescrow.ledger import TIERS


def golden_configs() -> dict[str, ScenarioConfig]:
    cases = {
        f"{r}/{n}/{tier}": ScenarioConfig(
            requestor_strategy=r, node_strategy=n, tier=tier)
        for (r, n), tier in product(
            product(REQUESTOR_STRATEGIES, NODE_STRATEGIES), TIERS)
    }
    cases["third-party"] = ScenarioConfig(deliver_to_third_party=True)
    cases["sum-64"] = ScenarioConfig(function_name="sum",
                                     inputs=tuple(range(64)))
    cases["sha256-hex-64"] = ScenarioConfig(function_name="sha256-hex",
                                            inputs=tuple(range(64)))
    cases["execution-delay-5"] = ScenarioConfig(execution_delay=5)
    cases["withhold-chain-3"] = ScenarioConfig(
        requestor_strategy="withhold-input", max_resubmits=3)
    # Twelve tasks: the contract state's keys "10" and "11" sort before "2".
    cases["withhold-chain-11"] = ScenarioConfig(
        requestor_strategy="withhold-input", max_resubmits=11)
    cases["wrong-measurement"] = ScenarioConfig()
    cases["execution-fault"] = ScenarioConfig(function_name="sum",
                                              inputs=("a", "b"))
    cases["delivery-tamper"] = ScenarioConfig()
    cases["delivery-tamper-third-party"] = ScenarioConfig(
        deliver_to_third_party=True)
    cases["gas-in-payoffs"] = ScenarioConfig(gas_charging=True,
                                             include_gas_in_payoffs=True)
    # Strings that need escaping, nested lists and objects, a float, null,
    # both bools and an int past 64 bits.
    cases["hostile-inputs"] = ScenarioConfig(inputs=(
        'q"uote', "back\\slash", "bell\x07",
        "n\u00f6n-ASCII \u2713 \U0001f600",
        [[1.5, None], [[-0.25]], []], {"b": [None], "a": 1},
        True, False, 2**64 + 1))
    return cases


def _expect_wrong_measurement(runner: ScenarioRunner) -> None:
    runner.requestor.allow_list[runner.config.function_name] = bytes(32)


#: Cases that reach a failure path through a runner hook, not the config.
RUNNER_SETUPS = {
    "wrong-measurement": _expect_wrong_measurement,
    "delivery-tamper": flip_first_ciphertext_bit,
    "delivery-tamper-third-party": flip_first_ciphertext_bit,
}


GOLDEN_TRACE_IDS = {
    "honest/honest/slow": "410d9a26d312e230",
    "honest/honest/standard": "cd9bf4e49b47bf37",
    "honest/honest/fast": "30baca1ba4b60483",
    "honest/claim-only/slow": "a5d972ddd15f3532",
    "honest/claim-only/standard": "b37cd3cfbd193d60",
    "honest/claim-only/fast": "c5c2728975db1187",
    "honest/compute-no-deliver/slow": "e353ef2bf971aae6",
    "honest/compute-no-deliver/standard": "1bd2e6cdd4e40d43",
    "honest/compute-no-deliver/fast": "580234db3777bf56",
    "no-confirm/honest/slow": "29689c5e555ecee1",
    "no-confirm/honest/standard": "1c525010dba70dbc",
    "no-confirm/honest/fast": "cce4b01f3b0d8748",
    "no-confirm/claim-only/slow": "352105633af671fe",
    "no-confirm/claim-only/standard": "fd7ce6fc7cea4dcd",
    "no-confirm/claim-only/fast": "8791965797baff66",
    "no-confirm/compute-no-deliver/slow": "0f261ba263dd75cb",
    "no-confirm/compute-no-deliver/standard": "38f1466ad9ffdb42",
    "no-confirm/compute-no-deliver/fast": "7cb74459c207e878",
    "withhold-input/honest/slow": "198bbd18b99f5707",
    "withhold-input/honest/standard": "e38d620d8e5fa907",
    "withhold-input/honest/fast": "e3bc0480dc5112c7",
    "withhold-input/claim-only/slow": "c3cb1dcf8afd0218",
    "withhold-input/claim-only/standard": "abec7083960515ff",
    "withhold-input/claim-only/fast": "db0ad7a1c2684e05",
    "withhold-input/compute-no-deliver/slow": "dc27e66876830197",
    "withhold-input/compute-no-deliver/standard": "4df7bab0e5107993",
    "withhold-input/compute-no-deliver/fast": "7494732587050bd9",
    "third-party": "97e599544446e7a9",
    "sum-64": "e16b74f0d08679ce",
    "sha256-hex-64": "421d8e711c80231c",
    "execution-delay-5": "da05e4cef0c03411",
    "withhold-chain-3": "b024bf3ed0d068ee",
    "wrong-measurement": "f55b0be73107df8d",
    "execution-fault": "407c4de3bd62d1d7",
    "delivery-tamper": "817c4df3be54d1d2",
    "gas-in-payoffs": "f02c74bb93a2b73a",
    "withhold-chain-11": "f45bce724b65ebaa",
    "hostile-inputs": "9bde6494bd0555d7",
    "delivery-tamper-third-party": "89aed20b3e447648",
}


def test_every_case_is_pinned():
    assert set(GOLDEN_TRACE_IDS) == set(golden_configs())


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_trace_id_unchanged(name):
    runner = ScenarioRunner(golden_configs()[name])
    RUNNER_SETUPS.get(name, lambda runner: None)(runner)
    assert runner.run().trace_id == GOLDEN_TRACE_IDS[name]
