"""Pinned traceIds: any change that is meant to be speed-only keeps them.

Each value is the ``traceId`` of one seeded run.  A mismatch means the
trace bytes changed, so the change is not behaviour-preserving and must
be made on purpose (and these values re-derived) or not at all.  A
delivery's line holds the SHA-256 of the bytes it carries, so the pins
cover the delivered results too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from itertools import product

import pytest
from conftest import flip_first_ciphertext_bit

from teescrow.config import (
    NODE_STRATEGIES,
    REQUESTOR_STRATEGIES,
    UNIT,
    ScenarioConfig,
)
from teescrow.harness import ScenarioRunner, payoff_matrix
from teescrow.ledger import TIERS

PAIRS = tuple(product(REQUESTOR_STRATEGIES, NODE_STRATEGIES))


def golden_configs() -> dict[str, ScenarioConfig]:
    cases = {
        f"{r}/{n}/{tier}": ScenarioConfig(
            requestor_strategy=r, node_strategy=n, tier=tier)
        for (r, n), tier in product(PAIRS, TIERS)
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
    # Chains whose receipts and events the actors do not act on: a silent
    # claimant under each requestor that times out, and a refused timeout
    # after a completed task that ends the run.
    cases["claim-only-chain-3"] = ScenarioConfig(
        node_strategy="claim-only", max_resubmits=3)
    cases["withhold-claim-only-chain-3"] = ScenarioConfig(
        requestor_strategy="withhold-input", node_strategy="claim-only",
        max_resubmits=3)
    cases["compute-no-deliver-chain-3"] = ScenarioConfig(
        node_strategy="compute-no-deliver", max_resubmits=3)
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
    # Inputs that hold both strategy keys with empty names, as an object
    # and as a string: the scenario writer splits at the config's own keys.
    cases["strategy-keys-in-inputs"] = ScenarioConfig(inputs=(
        {"node_strategy": "", "requestor_strategy": ""},
        '"node_strategy":""'))
    return cases


def _expect_wrong_measurement(runner: ScenarioRunner) -> None:
    runner.requestor.expected_measurement = bytes(32)


#: Cases that reach a failure path through a runner hook, not the config.
RUNNER_SETUPS = {
    "wrong-measurement": _expect_wrong_measurement,
    "delivery-tamper": flip_first_ciphertext_bit,
    "delivery-tamper-third-party": flip_first_ciphertext_bit,
}


GOLDEN_TRACE_IDS = {
    "honest/honest/slow": "bc71bad168c18530",
    "honest/honest/standard": "9a746487c11c008c",
    "honest/honest/fast": "68f58aa74d315007",
    "honest/claim-only/slow": "f52ed4dd71952d0a",
    "honest/claim-only/standard": "ebe686e9a1275943",
    "honest/claim-only/fast": "fab355f83c8cf7f7",
    "honest/compute-no-deliver/slow": "0c9bbdd640805885",
    "honest/compute-no-deliver/standard": "07e67357c5ed00a9",
    "honest/compute-no-deliver/fast": "65f22670e5d7cb1b",
    "no-confirm/honest/slow": "2a0aa6488420d9f5",
    "no-confirm/honest/standard": "7eac7f00cbb41d52",
    "no-confirm/honest/fast": "aeacd951a379dd60",
    "no-confirm/claim-only/slow": "42d369e59c2e465e",
    "no-confirm/claim-only/standard": "c55dff8d0c213357",
    "no-confirm/claim-only/fast": "f6b0f70fff92eb82",
    "no-confirm/compute-no-deliver/slow": "b61975bad1ed94b5",
    "no-confirm/compute-no-deliver/standard": "6a1a2da9a3962910",
    "no-confirm/compute-no-deliver/fast": "13b8722790b4f6a5",
    "withhold-input/honest/slow": "ab6786996d4c02de",
    "withhold-input/honest/standard": "fe756afa27535864",
    "withhold-input/honest/fast": "2a32bd25c948711f",
    "withhold-input/claim-only/slow": "984f4e3528a54206",
    "withhold-input/claim-only/standard": "f7e8acbabc5cceca",
    "withhold-input/claim-only/fast": "f7cbfc77c2722d83",
    "withhold-input/compute-no-deliver/slow": "afea4d257e485ec0",
    "withhold-input/compute-no-deliver/standard": "844e7c02d4cc1f95",
    "withhold-input/compute-no-deliver/fast": "54f7593326c42e5c",
    "third-party": "2dbd0fbace02742b",
    "sum-64": "c051248abeb60fee",
    "sha256-hex-64": "79ecf8d3054fe7eb",
    "execution-delay-5": "90d0856771c14611",
    "withhold-chain-3": "24e92355f7422af1",
    "wrong-measurement": "89ad19922a02e393",
    "execution-fault": "a4732eebe1e80fd0",
    "delivery-tamper": "b44b04521b82ace6",
    "gas-in-payoffs": "91f0375d660a6950",
    "withhold-chain-11": "d8124ccca9744f88",
    "hostile-inputs": "86ed01601233ab43",
    "delivery-tamper-third-party": "50a0cac828dc6ed1",
    "claim-only-chain-3": "ca40464e7f987c74",
    "withhold-claim-only-chain-3": "c8e7c00fbccf4ada",
    "compute-no-deliver-chain-3": "371ecbccaf0e3855",
    "strategy-keys-in-inputs": "2c87b15f306c2eb8",
}


def test_every_case_is_pinned():
    assert set(GOLDEN_TRACE_IDS) == set(golden_configs())


def _trace_id(name: str, config: ScenarioConfig | None = None) -> str:
    runner = ScenarioRunner(config or golden_configs()[name])
    RUNNER_SETUPS.get(name, lambda runner: None)(runner)
    return runner.run().trace_id


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_trace_id_unchanged(name):
    assert _trace_id(name) == GOLDEN_TRACE_IDS[name]


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_pins_hold_for_a_later_cell_of_the_family(name, order):
    """The golden run as the last cell of its config family: the other
    eight strategy pairs run first, through ``with_strategies``, so the
    state the family shares is built by another cell.  Each run carries
    the golden's runner hook, as every run of a hooked family must."""
    config = golden_configs()[name]
    setup = RUNNER_SETUPS.get(name, lambda runner: None)
    own = (config.requestor_strategy, config.node_strategy)
    others = [pair for pair in PAIRS if pair != own]
    if order == "reversed":
        others.reverse()
    for pair in others:
        runner = ScenarioRunner(config.with_strategies(*pair))
        setup(runner)
        runner.run()
    trace_id = _trace_id(name, config.with_strategies(*own))
    assert trace_id == GOLDEN_TRACE_IDS[name]


@pytest.mark.parametrize("cell", ["first", "last"])
@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_the_exported_trace_ends_with_the_outcome_its_id_covers(name, cell):
    """The outcome line, written when the trace is read, ends the exported
    trace, and ``traceId`` is the SHA-256 of every line before it: when
    the run is its family's first cell, which hashes the scenario line's
    head, and when it is the last, which goes on from the family's state."""
    config = dataclasses.replace(golden_configs()[name])
    setup = RUNNER_SETUPS.get(name, lambda runner: None)
    own = (config.requestor_strategy, config.node_strategy)
    for pair in PAIRS if cell == "last" else ():
        if pair != own:
            runner = ScenarioRunner(config.with_strategies(*pair))
            setup(runner)
            runner.run()
    runner = ScenarioRunner(config)
    setup(runner)
    outcome = runner.run()
    *body, last = runner.trace.to_jsonl().encode().splitlines(keepends=True)
    assert json.loads(last) == {"type": "outcome", **outcome.to_json_obj()}
    assert runner.trace.records[-1] == json.loads(last)
    assert (hashlib.sha256(b"".join(body)).hexdigest()[:16]
            == outcome.trace_id == GOLDEN_TRACE_IDS[name])


def test_trace_ids_do_not_depend_on_run_order():
    """Memo state carried from one run to the next moves no trace byte."""
    names = sorted(golden_configs())
    forward = {name: _trace_id(name) for name in names}
    backward = {name: _trace_id(name) for name in reversed(names)}
    assert forward == backward == GOLDEN_TRACE_IDS


def broad_configs(draws: int = 300) -> list[ScenarioConfig]:
    """Seeded draws beyond the goldens: the economics, tier, function,
    inputs (0, 3 or 64 ints), third-party delivery, execution delay,
    resubmits and gas charging (with and without gas in payoffs) vary
    together, so most draws are configs no golden case runs."""
    rng = random.Random("broad-trace-digest")
    configs = []
    for seed in range(draws):
        threshold = rng.randrange(1, 20) * 10**17
        gas_charging, gas_in_payoffs = rng.choice(
            [(False, False), (True, False), (True, True)])
        configs.append(ScenarioConfig(
            value_of_result=rng.randrange(0, 200) * UNIT,
            payment=rng.randrange(0, 50) * UNIT,
            compute_cost=rng.randrange(0, 20) * UNIT,
            threshold=threshold,
            node_deposit=threshold + rng.randrange(0, 3) * 10**17,
            tier=rng.choice(TIERS),
            rng_seed=seed,
            function_name=rng.choice(["identity", "sum", "sha256-hex"]),
            inputs=tuple(rng.randrange(-1000, 1000)
                         for _ in range(rng.choice([0, 3, 64]))),
            deliver_to_third_party=rng.random() < 0.5,
            execution_delay=rng.choice([0, 5, 60]),
            max_resubmits=rng.choice([0, 1, 3]),
            gas_charging=gas_charging,
            include_gas_in_payoffs=gas_in_payoffs,
        ))
    return configs


#: SHA-256 over the traces of every broad draw under all nine strategy
#: pairs, in order, each pair run in its draw's config family.
BROAD_TRACE_DIGEST = "413650624f082296"


def test_broad_trace_digest_unchanged():
    digest = hashlib.sha256()
    for config in broad_configs():
        for pair in PAIRS:
            runner = ScenarioRunner(config.with_strategies(*pair))
            runner.run()
            digest.update(runner.trace.to_jsonl().encode())
    assert digest.hexdigest()[:16] == BROAD_TRACE_DIGEST


def _unpaired_instances(trace: str) -> list[int]:
    """The ``instanceId`` of each ``instantiate`` line of ``trace`` that is
    not followed by exactly one ``destroy`` line of the same instance."""
    live, unpaired = set(), []
    for record in map(json.loads, trace.splitlines()):
        if record["type"] == "enclave" and record["ok"]:
            if record["op"] == "instantiate":
                live.add(record["instanceId"])
            elif record["op"] == "destroy":
                if record["instanceId"] in live:
                    live.remove(record["instanceId"])
                else:  # a second destroy, or one of no instance
                    unpaired.append(record["instanceId"])
    return sorted(live) + unpaired


def test_a_withholding_chain_destroys_every_instance_it_opens():
    """No requestor provisions the four instances: the run destroys each
    once no call is left."""
    runner = ScenarioRunner(golden_configs()["withhold-chain-3"])
    runner.run()
    ops = [r["op"] for r in runner.trace.records if r["type"] == "enclave"]
    assert ops.count("instantiate") == ops.count("destroy") == 4
    assert runner.node.instances == {}


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_every_golden_instance_is_destroyed_once(name):
    runner = ScenarioRunner(golden_configs()[name])
    RUNNER_SETUPS.get(name, lambda runner: None)(runner)
    runner.run()
    assert _unpaired_instances(runner.trace.to_jsonl()) == []
    assert runner.node.instances == {}


def _played(config: ScenarioConfig) -> tuple:
    """The run's trace bytes and outcome."""
    runner = ScenarioRunner(config)
    outcome = runner.run()
    return runner.trace.to_jsonl(), outcome


def _matrix_cases() -> dict[str, list[ScenarioConfig]]:
    """The configs of the payoff-matrix test, by case: each golden config
    with no runner hook, and the broad draws in ten slices of thirty."""
    cases = {name: [config]
             for name, config in sorted(golden_configs().items())
             if name not in RUNNER_SETUPS}
    broad = broad_configs()
    cases.update({f"broad-{k}": broad[k::10] for k in range(10)})
    return cases


@pytest.mark.parametrize("case", list(_matrix_cases()))
def test_every_cell_of_a_payoff_matrix_equals_its_fresh_run(case):
    """The nine cells of one config family, in ``payoff_matrix``'s order,
    so that each later cell resumes from what an earlier one recorded,
    write the trace bytes and outcome of the same cell run in a family of
    its own, and destroy each instance they open once: on every golden
    config with no runner hook and every broad draw.  Inside the rational
    regime ``payoff_matrix`` returns them."""
    for config in _matrix_cases()[case]:
        cells = {pair: _played(config.with_strategies(*pair))
                 for pair in PAIRS}
        for pair, played in cells.items():
            fresh = dataclasses.replace(config.with_strategies(*pair))
            assert played == _played(fresh), (config, pair)
            assert _unpaired_instances(played[0]) == [], (config, pair)
        if config.in_rational_regime:
            assert payoff_matrix(dataclasses.replace(config)) == {
                pair: outcome for pair, (_, outcome) in cells.items()}
