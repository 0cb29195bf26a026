"""Pinned traceIds: any change that is meant to be speed-only keeps them.

Each value is the ``traceId`` of one seeded run.  A mismatch means the
trace bytes changed, so the change is not behaviour-preserving and must
be made on purpose (and these values re-derived) or not at all.  The
delivered result's bytes are not in the trace, so they are pinned here too.
"""

from __future__ import annotations

import dataclasses
import hashlib
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

#: The strategy pairs that share a family's record of the confirm decision.
DECIDING = (("honest", "honest"), ("no-confirm", "honest"))


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
    "claim-only-chain-3": "3f5ecbc7f798f6d8",
    "withhold-claim-only-chain-3": "efd4f4f9c63d7309",
    "compute-no-deliver-chain-3": "d4e7597f86bc096b",
    "strategy-keys-in-inputs": "cee21dd9a930c267",
}


#: The trace records a delivery's ``keyId`` but not its bytes, so these pin
#: them: per delivering case, the first 16 hex digits of SHA-256 over
#: nonce || ciphertext || signature of each delivered result, in order.  A
#: case not listed delivers nothing.
GOLDEN_DELIVERED = {
    "delivery-tamper": ("e4ce41c372cf641c",),
    "delivery-tamper-third-party": ("e4ce41c372cf641c",),
    "execution-delay-5": ("e1b20e5fc19cf4d9",),
    "gas-in-payoffs": ("e1b20e5fc19cf4d9",),
    "honest/honest/fast": ("e1b20e5fc19cf4d9",),
    "honest/honest/slow": ("e1b20e5fc19cf4d9",),
    "honest/honest/standard": ("e1b20e5fc19cf4d9",),
    "hostile-inputs": ("eba41a555e943481",),
    "no-confirm/honest/fast": ("e1b20e5fc19cf4d9",),
    "no-confirm/honest/slow": ("e1b20e5fc19cf4d9",),
    "no-confirm/honest/standard": ("e1b20e5fc19cf4d9",),
    "sha256-hex-64": ("034167c09f28365b",),
    "strategy-keys-in-inputs": ("74dcd51f077677f8",),
    "sum-64": ("273cb599285fc6ce",),
    "third-party": ("e1b20e5fc19cf4d9",),
}


def test_every_case_is_pinned():
    assert set(GOLDEN_TRACE_IDS) == set(golden_configs())
    assert set(GOLDEN_DELIVERED) <= set(golden_configs())


def _trace_id(name: str, config: ScenarioConfig | None = None) -> str:
    runner = ScenarioRunner(config or golden_configs()[name])
    RUNNER_SETUPS.get(name, lambda runner: None)(runner)
    return runner.run().trace_id


def _pinned_digest(p) -> str:
    """What ``GOLDEN_DELIVERED`` pins of one protected result."""
    return hashlib.sha256(p.nonce + p.ciphertext + p.signature).hexdigest()[:16]


def _recording_deliveries(monkeypatch) -> list[str]:
    """The pinned digest of each result delivered from now on, in order."""
    deliver = ScenarioRunner.deliver
    delivered = []

    def recording(runner, task_id, p, destination):
        delivered.append(_pinned_digest(p))
        deliver(runner, task_id, p, destination)

    monkeypatch.setattr(ScenarioRunner, "deliver", recording)
    return delivered


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_trace_id_unchanged(name):
    assert _trace_id(name) == GOLDEN_TRACE_IDS[name]


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_delivered_bytes_unchanged(name, monkeypatch):
    delivered = _recording_deliveries(monkeypatch)
    _trace_id(name)
    assert tuple(delivered) == GOLDEN_DELIVERED.get(name, ())


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_pins_hold_for_a_later_cell_of_the_family(name, order, monkeypatch):
    """The golden run as the last cell of its config family: the other
    eight strategy pairs run first, through ``with_strategies``, so the
    state the family shares is built by another cell.  Each run carries
    the golden's runner hook, as every run of a hooked family must.  The
    cell delivers the pinned bytes itself unless it resumes from the
    family's record of the confirm decision, which comes after the
    delivery; then the protected result that the family's record of the
    node's reveal holds, and that the cell shares, is the pinned one."""
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
    decided = own in DECIDING and config.family.get(ScenarioRunner.accept)
    delivered = _recording_deliveries(monkeypatch)
    trace_id = _trace_id(name, config.with_strategies(*own))
    assert trace_id == GOLDEN_TRACE_IDS[name]
    if decided:
        assert delivered == []
        _, done = config.family[ScenarioRunner.revealed].node
        delivered = [_pinned_digest(p) for _, _, p in done]
    assert tuple(delivered) == GOLDEN_DELIVERED.get(name, ())


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
BROAD_TRACE_DIGEST = "b1cc374887b3c9b6"


def test_broad_trace_digest_unchanged():
    digest = hashlib.sha256()
    for config in broad_configs():
        for pair in PAIRS:
            runner = ScenarioRunner(config.with_strategies(*pair))
            runner.run()
            digest.update(runner.trace.to_jsonl().encode())
    assert digest.hexdigest()[:16] == BROAD_TRACE_DIGEST


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
    its own: on every golden config with no runner hook and every broad
    draw.  Inside the rational regime ``payoff_matrix`` returns them."""
    for config in _matrix_cases()[case]:
        cells = {pair: _played(config.with_strategies(*pair))
                 for pair in PAIRS}
        for pair, played in cells.items():
            fresh = dataclasses.replace(config.with_strategies(*pair))
            assert played == _played(fresh), (config, pair)
        if config.in_rational_regime:
            assert payoff_matrix(dataclasses.replace(config)) == {
                pair: outcome for pair, (_, outcome) in cells.items()}
