"""The nine cells of a payoff matrix in closed form, checked against the
simulator.

Each cell's payoffs are affine in the result value V, the payment P, the
compute cost C, the deposits d_r and d_n, and g(f), the gas cost of
function f at the tier's price (0 unless the ledger charges gas and the
payoffs count it).  Each party pays the gas of its own calls.  A task that
stalls (the requestor withholds the input, or the node only claims) times
out and is resubmitted ``max_resubmits`` times: every task forfeits both
deposits.  A node that computes but does not deliver has revealed the
secret, so the requestor's timeout is refused, after costing its gas.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teescrow.config import (
    NODE_STRATEGIES,
    REQUESTOR_STRATEGIES,
    ScenarioConfig,
)
from teescrow.harness import payoff_matrix
from teescrow.ledger import (
    DEFAULT_GAS_PER_FUNCTION,
    DEFAULT_GAS_PRICE_PER_TIER,
    TIERS,
)

ETHER = 10**18


def oracle(c: ScenarioConfig) -> dict[tuple[str, str], tuple[int, int]]:
    """(requestor payoff, node payoff) of every strategy pair on ``c``."""
    v, p, cost = c.value_of_result, c.payment, c.compute_cost
    d_r, d_n, tasks = c.threshold, c.node_deposit, c.max_resubmits + 1
    gas = {**DEFAULT_GAS_PER_FUNCTION, **c.gas_per_function}
    price = {**DEFAULT_GAS_PRICE_PER_TIER, **c.gas_price_per_tier}[c.tier]
    counted = c.gas_charging and c.include_gas_in_payoffs

    def g(function: str) -> int:
        return gas[function] * price if counted else 0

    submit, claim = g("submitTask"), g("claimTask")
    reveal, confirm, timeout = (g("finalizeExecutionNode"),
                                g("finalizeRequestor"), g("timeout"))
    stalled = (-tasks * (d_r + submit + timeout), -tasks * (d_n + claim))
    undelivered = (-(p + d_r + submit + timeout), -(cost + claim + reveal))
    return {
        ("honest", "honest"): (v - p - submit - confirm,
                               p - cost - claim - reveal),
        ("honest", "claim-only"): stalled,
        ("honest", "compute-no-deliver"): undelivered,
        ("no-confirm", "honest"): (v - p - d_r - submit,
                                   -(cost + claim + reveal)),
        ("no-confirm", "claim-only"): stalled,
        ("no-confirm", "compute-no-deliver"): undelivered,
        ("withhold-input", "honest"): stalled,
        ("withhold-input", "claim-only"): stalled,
        ("withhold-input", "compute-no-deliver"): stalled,
    }


def simulated(c: ScenarioConfig) -> dict[tuple[str, str], tuple[int, int]]:
    return {pair: (o.requestor_payoff, o.node_payoff)
            for pair, o in payoff_matrix(c).items()}


def test_the_oracle_covers_every_pair():
    assert set(oracle(ScenarioConfig())) == set(
        product(REQUESTOR_STRATEGIES, NODE_STRATEGIES))


def test_the_gas_free_defaults():
    """With d_n = 0.7 ether, in tenths of an ether."""
    tenth = ETHER // 10
    stalled = (-5 * tenth, -7 * tenth)
    undelivered = (-105 * tenth, -30 * tenth)
    expected = {
        ("honest", "honest"): (900 * tenth, 70 * tenth),
        ("honest", "claim-only"): stalled,
        ("honest", "compute-no-deliver"): undelivered,
        ("no-confirm", "honest"): (895 * tenth, -30 * tenth),
        ("no-confirm", "claim-only"): stalled,
        ("no-confirm", "compute-no-deliver"): undelivered,
        ("withhold-input", "honest"): stalled,
        ("withhold-input", "claim-only"): stalled,
        ("withhold-input", "compute-no-deliver"): stalled,
    }
    config = ScenarioConfig(node_deposit=7 * tenth)
    assert oracle(config) == expected
    assert simulated(config) == expected


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("gas", ["off", "charged", "counted"])
@pytest.mark.parametrize("third_party", [False, True])
@pytest.mark.parametrize("max_resubmits", [0, 1, 2])
def test_the_oracle_on_the_defaults(tier, gas, third_party, max_resubmits):
    config = ScenarioConfig(
        node_deposit=7 * ETHER // 10, tier=tier,
        gas_charging=gas != "off", include_gas_in_payoffs=gas == "counted",
        deliver_to_third_party=third_party, max_resubmits=max_resubmits)
    assert simulated(config) == oracle(config)


@st.composite
def regime_configs(draw) -> ScenarioConfig:
    """Configs inside the rational regime, as ``payoff_matrix`` requires:
    any tier, gas flags, gas and price overrides, delivery route, 0-2
    resubmits, execution delay, function and seed."""
    tier = draw(st.sampled_from(TIERS))
    gas_charging, counted = draw(st.booleans()), draw(st.booleans())
    gas_per_function = draw(st.dictionaries(
        st.sampled_from(sorted(DEFAULT_GAS_PER_FUNCTION)),
        st.integers(1, 10**6), max_size=3))
    gas_price_per_tier = draw(st.dictionaries(
        st.sampled_from(TIERS), st.integers(1, 10**11), max_size=2))
    gas = {**DEFAULT_GAS_PER_FUNCTION, **gas_per_function}
    price = {**DEFAULT_GAS_PRICE_PER_TIER, **gas_price_per_tier}[tier]
    scale = price if gas_charging and counted else 0
    amount = st.integers(1, 10**19)
    cost = draw(amount)
    payment = (cost + scale * (gas["claimTask"] + gas["finalizeExecutionNode"])
               + draw(amount))
    value = (payment + scale * (gas["submitTask"] + gas["finalizeRequestor"])
             + draw(amount))
    threshold = scale * gas["finalizeRequestor"] + draw(amount)
    return ScenarioConfig(
        value_of_result=value, payment=payment, compute_cost=cost,
        threshold=threshold,
        node_deposit=threshold + draw(st.integers(0, 10**18)),
        initial_balance=10**40, tier=tier, gas_charging=gas_charging,
        include_gas_in_payoffs=counted, gas_per_function=gas_per_function,
        gas_price_per_tier=gas_price_per_tier,
        deliver_to_third_party=draw(st.booleans()),
        max_resubmits=draw(st.integers(0, 2)),
        execution_delay=draw(st.sampled_from([0, 5, 60])),
        function_name=draw(st.sampled_from(["identity", "sum",
                                            "sha256-hex"])),
        rng_seed=draw(st.integers(0, 2**31)))


@settings(max_examples=40, deadline=None)
@given(config=regime_configs())
def test_every_cell_matches_the_oracle(config):
    assert config.in_rational_regime
    assert simulated(config) == oracle(config)
