from __future__ import annotations

import dataclasses
import json
import random
from itertools import product

import pytest

from teescrow.config import (
    NODE_STRATEGIES,
    REQUESTOR_STRATEGIES,
    ConfigInvalid,
    ScenarioConfig,
)
from teescrow.contract import RefusalReason, TaskState
from teescrow.harness import (
    ScenarioRunner,
    dominance_check,
    gas_report,
    latency_report,
    payoff_matrix,
    run_claim_race,
    run_scenario,
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


@pytest.mark.parametrize(
    "pair", list(product(REQUESTOR_STRATEGIES, NODE_STRATEGIES)))
def test_stored_trace_lines_match_records(pair):
    # Records are encoded when added; a record mutated afterwards would
    # make the stored line and a fresh encoding differ.
    runner = ScenarioRunner(CFG.with_strategies(*pair))
    runner.run()
    assert runner.trace.to_jsonl() == "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
        for r in runner.trace.records
    )


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
