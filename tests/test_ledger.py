from __future__ import annotations

import copy

import pytest

from teescrow.contract import EscrowContract, RefusalReason
from teescrow.ledger import (
    CONTRACT_ACCOUNT,
    GasSchedule,
    InsufficientBalance,
    Ledger,
    NULL_ACCOUNT,
    UnknownAccount,
    UnknownFunction,
)

from conftest import THRESHOLD, call, zero_delay_schedule


def test_create_account_zero_balance(chain):
    ledger, _ = chain
    account = ledger.balance(ledger.create_account(0))
    assert account == 0


def test_create_account_reads_back(chain):
    ledger, _ = chain
    account = ledger.create_account(10**18)
    assert ledger.balance(account) == 10**18


def test_create_account_ids_distinct(chain):
    ledger, _ = chain
    assert ledger.create_account(0) != ledger.create_account(0)


def test_create_account_grows_supply(chain):
    ledger, _ = chain
    before = ledger.total_supply
    ledger.create_account(42)
    assert ledger.total_supply == before + 42


def test_null_account_cannot_send(funded):
    ledger, _, _, _ = funded
    with pytest.raises(UnknownAccount):
        call(ledger, NULL_ACCOUNT, "timeout", task_id=0)


def test_gas_used_matches_schedule(funded):
    ledger, _, requestor, _ = funded
    receipt = call(ledger, requestor, "submitTask", value=15,
                   function_name="identity", hash_lock=bytes(32), expires=100)
    assert receipt.gas_used == 277_880


def test_confirmation_delay_advances_clock():
    schedule = GasSchedule()
    for tier, delay in (("slow", 600), ("standard", 300), ("fast", 120)):
        ledger = Ledger(schedule)
        EscrowContract(ledger, THRESHOLD)
        requestor = ledger.create_account(100)
        call(ledger, requestor, "submitTask", value=15, tier=tier,
             function_name="f", hash_lock=bytes(32), expires=100)
        assert ledger.now == delay


def test_insufficient_balance_no_state_change(funded):
    ledger, contract, requestor, _ = funded
    height = ledger.block_height
    with pytest.raises(InsufficientBalance):
        call(ledger, requestor, "submitTask", value=5000,
             function_name="f", hash_lock=bytes(32), expires=100)
    assert ledger.block_height == height
    assert ledger.balance(requestor) == 1000
    assert contract.tasks == {}


def test_unknown_function_rejected(funded):
    ledger, _, requestor, _ = funded
    with pytest.raises(UnknownFunction):
        call(ledger, requestor, "mintForFree", value=0)


def test_gas_charged_and_burned():
    ledger = Ledger(zero_delay_schedule(), gas_charging=True)
    EscrowContract(ledger, THRESHOLD)
    price = ledger.schedule.gas_price_per_tier["standard"]
    cost = 277_880 * price
    requestor = ledger.create_account(cost + 100)
    call(ledger, requestor, "submitTask", value=15,
         function_name="f", hash_lock=bytes(32), expires=100)
    assert ledger.balance(requestor) == 100 - 15
    assert ledger.total_gas_burned == cost
    assert ledger.gas_cost_by_account[requestor] == cost
    ledger.assert_conservation()


def test_failed_call_charges_gas_but_only_refunds():
    ledger = Ledger(zero_delay_schedule(), gas_charging=True)
    contract = EscrowContract(ledger, THRESHOLD)
    requestor = ledger.create_account(10**17)
    node = ledger.create_account(10**17)
    other = ledger.create_account(10**17)
    task_id = call(ledger, requestor, "submitTask", value=15,
                   function_name="f", hash_lock=bytes(32),
                   expires=100).outcome.task_id
    call(ledger, node, "claimTask", value=THRESHOLD, task_id=task_id)
    snapshot = copy.deepcopy(contract.tasks), contract.num_tasks
    before = ledger.balance(other)
    receipt = call(ledger, other, "claimTask", value=THRESHOLD,
                   task_id=task_id)
    assert not receipt.outcome.accepted
    assert receipt.outcome.reason is RefusalReason.ALREADY_CLAIMED
    # Gas is gone, the attached deposit came back, tasks are bit-identical.
    assert ledger.balance(other) == before - receipt.gas_cost
    assert receipt.gas_cost == 145_120 * ledger.schedule.gas_price_per_tier["standard"]
    assert (contract.tasks, contract.num_tasks) == snapshot


def test_block_heights_strictly_increase(funded):
    ledger, _, requestor, node = funded
    heights = []
    for _ in range(3):
        receipt = call(ledger, requestor, "submitTask", value=15,
                       function_name="f", hash_lock=bytes(32), expires=100)
        heights.append(receipt.block_height)
    assert heights == sorted(set(heights))


def test_clock_never_decreases(funded):
    ledger, _, requestor, _ = funded
    seen = [ledger.now]
    for tier in ("fast", "slow", "standard"):
        call(ledger, requestor, "submitTask", value=15, tier=tier,
             function_name="f", hash_lock=bytes(32), expires=100)
        seen.append(ledger.now)
    assert seen == sorted(seen)
    with pytest.raises(ValueError):
        ledger.advance_time(-1)


def test_submitted_events_match_created_tasks(funded):
    ledger, contract, requestor, _ = funded
    events = []
    for value in (15, 2, 30):  # the 2 is refused, creates nothing
        events += call(ledger, requestor, "submitTask", value=value,
                       function_name="f", hash_lock=bytes(32),
                       expires=100).events
    assert [e.kind for e in events] == ["TaskSubmitted"] * contract.num_tasks


def test_conservation_holds_with_value_moves(funded):
    ledger, _, requestor, node = funded
    task_id = call(ledger, requestor, "submitTask", value=15,
                   function_name="f", hash_lock=bytes(32),
                   expires=100).outcome.task_id
    call(ledger, node, "claimTask", value=THRESHOLD, task_id=task_id)
    ledger.assert_conservation()
    assert ledger.balance(CONTRACT_ACCOUNT) == 15 + THRESHOLD
