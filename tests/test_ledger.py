from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teescrow.contract import EscrowContract, RefusalReason
from teescrow.ledger import (
    ADDRESS_LENGTH,
    CONTRACT_ACCOUNT,
    ConservationViolation,
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


def test_contract_account_cannot_send(funded):
    ledger, contract, requestor, node = funded
    task_id = call(ledger, requestor, "submitTask", value=15,
                   function_name="f", hash_lock=bytes(32),
                   expires=100).outcome.task_id
    accounts = (NULL_ACCOUNT, CONTRACT_ACCOUNT, requestor, node)
    balances = [ledger.balance(a) for a in accounts]
    height = ledger.block_height
    tasks = copy.deepcopy(contract.tasks)
    # Escrowed funds must not pay a claim deposit.
    with pytest.raises(UnknownAccount):
        call(ledger, CONTRACT_ACCOUNT, "claimTask", value=THRESHOLD,
             task_id=task_id)
    assert [ledger.balance(a) for a in accounts] == balances
    assert ledger.block_height == height
    assert contract.tasks == tasks
    receipt = call(ledger, node, "claimTask", value=THRESHOLD, task_id=task_id)
    assert receipt.outcome.accepted
    assert contract.tasks[task_id].execution_node == node


@pytest.mark.parametrize("where", ["middle", "contract"])
def test_conservation_check_sums_every_balance(chain, where):
    # The corrupted slot is one the next transaction does not touch, so only
    # a full recompute over every balance sees it.
    ledger, _ = chain
    accounts = [ledger.create_account(100) for _ in range(1000)]
    victim = accounts[500] if where == "middle" else CONTRACT_ACCOUNT
    ledger.assert_conservation()
    ledger._balances[ledger._accounts[victim]] += 1
    with pytest.raises(ConservationViolation):
        call(ledger, accounts[0], "submitTask", value=15, function_name="f",
             hash_lock=bytes(32), expires=100)
    with pytest.raises(ConservationViolation):
        ledger.assert_conservation()


#: Never created under the ``funded`` fixture: the address its next
#: create_account would return, and a far one.
_UNCREATED = [n.to_bytes(ADDRESS_LENGTH, "big") for n in (3, 10**9)]


def test_balance_of_uncreated_address_raises(funded):
    ledger = funded[0]
    for address in _UNCREATED:
        with pytest.raises(UnknownAccount):
            ledger.balance(address)


def test_uncreated_address_cannot_send(funded):
    ledger, contract, requestor, node = funded
    accounts = (NULL_ACCOUNT, CONTRACT_ACCOUNT, requestor, node)
    balances = [ledger.balance(a) for a in accounts]
    for address in _UNCREATED:
        with pytest.raises(UnknownAccount):
            call(ledger, address, "submitTask", value=15, function_name="f",
                 hash_lock=bytes(32), expires=100)
    assert [ledger.balance(a) for a in accounts] == balances
    assert (ledger.block_height, ledger.now) == (0, 0)
    assert ledger.total_supply == 2000
    assert contract.tasks == {}


_GAS = {"submitTask": 277_880, "claimTask": 145_120}

_LEDGER_OPS = st.lists(st.one_of(
    st.tuples(st.just("create"), st.integers(0, 2_000_000)),
    st.tuples(st.just("submitTask"), st.integers(0, 30), st.integers(0, 10)),
    st.tuples(st.just("claimTask"), st.integers(0, 30), st.integers(0, 10),
              st.integers(0, 4)),
), max_size=40)


@settings(max_examples=60, deadline=None)
@given(ops=_LEDGER_OPS)
def test_balances_read_back_and_sum_to_supply(ops):
    # One unit per gas unit, so every call burns a known amount.
    schedule = GasSchedule(
        gas_price_per_tier={"slow": 1, "standard": 1, "fast": 1},
        confirmation_delay_per_tier={"slow": 0, "standard": 0, "fast": 0},
    )
    ledger = Ledger(schedule, gas_charging=True)
    EscrowContract(ledger, THRESHOLD)
    expected: dict[bytes, int] = {}
    claimed: list[bool] = []  # per task, in submission order
    in_contract = burned = 0
    for op in ops:
        if op[0] == "create":
            expected[ledger.create_account(op[1])] = op[1]
            continue
        if not expected:
            continue
        function, who, value = op[:3]
        sender = list(expected)[who % len(expected)]
        args = ({"function_name": "f", "hash_lock": bytes(32), "expires": 100}
                if function == "submitTask" else {"task_id": op[3]})
        if expected[sender] < value + _GAS[function]:
            with pytest.raises(InsufficientBalance):
                call(ledger, sender, function, value=value, **args)
            continue
        accepted = value >= THRESHOLD and (
            function == "submitTask"
            or (op[3] < len(claimed) and not claimed[op[3]]))
        receipt = call(ledger, sender, function, value=value, **args)
        assert receipt.outcome.accepted == accepted
        if function == "submitTask" and accepted:
            claimed.append(False)
        elif accepted:
            claimed[op[3]] = True
        kept = value if accepted else 0
        expected[sender] -= _GAS[function] + kept
        in_contract += kept
        burned += _GAS[function]
    for account, balance in expected.items():
        assert ledger.balance(account) == balance
    assert ledger.balance(NULL_ACCOUNT) == 0
    assert ledger.balance(CONTRACT_ACCOUNT) == in_contract
    assert ledger.total_gas_burned == burned
    assert (ledger.balance(NULL_ACCOUNT) + ledger.balance(CONTRACT_ACCOUNT)
            + sum(ledger.balance(a) for a in expected)
            == ledger.total_supply - ledger.total_gas_burned)


def _chain_state(ledger: Ledger, contract: EscrowContract) -> tuple:
    return (list(ledger._balances), ledger.block_height, ledger.now,
            ledger.total_gas_burned, dict(ledger.gas_cost_by_account),
            copy.deepcopy(contract.tasks), contract.num_tasks)


#: Calls whose handler raises: (sender, function, value, args, exception).
#: "fresh" has sent nothing before, so it has no gas entry to restore.
_RAISING_CALLS = {
    "short-hash-lock": ("fresh", "submitTask", 50, {
        "function_name": "f", "hash_lock": bytes(5), "expires": 100},
        ValueError),
    "string-hash-lock": ("requestor", "submitTask", 50, {
        "function_name": "f", "hash_lock": "0" * 32, "expires": 100},
        ValueError),
    "negative-expires": ("requestor", "submitTask", 50, {
        "function_name": "f", "hash_lock": bytes(32), "expires": -1},
        ValueError),
    "missing-argument": ("fresh", "claimTask", THRESHOLD, {}, TypeError),
    "unknown-argument": ("node", "claimTask", THRESHOLD, {
        "task_id": 0, "colour": "red"}, TypeError),
    # The handler refunds the attached value before the secret fails to hash.
    "refund-then-raise": ("node", "finalizeExecutionNode", 7, {
        "task_id": 0, "secret": None}, TypeError),
}


@pytest.mark.parametrize("gas_charging", [False, True],
                         ids=["gas-off", "gas-on"])
@pytest.mark.parametrize("case", sorted(_RAISING_CALLS))
def test_raising_call_leaves_no_trace(case, gas_charging):
    ledger = Ledger(GasSchedule(), gas_charging=gas_charging)
    contract = EscrowContract(ledger, THRESHOLD)
    parties = {name: ledger.create_account(10**18)
               for name in ("requestor", "node", "fresh")}
    call(ledger, parties["requestor"], "submitTask", value=15,
         function_name="f", hash_lock=bytes(32), expires=10_000)
    call(ledger, parties["node"], "claimTask", value=THRESHOLD, task_id=0)
    sender, function, value, args, exception = _RAISING_CALLS[case]
    before = _chain_state(ledger, contract)
    with pytest.raises(exception) as raised:
        call(ledger, parties[sender], function, value=value, **args)
    assert type(raised.value) is exception
    assert _chain_state(ledger, contract) == before
    ledger.assert_conservation()
    # The chain goes on from the restored block.
    receipt = call(ledger, parties[sender], "submitTask", value=15,
                   function_name="f", hash_lock=bytes(32), expires=10_000)
    assert receipt.outcome.accepted
    assert receipt.block_height == before[1] + 1
