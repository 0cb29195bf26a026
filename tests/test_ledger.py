from __future__ import annotations

import copy
import enum
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teescrow.contract import CallOutcome, EscrowContract, RefusalReason
from teescrow.ledger import (
    ADDRESS_LENGTH,
    CONTRACT_ACCOUNT,
    CallContext,
    ConservationViolation,
    DEFAULT_GAS_PER_FUNCTION,
    GasSchedule,
    InsufficientBalance,
    Ledger,
    LedgerError,
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


def test_a_function_needs_both_a_gas_entry_and_a_handler(funded):
    """``deploy`` has a gas entry and no contract handler; ``timeout``,
    dropped from the schedule, a handler and no gas entry."""
    ledger, _, requestor, _ = funded
    with pytest.raises(UnknownFunction, match="^deploy$"):
        call(ledger, requestor, "deploy")
    per_function = dict(ledger.schedule.per_function)
    del per_function["timeout"]
    ledger.schedule = GasSchedule(per_function=per_function)
    height = ledger.block_height
    with pytest.raises(UnknownFunction, match="^timeout$"):
        call(ledger, requestor, "timeout", task_id=0)
    assert ledger.block_height == height


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


def test_refused_call_burns_gas_and_collects_nothing():
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
    # Gas is gone, the attached deposit was never taken, tasks are
    # bit-identical.
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


def test_a_call_that_emits_nothing_has_no_events(funded):
    """A receipt's events are a tuple: the empty one for a call that emits
    nothing (here a refused one), else the events the call emitted."""
    ledger, _, requestor, _ = funded
    refused = call(ledger, requestor, "submitTask", value=2,
                   function_name="f", hash_lock=bytes(32), expires=100)
    assert not refused.outcome.accepted
    assert refused.events == () and type(refused.events) is tuple
    accepted = call(ledger, requestor, "submitTask", value=15,
                    function_name="f", hash_lock=bytes(32), expires=100)
    assert [e.kind for e in accepted.events] == ["TaskSubmitted"]
    assert type(accepted.events) is tuple


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


_SECRET = b"preimage"
_LOCK = hashlib.sha256(_SECRET).digest()
_EXPIRES = 100

_WHO = st.integers(0, 3)  # below 3: the task's own party, if it has one
_VALUE = st.integers(0, 10)
#: 0: the oldest task in a state the call acts on, if any; 1: the latest
#: task; 2: an id not yet given out.
_TASK = st.integers(0, 2)

#: The task states each function acts on.
_ACTS_ON = {
    "claimTask": ("open",),
    "finalizeExecutionNode": ("claimed",),
    "finalizeRequestor": ("completed",),
    "timeout": ("open", "claimed"),
}

_LEDGER_OPS = st.lists(st.one_of(
    st.tuples(st.just("create"), st.integers(0, 2_000_000)),
    st.tuples(st.just("submitTask"), _WHO, st.integers(0, 30)),
    st.tuples(st.just("claimTask"), _WHO, st.integers(THRESHOLD - 1, 10),
              _TASK),
    st.tuples(st.just("finalizeExecutionNode"), _WHO, _VALUE, _TASK,
              st.booleans()),
    st.tuples(st.just("finalizeRequestor"), _WHO, _VALUE, _TASK),
    st.tuples(st.just("timeout"), _WHO, _VALUE, _TASK,
              st.integers(0, 2 * _EXPIRES)),
), min_size=10, max_size=60)


class _ModelTask:
    def __init__(self, requestor: bytes, payment: int, start: int) -> None:
        self.requestor = requestor
        self.payment = payment
        self.start = start
        self.node: bytes | None = None
        self.node_deposit = 0
        self.state = "open"  # then "claimed", "completed" or "dead"


def _model_outcome(function, sender, value, task, now, right_secret):
    """Whether the contract accepts the call, and who it then pays what."""
    if function == "submitTask":
        return value >= THRESHOLD, []
    if function == "claimTask":
        return (task is not None and task.state == "open"
                and value >= THRESHOLD), []
    if task is None:
        return False, []
    if function == "finalizeExecutionNode":
        if (task.node == sender and task.state == "claimed"
                and right_secret):
            return True, [(sender, task.node_deposit)]
        return False, []
    if sender != task.requestor:
        return False, []
    if function == "finalizeRequestor":
        if task.state == "completed":
            return True, [(task.requestor, THRESHOLD),
                          (task.node, task.payment)]
        return False, []
    # timeout
    if (task.state in ("open", "claimed")
            and now > task.start + _EXPIRES):
        return True, [(task.requestor, task.payment)]
    return False, []


@settings(max_examples=60, deadline=None)
@given(funds=st.lists(st.integers(10**6, 10**7), min_size=2, max_size=4),
       ops=_LEDGER_OPS)
def test_balances_read_back_and_sum_to_supply(funds, ops):
    # One unit per gas unit, so every call burns a known amount.
    schedule = GasSchedule(
        gas_price_per_tier={"slow": 1, "standard": 1, "fast": 1},
        confirmation_delay_per_tier={"slow": 0, "standard": 0, "fast": 0},
    )
    ledger = Ledger(schedule, gas_charging=True)
    contract = EscrowContract(ledger, THRESHOLD)
    expected = {ledger.create_account(amount): amount for amount in funds}
    tasks: list[_ModelTask | None] = []  # by task id; None once deleted
    in_contract = burned = now = 0
    for op in [("submitTask", 0, 30), *ops]:  # start from one open task
        if op[0] == "create":
            expected[ledger.create_account(op[1])] = op[1]
            continue
        function, who, value = op[:3]
        task_id = task = None
        if function != "submitTask":
            task_id = len(tasks)
            if op[3] == 0:
                task_id = next((i for i, t in enumerate(tasks)
                                if t is not None
                                and t.state in _ACTS_ON[function]), task_id)
            elif op[3] == 1 and tasks:
                task_id -= 1
            task = tasks[task_id] if task_id < len(tasks) else None
        party = None
        if task is not None:
            party = (task.node if function == "finalizeExecutionNode"
                     else task.requestor)
        sender = (party if who < 3 and party is not None
                  else list(expected)[who % len(expected)])
        if function == "submitTask":
            args = {"function_name": "f", "hash_lock": _LOCK,
                    "expires": _EXPIRES}
        else:
            args = {"task_id": task_id}
        if function == "finalizeExecutionNode":
            args["secret"] = _SECRET if op[4] else b"wrong"
        if function == "timeout":
            ledger.advance_time(op[4])
            now += op[4]
        gas = DEFAULT_GAS_PER_FUNCTION[function]
        if expected[sender] < value + gas:
            with pytest.raises(InsufficientBalance):
                call(ledger, sender, function, value=value, **args)
            continue
        accepted, payouts = _model_outcome(
            function, sender, value, task, now,
            function == "finalizeExecutionNode" and op[4])
        receipt = call(ledger, sender, function, value=value, **args)
        assert receipt.outcome.accepted == accepted
        # Only submitTask and claimTask keep an accepted call's value.
        kept = (value if accepted and function in ("submitTask", "claimTask")
                else 0)
        expected[sender] -= gas + kept
        in_contract += kept
        burned += gas
        for to, amount in payouts:
            expected[to] += amount
            in_contract -= amount
        if accepted:
            if function == "submitTask":
                tasks.append(_ModelTask(sender, value - THRESHOLD, now))
            elif function == "claimTask":
                task.node, task.node_deposit = sender, value
                task.state = "claimed"
            elif function == "finalizeExecutionNode":
                task.state = "completed"
            elif function == "finalizeRequestor":
                tasks[task_id] = None
            else:
                task.state = "dead"
        assert ledger.balance(CONTRACT_ACCOUNT) == in_contract
    for account, balance in expected.items():
        assert ledger.balance(account) == balance
    assert ledger.balance(NULL_ACCOUNT) == 0
    assert ledger.balance(CONTRACT_ACCOUNT) == in_contract
    assert ledger.total_gas_burned == burned
    assert ledger.now == now
    assert contract.num_tasks == len(tasks)
    assert (ledger.balance(NULL_ACCOUNT) + ledger.balance(CONTRACT_ACCOUNT)
            + sum(ledger.balance(a) for a in expected)
            == ledger.total_supply - ledger.total_gas_burned)


def _chain_state(ledger: Ledger, contract: EscrowContract) -> tuple:
    return (list(ledger._balances), ledger.block_height, ledger.now,
            ledger.total_gas_burned, dict(ledger.gas_cost_by_account),
            copy.deepcopy(contract.tasks), contract.num_tasks,
            ledger.total_supply, dict(ledger._accounts), ledger._contract)


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
    "float-expires": ("requestor", "submitTask", 50, {
        "function_name": "f", "hash_lock": bytes(32), "expires": 10.5},
        TypeError),
    "bool-expires": ("fresh", "submitTask", 50, {
        "function_name": "f", "hash_lock": bytes(32), "expires": True},
        TypeError),
    "int-function-name": ("fresh", "submitTask", 50, {
        "function_name": 5, "hash_lock": bytes(32), "expires": 100},
        TypeError),
    "bytes-function-name": ("requestor", "submitTask", 50, {
        "function_name": b"identity", "hash_lock": bytes(32), "expires": 100},
        TypeError),
    "missing-argument": ("fresh", "claimTask", THRESHOLD, {}, TypeError),
    "unknown-argument": ("node", "claimTask", THRESHOLD, {
        "task_id": 0, "colour": "red"}, TypeError),
    # Past the task lookup and the claimant check, the secret fails to hash.
    "secret-not-bytes": ("node", "finalizeExecutionNode", 7, {
        "task_id": 0, "secret": None}, TypeError),
    # A float, bool or other int-subclass task id equals, and hashes like,
    # an int one: each would otherwise reach task 0 or 1 and be echoed into
    # the trace.
    **{f"{kind}-task-id/{function}": (sender, function, value, {
        "task_id": task_id, **extra}, TypeError)
       for kind, task_id in (("float", 0.0), ("bool", False),
                             ("int-enum", enum.IntEnum("Z", {"ZERO": 0}).ZERO))
       for sender, function, value, extra in (
           ("fresh", "claimTask", THRESHOLD, {}),
           ("node", "finalizeExecutionNode", 7,
            {"secret": bytes(32)}),
           ("requestor", "finalizeRequestor", 7, {}),
           ("requestor", "timeout", 7, {}))},
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


#: Amounts and times that are not a plain integer: a float, a whole float,
#: a bool and an IntEnum member (int subclasses) and a string.
_NOT_INTS = [5.5, 5.0, True, enum.IntEnum("Five", {"FIVE": 5}).FIVE, "5"]


@pytest.mark.parametrize("amount", _NOT_INTS, ids=repr)
def test_non_integer_amounts_and_times_refused(funded, amount):
    ledger, contract, requestor, _ = funded
    call(ledger, requestor, "submitTask", value=15, function_name="f",
         hash_lock=bytes(32), expires=100)
    before = _chain_state(ledger, contract)
    with pytest.raises(TypeError):
        ledger.create_account(amount)
    with pytest.raises(TypeError):
        call(ledger, requestor, "submitTask", value=amount,
             function_name="f", hash_lock=bytes(32), expires=100)
    with pytest.raises(TypeError):
        ledger.advance_time(amount)
    with pytest.raises(TypeError):
        EscrowContract(ledger, amount)
    assert _chain_state(ledger, contract) == before
    ledger.assert_conservation()


def _send_without_contract(_ledger, _sender):
    ledger = Ledger(zero_delay_schedule())
    call(ledger, ledger.create_account(10), "claimTask", task_id=0)


#: Misuse of the ledger's and the contract's own API, on a funded chain:
#: (the misuse, its exception, its message).
_API_MISUSE = {
    "negative-initial-balance": (
        lambda ledger, _: ledger.create_account(-1),
        ValueError, "initial balance must be non-negative"),
    "negative-value": (
        lambda ledger, sender: call(ledger, sender, "claimTask", value=-1,
                                    task_id=0),
        ValueError, "value must be non-negative"),
    "unknown-tier": (
        lambda ledger, sender: call(ledger, sender, "claimTask",
                                    value=THRESHOLD, tier="medium",
                                    task_id=0),
        ValueError, "unknown tier 'medium'"),
    "no-contract": (_send_without_contract,
                    LedgerError, "no contract registered"),
    "unknown-event-kind": (
        lambda ledger, sender: CallContext(ledger, 1, sender, 0, 1, 0).emit(
            "TaskPaid", 0, {}),
        ValueError, "unknown event kind 'TaskPaid'"),
    "zero-threshold": (lambda ledger, _: EscrowContract(ledger, 0),
                       ValueError, "threshold must be positive"),
}


@pytest.mark.parametrize("case", sorted(_API_MISUSE))
def test_api_misuse_is_refused(funded, case):
    ledger, contract, requestor, _ = funded
    misuse, exception, message = _API_MISUSE[case]
    before = _chain_state(ledger, contract)
    with pytest.raises(exception) as raised:
        misuse(ledger, requestor)
    assert type(raised.value) is exception
    assert str(raised.value) == message
    assert _chain_state(ledger, contract) == before


def test_float_value_cannot_mint():
    # Were it accepted, 10**21 - 5.5 would round back to 10**21 as a
    # float: the sender would keep its balance while the contract gained
    # 5.5, and the float sum of the balances would still match the supply.
    ledger = Ledger(zero_delay_schedule())
    EscrowContract(ledger, THRESHOLD)
    requestor = ledger.create_account(10**21)
    with pytest.raises(TypeError):
        call(ledger, requestor, "submitTask", value=5.5, function_name="f",
             hash_lock=bytes(32), expires=100)
    assert ledger.balance(requestor) == 10**21
    assert type(ledger.balance(requestor)) is int
    assert ledger.balance(CONTRACT_ACCOUNT) == 0
    assert sum(ledger._balances) == ledger.total_supply


class _PayingContract(EscrowContract):
    """The escrow contract with ``claimTask`` and ``timeout`` handled by a
    payout of ``amount`` from the contract account to ``to``.  As the
    payable ``claimTask`` it collects the attached value first; as the
    non-payable ``timeout`` it leaves that value with the sender."""

    def _pay(self, ctx, to, amount):
        ctx.transfer_from_contract(to, amount)
        return CallOutcome(True)

    def _collect_and_pay(self, ctx, to, amount):
        ctx.collect()
        return self._pay(ctx, to, amount)

    functions = {**EscrowContract.functions,
                 "claimTask": _collect_and_pay, "timeout": _pay}


def _paying_chain():
    ledger = Ledger(GasSchedule(), gas_charging=True)
    contract = _PayingContract(ledger, THRESHOLD)
    requestor = ledger.create_account(10**18)
    call(ledger, requestor, "submitTask", value=15, function_name="f",
         hash_lock=bytes(32), expires=100)
    return ledger, contract, requestor


def test_transfer_from_contract_pays_out():
    ledger, _, requestor = _paying_chain()
    before = ledger.balance(requestor)
    receipt = call(ledger, requestor, "claimTask", value=3, to=requestor,
                   amount=18)
    assert receipt.outcome.accepted
    assert ledger.balance(CONTRACT_ACCOUNT) == 0
    assert ledger.balance(requestor) == before + 15 - receipt.gas_cost


@pytest.mark.parametrize("payout", ["negative", "unknown-recipient",
                                    "more-than-held",
                                    "attached-not-collected"])
def test_transfer_from_contract_refusals_roll_back(payout):
    ledger, contract, requestor = _paying_chain()
    # The contract holds the 15 escrowed.  The 3 this call attaches stays
    # with the sender, since the non-payable timeout never collects it, so
    # the refused payout is the handler's first state change.
    to, amount, exception = {
        "negative": (requestor, -1, ValueError),
        "unknown-recipient": (_UNCREATED[0], 1, UnknownAccount),
        "more-than-held": (requestor, 15 + 1, InsufficientBalance),
        "attached-not-collected": (requestor, 15 + 3, InsufficientBalance),
    }[payout]
    before = _chain_state(ledger, contract)
    with pytest.raises(exception) as raised:
        call(ledger, requestor, "timeout", value=3, to=to, amount=amount)
    assert type(raised.value) is exception
    assert _chain_state(ledger, contract) == before
    ledger.assert_conservation()


def test_raise_after_moving_value_is_a_conservation_violation():
    ledger, _, requestor = _paying_chain()
    # claimTask collects the 3 attached, so the contract holds 18 when its
    # payout of 19 is refused: the handler raised after its first state
    # change, which the ledger cannot undo.
    with pytest.raises(ConservationViolation, match="claimTask") as raised:
        call(ledger, requestor, "claimTask", value=3, to=requestor,
             amount=15 + 3 + 1)
    assert type(raised.value.__cause__) is InsufficientBalance
