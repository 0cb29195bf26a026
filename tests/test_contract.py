from __future__ import annotations

import copy
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teescrow.contract import EscrowContract, RefusalReason, TaskState
from teescrow.ledger import CONTRACT_ACCOUNT, NULL_ACCOUNT, Ledger

from conftest import THRESHOLD, call, zero_delay_schedule

SECRET = bytes(range(32))
LOCK = hashlib.sha256(SECRET).digest()


def submit(ledger, requestor, value=15, lock=LOCK, expires=100):
    return call(ledger, requestor, "submitTask", value=value,
                function_name="identity", hash_lock=lock, expires=expires)


# ----------------------------------------------------------------------
# submitTask


def test_submit_below_threshold_refused_and_refunded(funded):
    ledger, contract, requestor, _ = funded
    receipt = submit(ledger, requestor, value=4)
    assert not receipt.outcome.accepted
    assert receipt.outcome.reason is RefusalReason.VALUE_BELOW_THRESHOLD
    assert ledger.balance(requestor) == 1000
    assert contract.tasks == {}


def test_submit_exact_threshold_zero_payment(funded):
    ledger, contract, requestor, _ = funded
    receipt = submit(ledger, requestor, value=THRESHOLD)
    assert receipt.outcome.accepted
    task = contract.tasks[receipt.outcome.task_id]
    assert task.payment == 0
    assert task.requestor_deposit == THRESHOLD


def test_submit_splits_value_and_increments_ids(funded):
    ledger, contract, requestor, _ = funded
    first = submit(ledger, requestor, value=15).outcome.task_id
    second = submit(ledger, requestor, value=25).outcome.task_id
    assert second == first + 1
    assert contract.tasks[first].payment == 10
    assert contract.tasks[second].payment == 20
    assert all(t.requestor_deposit == THRESHOLD
               for t in contract.tasks.values())


def test_submit_records_start_and_expiry(funded):
    ledger, contract, requestor, _ = funded
    ledger.advance_time(500)
    task = contract.tasks[submit(ledger, requestor,
                                 expires=77).outcome.task_id]
    assert task.start == 500
    assert task.expires == 77


def test_submit_accepts_zero_expires(funded):
    """``validate()`` asks for ``expires > 0``, but the contract takes any
    non-negative ``expires``; such a task can be timed out from start + 1."""
    ledger, contract, requestor, _ = funded
    ledger.advance_time(500)
    receipt = submit(ledger, requestor, expires=0)
    assert receipt.outcome.accepted
    task = contract.tasks[receipt.outcome.task_id]
    assert (task.expires, task.deadline) == (0, task.start + 1)


# ----------------------------------------------------------------------
# claimTask


def test_second_claim_refused_and_refunded(funded):
    ledger, _, requestor, node = funded
    other = ledger.create_account(100)
    task_id = submit(ledger, requestor).outcome.task_id
    assert call(ledger, node, "claimTask", value=6,
                task_id=task_id).outcome.accepted
    receipt = call(ledger, other, "claimTask", value=9, task_id=task_id)
    assert receipt.outcome.reason is RefusalReason.ALREADY_CLAIMED
    assert ledger.balance(other) == 100


def test_claim_exact_threshold_accepted(funded):
    ledger, contract, requestor, node = funded
    task_id = submit(ledger, requestor).outcome.task_id
    receipt = call(ledger, node, "claimTask", value=THRESHOLD,
                   task_id=task_id)
    assert receipt.outcome.accepted
    task = contract.tasks[task_id]
    assert task.execution_node == node
    assert task.execution_node_deposit == THRESHOLD
    assert task.state is TaskState.CLAIMED


def test_claim_nonexistent_task_refused(funded):
    ledger, _, _, node = funded
    receipt = call(ledger, node, "claimTask", value=THRESHOLD, task_id=7)
    assert receipt.outcome.reason is RefusalReason.NO_SUCH_TASK
    assert ledger.balance(node) == 1000


def test_claim_below_threshold_refused(funded):
    ledger, contract, requestor, node = funded
    task_id = submit(ledger, requestor).outcome.task_id
    receipt = call(ledger, node, "claimTask", value=THRESHOLD - 1,
                   task_id=task_id)
    assert receipt.outcome.reason is RefusalReason.VALUE_BELOW_THRESHOLD
    assert contract.tasks[task_id].state is TaskState.OPEN


@settings(max_examples=60, deadline=None)
@given(deposits=st.lists(st.integers(min_value=0, max_value=10),
                         min_size=2, max_size=8))
def test_first_claim_exclusivity(deposits):
    ledger = Ledger(zero_delay_schedule())
    contract = EscrowContract(ledger, THRESHOLD)
    requestor = ledger.create_account(1000)
    task_id = submit(ledger, requestor).outcome.task_id
    outcomes = []
    for deposit in deposits:
        claimant = ledger.create_account(100)
        outcomes.append(call(ledger, claimant, "claimTask", value=deposit,
                             task_id=task_id).outcome.accepted)
    funded_idx = [i for i, d in enumerate(deposits) if d >= THRESHOLD]
    if funded_idx:
        assert outcomes.count(True) == 1
        assert outcomes.index(True) == funded_idx[0]
    else:
        assert outcomes.count(True) == 0


# ----------------------------------------------------------------------
# finalizeExecutionNode


def claimed_task(funded):
    ledger, contract, requestor, node = funded
    task_id = submit(ledger, requestor).outcome.task_id
    call(ledger, node, "claimTask", value=6, task_id=task_id)
    return ledger, contract, requestor, node, task_id


def test_correct_secret_returns_deposit(funded):
    ledger, contract, requestor, node, task_id = claimed_task(funded)
    before = ledger.balance(node)
    receipt = call(ledger, node, "finalizeExecutionNode",
                   task_id=task_id, secret=SECRET)
    assert receipt.outcome.accepted
    assert ledger.balance(node) == before + 6
    assert contract.tasks[task_id].state is TaskState.COMPLETED


def test_correct_secret_from_non_claimant_refused(funded):
    ledger, contract, requestor, node, task_id = claimed_task(funded)
    other = ledger.create_account(100)
    receipt = call(ledger, other, "finalizeExecutionNode",
                   task_id=task_id, secret=SECRET)
    assert receipt.outcome.reason is RefusalReason.NOT_CLAIMANT
    assert ledger.balance(other) == 100
    assert contract.tasks[task_id].state is TaskState.CLAIMED


def test_flipped_bit_secret_refused(funded):
    ledger, contract, _, node, task_id = claimed_task(funded)
    tampered = bytes([SECRET[0] ^ 0x01]) + SECRET[1:]
    receipt = call(ledger, node, "finalizeExecutionNode",
                   task_id=task_id, secret=tampered)
    assert receipt.outcome.reason is RefusalReason.BAD_SECRET
    assert contract.tasks[task_id].state is TaskState.CLAIMED


def test_finalize_unclaimed_task_refused(funded):
    ledger, _, requestor, node = funded
    task_id = submit(ledger, requestor).outcome.task_id
    receipt = call(ledger, node, "finalizeExecutionNode",
                   task_id=task_id, secret=SECRET)
    # The zeroed claimant slot means nobody is the claimant yet.
    assert receipt.outcome.reason is RefusalReason.NOT_CLAIMANT


def test_finalize_twice_refused(funded):
    ledger, _, _, node, task_id = claimed_task(funded)
    call(ledger, node, "finalizeExecutionNode", task_id=task_id,
         secret=SECRET)
    receipt = call(ledger, node, "finalizeExecutionNode",
                   task_id=task_id, secret=SECRET)
    assert receipt.outcome.reason is RefusalReason.ALREADY_COMPLETED


@settings(max_examples=60, deadline=None)
@given(secret=st.binary(min_size=32, max_size=32),
       attempt=st.binary(min_size=32, max_size=32))
def test_hash_lock_soundness(secret, attempt):
    ledger = Ledger(zero_delay_schedule())
    EscrowContract(ledger, THRESHOLD)
    requestor = ledger.create_account(1000)
    node = ledger.create_account(1000)
    task_id = submit(ledger, requestor,
                     lock=hashlib.sha256(secret).digest()).outcome.task_id
    call(ledger, node, "claimTask", value=THRESHOLD, task_id=task_id)
    accepted = call(ledger, node, "finalizeExecutionNode", task_id=task_id,
                    secret=attempt).outcome.accepted
    assert accepted == (hashlib.sha256(attempt).digest()
                        == hashlib.sha256(secret).digest())


# ----------------------------------------------------------------------
# finalizeRequestor


def completed_task(funded):
    ledger, contract, requestor, node, task_id = claimed_task(funded)
    call(ledger, node, "finalizeExecutionNode", task_id=task_id,
         secret=SECRET)
    return ledger, contract, requestor, node, task_id


def test_finalize_requestor_unwinds_escrow(funded):
    ledger, contract, requestor, node, task_id = completed_task(funded)
    requestor_before = ledger.balance(requestor)
    node_before = ledger.balance(node)
    receipt = call(ledger, requestor, "finalizeRequestor", task_id=task_id)
    assert receipt.outcome.accepted
    assert ledger.balance(requestor) == requestor_before + THRESHOLD
    assert ledger.balance(node) == node_before + 10
    assert task_id not in contract.tasks
    assert ledger.balance(CONTRACT_ACCOUNT) == 0


def test_finalize_requestor_before_completion_refused(funded):
    ledger, _, requestor, node, task_id = claimed_task(funded)
    receipt = call(ledger, requestor, "finalizeRequestor", task_id=task_id)
    assert receipt.outcome.reason is RefusalReason.NOT_COMPLETED


def test_finalize_requestor_twice_refused(funded):
    ledger, _, requestor, _, task_id = completed_task(funded)
    call(ledger, requestor, "finalizeRequestor", task_id=task_id)
    receipt = call(ledger, requestor, "finalizeRequestor", task_id=task_id)
    assert not receipt.outcome.accepted  # deleted record: nobody matches


def test_finalize_requestor_wrong_caller_refused(funded):
    ledger, _, _, node, task_id = completed_task(funded)
    receipt = call(ledger, node, "finalizeRequestor", task_id=task_id)
    assert receipt.outcome.reason is RefusalReason.NOT_REQUESTOR


# ----------------------------------------------------------------------
# timeout


def test_timeout_unclaimed_refunds_payment_locks_deposit(funded):
    ledger, contract, requestor, _ = funded
    task_id = submit(ledger, requestor, expires=3600).outcome.task_id
    ledger.advance_time(3601)
    before = ledger.balance(requestor)
    receipt = call(ledger, requestor, "timeout", task_id=task_id)
    assert receipt.outcome.accepted
    assert ledger.balance(requestor) == before + 10
    assert ledger.balance(CONTRACT_ACCOUNT) == THRESHOLD  # D_R locked forever
    assert contract.tasks[task_id].state is TaskState.TIMED_OUT_DEAD


def test_timeout_at_exact_expiry_refused(funded):
    ledger, _, requestor, _ = funded
    task_id = submit(ledger, requestor, expires=3600).outcome.task_id
    ledger.advance_time(3600)
    receipt = call(ledger, requestor, "timeout", task_id=task_id)
    assert receipt.outcome.reason is RefusalReason.NOT_EXPIRED


def test_timeout_after_claim_locks_both_deposits(funded):
    ledger, contract, requestor, node = funded
    task_id = submit(ledger, requestor, expires=100).outcome.task_id
    call(ledger, node, "claimTask", value=6, task_id=task_id)
    ledger.advance_time(101)
    receipt = call(ledger, requestor, "timeout", task_id=task_id)
    assert receipt.outcome.accepted
    assert ledger.balance(CONTRACT_ACCOUNT) == THRESHOLD + 6


def test_timeout_restricted_to_requestor(funded):
    ledger, _, requestor, node = funded
    task_id = submit(ledger, requestor, expires=100).outcome.task_id
    ledger.advance_time(101)
    receipt = call(ledger, node, "timeout", task_id=task_id)
    assert receipt.outcome.reason is RefusalReason.NOT_REQUESTOR


def test_timeout_on_completed_task_refused(funded):
    ledger, _, requestor, _, task_id = completed_task(funded)
    ledger.advance_time(101)
    receipt = call(ledger, requestor, "timeout", task_id=task_id)
    assert receipt.outcome.reason is RefusalReason.ALREADY_COMPLETED


def test_dead_task_blocks_claims_and_finalizations(funded):
    ledger, contract, requestor, node = funded
    task_id = submit(ledger, requestor, expires=100).outcome.task_id
    call(ledger, node, "claimTask", value=6, task_id=task_id)
    ledger.advance_time(101)
    call(ledger, requestor, "timeout", task_id=task_id)
    for sender, function, kwargs in (
        (node, "claimTask", {"value": 6}),
        (node, "finalizeExecutionNode", {"secret": SECRET}),
        (requestor, "finalizeRequestor", {}),
        (requestor, "timeout", {}),
    ):
        value = kwargs.pop("value", 0)
        receipt = call(ledger, sender, function, value=value,
                       task_id=task_id, **kwargs)
        assert receipt.outcome.reason is RefusalReason.TASK_DEAD
    # The locked deposits never move again.
    assert ledger.balance(CONTRACT_ACCOUNT) == THRESHOLD + 6


# ----------------------------------------------------------------------
# invariants


def test_state_machine_transitions(funded):
    ledger, contract, requestor, node = funded
    task_id = submit(ledger, requestor).outcome.task_id
    states = [contract.tasks[task_id].state]
    call(ledger, node, "claimTask", value=6, task_id=task_id)
    states.append(contract.tasks[task_id].state)
    call(ledger, node, "finalizeExecutionNode", task_id=task_id,
         secret=SECRET)
    states.append(contract.tasks[task_id].state)
    call(ledger, requestor, "finalizeRequestor", task_id=task_id)
    assert states == [TaskState.OPEN, TaskState.CLAIMED,
                      TaskState.COMPLETED]
    assert task_id not in contract.tasks  # a closed task has no record


def test_requestor_cannot_steal_payment_while_claimed(funded):
    ledger, contract, requestor, node, task_id = claimed_task(funded)
    baseline = ledger.balance(requestor)
    # Everything the requestor alone can throw at an unexpired claimed task.
    call(ledger, requestor, "claimTask", value=THRESHOLD, task_id=task_id)
    call(ledger, requestor, "finalizeExecutionNode", task_id=task_id,
         secret=SECRET)
    call(ledger, requestor, "finalizeRequestor", task_id=task_id)
    call(ledger, requestor, "timeout", task_id=task_id)
    assert ledger.balance(requestor) == baseline
    task = contract.tasks[task_id]
    assert task.state is TaskState.CLAIMED


def test_refused_calls_keep_tasks_bit_identical(funded):
    ledger, contract, requestor, node, task_id = claimed_task(funded)
    snapshot = copy.deepcopy(contract.tasks), contract.num_tasks
    other = ledger.create_account(50)
    call(ledger, other, "claimTask", value=9, task_id=task_id)
    call(ledger, other, "finalizeExecutionNode", task_id=task_id,
         secret=SECRET)
    call(ledger, other, "timeout", task_id=task_id)
    assert (contract.tasks, contract.num_tasks) == snapshot
    assert ledger.balance(other) == 50


# ----------------------------------------------------------------------
# refusal table: every function x task state x sender, recorded before the
# task state became one stored enum

PARTIES = ("requestor", "claimant", "stranger")
CALLS = {
    "submitTask": (15, {"function_name": "identity", "hash_lock": LOCK,
                        "expires": 100}),
    "claimTask": (6, {"task_id": 0}),
    "finalizeExecutionNode": (0, {"task_id": 0, "secret": SECRET}),
    "finalizeRequestor": (0, {"task_id": 0}),
    "timeout": (0, {"task_id": 0}),
}

# function, state of task 0, sender -> outcome, then task 0's fields after
# the call ("-": no record): requestor, execution node, execution node
# deposit, claimed (a node is set), completed, start, state.  Every call is
# made after the task's expiry.
REFUSAL_TABLE = """
submitTask            none           requestor ok               requestor nobody    0 n n 101 Open
submitTask            none           claimant  ok               claimant  nobody    0 n n 101 Open
submitTask            none           stranger  ok               stranger  nobody    0 n n 101 Open
submitTask            open           requestor ok               requestor nobody    0 n n 0   Open
submitTask            open           claimant  ok               requestor nobody    0 n n 0   Open
submitTask            open           stranger  ok               requestor nobody    0 n n 0   Open
submitTask            claimed        requestor ok               requestor claimant  6 y n 0   Claimed
submitTask            claimed        claimant  ok               requestor claimant  6 y n 0   Claimed
submitTask            claimed        stranger  ok               requestor claimant  6 y n 0   Claimed
submitTask            completed      requestor ok               requestor claimant  6 y y 0   Completed
submitTask            completed      claimant  ok               requestor claimant  6 y y 0   Completed
submitTask            completed      stranger  ok               requestor claimant  6 y y 0   Completed
submitTask            dead-claimed   requestor ok               requestor claimant  6 y n 0   TimedOutDead
submitTask            dead-claimed   claimant  ok               requestor claimant  6 y n 0   TimedOutDead
submitTask            dead-claimed   stranger  ok               requestor claimant  6 y n 0   TimedOutDead
submitTask            dead-unclaimed requestor ok               requestor nobody    0 n n 0   TimedOutDead
submitTask            dead-unclaimed claimant  ok               requestor nobody    0 n n 0   TimedOutDead
submitTask            dead-unclaimed stranger  ok               requestor nobody    0 n n 0   TimedOutDead
submitTask            deleted        requestor ok               -
submitTask            deleted        claimant  ok               -
submitTask            deleted        stranger  ok               -
claimTask             none           requestor NoSuchTask       -
claimTask             none           claimant  NoSuchTask       -
claimTask             none           stranger  NoSuchTask       -
claimTask             open           requestor ok               requestor requestor 6 y n 0   Claimed
claimTask             open           claimant  ok               requestor claimant  6 y n 0   Claimed
claimTask             open           stranger  ok               requestor stranger  6 y n 0   Claimed
claimTask             claimed        requestor AlreadyClaimed   requestor claimant  6 y n 0   Claimed
claimTask             claimed        claimant  AlreadyClaimed   requestor claimant  6 y n 0   Claimed
claimTask             claimed        stranger  AlreadyClaimed   requestor claimant  6 y n 0   Claimed
claimTask             completed      requestor AlreadyClaimed   requestor claimant  6 y y 0   Completed
claimTask             completed      claimant  AlreadyClaimed   requestor claimant  6 y y 0   Completed
claimTask             completed      stranger  AlreadyClaimed   requestor claimant  6 y y 0   Completed
claimTask             dead-claimed   requestor TaskDead         requestor claimant  6 y n 0   TimedOutDead
claimTask             dead-claimed   claimant  TaskDead         requestor claimant  6 y n 0   TimedOutDead
claimTask             dead-claimed   stranger  TaskDead         requestor claimant  6 y n 0   TimedOutDead
claimTask             dead-unclaimed requestor TaskDead         requestor nobody    0 n n 0   TimedOutDead
claimTask             dead-unclaimed claimant  TaskDead         requestor nobody    0 n n 0   TimedOutDead
claimTask             dead-unclaimed stranger  TaskDead         requestor nobody    0 n n 0   TimedOutDead
claimTask             deleted        requestor NoSuchTask       -
claimTask             deleted        claimant  NoSuchTask       -
claimTask             deleted        stranger  NoSuchTask       -
finalizeExecutionNode none           requestor NotClaimant      -
finalizeExecutionNode none           claimant  NotClaimant      -
finalizeExecutionNode none           stranger  NotClaimant      -
finalizeExecutionNode open           requestor NotClaimant      requestor nobody    0 n n 0   Open
finalizeExecutionNode open           claimant  NotClaimant      requestor nobody    0 n n 0   Open
finalizeExecutionNode open           stranger  NotClaimant      requestor nobody    0 n n 0   Open
finalizeExecutionNode claimed        requestor NotClaimant      requestor claimant  6 y n 0   Claimed
finalizeExecutionNode claimed        claimant  ok               requestor claimant  6 y y 0   Completed
finalizeExecutionNode claimed        stranger  NotClaimant      requestor claimant  6 y n 0   Claimed
finalizeExecutionNode completed      requestor NotClaimant      requestor claimant  6 y y 0   Completed
finalizeExecutionNode completed      claimant  AlreadyCompleted requestor claimant  6 y y 0   Completed
finalizeExecutionNode completed      stranger  NotClaimant      requestor claimant  6 y y 0   Completed
finalizeExecutionNode dead-claimed   requestor NotClaimant      requestor claimant  6 y n 0   TimedOutDead
finalizeExecutionNode dead-claimed   claimant  TaskDead         requestor claimant  6 y n 0   TimedOutDead
finalizeExecutionNode dead-claimed   stranger  NotClaimant      requestor claimant  6 y n 0   TimedOutDead
finalizeExecutionNode dead-unclaimed requestor NotClaimant      requestor nobody    0 n n 0   TimedOutDead
finalizeExecutionNode dead-unclaimed claimant  NotClaimant      requestor nobody    0 n n 0   TimedOutDead
finalizeExecutionNode dead-unclaimed stranger  NotClaimant      requestor nobody    0 n n 0   TimedOutDead
finalizeExecutionNode deleted        requestor NotClaimant      -
finalizeExecutionNode deleted        claimant  NotClaimant      -
finalizeExecutionNode deleted        stranger  NotClaimant      -
finalizeRequestor     none           requestor NotRequestor     -
finalizeRequestor     none           claimant  NotRequestor     -
finalizeRequestor     none           stranger  NotRequestor     -
finalizeRequestor     open           requestor NotClaimed       requestor nobody    0 n n 0   Open
finalizeRequestor     open           claimant  NotRequestor     requestor nobody    0 n n 0   Open
finalizeRequestor     open           stranger  NotRequestor     requestor nobody    0 n n 0   Open
finalizeRequestor     claimed        requestor NotCompleted     requestor claimant  6 y n 0   Claimed
finalizeRequestor     claimed        claimant  NotRequestor     requestor claimant  6 y n 0   Claimed
finalizeRequestor     claimed        stranger  NotRequestor     requestor claimant  6 y n 0   Claimed
finalizeRequestor     completed      requestor ok               -
finalizeRequestor     completed      claimant  NotRequestor     requestor claimant  6 y y 0   Completed
finalizeRequestor     completed      stranger  NotRequestor     requestor claimant  6 y y 0   Completed
finalizeRequestor     dead-claimed   requestor TaskDead         requestor claimant  6 y n 0   TimedOutDead
finalizeRequestor     dead-claimed   claimant  NotRequestor     requestor claimant  6 y n 0   TimedOutDead
finalizeRequestor     dead-claimed   stranger  NotRequestor     requestor claimant  6 y n 0   TimedOutDead
finalizeRequestor     dead-unclaimed requestor TaskDead         requestor nobody    0 n n 0   TimedOutDead
finalizeRequestor     dead-unclaimed claimant  NotRequestor     requestor nobody    0 n n 0   TimedOutDead
finalizeRequestor     dead-unclaimed stranger  NotRequestor     requestor nobody    0 n n 0   TimedOutDead
finalizeRequestor     deleted        requestor NotRequestor     -
finalizeRequestor     deleted        claimant  NotRequestor     -
finalizeRequestor     deleted        stranger  NotRequestor     -
timeout               none           requestor NotRequestor     -
timeout               none           claimant  NotRequestor     -
timeout               none           stranger  NotRequestor     -
timeout               open           requestor ok               requestor nobody    0 n n 0   TimedOutDead
timeout               open           claimant  NotRequestor     requestor nobody    0 n n 0   Open
timeout               open           stranger  NotRequestor     requestor nobody    0 n n 0   Open
timeout               claimed        requestor ok               requestor claimant  6 y n 0   TimedOutDead
timeout               claimed        claimant  NotRequestor     requestor claimant  6 y n 0   Claimed
timeout               claimed        stranger  NotRequestor     requestor claimant  6 y n 0   Claimed
timeout               completed      requestor AlreadyCompleted requestor claimant  6 y y 0   Completed
timeout               completed      claimant  NotRequestor     requestor claimant  6 y y 0   Completed
timeout               completed      stranger  NotRequestor     requestor claimant  6 y y 0   Completed
timeout               dead-claimed   requestor TaskDead         requestor claimant  6 y n 0   TimedOutDead
timeout               dead-claimed   claimant  NotRequestor     requestor claimant  6 y n 0   TimedOutDead
timeout               dead-claimed   stranger  NotRequestor     requestor claimant  6 y n 0   TimedOutDead
timeout               dead-unclaimed requestor TaskDead         requestor nobody    0 n n 0   TimedOutDead
timeout               dead-unclaimed claimant  NotRequestor     requestor nobody    0 n n 0   TimedOutDead
timeout               dead-unclaimed stranger  NotRequestor     requestor nobody    0 n n 0   TimedOutDead
timeout               deleted        requestor NotRequestor     -
timeout               deleted        claimant  NotRequestor     -
timeout               deleted        stranger  NotRequestor     -
"""


def task_in_state(state):
    """A fresh chain whose task 0 is in ``state``, past its expiry."""
    ledger = Ledger(zero_delay_schedule())
    contract = EscrowContract(ledger, THRESHOLD)
    party = {name: ledger.create_account(1000) for name in PARTIES}
    if state != "none":
        submit(ledger, party["requestor"], expires=100)
    if state in ("claimed", "completed", "dead-claimed", "deleted"):
        call(ledger, party["claimant"], "claimTask", value=6, task_id=0)
    if state in ("completed", "deleted"):
        call(ledger, party["claimant"], "finalizeExecutionNode", task_id=0,
             secret=SECRET)
    if state == "deleted":
        call(ledger, party["requestor"], "finalizeRequestor", task_id=0)
    ledger.advance_time(101)
    if state.startswith("dead"):
        call(ledger, party["requestor"], "timeout", task_id=0)
    return ledger, contract, party


def observe(function, state, sender):
    """The table columns after ``function`` from ``sender`` on ``state``."""
    ledger, contract, party = task_in_state(state)
    value, args = CALLS[function]
    outcome = call(ledger, party[sender], function, value=value,
                   **args).outcome
    row = ["ok" if outcome.accepted else outcome.reason.value]
    task = contract.tasks.get(0)
    if task is None:
        return row + ["-"]
    assert (task.function_name, task.hash_lock, task.payment,
            task.requestor_deposit, task.expires) == (
        "identity", LOCK, 10, THRESHOLD, 100)
    name = {account: n for n, account in party.items()}
    name[NULL_ACCOUNT] = "nobody"
    return row + [
        name[task.requestor], name[task.execution_node],
        str(task.execution_node_deposit),
        "n" if task.execution_node == NULL_ACCOUNT else "y",
        "y" if task.state is TaskState.COMPLETED else "n",
        str(task.start), task.state.value,
    ]


@pytest.mark.parametrize(
    "row", REFUSAL_TABLE.strip().splitlines(),
    ids=lambda row: "-".join(row.split()[:3]))
def test_refusal_table(row):
    function, state, sender, *expected = row.split()
    assert observe(function, state, sender) == expected
