"""Three slips in the paper's pseudo-code, each as an ``EscrowContract``
subclass driven at ledger level: the criterion each breaks fails with the
slip and holds with the contract as written.  The contract's docstring
lists the slips."""

from __future__ import annotations

import hashlib

from teescrow.config import ScenarioConfig
from teescrow.contract import (
    CallOutcome,
    EscrowContract,
    RefusalReason,
    TaskState,
)
from teescrow.ledger import CONTRACT_ACCOUNT, CallContext, Ledger

from conftest import call

CFG = ScenarioConfig()  # 100 ether of result value, P = 10, d_r = d_n = 0.5
SECRET = b"the requestor's preimage"


class OrTimeoutGuard(EscrowContract):
    """``timeout`` accepted once the task is expired OR incomplete, so a
    completed task can be timed out after its deadline."""

    def _timeout(self, ctx: CallContext, task_id: int) -> CallOutcome:
        task = self._task(task_id)
        if task is None or task.requestor != ctx.sender:
            return CallOutcome(False, RefusalReason.NOT_REQUESTOR)
        if task.state is TaskState.TIMED_OUT_DEAD:
            return CallOutcome(False, RefusalReason.TASK_DEAD)
        if ctx.now < task.deadline and task.state is TaskState.COMPLETED:
            return CallOutcome(False, RefusalReason.ALREADY_COMPLETED)
        task.state = TaskState.TIMED_OUT_DEAD
        ctx.transfer_from_contract(task.requestor, task.payment)
        ctx.emit("TaskTimedOut", task_id, {
            "paymentReturned": task.payment,
            "lockedRequestorDeposit": task.requestor_deposit,
            "lockedExecutionNodeDeposit": task.execution_node_deposit,
        })
        return CallOutcome(True, None, task_id)

    functions = {**EscrowContract.functions, "timeout": _timeout}


class PreimageIsTheLock(EscrowContract):
    """The reveal checked as the pseudo-code writes it: the "secret" must
    equal the stored digest, which every party has seen in the
    ``TaskSubmitted`` event."""

    def _finalize_execution_node(self, ctx: CallContext, task_id: int,
                                 secret: bytes) -> CallOutcome:
        task = self._task(task_id)
        if task is None or task.execution_node != ctx.sender:
            return CallOutcome(False, RefusalReason.NOT_CLAIMANT)
        if task.state is TaskState.TIMED_OUT_DEAD:
            return CallOutcome(False, RefusalReason.TASK_DEAD)
        if task.state is TaskState.COMPLETED:
            return CallOutcome(False, RefusalReason.ALREADY_COMPLETED)
        if secret != task.hash_lock:
            return CallOutcome(False, RefusalReason.BAD_SECRET)
        task.state = TaskState.COMPLETED
        ctx.transfer_from_contract(ctx.sender, task.execution_node_deposit)
        ctx.emit("TaskFinished", task_id, {
            "executionNode": ctx.sender.hex(),
            "depositReturned": task.execution_node_deposit,
        })
        return CallOutcome(True, None, task_id)

    functions = {**EscrowContract.functions,
                 "finalizeExecutionNode": _finalize_execution_node}


class DeadRecordsDeleted(EscrowContract):
    """A timed-out task's record deleted, as the pseudo-code does, instead
    of kept dead: the deposits it locked stay in the contract unrecorded."""

    def _timeout(self, ctx: CallContext, task_id: int) -> CallOutcome:
        outcome = EscrowContract._timeout(self, ctx, task_id)
        if outcome.accepted:
            del self.tasks[task_id]
        return outcome

    functions = {**EscrowContract.functions, "timeout": _timeout}


def _claimed_task(contract_class):
    """A submitted and claimed task on a ledger run by ``contract_class``,
    at the default config's economics, and its ``TaskSubmitted`` event."""
    ledger = Ledger()
    contract = contract_class(ledger, CFG.threshold)
    requestor = ledger.create_account(CFG.initial_balance)
    node = ledger.create_account(CFG.initial_balance)
    submitted = call(ledger, requestor, "submitTask",
                     value=CFG.payment + CFG.threshold,
                     function_name=CFG.function_name,
                     hash_lock=hashlib.sha256(SECRET).digest(),
                     expires=CFG.expires)
    task_id = submitted.outcome.task_id
    call(ledger, node, "claimTask", value=CFG.node_deposit, task_id=task_id)
    return ledger, contract, requestor, node, task_id, submitted.events[0]


def _payoffs(contract_class, confirm: bool):
    """The requestor's payoff (balance delta plus the result's value) and
    the node's balance delta after the node reveals the secret and
    delivers, when the requestor confirms, or else waits for the deadline
    and times the task out; and the outcome of that last call."""
    ledger, _, requestor, node, task_id, _ = _claimed_task(contract_class)
    call(ledger, node, "finalizeExecutionNode", task_id=task_id, secret=SECRET)
    if confirm:
        receipt = call(ledger, requestor, "finalizeRequestor", task_id=task_id)
    else:
        ledger.advance_time(CFG.expires + 1)
        receipt = call(ledger, requestor, "timeout", task_id=task_id)
    delta = ledger.balance(requestor) - CFG.initial_balance
    return (delta + CFG.value_of_result,
            ledger.balance(node) - CFG.initial_balance, receipt.outcome)


def test_the_or_timeout_guard_breaks_dominance():
    """With the slip, a requestor who holds the result times the task out
    after its deadline instead of confirming: it pays d_r (0.5 ether)
    instead of P (10), and the node is never paid."""
    honest, paid, confirmed = _payoffs(OrTimeoutGuard, confirm=True)
    timed_out, unpaid, outcome = _payoffs(OrTimeoutGuard, confirm=False)
    assert confirmed.accepted and outcome.accepted
    assert honest - CFG.value_of_result == -CFG.payment == -paid
    assert timed_out - CFG.value_of_result == -CFG.threshold
    assert unpaid == 0
    assert timed_out > honest  # the deviation pays: dominance fails

    honest, _, _ = _payoffs(EscrowContract, confirm=True)
    timed_out, _, outcome = _payoffs(EscrowContract, confirm=False)
    assert outcome == CallOutcome(False, RefusalReason.ALREADY_COMPLETED)
    assert timed_out < honest


def test_the_preimage_slip_breaks_the_hash_lock():
    """With the slip, the node completes the task and recovers its deposit
    by revealing the public hash lock, never having run the function."""
    for contract_class, accepted in ((PreimageIsTheLock, True),
                                     (EscrowContract, False)):
        ledger, contract, _, node, task_id, submitted = _claimed_task(
            contract_class)
        lock = bytes.fromhex(submitted.payload["hashLock"])
        receipt = call(ledger, node, "finalizeExecutionNode",
                       task_id=task_id, secret=lock)
        assert receipt.outcome.accepted is accepted
        state = contract.tasks[task_id].state
        if accepted:
            assert state is TaskState.COMPLETED
            assert ledger.balance(node) == CFG.initial_balance
        else:
            assert receipt.outcome.reason is RefusalReason.BAD_SECRET
            assert state is TaskState.CLAIMED
            assert ledger.balance(node) == (CFG.initial_balance
                                            - CFG.node_deposit)


def _held(task) -> int:
    """What the contract holds for ``task``, read from its record: the
    payment and deposits it still owes, or, once the task is dead, the
    deposits locked for good."""
    payment = 0 if task.state is TaskState.TIMED_OUT_DEAD else task.payment
    node_deposit = (0 if task.state is TaskState.COMPLETED
                    else task.execution_node_deposit)
    return payment + task.requestor_deposit + node_deposit


def _audit_holds(ledger, contract) -> bool:
    """The contract's balance is what its records account for."""
    return ledger.balance(CONTRACT_ACCOUNT) == sum(
        map(_held, contract.tasks.values()))


def test_deleted_records_break_the_audit():
    """With the slip, a timed-out task's deposits (1 ether) stay in the
    contract, but no record shows them, so nobody can audit the balance.
    The shortest case: submit, claim, time out."""
    for contract_class, holds in ((DeadRecordsDeleted, False),
                                  (EscrowContract, True)):
        ledger, contract, requestor, node, task_id, _ = _claimed_task(
            contract_class)
        assert _audit_holds(ledger, contract)
        ledger.advance_time(CFG.expires + 1)
        assert call(ledger, requestor, "timeout",
                    task_id=task_id).outcome.accepted
        assert ledger.balance(CONTRACT_ACCOUNT) == (CFG.threshold
                                                    + CFG.node_deposit)
        assert (task_id in contract.tasks) is holds
        assert _audit_holds(ledger, contract) is holds
        # An open and a completed task beside it: every state is read.
        for _ in range(2):
            submitted = call(ledger, requestor, "submitTask",
                             value=CFG.payment + CFG.threshold,
                             function_name=CFG.function_name,
                             hash_lock=hashlib.sha256(SECRET).digest(),
                             expires=CFG.expires)
        completed = submitted.outcome.task_id
        call(ledger, node, "claimTask", value=CFG.node_deposit,
             task_id=completed)
        call(ledger, node, "finalizeExecutionNode", task_id=completed,
             secret=SECRET)
        assert _audit_holds(ledger, contract) is holds
