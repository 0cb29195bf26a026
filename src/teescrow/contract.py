"""Escrow contract for outsourced computation, as a pure state machine.

One task record per submission: the requestor locks payment + deposit under a
SHA-256 hash lock, exactly one execution node may claim it with its own
deposit, and the funds unwind along one of three paths:

* honest completion: node reveals the preimage (deposit back), requestor
  confirms (deposit back, payment to the node, record deleted);
* timeout on an incomplete task: requestor recovers the payment, every
  deposit stays locked in the contract forever, record goes dead;
* nothing: funds stay escrowed.

Refused calls refund their attached value and leave task records untouched,
so every transaction is atomic by construction.

Intentional divergences from the reference pseudo-code, which contains
evident slips:
* the preimage check compares SHA-256(secret) against the digest stored at
  submission (the pseudo-code compares a digest to its own preimage);
* the timeout guard requires expiry AND incompleteness (the pseudo-code's
  OR would fire on any incomplete task immediately);
* timeout is callable only by the requestor, who receives the refund anyway;
  this closes a griefing-by-timing vector;
* timed-out records are kept in a dead state instead of deleted, so the
  permanently-locked deposits stay auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .crypto import DIGEST_LENGTH, sha256_digest
from .ledger import ContractCall, CallContext, Ledger, NULL_ACCOUNT


class RefusalReason(str, Enum):
    VALUE_BELOW_THRESHOLD = "ValueBelowThreshold"
    NO_SUCH_TASK = "NoSuchTask"
    ALREADY_CLAIMED = "AlreadyClaimed"
    NOT_CLAIMANT = "NotClaimant"
    NOT_CLAIMED = "NotClaimed"
    ALREADY_COMPLETED = "AlreadyCompleted"
    BAD_SECRET = "BadSecret"
    NOT_REQUESTOR = "NotRequestor"
    NOT_COMPLETED = "NotCompleted"
    NOT_EXPIRED = "NotExpired"
    TASK_DEAD = "TaskDead"


@dataclass(frozen=True)
class CallOutcome:
    accepted: bool
    reason: RefusalReason | None = None
    task_id: int | None = None

    @staticmethod
    def ok(task_id: int | None = None) -> "CallOutcome":
        return CallOutcome(accepted=True, task_id=task_id)

    @staticmethod
    def refused(reason: RefusalReason) -> "CallOutcome":
        return CallOutcome(accepted=False, reason=reason)


class TaskState(str, Enum):
    OPEN = "Open"
    CLAIMED = "Claimed"
    COMPLETED = "Completed"
    TIMED_OUT_DEAD = "TimedOutDead"


@dataclass
class Task:
    function_name: str
    hash_lock: bytes
    requestor: bytes
    payment: int
    requestor_deposit: int
    execution_node: bytes = NULL_ACCOUNT
    execution_node_deposit: int = 0
    start: int = 0
    expires: int = 0
    state: TaskState = TaskState.OPEN


class EscrowContract:
    """Contract state plus the five dispatchable functions."""

    def __init__(self, ledger: Ledger, threshold: int) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.tasks: dict[int, Task] = {}
        self.num_tasks = 0  # monotone; task ids are never reused
        ledger.register_contract(self)

    # ------------------------------------------------------------------

    def dispatch(self, ctx: CallContext, call: ContractCall) -> CallOutcome:
        return self.functions[call.function](self, ctx, **call.args)

    def _refund(self, ctx: CallContext) -> None:
        if ctx.value:
            ctx.transfer_from_contract(ctx.sender, ctx.value)

    # ------------------------------------------------------------------

    def _submit_task(self, ctx: CallContext, function_name: str,
                     hash_lock: bytes, expires: int) -> CallOutcome:
        if len(hash_lock) != DIGEST_LENGTH:
            raise ValueError("hash lock must be a 32-byte digest")
        if expires < 0:
            raise ValueError("expires must be non-negative")
        if ctx.value < self.threshold:
            self._refund(ctx)
            return CallOutcome.refused(RefusalReason.VALUE_BELOW_THRESHOLD)
        task_id = self.num_tasks
        self.num_tasks += 1
        self.tasks[task_id] = Task(
            function_name=function_name,
            hash_lock=hash_lock,
            requestor=ctx.sender,
            payment=ctx.value - self.threshold,
            requestor_deposit=self.threshold,
            start=ctx.now,
            expires=expires,
        )
        ctx.emit("TaskSubmitted", task_id, {
            "functionName": function_name,
            "hashLock": hash_lock.hex(),
            "requestor": ctx.sender.hex(),
            "payment": ctx.value - self.threshold,
            "requestorDeposit": self.threshold,
            "expires": expires,
        })
        return CallOutcome.ok(task_id)

    def _claim_task(self, ctx: CallContext, task_id: int) -> CallOutcome:
        task = self.tasks.get(task_id)
        if task is None:
            self._refund(ctx)
            return CallOutcome.refused(RefusalReason.NO_SUCH_TASK)
        if task.state is TaskState.TIMED_OUT_DEAD:
            self._refund(ctx)
            return CallOutcome.refused(RefusalReason.TASK_DEAD)
        if ctx.value < self.threshold:
            self._refund(ctx)
            return CallOutcome.refused(RefusalReason.VALUE_BELOW_THRESHOLD)
        if task.state is not TaskState.OPEN:
            self._refund(ctx)
            return CallOutcome.refused(RefusalReason.ALREADY_CLAIMED)
        task.execution_node = ctx.sender
        task.execution_node_deposit = ctx.value
        task.state = TaskState.CLAIMED
        ctx.emit("TaskClaimed", task_id, {
            "executionNode": ctx.sender.hex(),
            "executionNodeDeposit": ctx.value,
        })
        return CallOutcome.ok(task_id)

    def _finalize_execution_node(self, ctx: CallContext, task_id: int,
                                 secret: bytes) -> CallOutcome:
        # Not payable: a mistakenly attached value is always returned.
        self._refund(ctx)
        task = self.tasks.get(task_id)
        if task is None or task.execution_node != ctx.sender:
            # A missing record behaves like the zeroed default: nobody is
            # its claimant.  Only a claim fills the slot, so the sender
            # matching it means the task was claimed.
            return CallOutcome.refused(RefusalReason.NOT_CLAIMANT)
        if task.state is TaskState.TIMED_OUT_DEAD:
            return CallOutcome.refused(RefusalReason.TASK_DEAD)
        if task.state is TaskState.COMPLETED:
            return CallOutcome.refused(RefusalReason.ALREADY_COMPLETED)
        if sha256_digest(secret) != task.hash_lock:
            return CallOutcome.refused(RefusalReason.BAD_SECRET)
        task.state = TaskState.COMPLETED
        ctx.transfer_from_contract(ctx.sender, task.execution_node_deposit)
        ctx.emit("TaskFinished", task_id, {
            "executionNode": ctx.sender.hex(),
            "depositReturned": task.execution_node_deposit,
        })
        return CallOutcome.ok(task_id)

    def _finalize_requestor(self, ctx: CallContext, task_id: int) -> CallOutcome:
        self._refund(ctx)
        task = self.tasks.get(task_id)
        if task is None or task.requestor != ctx.sender:
            return CallOutcome.refused(RefusalReason.NOT_REQUESTOR)
        if task.state is TaskState.TIMED_OUT_DEAD:
            return CallOutcome.refused(RefusalReason.TASK_DEAD)
        if task.state is TaskState.OPEN:
            return CallOutcome.refused(RefusalReason.NOT_CLAIMED)
        if task.state is TaskState.CLAIMED:
            return CallOutcome.refused(RefusalReason.NOT_COMPLETED)
        ctx.transfer_from_contract(task.requestor, task.requestor_deposit)
        ctx.transfer_from_contract(task.execution_node, task.payment)
        del self.tasks[task_id]
        return CallOutcome.ok(task_id)

    def _timeout(self, ctx: CallContext, task_id: int) -> CallOutcome:
        self._refund(ctx)
        task = self.tasks.get(task_id)
        if task is None or task.requestor != ctx.sender:
            return CallOutcome.refused(RefusalReason.NOT_REQUESTOR)
        if task.state is TaskState.TIMED_OUT_DEAD:
            return CallOutcome.refused(RefusalReason.TASK_DEAD)
        if task.state is TaskState.COMPLETED:
            return CallOutcome.refused(RefusalReason.ALREADY_COMPLETED)
        if not ctx.now > task.start + task.expires:  # strict: exact expiry is too early
            return CallOutcome.refused(RefusalReason.NOT_EXPIRED)
        task.state = TaskState.TIMED_OUT_DEAD
        ctx.transfer_from_contract(task.requestor, task.payment)
        ctx.emit("TaskTimedOut", task_id, {
            "paymentReturned": task.payment,
            "lockedRequestorDeposit": task.requestor_deposit,
            "lockedExecutionNodeDeposit": task.execution_node_deposit,
        })
        return CallOutcome.ok(task_id)

    #: Function name -> method; the ledger refuses any name not listed.
    functions = {
        "submitTask": _submit_task,
        "claimTask": _claim_task,
        "finalizeExecutionNode": _finalize_execution_node,
        "finalizeRequestor": _finalize_requestor,
        "timeout": _timeout,
    }
