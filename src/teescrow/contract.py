"""Escrow contract for outsourced computation, as a pure state machine.

One task record per submission: the requestor locks payment + deposit under a
SHA-256 hash lock, exactly one execution node may claim it with its own
deposit, and the funds unwind along one of three paths:

* honest completion: node reveals the preimage (deposit back), requestor
  confirms (deposit back, payment to the node, record deleted);
* timeout on an incomplete task: requestor recovers the payment, every
  deposit stays locked in the contract forever, record goes dead;
* nothing: funds stay escrowed.

Only the payable calls take value: ``submitTask`` and ``claimTask`` collect
what the call attaches on their accepted path, after every check, so a
refused call changes no balance and no task record.  A call the contract
cannot parse (a missing or unknown argument, a function name that is not a
string, a malformed hash lock, a task id that is not an integer) raises
before its first state change, and the ledger applies nothing of it.

Intentional divergences from the reference pseudo-code, which contains
evident slips (tests/test_pseudocode_slips.py runs all but the third):
* the preimage check compares SHA-256(secret) against the digest stored at
  submission (the pseudo-code compares a digest to its own preimage;
  ``test_the_preimage_slip_breaks_the_hash_lock``);
* the timeout guard requires expiry AND incompleteness (the pseudo-code's
  OR would fire on any incomplete task immediately;
  ``test_the_or_timeout_guard_breaks_dominance``);
* timeout is callable only by the requestor; the refund is the requestor's
  whoever calls, so letting anyone call breaks no criterion while each call
  lands at once; once a reveal can land late, a stranger could kill the task;
* timed-out records are kept in a dead state instead of deleted, so the
  locked deposits stay auditable (``test_deleted_records_break_the_audit``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

from .crypto import DIGEST_LENGTH, sha256_digest
from .ledger import ContractCall, CallContext, Ledger, NULL_ACCOUNT, _is_int


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


class CallOutcome(NamedTuple):
    """What a call did.  Immutable, so it is shared: every refusal for one
    reason returns the same outcome (``_REFUSED``), and every accepted call
    on a task returns the one its submission built (``Task.accepted``)."""

    accepted: bool
    reason: RefusalReason | None = None
    task_id: int | None = None


_REFUSED = {reason: CallOutcome(False, reason) for reason in RefusalReason}


class TaskState(str, Enum):
    OPEN = "Open"
    CLAIMED = "Claimed"
    COMPLETED = "Completed"
    TIMED_OUT_DEAD = "TimedOutDead"


@dataclass(slots=True)
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
    #: What every accepted call on the task returns.
    accepted: CallOutcome | None = None

    @property
    def deadline(self) -> int:
        """The first time a timeout is accepted: exact expiry is too early."""
        return self.start + self.expires + 1


class EscrowContract:
    """Contract state plus the five dispatchable functions."""

    def __init__(self, ledger: Ledger, threshold: int) -> None:
        if not _is_int(threshold):
            raise TypeError("threshold must be an integer")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.tasks: dict[int, Task] = {}
        self.num_tasks = 0  # monotone; task ids are never reused
        ledger.register_contract(self)

    # ------------------------------------------------------------------

    def dispatch(self, ctx: CallContext, call: ContractCall) -> CallOutcome:
        return self.functions[call.function](self, ctx, **call.args)

    def _task(self, task_id: int) -> Task | None:
        # _is_int, inlined on the claim race's hot path.
        if type(task_id) is not int:
            raise TypeError("task_id must be an integer")
        return self.tasks.get(task_id)

    _task_values = attrgetter(*Task.__slots__)

    def snapshot(self) -> tuple:
        """``num_tasks`` and each task's id and field values."""
        return self.num_tasks, tuple((task_id, self._task_values(task))
                                     for task_id, task in self.tasks.items())

    def restore(self, state: tuple) -> None:
        self.num_tasks, tasks = state
        self.tasks = {task_id: Task(*values) for task_id, values in tasks}

    # ------------------------------------------------------------------

    def _submit_task(self, ctx: CallContext, function_name: str,
                     hash_lock: bytes, expires: int) -> CallOutcome:
        if not isinstance(function_name, str):
            raise TypeError("function name must be a string")
        if not isinstance(hash_lock, bytes) or len(hash_lock) != DIGEST_LENGTH:
            raise ValueError("hash lock must be a 32-byte digest")
        if not _is_int(expires):
            raise TypeError("expires must be an integer")
        if expires < 0:
            raise ValueError("expires must be non-negative")
        if ctx.value < self.threshold:
            return _REFUSED[RefusalReason.VALUE_BELOW_THRESHOLD]
        ctx.collect()
        task_id = self.num_tasks
        self.num_tasks += 1
        outcome = CallOutcome(True, None, task_id)
        self.tasks[task_id] = Task(
            function_name=function_name,
            hash_lock=hash_lock,
            requestor=ctx.sender,
            payment=ctx.value - self.threshold,
            requestor_deposit=self.threshold,
            start=ctx.now,
            expires=expires,
            accepted=outcome,
        )
        ctx.emit("TaskSubmitted", task_id, {
            "functionName": function_name,
            "hashLock": hash_lock.hex(),
            "requestor": ctx.sender.hex(),
            "payment": ctx.value - self.threshold,
            "requestorDeposit": self.threshold,
            "expires": expires,
        })
        return outcome

    def _claim_task(self, ctx: CallContext, task_id: int) -> CallOutcome:
        task = self._task(task_id)
        if task is None:
            return _REFUSED[RefusalReason.NO_SUCH_TASK]
        if task.state is TaskState.TIMED_OUT_DEAD:
            return _REFUSED[RefusalReason.TASK_DEAD]
        if ctx.value < self.threshold:
            return _REFUSED[RefusalReason.VALUE_BELOW_THRESHOLD]
        if task.state is not TaskState.OPEN:
            return _REFUSED[RefusalReason.ALREADY_CLAIMED]
        ctx.collect()
        task.execution_node = ctx.sender
        task.execution_node_deposit = ctx.value
        task.state = TaskState.CLAIMED
        ctx.emit("TaskClaimed", task_id, {
            "executionNode": ctx.sender.hex(),
            "executionNodeDeposit": ctx.value,
        })
        return task.accepted

    def _finalize_execution_node(self, ctx: CallContext, task_id: int,
                                 secret: bytes) -> CallOutcome:
        # Not payable: a mistakenly attached value is never collected.
        task = self._task(task_id)
        if task is None or task.execution_node != ctx.sender:
            # A missing record behaves like the zeroed default: nobody is
            # its claimant.  Only a claim fills the slot, so the sender
            # matching it means the task was claimed.
            return _REFUSED[RefusalReason.NOT_CLAIMANT]
        if task.state is TaskState.TIMED_OUT_DEAD:
            return _REFUSED[RefusalReason.TASK_DEAD]
        if task.state is TaskState.COMPLETED:
            return _REFUSED[RefusalReason.ALREADY_COMPLETED]
        if sha256_digest(secret) != task.hash_lock:
            return _REFUSED[RefusalReason.BAD_SECRET]
        task.state = TaskState.COMPLETED
        ctx.transfer_from_contract(ctx.sender, task.execution_node_deposit)
        ctx.emit("TaskFinished", task_id, {
            "executionNode": ctx.sender.hex(),
            "depositReturned": task.execution_node_deposit,
        })
        return task.accepted

    def _finalize_requestor(self, ctx: CallContext, task_id: int) -> CallOutcome:
        task = self._task(task_id)
        if task is None or task.requestor != ctx.sender:
            return _REFUSED[RefusalReason.NOT_REQUESTOR]
        if task.state is TaskState.TIMED_OUT_DEAD:
            return _REFUSED[RefusalReason.TASK_DEAD]
        if task.state is TaskState.OPEN:
            return _REFUSED[RefusalReason.NOT_CLAIMED]
        if task.state is TaskState.CLAIMED:
            return _REFUSED[RefusalReason.NOT_COMPLETED]
        ctx.transfer_from_contract(task.requestor, task.requestor_deposit)
        ctx.transfer_from_contract(task.execution_node, task.payment)
        del self.tasks[task_id]
        return task.accepted

    def _timeout(self, ctx: CallContext, task_id: int) -> CallOutcome:
        task = self._task(task_id)
        if task is None or task.requestor != ctx.sender:
            return _REFUSED[RefusalReason.NOT_REQUESTOR]
        if task.state is TaskState.TIMED_OUT_DEAD:
            return _REFUSED[RefusalReason.TASK_DEAD]
        if task.state is TaskState.COMPLETED:
            return _REFUSED[RefusalReason.ALREADY_COMPLETED]
        if ctx.now < task.deadline:
            return _REFUSED[RefusalReason.NOT_EXPIRED]
        task.state = TaskState.TIMED_OUT_DEAD
        ctx.transfer_from_contract(task.requestor, task.payment)
        ctx.emit("TaskTimedOut", task_id, {
            "paymentReturned": task.payment,
            "lockedRequestorDeposit": task.requestor_deposit,
            "lockedExecutionNodeDeposit": task.execution_node_deposit,
        })
        return task.accepted

    #: Function name -> method; the ledger refuses any name not listed.
    functions = {
        "submitTask": _submit_task,
        "claimTask": _claim_task,
        "finalizeExecutionNode": _finalize_execution_node,
        "finalizeRequestor": _finalize_requestor,
        "timeout": _timeout,
    }
