"""Strategy-driven requestor and execution-node behaviours.

Actors are deterministic state machines that act by calling the runner
(``submit``, ``claim``, ``instantiate``, ``provision``, ``revealed``,
``deliver``, ``destroy``, ``acknowledge``, ``accept``), which applies the
step at once and queues the handler call it produces, to run in time
order: at the ledger's clock, ``execution_delay`` later for
``on_execution_done``, and at the task's deadline for ``on_expiry``.
``claim``, ``revealed`` and ``accept`` are the config family's fork points
(``teescrow.harness``).  An actor never issues a dependent chain call
before the previous call's receipt has been handled.  The runner names
each handler and delivers the call through the party's ``step``; it
queues a receipt or an event for no one unless a table names it.  A call
carries only the values its handler reads (task ids, verdicts, bytes and
frozen records), never a receipt, an event or an enclave instance, so a
fork record that holds queued calls is a value.  The runner is passed in
as ``run``, never kept, so a finished run holds no reference cycle.

    handler                    party        args                  queued by
    on_start                   requestor    -                     run start
    ON_RECEIPT[call function]  the sender   task, accepted        submit
    ON_EVENT[event kind]       node         task                  submit
    on_instance_created        requestor    task                  instantiate
    on_execution_done          node         task, result, secret  provision
    on_revealed                node         task                  revealed
    on_delivery                requestor    task, result          deliver
                               or third party
    on_third_party_ack         requestor    task, valid           acknowledge
    on_valid_result            requestor    task                  accept
    on_expiry                  requestor    task                  submit

Honest behaviour follows the protocol sequence: the requestor generates a
secret, submits the task with payment + deposit, provisions the claimed
enclave (the runner attests it, provisions it and runs the function in one
session, since no party decides anything in between), and confirms once a
valid result arrives; the node claims, instantiates the enclave, reveals
the secret on-chain and delivers the result.  Deviations cut the sequence
short:

* ``no-confirm``   requestor keeps the result but never confirms;
* ``withhold-input``  requestor never provisions after the claim;
* ``claim-only``   node claims and goes silent;
* ``compute-no-deliver``  node recovers its deposit but keeps the result.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

from . import crypto
from .config import (
    NODE_CLAIM_ONLY,
    NODE_HONEST,
    REQUESTOR_HONEST,
    REQUESTOR_WITHHOLD_INPUT,
    ScenarioConfig,
)
from .crypto import ProtectedResult, ResultKeyPair
from .enclave import EnclaveInstance
from .ledger import ContractCall
from .streams import ByteStream

if TYPE_CHECKING:
    from .harness import ScenarioRunner


class _TaskKeys(NamedTuple):
    secret: bytes
    hash_lock: bytes
    result_keys: ResultKeyPair


class RequestorActor:
    """The requesting device: submits, attests, provisions, confirms."""

    def __init__(self, config: ScenarioConfig, rng: ByteStream,
                 expected_measurement: bytes,
                 state: tuple = ((), False, 0, 0)) -> None:
        """Built from a ``snapshot()``, by default one before any step; it
        sets ``rng`` to the snapshot's position."""
        self.config = config
        self.rng = rng
        self.expected_measurement = expected_measurement
        keys, self.received_valid_result, self.resubmits, rng.pos = state
        self._keys_by_task: dict[int, _TaskKeys] = dict(keys)
        # Read only after an accepted timeout, so lowering it before a run
        # to the number of resubmits that run made changes nothing.
        self.resubmit_limit = config.max_resubmits

    def snapshot(self) -> tuple:
        """What protocol steps write: not a hook's measurement or limit."""
        return (tuple(self._keys_by_task.items()), self.received_valid_result,
                self.resubmits, self.rng.pos)

    def verify_key(self, task_id: int) -> bytes:
        """The public key that checks the signature on a task's result."""
        return self._keys_by_task[task_id].result_keys.verify_key

    def step(self, run: ScenarioRunner, handler, *args) -> None:
        handler(self, run, *args)

    # A single requestor driving a fresh contract gets sequential task ids,
    # so the ordinal of the submission doubles as the task id: it submits
    # once at the start and once per resubmit.
    def _submit_task(self, run: ScenarioRunner) -> None:
        ordinal = self.resubmits
        secret = crypto.generate_secret(self.rng)
        keys = _TaskKeys(secret, crypto.hash_secret(secret),
                         crypto.new_result_keys(self.rng))
        self._keys_by_task[ordinal] = keys
        run.submit(self, ContractCall("submitTask", {
            "function_name": self.config.function_name,
            "hash_lock": keys.hash_lock,
            "expires": self.config.expires,
        }), self.config.payment + self.config.threshold)

    def on_start(self, run: ScenarioRunner) -> None:
        self._submit_task(run)

    def _on_timeout(self, run: ScenarioRunner, task_id: int,
                    accepted: bool) -> None:
        if not accepted:
            return
        # The task is dead: its keys go, so its instance, if the node
        # instantiates one after all, is never provisioned.
        del self._keys_by_task[task_id]
        if self.resubmits < self.resubmit_limit:
            # A resubmission always carries a fresh secret and hash.
            self.resubmits += 1
            self.received_valid_result = False
            self._submit_task(run)

    def on_instance_created(self, run: ScenarioRunner, task_id: int) -> None:
        keys = self._keys_by_task.get(task_id)
        if (keys is None
                or self.config.requestor_strategy == REQUESTOR_WITHHOLD_INPUT):
            return
        run.provision(task_id, self.expected_measurement,
                      self.rng.randbytes(16), keys.secret, self.config.inputs,
                      keys.result_keys)

    def on_delivery(self, run: ScenarioRunner, task_id: int,
                    protected: ProtectedResult) -> None:
        try:
            crypto.open_result(protected,
                               self._keys_by_task[task_id].result_keys)
        except crypto.CryptoError:
            # Bad delivery: fall through to the timeout path.
            return
        run.accept(task_id)

    def on_third_party_ack(self, run: ScenarioRunner, task_id: int,
                           signature_valid: bool) -> None:
        if signature_valid:
            run.accept(task_id)

    def on_expiry(self, run: ScenarioRunner, task_id: int) -> None:
        if not self.received_valid_result:
            run.submit(self, ContractCall("timeout", {"task_id": task_id}))

    def on_valid_result(self, run: ScenarioRunner, task_id: int) -> None:
        self.received_valid_result = True
        if self.config.requestor_strategy == REQUESTOR_HONEST:
            run.submit(self, ContractCall("finalizeRequestor",
                                          {"task_id": task_id}))

    #: Call function -> handler of its receipt; the runner drops the rest.
    ON_RECEIPT = {"timeout": _on_timeout}


class ExecutionNodeActor:
    """The executing node's untrusted host-side client."""

    def __init__(self, config: ScenarioConfig,
                 state: tuple = ((), ())) -> None:
        """Built from a ``snapshot()``, by default one before any step."""
        self.config = config
        instances, results = state
        #: Each task's instance, from the runner's ``instantiate`` until its
        #: ``destroy``: after a failed session, after the reveal, or at the
        #: end of the run if no requestor provisioned it.
        self.instances: dict[int, EnclaveInstance] = {
            task_id: EnclaveInstance(*fields) for task_id, fields in instances}
        self._result_by_task: dict[int, ProtectedResult] = dict(results)

    _instance_values = attrgetter(*EnclaveInstance.__slots__)

    def snapshot(self) -> tuple:
        """Each instance the node holds as its field values, and each
        executed task's protected result."""
        return (tuple((task_id, self._instance_values(instance))
                      for task_id, instance in self.instances.items()),
                tuple(self._result_by_task.items()))

    def step(self, run: ScenarioRunner, handler, *args) -> None:
        handler(self, run, *args)

    def _on_task_submitted(self, run: ScenarioRunner, task_id: int) -> None:
        run.claim(task_id)

    def _on_claimed(self, run: ScenarioRunner, task_id: int,
                    accepted: bool) -> None:
        if accepted and self.config.node_strategy != NODE_CLAIM_ONLY:
            run.instantiate(task_id)

    def _on_finalized(self, run: ScenarioRunner, task_id: int,
                      accepted: bool) -> None:
        if accepted:
            run.revealed(task_id)
        else:  # too late: the task timed out first
            del self._result_by_task[task_id]
            run.destroy(task_id)

    def on_revealed(self, run: ScenarioRunner, task_id: int) -> None:
        protected = self._result_by_task.pop(task_id)
        if self.config.node_strategy == NODE_HONEST:
            run.deliver(task_id, protected)
        run.destroy(task_id)

    def on_execution_done(self, run: ScenarioRunner, task_id: int,
                          protected: ProtectedResult, secret: bytes) -> None:
        self._result_by_task[task_id] = protected
        run.submit(self, ContractCall("finalizeExecutionNode",
                                      {"task_id": task_id, "secret": secret}))

    #: Event kind or call function -> handler; the runner drops the rest.
    ON_EVENT = {"TaskSubmitted": _on_task_submitted}
    ON_RECEIPT = {"claimTask": _on_claimed,
                  "finalizeExecutionNode": _on_finalized}


class ThirdParty:
    """The cloud endpoint a result can be delivered to instead: it checks
    the result's public signature and acks back to the requestor."""

    def step(self, run: ScenarioRunner, handler, *args) -> None:
        handler(self, run, *args)

    def on_delivery(self, run: ScenarioRunner, task_id: int,
                    protected: ProtectedResult) -> None:
        run.acknowledge(task_id, crypto.verify_result_signature(
            protected, run.requestor.verify_key(task_id)))
