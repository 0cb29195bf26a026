"""Record layout: slotted records on the per-transaction path, and the
records shared across calls or runs compared and hashed as values.

Every transaction builds a ``ContractCall``, a ``CallContext`` and a
``Receipt``, and each event it emits; these, and the per-task records (the
contract's ``Task``, the requestor's keys, the enclave instance and what
it was provisioned with), are slotted (no per-instance ``__dict__``) and
plain, since a frozen dataclass pays for ``object.__setattr__`` on every
field.  Only a submission builds a ``CallOutcome``: every accepted call on
a task returns the one its submission built, and a refused call its
reason's one shared outcome.  The outcome, the requestor's
keys and the instance's provisioned material, which snapshots hold, are
``NamedTuple``s: slotted, immutable and hashable as values.  A config
family's fork record hands the same records to every run that resumes from
it: the requestor's ``ResultKeyPair``, the values of the calls it queues
(task ids, verdicts, bytes and ``ProtectedResult``s) and, at the node's
reveal, the executed instance's ``FunctionImage``, ``Provisioned``
material and ``ProtectedResult``.  So those compare and hash by value,
and the dataclasses among them stay frozen.
"""

from __future__ import annotations

import dataclasses

import pytest

from teescrow.actors import _TaskKeys
from teescrow.config import ScenarioConfig
from teescrow.contract import CallOutcome, RefusalReason, Task
from teescrow.crypto import ProtectedResult, ResultKeyPair
from teescrow.enclave import (
    BUILTIN_BODIES,
    EnclaveInstance,
    FunctionImage,
    Provisioned,
)
from teescrow.harness import ScenarioOutcome
from teescrow.ledger import CallContext, ContractCall, Ledger, LedgerEvent, Receipt

SLOTTED = (
    ContractCall, LedgerEvent, Receipt, CallOutcome,
    Task, _TaskKeys, EnclaveInstance, Provisioned,
)


def _blank(cls):
    """An instance with every required field set to ``None``."""
    if issubclass(cls, tuple):  # a NamedTuple, whose fields have no defaults
        return cls(*[None] * len(cls._fields))
    required = [f for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    return cls(*[None] * len(required))


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_message_records_are_slotted(cls):
    assert "__slots__" in vars(cls)
    assert not hasattr(_blank(cls), "__dict__")


def test_call_context_is_slotted():
    assert "__slots__" in vars(CallContext)
    ctx = CallContext(Ledger(), 0, b"\x01" * 20, 0, 1, 0)
    assert not hasattr(ctx, "__dict__")
    with pytest.raises(AttributeError):
        ctx.extra = 1


def _image() -> FunctionImage:
    return FunctionImage(name="identity", version="1", body_id="identity",
                         body=BUILTIN_BODIES["identity"], resource_cost=3)


#: Frozen records, each built twice from equal fields.
FROZEN = {
    "ProtectedResult": lambda: ProtectedResult(
        nonce=bytes(12), ciphertext=b"c", signature=b"s", key_id="k"),
    "ResultKeyPair": lambda: ResultKeyPair(
        encryption_key=bytes(32), signing_key_seed=bytes(32)),
    "FunctionImage": _image,
    "ScenarioConfig": ScenarioConfig,
    "ScenarioOutcome": lambda: ScenarioOutcome(
        requestor_payoff=1, node_payoff=2, locked_in_contract=0,
        gas_by_party={}, trace_id="t", received_valid_result=True,
        resource_cost_consumed=3, requestor_balance_delta=1,
        node_balance_delta=2, end_to_end_seconds=4),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_shared_records_stay_frozen(name):
    record = FROZEN[name]()
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(record, field))
    # The class keeps its field-wise hash; ScenarioConfig and ScenarioOutcome
    # hold dicts, so only their classes define one.
    assert type(record).__hash__ is not object.__hash__
    assert type(record).__hash__ is not None


#: The records a fork record shares across runs, and the refusal every
#: refused call of one reason shares, each built twice from equal fields.
SHARED = {
    **{name: FROZEN[name]
       for name in ("ProtectedResult", "ResultKeyPair", "FunctionImage")},
    "CallOutcome": lambda: CallOutcome(False, RefusalReason.ALREADY_CLAIMED),
    "Provisioned": lambda: Provisioned(
        secret=bytes(32), inputs=(1, 2, 3),
        result_keys=FROZEN["ResultKeyPair"]()),
}


@pytest.mark.parametrize("name", sorted(SHARED))
def test_records_a_fork_record_shares_hash_by_value(name):
    first, second = SHARED[name](), SHARED[name]()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert {first: 1}[second] == 1
