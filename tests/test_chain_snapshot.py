"""The ledger's and the contract's state as values: a snapshot taken back
leaves the chain as it was, and the same calls then give the same
receipts."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ledger import _chain_state

from teescrow.contract import EscrowContract
from teescrow.ledger import GasSchedule, InsufficientBalance, Ledger, LedgerError

from conftest import THRESHOLD, call

_SECRET = b"preimage"
_LOCK = hashlib.sha256(_SECRET).digest()
_EXPIRES = 50

#: A clock advance, or a call: function, sender, value, task id and whether
#: a reveal carries the right secret.  Ids run one past the tasks a short
#: sequence makes, so some calls name no task.
_OPS = st.lists(st.one_of(
    st.tuples(st.just("advance"), st.integers(0, 2 * _EXPIRES)),
    st.tuples(st.sampled_from(sorted(EscrowContract.functions)),
              st.integers(0, 3), st.integers(0, 12), st.integers(0, 4),
              st.booleans()),
), max_size=30)


def _chain(funds: list[int], gas_charging: bool):
    # Gas at one unit per gas unit, and a clock the calls move by a few
    # seconds against a short expiry, so timeouts are accepted too.
    schedule = GasSchedule(
        gas_price_per_tier={"slow": 1, "standard": 1, "fast": 1},
        confirmation_delay_per_tier={"slow": 0, "standard": 7, "fast": 1})
    ledger = Ledger(schedule, gas_charging=gas_charging)
    contract = EscrowContract(ledger, THRESHOLD)
    return ledger, contract, [ledger.create_account(f) for f in funds]


def _apply(ledger: Ledger, accounts: list[bytes], op: tuple):
    """The op's receipt, or what a refused transaction raised."""
    if op[0] == "advance":
        ledger.advance_time(op[1])
        return ledger.now
    function, who, value, task_id, right_secret = op
    args = {"task_id": task_id}
    if function == "submitTask":
        args = {"function_name": "f", "hash_lock": _LOCK, "expires": _EXPIRES}
    elif function == "finalizeExecutionNode":
        args["secret"] = _SECRET if right_secret else b"wrong"
    try:
        return call(ledger, accounts[who % len(accounts)], function,
                    value=value, **args)
    except InsufficientBalance as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(funds=st.lists(st.integers(0, 10**6), min_size=2, max_size=4),
       gas_charging=st.booleans(), before=_OPS, after=_OPS)
def test_a_restored_chain_replays_the_same_calls(funds, gas_charging, before,
                                                 after):
    ledger, contract, accounts = _chain(funds, gas_charging)
    for op in before:
        _apply(ledger, accounts, op)
    state = _chain_state(ledger, contract)
    snapshot = ledger.snapshot(), contract.snapshot()
    hash(snapshot)  # values only
    receipts = [_apply(ledger, accounts, op) for op in after]
    end = _chain_state(ledger, contract)

    ledger.restore(snapshot[0])
    contract.restore(snapshot[1])
    assert _chain_state(ledger, contract) == state
    assert [_apply(ledger, accounts, op) for op in after] == receipts
    assert _chain_state(ledger, contract) == end


def test_restore_refuses_a_snapshot_of_another_account_count(funded):
    ledger, contract, requestor, _ = funded
    call(ledger, requestor, "submitTask", value=15, function_name="f",
         hash_lock=_LOCK, expires=_EXPIRES)
    snapshot = ledger.snapshot()
    ledger.create_account(7)
    state = _chain_state(ledger, contract)
    with pytest.raises(LedgerError, match="another number of accounts"):
        ledger.restore(snapshot)
    assert _chain_state(ledger, contract) == state
