"""Simulated single-chain ledger.

Accounts with integer balances in a wei-like smallest unit, a monotone block
clock, and transaction application with per-function gas charging; each
receipt carries the events its call emitted.  The ledger is the sole
serialization point of the whole simulation: every contract interaction goes
through ``submit_transaction`` and each transaction occupies its own block,
so the confirmation-latency accounting of sequential calls is exact.

Gas is burned, not redistributed, which keeps the conservation invariant

    sum(balances) == total_supply - total_gas_burned

checkable after every transaction.  The check is a full recompute: balances
live in one list, one slot per account, and after every transaction
``assert_conservation`` sums that whole list.  It is O(accounts) per
transaction by design; no running total is kept.  Gas charging is off by
default; payoff accounting excludes gas either way.

Value moves by slot: a payable handler that accepts collects the attached
value from the sender's slot into the contract's fixed slot, a payout looks
up only its recipient, and the gas comes off the sender's slot once the
handler has returned.  Every amount and time is an ``int``, never a
``bool``; anything else raises ``TypeError`` before any state changes, so a
float cannot round a balance and mint unseen value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

ADDRESS_LENGTH = 20

#: Distinguished all-zero account: placeholder "nobody", can never send.
NULL_ACCOUNT = bytes(ADDRESS_LENGTH)

#: Distinguished account holding everything escrowed by the contract.
CONTRACT_ACCOUNT = b"\xff" * ADDRESS_LENGTH
_CONTRACT_SLOT = 1  # its slot in ``Ledger._balances``

TIERS = ("slow", "standard", "fast")

EVENT_KINDS = ("TaskSubmitted", "TaskClaimed", "TaskFinished", "TaskTimedOut")


class FrozenDict(dict):
    """A ``dict`` that refuses every change with ``TypeError``, at dict speed."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"'{type(self).__name__}' object is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:  # a value, so it can be a field default
        return hash(frozenset(self.items()))

    def __reduce__(self):  # copy and pickle rebuild it whole, not by item
        return type(self), (dict(self),)


# Gas units per contract function, as measured on a public testnet.
# queryEvents is an off-chain read and has no entry.  The timeout entry is
# a config default: the cost table does not list one.
DEFAULT_GAS_PER_FUNCTION = FrozenDict({
    "deploy": 1_260_850,
    "submitTask": 277_880,
    "claimTask": 145_120,
    "finalizeExecutionNode": 52_802,
    "finalizeRequestor": 106_357,
    "timeout": 60_000,
})

#: Gas of one full task lifecycle: the four call functions, deploy excluded.
PER_TASK_FUNCTIONS = (
    "submitTask",
    "claimTask",
    "finalizeExecutionNode",
    "finalizeRequestor",
)

DEFAULT_CONFIRMATION_DELAY = FrozenDict(slow=600, standard=300, fast=120)

_PER_TASK_GAS = 582_159

# Price per gas unit in wei, back-computed from the measured per-task ether
# totals (0.00006 / 0.0064 / 0.01688 ether over 582159 gas).  Config values,
# not constants: the dollar figures they came from are exchange-rate bound.
DEFAULT_GAS_PRICE_PER_TIER = FrozenDict({
    "slow": 60_000_000_000_000 // _PER_TASK_GAS,
    "standard": 6_400_000_000_000_000 // _PER_TASK_GAS,
    "fast": 16_880_000_000_000_000 // _PER_TASK_GAS,
})


def _is_int(value) -> bool:
    """The rule for every amount and time: exactly an ``int``.  A ``bool``
    or any other subclass is refused: the trace writers format integers
    with ``format()``, and a subclass's own ``__format__`` could write a
    token that is not JSON."""
    return type(value) is int


class LedgerError(Exception):
    """Base class for ledger failures."""


class UnknownAccount(LedgerError):
    pass


class InsufficientBalance(LedgerError):
    """Sender cannot cover value + gas; the transaction is not applied."""


class UnknownFunction(LedgerError):
    """Call names a function with no gas entry or no contract handler."""


class ConservationViolation(LedgerError):
    """Post-transaction supply check failed; indicates a simulator bug."""


@dataclass(frozen=True)
class GasSchedule:
    """Per-function gas, tier prices and confirmation delays, as FrozenDicts."""

    per_function: dict[str, int] = DEFAULT_GAS_PER_FUNCTION
    gas_price_per_tier: dict[str, int] = DEFAULT_GAS_PRICE_PER_TIER
    confirmation_delay_per_tier: dict[str, int] = DEFAULT_CONFIRMATION_DELAY

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, FrozenDict(getattr(self, f.name)))
        for name, gas in self.per_function.items():
            if gas <= 0:
                raise ValueError(f"gas for {name!r} must be positive")
        for tier in TIERS:
            if self.gas_price_per_tier.get(tier, 0) <= 0:
                raise ValueError(f"missing or non-positive gas price for {tier!r}")
            # Zero is allowed: an idealized instant-confirmation tier is a
            # useful baseline for latency accounting.
            if self.confirmation_delay_per_tier.get(tier, -1) < 0:
                raise ValueError(f"missing or negative delay for {tier!r}")

    @property
    def total_per_task_gas(self) -> int:
        return sum(self.per_function[name] for name in PER_TASK_FUNCTIONS)


@dataclass(slots=True)
class LedgerEvent:
    """One contract event, emitted by the call in block ``block_height``."""

    kind: str
    task_id: int
    block_height: int
    payload: dict


@dataclass(slots=True)
class ContractCall:
    function: str
    args: dict = field(default_factory=dict)


@dataclass(slots=True)
class Receipt:
    """Result of one confirmed transaction (= one block)."""

    sender: bytes
    call: ContractCall
    value: int
    tier: str
    block_height: int
    timestamp: int
    gas_used: int
    gas_cost: int
    events: tuple[LedgerEvent, ...]
    outcome: object  # contract.CallOutcome


class CallContext:
    """What a contract handler sees of the transaction being applied.

    Mirrors msg.sender / msg.value / block.number / now, with the block
    and the clock the transaction will have once applied.  ``collect``
    takes the attached value into escrow; transfers out of the contract
    account (payouts) go through ``transfer_from_contract``.
    """

    __slots__ = ("_ledger", "_slot", "sender", "value", "block_height",
                 "now", "events")

    def __init__(self, ledger: Ledger, slot: int, sender: bytes, value: int,
                 block_height: int, now: int) -> None:
        self._ledger = ledger
        self._slot = slot
        self.sender = sender
        self.value = value
        self.block_height = block_height
        self.now = now
        # A tuple, so a call that emits nothing shares the empty one.
        self.events: tuple[LedgerEvent, ...] = ()

    def collect(self) -> None:
        """Move the attached value from the sender into the contract."""
        balances = self._ledger._balances
        balances[self._slot] -= self.value
        balances[_CONTRACT_SLOT] += self.value

    def transfer_from_contract(self, to: bytes, amount: int) -> None:
        if amount < 0:
            raise ValueError("transfer amount must be non-negative")
        ledger = self._ledger
        slot = ledger._accounts.get(to)
        if slot is None:
            raise UnknownAccount("transfer endpoint does not exist")
        balances = ledger._balances
        if balances[_CONTRACT_SLOT] < amount:
            raise InsufficientBalance(
                f"the contract holds {balances[_CONTRACT_SLOT]}, "
                f"needs {amount}")
        balances[_CONTRACT_SLOT] -= amount
        balances[slot] += amount

    def emit(self, kind: str, task_id: int, payload: dict) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self.events += (LedgerEvent(kind, task_id, self.block_height,
                                    payload),)


class Ledger:
    """Deterministic single-threaded chain state."""

    def __init__(self, schedule: GasSchedule | None = None,
                 gas_charging: bool = False) -> None:
        self.schedule = schedule or GasSchedule()
        self.gas_charging = gas_charging
        self.now = 0
        self.block_height = 0
        self.total_supply = 0
        self.total_gas_burned = 0
        self.gas_cost_by_account: dict[bytes, int] = {}
        # Every balance, one slot per account in creation order; each
        # address maps to its slot.  Account n (from 1) sits in slot n + 1.
        self._balances: list[int] = [0, 0]
        self._accounts: dict[bytes, int] = {
            NULL_ACCOUNT: 0,
            CONTRACT_ACCOUNT: _CONTRACT_SLOT,
        }
        self._contract = None

    # ------------------------------------------------------------------
    # accounts

    def create_account(self, initial_balance: int = 0) -> bytes:
        if not _is_int(initial_balance):
            raise TypeError("initial balance must be an integer")
        if initial_balance < 0:
            raise ValueError("initial balance must be non-negative")
        slot = len(self._balances)
        account = (slot - 1).to_bytes(ADDRESS_LENGTH, "big")
        self._accounts[account] = slot
        self._balances.append(initial_balance)
        self.total_supply += initial_balance
        return account

    def balance(self, account: bytes) -> int:
        try:
            return self._balances[self._accounts[account]]
        except KeyError:
            raise UnknownAccount(account.hex()) from None

    # ------------------------------------------------------------------
    # clock

    def advance_time(self, seconds: int) -> None:
        """Let wall time pass without mining (e.g. to reach an expiry)."""
        if not _is_int(seconds):
            raise TypeError("seconds must be an integer")
        if seconds < 0:
            raise ValueError("time can only move forward")
        self.now += seconds

    # ------------------------------------------------------------------
    # transactions

    def register_contract(self, contract) -> None:
        self._contract = contract

    def submit_transaction(self, sender: bytes, call: ContractCall,
                           value: int, tier: str) -> Receipt:
        """Apply one transaction in its own block.

        The handler runs first, against a context that carries the next
        block height and the clock advanced by the tier's confirmation
        delay; the attached value moves only if the handler collects it.
        Once the handler returns, the block and the clock are set and the
        gas (when charging is enabled) is burned from the sender at the
        tier price.  A handler raises only before its first state change
        (a collect, a payout or a task write), so a call that raises leaves
        no block and changes no balance, task or clock.  The ledger guards
        the balance half of that rule: when a handler raises after moving
        value in or out of the sender's or the contract's slot, the call
        raises ``ConservationViolation``, chained from the handler's
        exception.  A task written before the raise goes unseen.
        """
        if sender == NULL_ACCOUNT or sender == CONTRACT_ACCOUNT:
            # Escrowed funds leave the contract account only through its
            # handlers, never as a transaction of its own.
            raise UnknownAccount("the null and contract accounts never send")
        slot = self._accounts.get(sender)
        if slot is None:
            raise UnknownAccount(sender.hex())
        if type(value) is not int:  # _is_int, inlined
            raise TypeError("value must be an integer")
        if value < 0:
            raise ValueError("value must be non-negative")
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}")
        contract = self._contract
        if contract is None:
            raise LedgerError("no contract registered")
        schedule = self.schedule
        function = call.function
        gas_used = schedule.per_function.get(function)
        if gas_used is None or function not in contract.functions:
            raise UnknownFunction(function)

        gas_cost = (gas_used * schedule.gas_price_per_tier[tier]
                    if self.gas_charging else 0)
        balances = self._balances
        held = balances[slot]
        if held < value + gas_cost:
            raise InsufficientBalance(
                f"{sender.hex()} holds {held}, needs {value + gas_cost}"
            )

        ctx = CallContext(self, slot, sender, value, self.block_height + 1,
                          self.now + schedule.confirmation_delay_per_tier[tier])
        escrowed = balances[_CONTRACT_SLOT]
        try:
            outcome = contract.dispatch(ctx, call)
        except Exception as exc:
            if (balances[slot] != held
                    or balances[_CONTRACT_SLOT] != escrowed):
                raise ConservationViolation(
                    f"{function} raised after moving value") from exc
            raise
        self.block_height = ctx.block_height
        self.now = ctx.now
        if gas_cost:
            balances[slot] -= gas_cost
            self.total_gas_burned += gas_cost
            self.gas_cost_by_account[sender] = (
                self.gas_cost_by_account.get(sender, 0) + gas_cost
            )

        receipt = Receipt(sender, call, value, tier, self.block_height,
                          self.now, gas_used, gas_cost, ctx.events, outcome)
        self.assert_conservation()
        return receipt

    def snapshot(self) -> tuple:
        """Balances, block height, clock, gas burned and gas per account."""
        return (tuple(self._balances), self.block_height, self.now,
                self.total_gas_burned,
                tuple(sorted(self.gas_cost_by_account.items())))

    def restore(self, state: tuple) -> None:
        """Take back a snapshot of as many accounts.  Its balances are not
        checked against this ledger's supply: ``assert_conservation`` does."""
        if len(state[0]) != len(self._balances):
            raise LedgerError("a snapshot of another number of accounts")
        balances, self.block_height, self.now, self.total_gas_burned, gas = state
        self._balances[:] = balances
        self.gas_cost_by_account = dict(gas)

    def assert_conservation(self) -> None:
        total = sum(self._balances)
        if total != self.total_supply - self.total_gas_burned:
            raise ConservationViolation(
                f"balances sum to {total}, expected "
                f"{self.total_supply - self.total_gas_burned}"
            )
