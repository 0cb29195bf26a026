"""Simulated single-chain ledger.

Accounts with integer balances in a wei-like smallest unit, a monotone block
clock, and transaction application with per-function gas charging; each
receipt carries the events its call emitted.  The ledger is the sole
serialization point of the whole simulation: every contract interaction goes
through ``submit_transaction`` and each transaction occupies its own block,
so the confirmation-latency accounting of sequential calls is exact.

Gas is burned, not redistributed, which keeps the conservation invariant

    sum(balances) == total_supply - total_gas_burned

checkable after every transaction.  Gas charging is off by default; payoff
accounting excludes gas either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ADDRESS_LENGTH = 20

#: Distinguished all-zero account: placeholder "nobody", can never send.
NULL_ACCOUNT = bytes(ADDRESS_LENGTH)

#: Distinguished account holding everything escrowed by the contract.
CONTRACT_ACCOUNT = b"\xff" * ADDRESS_LENGTH

TIERS = ("slow", "standard", "fast")

EVENT_KINDS = ("TaskSubmitted", "TaskClaimed", "TaskFinished", "TaskTimedOut")

# Gas units per contract function, as measured on a public testnet.
# queryEvents is an off-chain read and has no entry.  The timeout entry is
# a config default: the cost table does not list one.
DEFAULT_GAS_PER_FUNCTION = {
    "deploy": 1_260_850,
    "submitTask": 277_880,
    "claimTask": 145_120,
    "finalizeExecutionNode": 52_802,
    "finalizeRequestor": 106_357,
    "timeout": 60_000,
}

#: Gas of one full task lifecycle: the four call functions, deploy excluded.
PER_TASK_FUNCTIONS = (
    "submitTask",
    "claimTask",
    "finalizeExecutionNode",
    "finalizeRequestor",
)

DEFAULT_CONFIRMATION_DELAY = {"slow": 600, "standard": 300, "fast": 120}

_PER_TASK_GAS = 582_159

# Price per gas unit in wei, back-computed from the measured per-task ether
# totals (0.00006 / 0.0064 / 0.01688 ether over 582159 gas).  Config values,
# not constants: the dollar figures they came from are exchange-rate bound.
DEFAULT_GAS_PRICE_PER_TIER = {
    "slow": 60_000_000_000_000 // _PER_TASK_GAS,
    "standard": 6_400_000_000_000_000 // _PER_TASK_GAS,
    "fast": 16_880_000_000_000_000 // _PER_TASK_GAS,
}


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


@dataclass
class GasSchedule:
    """Per-function gas units plus tier pricing and confirmation delays."""

    per_function: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_GAS_PER_FUNCTION)
    )
    gas_price_per_tier: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_GAS_PRICE_PER_TIER)
    )
    confirmation_delay_per_tier: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_CONFIRMATION_DELAY)
    )

    def __post_init__(self) -> None:
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

    def gas_cost(self, function: str, tier: str) -> int:
        return self.per_function[function] * self.gas_price_per_tier[tier]


@dataclass(frozen=True)
class LedgerEvent:
    """One contract event, emitted by the call in block ``block_height``."""

    kind: str
    task_id: int
    block_height: int
    payload: dict


@dataclass(frozen=True)
class ContractCall:
    function: str
    args: dict = field(default_factory=dict)


@dataclass
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
    events: list[LedgerEvent]
    outcome: object  # contract.CallOutcome


class CallContext:
    """What a contract handler sees of the transaction being applied.

    Mirrors msg.sender / msg.value / now; transfers out of the contract
    account (refunds, payouts) go through ``transfer_from_contract``.
    """

    def __init__(self, ledger: Ledger, sender: bytes, value: int) -> None:
        self._ledger = ledger
        self.sender = sender
        self.value = value
        self.now = ledger.now
        self.events: list[LedgerEvent] = []

    def transfer_from_contract(self, to: bytes, amount: int) -> None:
        self._ledger._transfer(CONTRACT_ACCOUNT, to, amount)

    def emit(self, kind: str, task_id: int, payload: dict) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self.events.append(LedgerEvent(
            kind=kind,
            task_id=task_id,
            block_height=self._ledger.block_height,
            payload=payload,
        ))


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
        self._accounts: dict[bytes, int] = {
            NULL_ACCOUNT: 0,
            CONTRACT_ACCOUNT: 0,
        }
        self._account_counter = 0
        self._contract = None

    # ------------------------------------------------------------------
    # accounts

    def create_account(self, initial_balance: int = 0) -> bytes:
        if initial_balance < 0:
            raise ValueError("initial balance must be non-negative")
        self._account_counter += 1
        account = self._account_counter.to_bytes(ADDRESS_LENGTH, "big")
        self._accounts[account] = initial_balance
        self.total_supply += initial_balance
        return account

    def balance(self, account: bytes) -> int:
        try:
            return self._accounts[account]
        except KeyError:
            raise UnknownAccount(account.hex()) from None

    def _transfer(self, frm: bytes, to: bytes, amount: int) -> None:
        if amount < 0:
            raise ValueError("transfer amount must be non-negative")
        if frm not in self._accounts or to not in self._accounts:
            raise UnknownAccount("transfer endpoint does not exist")
        if self._accounts[frm] < amount:
            raise InsufficientBalance(
                f"{frm.hex()} holds {self._accounts[frm]}, needs {amount}"
            )
        self._accounts[frm] -= amount
        self._accounts[to] += amount

    # ------------------------------------------------------------------
    # clock

    def advance_time(self, seconds: int) -> None:
        """Let wall time pass without mining (e.g. to reach an expiry)."""
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

        The value moves to the contract account before the call executes;
        the handler refunds it on refusal.  Gas (when charging is enabled)
        is burned from the sender at the tier price.  The clock advances by
        the tier's confirmation delay before the call runs.
        """
        if sender == NULL_ACCOUNT:
            raise UnknownAccount("the null account can never send")
        if sender not in self._accounts:
            raise UnknownAccount(sender.hex())
        if value < 0:
            raise ValueError("value must be non-negative")
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}")
        if self._contract is None:
            raise LedgerError("no contract registered")
        if (call.function not in self.schedule.per_function
                or call.function not in self._contract.functions):
            raise UnknownFunction(call.function)

        gas_used = self.schedule.per_function[call.function]
        gas_cost = self.schedule.gas_cost(call.function, tier) if self.gas_charging else 0
        if self._accounts[sender] < value + gas_cost:
            raise InsufficientBalance(
                f"{sender.hex()} holds {self._accounts[sender]}, "
                f"needs {value + gas_cost}"
            )

        self.block_height += 1
        self.now += self.schedule.confirmation_delay_per_tier[tier]

        if gas_cost:
            self._accounts[sender] -= gas_cost
            self.total_gas_burned += gas_cost
            self.gas_cost_by_account[sender] = (
                self.gas_cost_by_account.get(sender, 0) + gas_cost
            )
        self._transfer(sender, CONTRACT_ACCOUNT, value)

        ctx = CallContext(self, sender, value)
        outcome = self._contract.dispatch(ctx, call)

        receipt = Receipt(
            sender=sender,
            call=call,
            value=value,
            tier=tier,
            block_height=self.block_height,
            timestamp=self.now,
            gas_used=gas_used,
            gas_cost=gas_cost,
            events=ctx.events,
            outcome=outcome,
        )
        self.assert_conservation()
        return receipt

    def assert_conservation(self) -> None:
        total = sum(self._accounts.values())
        if total != self.total_supply - self.total_gas_burned:
            raise ConservationViolation(
                f"balances sum to {total}, expected "
                f"{self.total_supply - self.total_gas_burned}"
            )
