"""Scenario and ledger configuration.

A scenario is fully described by a ``ScenarioConfig``: the two strategies,
the economic parameters (result value, payment, compute cost, deposits,
threshold), timing (expiry, tier, execution delay) and the RNG seed.  The
same structure round-trips through a JSON config file; every key is
optional and falls back to the documented defaults.

All amounts are integers in the smallest currency unit (10^18 units = one
whole coin); result value and compute cost share that unit so payoffs are
exact integer arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

from .ledger import (
    DEFAULT_CONFIRMATION_DELAY,
    DEFAULT_GAS_PER_FUNCTION,
    DEFAULT_GAS_PRICE_PER_TIER,
    GasSchedule,
    TIERS,
)

UNIT = 10**18

REQUESTOR_HONEST = "honest"
REQUESTOR_NO_CONFIRM = "no-confirm"
REQUESTOR_WITHHOLD_INPUT = "withhold-input"
REQUESTOR_STRATEGIES = (
    REQUESTOR_HONEST, REQUESTOR_NO_CONFIRM, REQUESTOR_WITHHOLD_INPUT,
)

NODE_HONEST = "honest"
NODE_CLAIM_ONLY = "claim-only"
NODE_COMPUTE_NO_DELIVER = "compute-no-deliver"
NODE_STRATEGIES = (NODE_HONEST, NODE_CLAIM_ONLY, NODE_COMPUTE_NO_DELIVER)


class ConfigInvalid(Exception):
    pass


#: ``crypto.CANONICAL_JSON`` that refuses ``NaN`` and infinities: the
#: ``inputs`` go into the trace, which is strict JSON.
STRICT_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                               allow_nan=False)


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ConfigInvalid(f"{token} is not a finite number")
    return value


def load_json_file(path: str, what: str):
    """The JSON value in ``path``.  ``NaN``, ``Infinity`` and floats that
    overflow are refused: strict JSON, such as a trace, cannot hold them."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_float=_finite,
                             parse_constant=_finite)
        except (ValueError, RecursionError) as exc:
            # Also bad UTF-8, over-long ints and nesting past the stack.
            raise ConfigInvalid(f"{what} is not valid JSON: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Field annotation -> (check, description) for values read from JSON.
# ``inputs`` is annotated ``object`` and takes any JSON value.
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict) and all(map(_is_int, v.values())),
             "an object of integers"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    requestor_strategy: str = REQUESTOR_HONEST
    node_strategy: str = NODE_HONEST
    value_of_result: int = 100 * UNIT
    payment: int = 10 * UNIT
    compute_cost: int = 3 * UNIT
    threshold: int = 5 * 10**17
    requestor_deposit: int = -1  # -1: derive from threshold
    node_deposit: int = -1  # -1: derive from threshold
    expires: int = 3600
    tier: str = "standard"
    rng_seed: int = 0
    execution_delay: int = 0
    gas_charging: bool = False
    include_gas_in_payoffs: bool = False
    deliver_to_third_party: bool = False
    function_name: str = "identity"
    inputs: object = (1, 2, 3)
    initial_balance: int = 1000 * UNIT
    max_resubmits: int = 0
    gas_per_function: dict = field(default_factory=dict)
    gas_price_per_tier: dict = field(default_factory=dict)
    confirmation_delay_per_tier: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.requestor_deposit == -1:
            object.__setattr__(self, "requestor_deposit", self.threshold)
        if self.node_deposit == -1:
            object.__setattr__(self, "node_deposit", self.threshold)
        # Holds the encoded ``inputs`` once a run asks for it.  Every config
        # built by ``__init__`` (``dataclasses.replace`` too) gets its own;
        # ``with_strategies`` hands the derived config this one.
        object.__setattr__(self, "_inputs_json", [])

    # ------------------------------------------------------------------

    def validate(self) -> None:
        if self.requestor_strategy not in REQUESTOR_STRATEGIES:
            raise ConfigInvalid(
                f"unknown requestor strategy {self.requestor_strategy!r}"
            )
        if self.node_strategy not in NODE_STRATEGIES:
            raise ConfigInvalid(f"unknown node strategy {self.node_strategy!r}")
        if self.tier not in TIERS:
            raise ConfigInvalid(f"unknown tier {self.tier!r}")
        if self.threshold <= 0:
            raise ConfigInvalid("threshold must be positive")
        if self.requestor_deposit != self.threshold:
            # The contract fixes the requestor deposit at the threshold.
            raise ConfigInvalid("requestor_deposit must equal threshold")
        if self.node_deposit < self.threshold:
            raise ConfigInvalid("node_deposit must be at least the threshold")
        for name in ("value_of_result", "payment", "compute_cost"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} must be non-negative")
        if self.expires <= 0:
            raise ConfigInvalid("expires must be positive")
        if self.execution_delay < 0:
            raise ConfigInvalid("execution_delay must be non-negative")
        if self.max_resubmits < 0:
            raise ConfigInvalid("max_resubmits must be non-negative")
        self.inputs_json()  # the trace cannot hold every Python value
        # Each of the 1 + max_resubmits tasks can lock both deposits and
        # costs each party the gas of the calls it sends for the task; a
        # timeout refunds the payment, so only one payment is at stake.
        schedule = self.gas_schedule()
        price = schedule.gas_price_per_tier[self.tier] if self.gas_charging else 0
        gas = schedule.per_function
        gas_r = price * (gas["submitTask"]
                         + max(gas["finalizeRequestor"], gas["timeout"]))
        gas_n = price * (gas["claimTask"] + gas["finalizeExecutionNode"])
        tasks = self.max_resubmits + 1
        if (self.initial_balance
                < self.payment + tasks * (self.threshold + gas_r)):
            raise ConfigInvalid("initial_balance cannot fund the requestor")
        if self.initial_balance < tasks * (self.node_deposit + gas_n):
            raise ConfigInvalid("initial_balance cannot fund the node")

    @property
    def in_rational_regime(self) -> bool:
        """Strict value > payment > cost > 0, positive deposits."""
        return (
            self.value_of_result > self.payment > self.compute_cost > 0
            and self.requestor_deposit > 0
            and self.node_deposit > 0
        )

    def gas_schedule(self) -> GasSchedule:
        for name, known in (("gas_per_function", DEFAULT_GAS_PER_FUNCTION),
                            ("gas_price_per_tier", TIERS),
                            ("confirmation_delay_per_tier", TIERS)):
            unknown = set(getattr(self, name)) - set(known)
            if unknown:
                raise ConfigInvalid(f"unknown {name} keys: {sorted(unknown)}")
        try:
            return GasSchedule(
                per_function={**DEFAULT_GAS_PER_FUNCTION,
                              **self.gas_per_function},
                gas_price_per_tier={**DEFAULT_GAS_PRICE_PER_TIER,
                                    **self.gas_price_per_tier},
                confirmation_delay_per_tier={
                    **DEFAULT_CONFIRMATION_DELAY,
                    **self.confirmation_delay_per_tier},
            )
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from None

    # ------------------------------------------------------------------

    def with_strategies(self, requestor: str, node: str) -> "ScenarioConfig":
        """This config with other strategies; it shares the encoded
        ``inputs``, so a payoff matrix encodes them once."""
        derived = replace(self, requestor_strategy=requestor,
                          node_strategy=node)
        object.__setattr__(derived, "_inputs_json", self._inputs_json)
        return derived

    def inputs_json(self) -> str:
        """``inputs`` as canonical JSON, encoded on first use.

        The result is kept, so ``inputs`` must not be mutated after a run.
        Raises ``ConfigInvalid`` for a value strict JSON cannot hold.
        """
        encoded = self._inputs_json
        if not encoded:
            try:
                encoded.append(STRICT_JSON.encode(self.inputs))
            except (TypeError, ValueError, RecursionError) as exc:
                raise ConfigInvalid(
                    f"inputs must be strict JSON: {exc}") from None
        return encoded[0]

    def to_json_obj(self) -> dict:
        obj = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            obj[f.name] = value
        return obj

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigInvalid(f"a config must be a JSON object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        for f in fields(cls):
            if f.name in data and f.type in _TYPE_CHECKS:
                check, expected = _TYPE_CHECKS[f.type]
                if not check(data[f.name]):
                    raise ConfigInvalid(
                        f"{f.name} must be {expected}, got {data[f.name]!r}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        return cls.from_dict(load_json_file(path, "config"))
