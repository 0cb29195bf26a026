"""Scenario and ledger configuration.

A scenario is fully described by a ``ScenarioConfig``: the two strategies,
the economic parameters (result value, payment, compute cost, threshold,
which the contract also takes as the requestor's deposit, and the node's
deposit), timing (expiry, tier, execution delay) and the RNG seed.  The
same structure round-trips through a JSON config file; every key is
optional and falls back to the documented defaults.

All amounts are integers in the smallest currency unit (10^18 units = one
whole coin); result value and compute cost share that unit so payoffs are
exact integer arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .crypto import CANONICAL_JSON
from .enclave import BUILTIN_BODIES
from .ledger import (
    DEFAULT_CONFIRMATION_DELAY,
    DEFAULT_GAS_PER_FUNCTION,
    DEFAULT_GAS_PRICE_PER_TIER,
    FrozenDict,
    GasSchedule,
    TIERS,
    _is_int,
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


#: No config integer reaches 2**256 in magnitude, the width of the
#: contract's uint amounts.  Every amount a run or a gas report derives is
#: then a sum or product of a few such integers: it stays far below the
#: 4,300 digits Python converts to a string, and a bill in ether stays a
#: finite float.
INT_LIMIT = 2**256

#: The most fresh submissions one run may make.  Every resubmit adds a task,
#: a block and its trace lines, all held until the run ends, so the cap
#: bounds a run's time and memory; a run at the cap takes about a second.
MAX_RESUBMITS = 10_000


def _is_config_int(value) -> bool:
    return _is_int(value) and -INT_LIMIT < value < INT_LIMIT


def _shown(value) -> str:
    """``repr(value)``, with an integer past the bound named by its width:
    its digits could fill a screen, or be more than ``repr`` writes."""
    if _is_int(value) and not _is_config_int(value):
        return f"a {value.bit_length()}-bit integer"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_shown(key)}: {_shown(item)}"
                               for key, item in value.items()) + "}"
    return repr(value)


def _rebuilt(value, sequence, mapping):
    """``value`` with its lists and tuples rebuilt by ``sequence`` and its
    dicts by ``mapping``, iteratively: deep inputs reach the JSON check."""
    stack, built = [(None, iter((value,)))], [[]]
    done = {}  # container id -> its one rebuilt value, None while open
    while True:
        item, children = stack[-1]
        for child in children:  # scalars are kept as they are
            if isinstance(child, (list, tuple, dict)):
                if id(child) not in done:
                    for key in child if isinstance(child, dict) else ():
                        if not isinstance(key, str):  # as RFC 8259 asks
                            raise ConfigInvalid("inputs must be strict JSON: "
                                                f"the key {_shown(key)} is "
                                                "not a string")
                    done[id(child)] = None
                    stack.append((child, iter(
                        child.values() if isinstance(child, dict) else child)))
                    built.append([])
                    break
                if done[id(child)] is None:
                    raise ConfigInvalid("inputs must be strict JSON: a cycle")
                child = done[id(child)]
            built[-1].append(child)
        else:  # every child of ``item`` is built
            stack.pop()
            items = built.pop()
            if not stack:
                return items[0]
            done[id(item)] = (mapping(zip(item, items))
                              if isinstance(item, dict) else sequence(items))
            built[-1].append(done[id(item)])


def _check_strategies(requestor, node) -> None:
    if requestor not in REQUESTOR_STRATEGIES:
        raise ConfigInvalid(f"unknown requestor strategy {requestor!r}")
    if node not in NODE_STRATEGIES:
        raise ConfigInvalid(f"unknown node strategy {node!r}")


class Family(dict):
    """What the runs of one config family (``with_strategies``) share and
    the harness builds, each kept under the function that builds it.  A
    family holds no config, so it is freed without the collector."""

    def share(self, build, source):
        """``build(source)``, built once per family."""
        if build not in self:
            self[build] = build(source)
        return self[build]


# Field annotation -> (check, description), applied to every config however
# it is built.  ``inputs`` is annotated ``object``; the JSON check reads it.
_TYPE_CHECKS = {
    "int": (_is_config_int, "an integer below 2**256 in magnitude"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: (isinstance(v, dict)
                        and all(isinstance(key, str) and _is_config_int(item)
                                for key, item in v.items())),
             "an object of integers below 2**256 in magnitude"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    requestor_strategy: str = REQUESTOR_HONEST
    node_strategy: str = NODE_HONEST
    value_of_result: int = 100 * UNIT
    payment: int = 10 * UNIT
    compute_cost: int = 3 * UNIT
    threshold: int = 5 * 10**17
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
        """Every check a run needs.  Keeps what they build, which
        ``with_strategies`` shares: ``gas_schedule`` and ``json_parts``."""
        # Types first: ``-1.0 == -1`` would otherwise derive a deposit.
        for name, check, expected in _TYPED_FIELDS:
            value = getattr(self, name)
            if not check(value):
                raise ConfigInvalid(
                    f"{name} must be {expected}, got {_shown(value)}")
        if self.node_deposit == -1:
            object.__setattr__(self, "node_deposit", self.threshold)
        for f in fields(self):  # lists become tuples, dicts FrozenDicts
            if f.type in ("object", "dict"):
                object.__setattr__(self, f.name, _rebuilt(
                    getattr(self, f.name), tuple, FrozenDict))
        _check_strategies(self.requestor_strategy, self.node_strategy)
        if self.tier not in TIERS:
            raise ConfigInvalid(f"unknown tier {self.tier!r}")
        if self.threshold <= 0:
            raise ConfigInvalid("threshold must be positive")
        if self.node_deposit < self.threshold:
            raise ConfigInvalid("node_deposit must be at least the threshold")
        for name in ("value_of_result", "payment", "compute_cost",
                     "execution_delay", "max_resubmits"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} must be non-negative")
        if self.expires <= 0:
            raise ConfigInvalid("expires must be positive")
        if self.max_resubmits > MAX_RESUBMITS:
            raise ConfigInvalid(
                f"max_resubmits must be at most {MAX_RESUBMITS}")
        object.__setattr__(self, "json_parts", self._json_parts())
        object.__setattr__(self, "gas_schedule", self._gas_schedule())
        # Each of the 1 + max_resubmits tasks can lock both deposits and
        # costs each party the gas of the calls it sends for the task; a
        # timeout refunds the payment, so only one payment is at stake.
        price = (self.gas_schedule.gas_price_per_tier[self.tier]
                 if self.gas_charging else 0)
        gas = self.gas_schedule.per_function
        gas_r = price * (gas["submitTask"]
                         + max(gas["finalizeRequestor"], gas["timeout"]))
        gas_n = price * (gas["claimTask"] + gas["finalizeExecutionNode"])
        tasks = self.max_resubmits + 1
        if (self.initial_balance
                < self.payment + tasks * (self.threshold + gas_r)):
            raise ConfigInvalid("initial_balance cannot fund the requestor")
        if self.initial_balance < tasks * (self.node_deposit + gas_n):
            raise ConfigInvalid("initial_balance cannot fund the node")
        if self.function_name not in BUILTIN_BODIES:
            raise ConfigInvalid(f"unknown function {self.function_name!r}")
        # Every config built by ``__init__`` (``replace`` too) starts a
        # family; ``with_strategies`` hands the derived config this one.
        object.__setattr__(self, "family", Family())

    @property
    def in_time(self) -> bool:
        """The honest result arrives by the deadline: the claim and the
        reveal confirm and the enclave runs within ``expires``."""
        return (2 * self.gas_schedule.confirmation_delay_per_tier[self.tier]
                + self.execution_delay <= self.expires)

    @property
    def in_rational_regime(self) -> bool:
        """``in_time``, and honesty strictly dominates and both honest
        parties gain, with the gas the payoffs count at the tier's price."""
        gas = self.gas_schedule.per_function
        price = (self.gas_schedule.gas_price_per_tier[self.tier]
                 if self.gas_charging and self.include_gas_in_payoffs else 0)
        return (self.in_time and self.compute_cost > 0
                and self.value_of_result - self.payment
                > price * (gas["submitTask"] + gas["finalizeRequestor"])
                and self.payment - self.compute_cost
                > price * (gas["claimTask"] + gas["finalizeExecutionNode"])
                and self.threshold > price * gas["finalizeRequestor"])

    def _gas_schedule(self) -> GasSchedule:
        """The defaults with the override maps merged in."""
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

    def _json_parts(self) -> tuple[str, str, str]:
        """The config's canonical JSON around its node and requestor strategy
        names.  Raises ``ConfigInvalid`` for inputs strict JSON cannot
        hold."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(node_strategy="", requestor_strategy="")
        try:
            text = CANONICAL_JSON.encode(data)
        except (TypeError, ValueError, RecursionError) as exc:
            raise ConfigInvalid(f"inputs must be strict JSON: {exc}") from None
        # Only inputs hold free text, and sort first: split at the last keys.
        head, _, rest = text.rpartition('"node_strategy":""')
        middle, _, tail = rest.rpartition('"requestor_strategy":""')
        return (f'{head}"node_strategy":', f'{middle}"requestor_strategy":',
                tail)

    def __getstate__(self) -> dict:
        """The config without its family, which holds what its runs built."""
        state = dict(self.__dict__)
        del state["family"]
        return state

    def __setstate__(self, state: dict) -> None:
        """A copy or an unpickled config starts a family, as ``replace``
        does."""
        self.__dict__.update(state, family=Family())

    # ------------------------------------------------------------------

    def with_strategies(self, requestor: str, node: str) -> "ScenarioConfig":
        """This config with other strategies, whose two names it checks; it
        shares every other checked value and the family, so a payoff matrix
        builds one schedule and one encoding, and its later cells seed no
        generator and play no opening."""
        _check_strategies(requestor, node)
        derived = object.__new__(type(self))
        derived.__dict__.update(self.__dict__, requestor_strategy=requestor,
                                node_strategy=node)
        return derived

    def to_json_obj(self) -> dict:
        return {f.name: _rebuilt(getattr(self, f.name), list, dict)
                for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigInvalid(f"a config must be a JSON object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


_TYPED_FIELDS = tuple((f.name, *_TYPE_CHECKS[f.type])
                      for f in fields(ScenarioConfig) if f.type in _TYPE_CHECKS)

