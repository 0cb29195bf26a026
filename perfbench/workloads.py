"""The three seeded workloads: their inputs, the timed op and its checks.

A workload turns a seed into an endless, deterministic stream of *units*.
A unit is the smallest group of ops whose outputs can be checked together:
one payoff matrix (``sweep``), one claim race (``claim_race``) or one
resubmit chain (``resubmit_chain``).  Unit ``i`` depends only on the seed
and ``i``, so a replay of the first ``n`` units gives the same inputs.

Units are grouped into *windows* of ``workload.window`` consecutive units,
each holding the same mix of inputs and about a tenth of a second of work;
a run ends on a window boundary.

Making a unit has three steps and only the middle one is timed:

* ``plan(i)`` draws the inputs from the seed.  It is the benchmark's own
  work and never calls the program.
* ``prepare(plan)`` builds the program state the ops need (for a claim
  race: the ledger, the contract, the task and the claimant accounts) and
  returns the ``Unit``.  Its ops are zero-argument callables; each one is a
  single call into the program, run after the previous one returned.
* ``Unit.check(results)`` compares every op's output with a closed form
  that the benchmark derives itself.  It returns one flag per op, so a
  wrong output is a failed op and never a crash.

The expected values are written out here, not read from the program: the
paper's confirmation delays, the payoff table of acceptance criterion 1,
the dominance relations of ``dominance_check`` and first-claim-wins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable

from teescrow.config import ScenarioConfig
from teescrow.contract import EscrowContract, RefusalReason, TaskState
from teescrow.harness import ScenarioRunner
from teescrow.ledger import CONTRACT_ACCOUNT, ContractCall, Ledger

TIERS = ("slow", "standard", "fast")

#: Confirmation delay per tier in seconds, as the paper gives them.
TIER_DELAY = {"slow": 600, "standard": 300, "fast": 120}

REQUESTOR_STRATEGIES = ("honest", "no-confirm", "withhold-input")
NODE_STRATEGIES = ("honest", "claim-only", "compute-no-deliver")
PAIRS = tuple(product(REQUESTOR_STRATEGIES, NODE_STRATEGIES))

FUNCTIONS = ("identity", "sum", "sha256-hex")
INPUT_LENGTHS = (3, 64, 1024)
EXECUTION_DELAYS = (0, 5, 60)

#: Output of an op that raised.
FAILED = object()


@dataclass(frozen=True)
class Economics:
    """One draw of the economic parameters, as the acceptance gate draws them."""

    value: int
    payment: int
    cost: int
    dep_r: int
    dep_e: int


def draw_economics(rng: random.Random) -> Economics:
    cost = rng.randint(1, 50)
    payment = cost + rng.randint(1, 50)
    value = payment + rng.randint(1, 100)
    dep_r = rng.randint(1, 30)
    dep_e = dep_r + rng.randint(0, 20)
    return Economics(value, payment, cost, dep_r, dep_e)


@dataclass
class Unit:
    """The ops of one unit and how to read their outputs.

    ``check``, ``fingerprints`` and ``sim`` take the list of op outputs, in
    op order, with ``FAILED`` for an op that raised.
    """

    ops: list[Callable[[], object]]
    check: Callable[[list], list[bool]]
    fingerprints: Callable[[list], list[str]]
    sim: Callable[[list], tuple[int, int]]  # (simulated blocks, seconds)


def _run_scenario(config: ScenarioConfig):
    """The scenario op: the body of ``harness.run_scenario``, keeping the
    runner so the checks can read its ledger and contract."""
    runner = ScenarioRunner(config)
    return runner, runner.run()


def _scenario_fingerprints(results: list) -> list[str]:
    return ["failed" if r is FAILED else r[1].trace_id for r in results]


def _scenario_sim(results: list) -> tuple[int, int]:
    done = [r[0].ledger for r in results if r is not FAILED]
    return (sum(ledger.block_height for ledger in done),
            sum(ledger.now for ledger in done))


# ----------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepPlan:
    econ: Economics
    config: ScenarioConfig
    size: int = len(PAIRS)


class Sweep:
    """Payoff matrices: all nine strategy pairs over one seeded draw.

    Input length, function and delivery route change the cost of a run, so
    each window of 18 draws holds every combination of them once, in a
    seeded order; the mix of a window is then the same whatever the seed.
    Tier, execution delay, inputs and economics are drawn freely.
    """

    name = "sweep"
    combos = tuple(product(INPUT_LENGTHS, FUNCTIONS, (False, True)))
    window = len(combos)

    def __init__(self, seed) -> None:
        self.seed = seed
        self._window_order: tuple[int, list] = (-1, [])

    def _combo(self, index: int):
        number, position = divmod(index, self.window)
        if self._window_order[0] != number:
            order = list(self.combos)
            random.Random(f"{self.seed}:sweep:window:{number}").shuffle(order)
            self._window_order = (number, order)
        return self._window_order[1][position]

    def plan(self, index: int) -> SweepPlan:
        length, function, third_party = self._combo(index)
        rng = random.Random(f"{self.seed}:sweep:{index}")
        econ = draw_economics(rng)
        config = ScenarioConfig(
            value_of_result=econ.value,
            payment=econ.payment,
            compute_cost=econ.cost,
            threshold=econ.dep_r,
            node_deposit=econ.dep_e,
            initial_balance=econ.value + econ.payment + econ.dep_r
            + econ.dep_e + 1000,
            tier=rng.choice(TIERS),
            execution_delay=rng.choice(EXECUTION_DELAYS),
            deliver_to_third_party=third_party,
            function_name=function,
            inputs=tuple(rng.randrange(10**6) for _ in range(length)),
            rng_seed=rng.randrange(2**31),
        )
        return SweepPlan(econ, config)

    def prepare(self, plan: SweepPlan) -> Unit:
        configs = [plan.config.with_strategies(r, n) for r, n in PAIRS]
        return Unit(
            ops=[partial(_run_scenario, config) for config in configs],
            check=partial(check_sweep, plan),
            fingerprints=_scenario_fingerprints,
            sim=_scenario_sim,
        )


def expected_sweep_payoffs(econ: Economics) -> dict:
    """The four closed-form cells of acceptance criterion 1."""
    v, p, c, dr, de = econ.value, econ.payment, econ.cost, econ.dep_r, econ.dep_e
    return {
        ("honest", "honest"): (v - p, p - c),
        ("honest", "claim-only"): (-dr, -de),
        ("honest", "compute-no-deliver"): (-(p + dr), -c),
        ("no-confirm", "honest"): (v - p - dr, -c),
    }


def check_sweep(plan: SweepPlan, results: list) -> list[bool]:
    ok = [r is not FAILED for r in results]
    cell = {pair: r[1] for pair, r in zip(PAIRS, results) if r is not FAILED}
    index = {pair: i for i, pair in enumerate(PAIRS)}

    def fail(pair):
        ok[index[pair]] = False

    for pair, payoffs in expected_sweep_payoffs(plan.econ).items():
        if pair in cell and (cell[pair].requestor_payoff,
                             cell[pair].node_payoff) != payoffs:
            fail(pair)
    for pair, outcome in cell.items():
        if outcome.infoflow_violations:
            fail(pair)

    honest = cell.get(("honest", "honest"))
    if honest is not None:
        config = plan.config
        if (honest.end_to_end_seconds
                != 4 * TIER_DELAY[config.tier] + config.execution_delay):
            fail(("honest", "honest"))
        # The dominance relations dominance_check asserts, on this draw.
        if honest.requestor_payoff <= 0 or honest.node_payoff <= 0:
            fail(("honest", "honest"))
        for deviation in REQUESTOR_STRATEGIES[1:]:
            other = cell.get((deviation, "honest"))
            if other is not None and (other.requestor_payoff
                                      >= honest.requestor_payoff):
                fail((deviation, "honest"))
        for deviation in NODE_STRATEGIES[1:]:
            other = cell.get(("honest", deviation))
            if other is not None and (other.node_payoff >= honest.node_payoff
                                      or other.node_payoff >= 0):
                fail(("honest", deviation))
    return ok


# ----------------------------------------------------------------------
# claim race


@dataclass(frozen=True)
class RacePlan:
    threshold: int
    payment: int
    tier: str
    deposits: tuple[int, ...]  # in arrival order

    @property
    def size(self) -> int:
        return len(self.deposits)


class ClaimRace:
    """Thousands of claimants race for one task, driven through the ledger.

    Race sizes alternate through ``sizes``; a window is one round of them,
    so every window has the same mix of small and large races.  Each
    claimant attaches a deposit below, at or above the threshold.
    """

    name = "claim_race"

    def __init__(self, seed, sizes: tuple[int, ...] = (500, 4000)) -> None:
        self.seed = seed
        self.sizes = sizes
        self.window = len(sizes)

    def plan(self, index: int) -> RacePlan:
        rng = random.Random(f"{self.seed}:claim_race:{index}")
        threshold = rng.randint(1, 30)
        deposits = []
        for _ in range(self.sizes[index % len(self.sizes)]):
            kind = rng.random()
            if kind < 0.5:
                deposits.append(rng.randrange(threshold))
            elif kind < 0.75:
                deposits.append(threshold)
            else:
                deposits.append(threshold + rng.randint(1, 50))
        return RacePlan(
            threshold=threshold,
            payment=rng.randint(1, 100),
            tier=rng.choice(TIERS),
            deposits=tuple(deposits),
        )

    def prepare(self, plan: RacePlan) -> Unit:
        ledger = Ledger()
        EscrowContract(ledger, plan.threshold)
        requestor = ledger.create_account(plan.payment + plan.threshold)
        submitted = ledger.submit_transaction(
            requestor,
            ContractCall("submitTask", {
                "function_name": "identity",
                "hash_lock": bytes(32),
                "expires": 10**9,
            }),
            plan.payment + plan.threshold, plan.tier,
        )
        if not submitted.outcome.accepted:
            raise RuntimeError(f"submitTask refused: {submitted.outcome}")
        claim = ContractCall("claimTask", {"task_id": submitted.outcome.task_id})
        claimants = [ledger.create_account(10**6) for _ in plan.deposits]
        return Unit(
            ops=[partial(ledger.submit_transaction, claimant, claim, deposit,
                         plan.tier)
                 for claimant, deposit in zip(claimants, plan.deposits)],
            check=partial(check_race, plan, ledger),
            fingerprints=_race_fingerprints,
            sim=partial(_race_sim, submitted.timestamp),
        )


def expected_race(plan: RacePlan) -> list[RefusalReason | None]:
    """Per arrival: ``None`` for the one winner, else the refusal reason.

    The first deposit that meets the threshold wins; an underfunded claim
    is refused as such whenever it arrives, a funded one after the winner
    as already claimed.
    """
    expected: list[RefusalReason | None] = []
    won = False
    for deposit in plan.deposits:
        if deposit < plan.threshold:
            expected.append(RefusalReason.VALUE_BELOW_THRESHOLD)
        elif won:
            expected.append(RefusalReason.ALREADY_CLAIMED)
        else:
            expected.append(None)
            won = True
    return expected


def check_race(plan: RacePlan, ledger: Ledger, results: list) -> list[bool]:
    expected = expected_race(plan)
    ok = []
    for receipt, want in zip(results, expected):
        if receipt is FAILED:
            ok.append(False)
            continue
        outcome = receipt.outcome
        ok.append(outcome.accepted if want is None
                  else not outcome.accepted and outcome.reason == want)
    winner = next((d for d, want in zip(plan.deposits, expected)
                   if want is None), 0)
    if ok and ledger.balance(CONTRACT_ACCOUNT) != (plan.payment
                                                   + plan.threshold + winner):
        ok[-1] = False
    return ok


def _race_fingerprints(results: list) -> list[str]:
    return [
        "failed" if r is FAILED else
        f"{r.outcome.accepted}:{r.outcome.reason}:{r.block_height}:{r.timestamp}"
        for r in results
    ]


def _race_sim(submitted_at: int, results: list) -> tuple[int, int]:
    done = [r for r in results if r is not FAILED]
    if not done:
        return 0, 0
    return len(done), done[-1].timestamp - submitted_at


# ----------------------------------------------------------------------
# resubmit chain


@dataclass(frozen=True)
class ChainPlan:
    econ: Economics
    config: ScenarioConfig
    size: int = 1


class ResubmitChain:
    """One long-lived ledger whose tasks all time out and are resubmitted.

    The pair is always withhold-input / honest: every task is claimed,
    never provisioned, and times out, ``resubmits`` times over.  Mixing
    pairs made the op time bimodal, so only the seed varies.
    """

    name = "resubmit_chain"
    window = 2

    def __init__(self, seed, resubmits: int = 200) -> None:
        self.seed = seed
        self.resubmits = resubmits

    def plan(self, index: int) -> ChainPlan:
        rng = random.Random(f"{self.seed}:resubmit_chain:{index}")
        econ = draw_economics(rng)
        tasks = self.resubmits + 1
        config = ScenarioConfig(
            requestor_strategy="withhold-input",
            node_strategy="honest",
            value_of_result=econ.value,
            payment=econ.payment,
            compute_cost=econ.cost,
            threshold=econ.dep_r,
            node_deposit=econ.dep_e,
            initial_balance=econ.value + econ.payment
            + tasks * (econ.dep_r + econ.dep_e) + 1000,
            tier=rng.choice(TIERS),
            max_resubmits=self.resubmits,
            rng_seed=rng.randrange(2**31),
        )
        return ChainPlan(econ, config)

    def prepare(self, plan: ChainPlan) -> Unit:
        return Unit(
            ops=[partial(_run_scenario, plan.config)],
            check=partial(check_chain, plan),
            fingerprints=_scenario_fingerprints,
            sim=_scenario_sim,
        )


def expected_chain(plan: ChainPlan) -> dict:
    tasks = plan.config.max_resubmits + 1
    econ = plan.econ
    return {
        "tasks": tasks,
        "locked": tasks * (econ.dep_r + econ.dep_e),
        "payoffs": (-tasks * econ.dep_r, -tasks * econ.dep_e),
    }


def check_chain(plan: ChainPlan, results: list) -> list[bool]:
    ok = []
    want = expected_chain(plan)
    for result in results:
        if result is FAILED:
            ok.append(False)
            continue
        runner, outcome = result
        tasks = runner.contract.tasks.values()
        ok.append(
            len(tasks) == want["tasks"]
            and all(task.state == TaskState.TIMED_OUT_DEAD for task in tasks)
            and outcome.locked_in_contract == want["locked"]
            and (outcome.requestor_payoff, outcome.node_payoff)
            == want["payoffs"]
            and not outcome.infoflow_violations
        )
    return ok


WORKLOADS = {cls.name: cls for cls in (Sweep, ClaimRace, ResubmitChain)}


def make(name: str, seed, tiny: bool = False):
    """The workload ``name`` under ``seed``; ``tiny`` shrinks the claim races
    and resubmit chains for the benchmark's own tests."""
    if tiny and name == "claim_race":
        return ClaimRace(seed, sizes=(5, 40))
    if tiny and name == "resubmit_chain":
        return ResubmitChain(seed, resubmits=3)
    return WORKLOADS[name](seed)
