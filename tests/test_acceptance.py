"""Acceptance gate.

One test per acceptance criterion; each prints a single
``ACCEPTANCE <n>: PASS|FAIL`` line (run pytest with ``-s`` to see them
inline, or read captured stdout). Criteria 1, 6 and 8 share one batch of
1,000 seeded parameter draws so the whole gate stays fast.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import time

import pytest

from teescrow import crypto
from teescrow.config import ConfigInvalid, ScenarioConfig
from teescrow.contract import EscrowContract, RefusalReason, TaskState
from teescrow.harness import (
    ScenarioRunner,
    dominance_check,
    gas_report,
    latency_report,
    payoff_matrix,
    run_scenario,
)
from teescrow.ledger import (
    DEFAULT_CONFIRMATION_DELAY,
    TIERS,
    ConservationViolation,
    ContractCall,
    GasSchedule,
    Ledger,
)

from conftest import call, record_grants, run_claim_race, zero_delay_schedule

N_DRAWS = 1000

# The five distinct strategy pairs exercised by the draw batch: the four
# named scenarios plus withhold-input (needed for requestor dominance).
CELLS = (
    ("honest", "honest"),
    ("honest", "claim-only"),
    ("honest", "compute-no-deliver"),
    ("no-confirm", "honest"),
    ("withhold-input", "honest"),
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def draw_params(rng: random.Random) -> dict:
    cost = rng.randint(1, 50)
    payment = cost + rng.randint(1, 50)
    value = payment + rng.randint(1, 100)
    dep_r = rng.randint(1, 30)
    dep_e = dep_r + rng.randint(0, 20)
    return {"value": value, "payment": payment, "cost": cost,
            "dep_r": dep_r, "dep_e": dep_e}


@pytest.fixture(scope="module")
def draw_batch():
    """Outcomes for the 1,000 seeded draws used by criteria 1, 6 and 8."""
    rng = random.Random(2026)
    batch = []
    started = time.monotonic()
    for index in range(N_DRAWS):
        params = draw_params(rng)
        config = ScenarioConfig(
            value_of_result=params["value"],
            payment=params["payment"],
            compute_cost=params["cost"],
            threshold=params["dep_r"],
            node_deposit=params["dep_e"],
            initial_balance=params["value"] + params["payment"]
            + params["dep_r"] + params["dep_e"] + 1000,
            rng_seed=index,
        )
        outcomes = {}
        conserved = True
        for cell in CELLS:
            runner = ScenarioRunner(config.with_strategies(*cell))
            try:
                # The ledger checks the supply identity after every
                # transaction; checked once more at the end of the run.
                outcome = runner.run()
                runner.ledger.assert_conservation()
            except ConservationViolation:
                conserved = False
                break
            outcomes[cell] = (outcome.requestor_payoff, outcome.node_payoff)
        batch.append({"params": params, "outcomes": outcomes,
                      "conserved": conserved})
    return {"draws": batch, "elapsed": time.monotonic() - started}


def test_criterion_1_payoff_table(draw_batch):
    mismatches = 0
    for draw in draw_batch["draws"]:
        p = draw["params"]
        expected = {
            ("honest", "honest"): (p["value"] - p["payment"],
                                   p["payment"] - p["cost"]),
            ("honest", "claim-only"): (-p["dep_r"], -p["dep_e"]),
            ("honest", "compute-no-deliver"): (-(p["payment"] + p["dep_r"]),
                                               -p["cost"]),
            ("no-confirm", "honest"): (p["value"] - p["payment"] - p["dep_r"],
                                       -p["cost"]),
        }
        for cell, payoffs in expected.items():
            if draw["outcomes"][cell] != payoffs:
                mismatches += 1
    elapsed = draw_batch["elapsed"]
    ok = mismatches == 0 and elapsed < 10
    report(1, ok, f"{N_DRAWS} draws x 4 scenarios, {mismatches} mismatches, "
                  f"{elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10


def test_criterion_2_gas_table():
    published = {
        "deploy": 1_260_850,
        "submitTask": 277_880,
        "claimTask": 145_120,
        "finalizeExecutionNode": 52_802,
        "finalizeRequestor": 106_357,
    }
    result = gas_report("standard")
    bad = {name for name, gas in published.items()
           if result["perFunctionGas"][name] != gas}
    ok = not bad and result["totalPerTaskGas"] == 582_159
    report(2, ok, f"per-function gas and 582159 per-task total "
                  f"({'exact' if ok else f'wrong: {sorted(bad)}'})")
    assert ok


def test_criterion_3_latency():
    config = ScenarioConfig(value_of_result=100, payment=10, compute_cost=3,
                            threshold=5, initial_balance=1000)
    got = {}
    for tier, expected in (("slow", 2400), ("standard", 1200), ("fast", 480)):
        assert latency_report(tier, config)["onChainSeconds"] == expected
        outcome = run_scenario(dataclasses.replace(config, tier=tier))
        got[tier] = outcome.end_to_end_seconds
    ok = got == {"slow": 2400, "standard": 1200, "fast": 480}
    report(3, ok, f"honest end-to-end latency {got}")
    assert ok


def test_criterion_4_first_claim_exclusivity():
    checked = 0

    def check(deposits, threshold=5):
        nonlocal checked
        receipts, contract, _ = run_claim_race(list(deposits),
                                               threshold=threshold)
        accepted = [i for i, r in enumerate(receipts) if r.outcome.accepted]
        funded = [i for i, d in enumerate(deposits) if d >= threshold]
        if funded:
            assert accepted == funded[:1]
        else:
            assert accepted == []
            assert contract.tasks[0].state is TaskState.OPEN
        checked += 1

    # Exhaustive over every arrival order of mixed funded/underfunded
    # deposit multisets for small fields.
    for size in range(2, 7):
        for funded_count in range(size + 1):
            deposits = [7] * funded_count + [3] * (size - funded_count)
            for order in set(itertools.permutations(deposits)):
                check(order)

    # Sampled shuffles for larger fields.
    rng = random.Random(4)
    for _ in range(30):
        size = rng.randint(7, 20)
        deposits = [rng.choice([2, 4, 5, 9]) for _ in range(size)]
        rng.shuffle(deposits)
        check(deposits)

    report(4, True, f"{checked} claim races, exactly one winner each "
                    f"(exhaustive N<=6, sampled N in 7..20)")


def test_criterion_5_hash_lock():
    for message, digest in (
        (b"", "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223"
                 "b00361a396177a9cb410ff61f20015ad"),
        (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    ):
        assert crypto.sha256_digest(message).hex() == digest

    rng = random.Random(55)
    ledger = Ledger(zero_delay_schedule())
    EscrowContract(ledger, threshold=5)
    requestor = ledger.create_account(10**9)
    node = ledger.create_account(10**9)
    pairs = 10_000
    for _ in range(pairs):
        secret = rng.randbytes(32)
        flipped = bytearray(secret)
        bit = rng.randrange(256)
        flipped[bit // 8] ^= 1 << (bit % 8)
        # hashlib here is the independent oracle for the stored digest.
        lock = hashlib.sha256(secret).digest()
        task_id = call(ledger, requestor, "submitTask", value=15,
                       function_name="f", hash_lock=lock,
                       expires=100).outcome.task_id
        call(ledger, node, "claimTask", value=5, task_id=task_id)
        wrong = call(ledger, node, "finalizeExecutionNode",
                     task_id=task_id, secret=bytes(flipped))
        assert not wrong.outcome.accepted
        assert wrong.outcome.reason is RefusalReason.BAD_SECRET
        right = call(ledger, node, "finalizeExecutionNode",
                     task_id=task_id, secret=secret)
        assert right.outcome.accepted
    report(5, True, f"{pairs} secret/flipped-bit pairs plus 3 published "
                    f"SHA-256 vectors")


def test_criterion_6_conservation(draw_batch):
    broken = sum(1 for draw in draw_batch["draws"] if not draw["conserved"])
    report(6, broken == 0,
           f"supply identity held at every step of {N_DRAWS} draws x "
           f"{len(CELLS)} scenarios ({broken} violations)")
    assert broken == 0


def _fresh_claimed_task():
    """Ledger with one claimed, incomplete, unexpired task."""
    ledger = Ledger(zero_delay_schedule())
    contract = EscrowContract(ledger, threshold=5)
    requestor = ledger.create_account(1000)
    node = ledger.create_account(1000)
    attacker = ledger.create_account(1000)
    secret = bytes(range(32))
    task_id = call(ledger, requestor, "submitTask", value=15,
                   function_name="f", hash_lock=hashlib.sha256(secret).digest(),
                   expires=10**6).outcome.task_id
    call(ledger, node, "claimTask", value=5, task_id=task_id)
    return ledger, contract, requestor, node, attacker, secret, task_id


def _explore(state, actions, invariant, depth):
    """DFS over every action sequence up to the given depth.  ``state``
    starts with the ledger and the contract: each action runs on them
    restored to its parent's snapshot, and the walk leaves them as it
    found them."""
    ledger, contract = state[:2]
    root = ledger.snapshot(), contract.snapshot()
    nodes = 0
    stack = [(root, 0)]
    while stack:
        (chain, tasks), level = stack.pop()
        if level == depth:
            continue
        for action in actions:
            ledger.restore(chain)
            contract.restore(tasks)
            action(state)
            invariant(state)
            nodes += 1
            stack.append(((ledger.snapshot(), contract.snapshot()),
                          level + 1))
    ledger.restore(root[0])
    contract.restore(root[1])
    return nodes


def test_criterion_7_no_steal():
    base = _fresh_claimed_task()
    ledger, contract, requestor, node, attacker, secret, task_id = base

    def tx(state, sender_index, function, value=0, **args):
        sender = (state[2], state[3], state[4])[sender_index]
        state[0].submit_transaction(sender, ContractCall(function, dict(args)),
                                    value, "standard")

    # (a) a non-claimant presenting the correct secret gains nothing
    attacker_actions = [
        lambda s: tx(s, 2, "finalizeExecutionNode", task_id=task_id,
                     secret=secret),
        lambda s: tx(s, 2, "finalizeRequestor", task_id=task_id),
        lambda s: tx(s, 2, "timeout", task_id=task_id),
        lambda s: tx(s, 2, "claimTask", value=5, task_id=task_id),
        lambda s: tx(s, 2, "submitTask", value=15, function_name="f",
                     hash_lock=bytes(32), expires=10**6),
    ]

    def attacker_never_gains(state):
        assert state[0].balance(state[4]) <= 1000

    nodes_a = _explore(list(base), attacker_actions, attacker_never_gains, 6)

    # (b) the requestor cannot free the payment while the task is
    # claimed, incomplete and unexpired
    requestor_actions = [
        lambda s: tx(s, 0, "finalizeRequestor", task_id=task_id),
        lambda s: tx(s, 0, "timeout", task_id=task_id),
        lambda s: tx(s, 0, "claimTask", value=5, task_id=task_id),
        lambda s: tx(s, 0, "finalizeExecutionNode", task_id=task_id,
                     secret=bytes(32)),
        lambda s: tx(s, 0, "submitTask", value=15, function_name="f",
                     hash_lock=bytes(32), expires=10**6),
    ]

    def payment_stays_escrowed(state):
        task = state[1].tasks[task_id]
        assert task.state is TaskState.CLAIMED
        assert state[0].now <= task.start + task.expires
        # Balance check ignores value the requestor parked in new tasks.
        extra_submits = state[1].num_tasks - 1
        assert (state[0].balance(state[2]) + 15 * extra_submits
                <= 1000 - 15)

    nodes_b = _explore(list(base), requestor_actions,
                       payment_stays_escrowed, 6)
    report(7, True, f"no violating sequence in {nodes_a + nodes_b} explored "
                    f"states (depth 6, two attacker alphabets)")


def test_criterion_8_dominance(draw_batch):
    violations = []
    for index, draw in enumerate(draw_batch["draws"]):
        honest_r, honest_n = draw["outcomes"][("honest", "honest")]
        for cell in (("honest", "claim-only"),
                     ("honest", "compute-no-deliver")):
            if draw["outcomes"][cell][1] >= honest_n:
                violations.append((index, cell))
        for cell in (("no-confirm", "honest"), ("withhold-input", "honest")):
            if draw["outcomes"][cell][0] >= honest_r:
                violations.append((index, cell))
    ok = not violations
    report(8, ok, f"honest strictly dominates all deviations in "
                  f"{N_DRAWS} draws ({len(violations)} violations)")
    assert ok

    # The packaged checker agrees on a subsample, and on gas-charging draws
    # inside the rational regime: each amount past its gas term, where g
    # is the tier's price times a function's gas.  Each draw's execution
    # delay falls on either side of the edge 2 * delay + e = expires, past
    # which the honest result arrives after the deadline and the checker
    # refuses the config.
    rng, delays = random.Random(8), random.Random(80)

    def edge(tier="standard"):
        return ScenarioConfig.expires - 2 * DEFAULT_CONFIRMATION_DELAY[tier]

    def delay_at(tier="standard"):
        return delays.choice([edge(tier), edge(tier) + 1,
                              delays.randint(0, 2 * edge(tier))])

    configs = []
    for _ in range(20):
        p = draw_params(rng)
        configs.append(ScenarioConfig(
            value_of_result=p["value"], payment=p["payment"],
            compute_cost=p["cost"], threshold=p["dep_r"],
            node_deposit=p["dep_e"],
            initial_balance=p["value"] + p["payment"] + p["dep_r"]
            + p["dep_e"] + 1000, execution_delay=delay_at(),
        ))
    schedule = GasSchedule()
    for _ in range(20):
        tier = rng.choice(TIERS)
        g = {name: gas * schedule.gas_price_per_tier[tier]
             for name, gas in schedule.per_function.items()}
        p = {name: rng.randint(1, 10**16) for name in
             ("cost", "payment", "value", "dep_r", "dep_e")}
        payment = (p["cost"] + g["claimTask"] + g["finalizeExecutionNode"]
                   + p["payment"])
        value = payment + g["submitTask"] + g["finalizeRequestor"] + p["value"]
        dep_r = g["finalizeRequestor"] + p["dep_r"]
        configs.append(ScenarioConfig(
            value_of_result=value, payment=payment, compute_cost=p["cost"],
            threshold=dep_r, node_deposit=dep_r + p["dep_e"], tier=tier,
            gas_charging=True, include_gas_in_payoffs=True,
            initial_balance=10**21, rng_seed=rng.randint(0, 2**31),
            execution_delay=delay_at(tier),
        ))
    in_time = [config.execution_delay <= edge(config.tier)
               for config in configs]
    assert set(in_time) == {True, False}
    for config, on_time in zip(configs, in_time):
        if on_time:
            assert not dominance_check(payoff_matrix(config))
        else:
            with pytest.raises(ConfigInvalid, match="execution_delay <= "):
                payoff_matrix(config)


def test_criterion_9_information_flow():
    config = ScenarioConfig(value_of_result=100, payment=10, compute_cost=3,
                            threshold=5, initial_balance=1000)
    from teescrow.config import NODE_STRATEGIES, REQUESTOR_STRATEGIES
    from teescrow.enclave import EnclaveState
    combos = 0
    for r in REQUESTOR_STRATEGIES:
        for n in NODE_STRATEGIES:
            # A family of its own: the hook sees every grant of the run.
            runner = ScenarioRunner(dataclasses.replace(
                config, requestor_strategy=r, node_strategy=n))
            grants = record_grants(runner.host)
            outcome = runner.run()
            assert not outcome.infoflow_violations
            # The host is only ever handed a secret, of a task whose
            # instance has already executed.
            for _, name, state in grants:
                assert name == "secret" and state is EnclaveState.EXECUTED
            executions = [rec for rec in runner.trace.records
                          if rec["type"] == "enclave"
                          and rec["op"] == "execute" and rec["ok"]]
            assert len(grants) == len(executions)
            combos += 1
    report(9, True, f"host never sees inputs, key or result, secret only "
                    f"after execute, across {combos} strategy combinations")


def test_criterion_10_determinism():
    base = ScenarioConfig(value_of_result=100, payment=10, compute_cost=3,
                          threshold=5, initial_balance=1000)
    configs = [
        base,
        base.with_strategies("no-confirm", "compute-no-deliver"),
        base.with_strategies("withhold-input", "claim-only"),
        dataclasses.replace(base, rng_seed=777, tier="fast",
                            gas_charging=True,
                            initial_balance=10**18),
        dataclasses.replace(base, deliver_to_third_party=True,
                            max_resubmits=1),
        ScenarioConfig(),  # golden defaults
    ]
    for config in configs:
        first = ScenarioRunner(config)
        first.run()
        second = ScenarioRunner(config)
        second.run()
        assert first.trace.to_jsonl() == second.trace.to_jsonl()
    report(10, True, f"byte-identical traces for {len(configs)} configs "
                     f"run twice")
