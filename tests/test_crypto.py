from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_traces import GOLDEN_TRACE_IDS

from teescrow import crypto
from teescrow.config import ScenarioConfig
from teescrow.harness import payoff_matrix

# FIPS 180 reference vectors.
SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
]


@pytest.mark.parametrize("message,digest", SHA256_VECTORS)
def test_sha256_reference_vectors(message, digest):
    assert crypto.sha256_digest(message).hex() == digest


def test_hash_of_zero_secret():
    assert crypto.hash_secret(bytes(32)).hex() == (
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"
    )


def test_generate_secret_deterministic():
    a = crypto.generate_secret(random.Random(13))
    b = crypto.generate_secret(random.Random(13))
    assert a == b
    assert len(a) == 32
    assert a != bytes(32)


def test_generate_secret_redraws_the_all_zero_value():
    # A stub stream whose first draw is the reserved all-zero secret.
    drawn = iter([bytes(32), bytes(range(1, 33))])

    class ZeroFirst:
        def randbytes(self, n):
            assert n == 32
            return next(drawn)

    assert crypto.generate_secret(ZeroFirst()) == bytes(range(1, 33))


def test_generate_secret_distinct_seeds():
    assert crypto.generate_secret(random.Random(1)) != crypto.generate_secret(
        random.Random(2))


def test_hash_secret_is_pure():
    secret = crypto.generate_secret(random.Random(5))
    assert crypto.hash_secret(secret) == crypto.hash_secret(secret)


def test_hash_secret_wrong_length():
    with pytest.raises(crypto.WrongLength):
        crypto.hash_secret(b"short")


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=32, max_size=32),
       st.integers(min_value=0, max_value=255))
def test_any_flipped_bit_changes_digest(secret, position):
    flipped = bytearray(secret)
    flipped[position // 8] ^= 1 << (position % 8)
    assert crypto.hash_secret(bytes(flipped)) != crypto.hash_secret(secret)


# ----------------------------------------------------------------------
# result protection


def keys(seed=0):
    return crypto.new_result_keys(random.Random(seed))


def test_lazy_keys_equal_eager_derivation():
    rng = random.Random(5)
    encryption_key, seed = rng.randbytes(32), rng.randbytes(32)
    verify_key = (Ed25519PrivateKey.from_private_bytes(seed)
                  .public_key().public_bytes_raw())
    k = keys(5)
    assert (k.encryption_key, k.signing_key_seed) == (encryption_key, seed)
    assert k.verify_key == verify_key
    assert k.key_id == hashlib.sha256(
        encryption_key + verify_key).hexdigest()[:16]
    assert k.signing_key() is k.signing_key()


def test_unused_keys_derive_nothing():
    k = keys()
    assert not {"_private_key", "verify_key", "key_id"} & set(vars(k))


def test_protect_open_roundtrip():
    k = keys()
    protected = crypto.protect_result(b"payload", k, random.Random(1))
    assert crypto.open_result(protected, k) == b"payload"


def test_tampered_ciphertext_rejected():
    k = keys()
    protected = crypto.protect_result(b"payload", k, random.Random(1))
    broken = crypto.ProtectedResult(
        nonce=protected.nonce,
        ciphertext=bytes([protected.ciphertext[0] ^ 1])
        + protected.ciphertext[1:],
        signature=protected.signature,
        key_id=protected.key_id,
    )
    with pytest.raises(crypto.TamperDetected):
        crypto.open_result(broken, k)


def test_tampered_signature_rejected():
    k = keys()
    protected = crypto.protect_result(b"payload", k, random.Random(1))
    broken = crypto.ProtectedResult(
        nonce=protected.nonce,
        ciphertext=protected.ciphertext,
        signature=bytes([protected.signature[0] ^ 1])
        + protected.signature[1:],
        key_id=protected.key_id,
    )
    with pytest.raises(crypto.TamperDetected):
        crypto.open_result(broken, k)


def test_other_requestors_keys_rejected():
    protected = crypto.protect_result(b"payload", keys(0), random.Random(1))
    with pytest.raises(crypto.WrongKey):
        crypto.open_result(protected, keys(1))


def test_signature_verifiable_by_third_party():
    k = keys()
    protected = crypto.protect_result(b"payload", k, random.Random(1))
    assert crypto.verify_result_signature(protected, k.verify_key)
    assert not crypto.verify_result_signature(protected, keys(1).verify_key)


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=200), st.integers(0, 2**32), st.integers(0, 2**32))
def test_independent_keys_never_open(message, seed_a, seed_b):
    ka, kb = keys(seed_a), keys(seed_b)
    protected = crypto.protect_result(message, ka, random.Random(9))
    if ka == kb:
        assert crypto.open_result(protected, kb) == message
    else:
        with pytest.raises(crypto.CryptoError):
            crypto.open_result(protected, kb)


# ----------------------------------------------------------------------
# the encrypt-and-sign memo


def test_memo_hit_and_miss_draw_one_nonce():
    k = keys(3)
    crypto._encrypt_and_sign.cache_clear()
    for hits_and_misses in ((0, 1), (1, 1)):
        rng, reference = random.Random(7), random.Random(7)
        crypto.protect_result(b"payload", k, rng)
        reference.randbytes(12)
        assert rng.getstate() == reference.getstate()
        assert crypto._encrypt_and_sign.cache_info()[:2] == hits_and_misses


def test_memo_hit_equals_a_fresh_computation():
    k = keys(3)
    first = crypto.protect_result(b"payload", k, random.Random(7))
    second = crypto.protect_result(b"payload", k, random.Random(7))
    assert second is first
    assert first == crypto._encrypt_and_sign.__wrapped__(
        b"payload", k, first.nonce)


def test_memo_keys_on_every_input():
    k = keys(3)
    base = (b"payload", k.encryption_key, k.signing_key_seed, bytes(12))

    def protected(plaintext, encryption_key, signing_key_seed, nonce):
        pair = crypto.ResultKeyPair(encryption_key=encryption_key,
                                    signing_key_seed=signing_key_seed)
        return crypto._encrypt_and_sign(plaintext, pair, nonce)

    results = {protected(*base)}
    for index in range(len(base)):
        changed = list(base)
        changed[index] = bytes([base[index][0] ^ 1]) + base[index][1:]
        results.add(protected(*changed))
    assert len(results) == len(base) + 1


def test_matrix_cells_share_one_protected_result(monkeypatch):
    protected = []
    protect = crypto.protect_result

    def recording(*args):
        protected.append(protect(*args))
        return protected[-1]

    monkeypatch.setattr(crypto, "protect_result", recording)
    payoff_matrix(ScenarioConfig())
    # Executed by honest/honest and both compute-no-deliver cells;
    # no-confirm/honest resumes after the delivery was checked.
    assert len(protected) == 3
    assert len(set(protected)) == 1


# ----------------------------------------------------------------------
# which runs load the ``cryptography`` backend
#
# Each check runs in a fresh interpreter: this module imports the backend
# itself, so in the test process it is always loaded.

SRC = Path(__file__).resolve().parent.parent / "src"

_NO_RESULT_CHANNEL = """
import contextlib, io, json, sys
import teescrow
from teescrow import cli
from teescrow.config import ScenarioConfig
from teescrow.contract import EscrowContract
from teescrow.harness import ScenarioRunner
from teescrow.ledger import ContractCall, Ledger

loaded = {"import teescrow": "cryptography" in sys.modules}
ledger = Ledger()
EscrowContract(ledger, 5)
requestor = ledger.create_account(10**6)
ledger.submit_transaction(requestor, ContractCall("submitTask", {
    "function_name": "identity", "hash_lock": bytes(32), "expires": 100}),
    15, "standard")
accepted = [ledger.submit_transaction(
    ledger.create_account(10**6), ContractCall("claimTask", {"task_id": 0}),
    5, "standard").outcome.accepted for _ in range(50)]
assert accepted == [True] + [False] * 49, accepted
loaded["claim race"] = "cryptography" in sys.modules
for requestor, node, resubmits in (("withhold-input", "honest", 3),
                                   ("honest", "claim-only", 0)):
    outcome = ScenarioRunner(ScenarioConfig(
        requestor_strategy=requestor, node_strategy=node,
        max_resubmits=resubmits)).run()
    assert not outcome.received_valid_result
    loaded[f"{requestor}/{node}"] = "cryptography" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["gas", "--tier", "slow"]) == 0
loaded["teescrow gas"] = "cryptography" in sys.modules
print(json.dumps(loaded))
"""

_FIRST_CALL_OPENS = """
import json, sys
from teescrow import crypto

keys_hex, blob_hex = json.loads(sys.argv[1])
keys = crypto.ResultKeyPair(*map(bytes.fromhex, keys_hex))
nonce, ciphertext, signature, key_id = blob_hex
blob = crypto.ProtectedResult(bytes.fromhex(nonce), bytes.fromhex(ciphertext),
                              bytes.fromhex(signature), key_id)
assert "cryptography" not in sys.modules
try:
    crypto.open_result(blob, keys)
    opened = "opened"
except crypto.TamperDetected as exc:
    opened = str(exc)
forged = crypto.ProtectedResult(blob.nonce, blob.ciphertext,
                                bytes(64), blob.key_id)
print(json.dumps([opened, crypto.verify_result_signature(
    forged, keys.verify_key)]))
"""

_HONEST_RUN = """
import json, sys
from teescrow.config import ScenarioConfig
from teescrow.harness import ScenarioRunner

outcome = ScenarioRunner(ScenarioConfig()).run()
print(json.dumps([outcome.trace_id, "cryptography" in sys.modules]))
"""


def _fresh(script, *args):
    """The JSON value a script prints, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_runs_without_a_result_never_load_the_backend():
    loaded = _fresh(_NO_RESULT_CHANNEL)
    assert loaded == dict.fromkeys(
        ["import teescrow", "claim race", "withhold-input/honest",
         "honest/claim-only", "teescrow gas"], False)


def test_first_call_into_the_backend_catches_its_own_exceptions():
    k = keys()
    protected = crypto.protect_result(b"payload", k, random.Random(1))
    # Re-signed, so the signature passes and only the AEAD tag fails.
    ciphertext = (bytes([protected.ciphertext[0] ^ 1])
                  + protected.ciphertext[1:])
    signature = k.signing_key().sign(protected.nonce + ciphertext)
    arg = json.dumps([
        [k.encryption_key.hex(), k.signing_key_seed.hex()],
        [protected.nonce.hex(), ciphertext.hex(), signature.hex(),
         protected.key_id]])
    assert _fresh(_FIRST_CALL_OPENS, arg) == [
        "authentication tag check failed", False]


def test_honest_run_loads_the_backend_and_keeps_its_trace():
    assert _fresh(_HONEST_RUN) == [
        GOLDEN_TRACE_IDS["honest/honest/standard"], True]
