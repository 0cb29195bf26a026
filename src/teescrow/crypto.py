"""Cryptographic primitives for the hash lock and the result channel.

SHA-256 is the real thing: the contract's preimage check and its test
vectors depend on it.  Result protection is real authenticated encryption
(AES-256-GCM) plus a detached Ed25519 signature so that third parties can
check integrity without holding the decryption key.  The escrow needs only
SHA-256, so the ``cryptography`` backend of the result channel loads on the
first result a process protects, opens or verifies (``_backend``): a claim
race, a ``claim-only`` or ``withhold-input`` run and ``teescrow gas`` never
load it.

Everything is deterministic given a seeded ``streams.ByteStream``: key and
nonce material comes from the caller's stream, and Ed25519 signing is
deterministic by design.  Nothing here keeps a plaintext: the cells of a
payoff matrix share one protected result because the harness resumes them
from their family's record of the reveal, after the enclave executed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cache, cached_property
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .streams import ByteStream

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
    )

SECRET_LENGTH = 32
DIGEST_LENGTH = 32
_NONCE_LENGTH = 12


class CryptoError(Exception):
    pass


class WrongLength(CryptoError):
    pass


class WrongKey(CryptoError):
    """The protected blob was made under a different requestor's keys."""


class TamperDetected(CryptoError):
    """Ciphertext, tag or signature fails verification."""


@cache
def _backend() -> SimpleNamespace:
    """The ``cryptography`` names the result channel uses, imported on the
    first call and kept (see the module docstring)."""
    from cryptography.exceptions import InvalidSignature, InvalidTag
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
        Ed25519PublicKey,
    )
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    return SimpleNamespace(
        AESGCM=AESGCM, Ed25519PrivateKey=Ed25519PrivateKey,
        Ed25519PublicKey=Ed25519PublicKey,
        InvalidSignature=InvalidSignature, InvalidTag=InvalidTag)


def sha256_digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def generate_secret(rng: ByteStream) -> bytes:
    """Draw a fresh 32-byte secret; the all-zero value is reserved."""
    secret = rng.randbytes(SECRET_LENGTH)
    while secret == bytes(SECRET_LENGTH):
        secret = rng.randbytes(SECRET_LENGTH)
    return secret


def hash_secret(secret: bytes) -> bytes:
    if len(secret) != SECRET_LENGTH:
        raise WrongLength(f"secret must be {SECRET_LENGTH} bytes, got {len(secret)}")
    return sha256_digest(secret)


@dataclass(frozen=True)
class ResultKeyPair:
    """Per-task key material held by the requestor.

    The encryption key and signing key are provisioned into the enclave
    over the attested channel; the verify key may be public.  The Ed25519
    key, the verify key and the key id are derived on first use, once: a
    task that is never provisioned never pays for them.
    """

    encryption_key: bytes
    signing_key_seed: bytes

    @cached_property
    def _private_key(self) -> Ed25519PrivateKey:
        return _backend().Ed25519PrivateKey.from_private_bytes(
            self.signing_key_seed)

    @cached_property
    def verify_key(self) -> bytes:
        return self._private_key.public_key().public_bytes_raw()

    @cached_property
    def key_id(self) -> str:
        return sha256_digest(self.encryption_key + self.verify_key).hex()[:16]

    def signing_key(self) -> Ed25519PrivateKey:
        return self._private_key


def new_result_keys(rng: ByteStream) -> ResultKeyPair:
    # Both draws stay eager so the caller's RNG stream does not depend on
    # whether the keys are ever used.
    encryption_key = rng.randbytes(32)
    signing_key_seed = rng.randbytes(32)
    return ResultKeyPair(encryption_key=encryption_key,
                         signing_key_seed=signing_key_seed)


@dataclass(frozen=True)
class ProtectedResult:
    """AEAD ciphertext with a detached, third-party-verifiable signature."""

    nonce: bytes
    ciphertext: bytes
    signature: bytes
    key_id: str


def protect_result(plaintext: bytes, keys: ResultKeyPair,
                   rng: ByteStream) -> ProtectedResult:
    nonce = rng.randbytes(_NONCE_LENGTH)
    ciphertext = _backend().AESGCM(keys.encryption_key).encrypt(
        nonce, plaintext, keys.key_id.encode()
    )
    signature = keys.signing_key().sign(nonce + ciphertext)
    return ProtectedResult(
        nonce=nonce, ciphertext=ciphertext, signature=signature,
        key_id=keys.key_id,
    )


def verify_result_signature(protected: ProtectedResult, verify_key: bytes) -> bool:
    """Integrity check available to anyone holding the public verify key."""
    backend = _backend()
    try:
        backend.Ed25519PublicKey.from_public_bytes(verify_key).verify(
            protected.signature, protected.nonce + protected.ciphertext
        )
        return True
    except backend.InvalidSignature:
        return False


def open_result(protected: ProtectedResult, keys: ResultKeyPair) -> bytes:
    if protected.key_id != keys.key_id:
        raise WrongKey(
            f"blob bound to key {protected.key_id}, holder has {keys.key_id}"
        )
    if not verify_result_signature(protected, keys.verify_key):
        raise TamperDetected("signature check failed")
    backend = _backend()
    try:
        return backend.AESGCM(keys.encryption_key).decrypt(
            protected.nonce, protected.ciphertext, protected.key_id.encode()
        )
    except backend.InvalidTag:
        raise TamperDetected("authentication tag check failed") from None


#: The one canonical JSON form: sorted keys, no spaces, ASCII only.  It
#: refuses ``NaN`` and infinities, which strict JSON cannot hold.
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  allow_nan=False)


def canonical_json_bytes(value) -> bytes:
    """Stable serialization used for plaintexts and measurements."""
    return CANONICAL_JSON.encode(value).encode()
