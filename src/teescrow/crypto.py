"""Cryptographic primitives for the hash lock and the result channel.

SHA-256 is the real thing: the contract's preimage check and its test
vectors depend on it.  Result protection is real authenticated encryption
(AES-256-GCM) plus a detached Ed25519 signature so that third parties can
check integrity without holding the decryption key.  Sealing binds a blob
to an enclave measurement by deriving the sealing key from it.

Everything is deterministic given a seeded ``random.Random``: key and nonce
material comes from the caller's RNG, and Ed25519 signing is deterministic
by design.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cached_property

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

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


class IdentityMismatch(CryptoError):
    """Sealed blob was produced by an enclave with another measurement."""


def sha256_digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def generate_secret(rng: random.Random) -> bytes:
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
        return Ed25519PrivateKey.from_private_bytes(self.signing_key_seed)

    @cached_property
    def verify_key(self) -> bytes:
        return self._private_key.public_key().public_bytes_raw()

    @cached_property
    def key_id(self) -> str:
        return sha256_digest(self.encryption_key + self.verify_key).hex()[:16]

    def signing_key(self) -> Ed25519PrivateKey:
        return self._private_key


def new_result_keys(rng: random.Random) -> ResultKeyPair:
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
                   rng: random.Random) -> ProtectedResult:
    nonce = rng.randbytes(_NONCE_LENGTH)
    ciphertext = AESGCM(keys.encryption_key).encrypt(
        nonce, plaintext, keys.key_id.encode()
    )
    signature = keys.signing_key().sign(nonce + ciphertext)
    return ProtectedResult(
        nonce=nonce, ciphertext=ciphertext, signature=signature,
        key_id=keys.key_id,
    )


def verify_result_signature(protected: ProtectedResult, verify_key: bytes) -> bool:
    """Integrity check available to anyone holding the public verify key."""
    try:
        Ed25519PublicKey.from_public_bytes(verify_key).verify(
            protected.signature, protected.nonce + protected.ciphertext
        )
        return True
    except InvalidSignature:
        return False


def open_result(protected: ProtectedResult, keys: ResultKeyPair) -> bytes:
    if protected.key_id != keys.key_id:
        raise WrongKey(
            f"blob bound to key {protected.key_id}, holder has {keys.key_id}"
        )
    if not verify_result_signature(protected, keys.verify_key):
        raise TamperDetected("signature check failed")
    try:
        return AESGCM(keys.encryption_key).decrypt(
            protected.nonce, protected.ciphertext, protected.key_id.encode()
        )
    except InvalidTag:
        raise TamperDetected("authentication tag check failed") from None


# ----------------------------------------------------------------------
# sealing: enclave-identity-bound storage


@dataclass(frozen=True)
class SealedBlob:
    nonce: bytes
    ciphertext: bytes


def _seal_key(measurement: bytes) -> bytes:
    return sha256_digest(b"seal-key:" + measurement)


def seal(measurement: bytes, payload: bytes, rng: random.Random) -> SealedBlob:
    if len(measurement) != DIGEST_LENGTH:
        raise WrongLength("measurement must be a 32-byte digest")
    nonce = rng.randbytes(_NONCE_LENGTH)
    ciphertext = AESGCM(_seal_key(measurement)).encrypt(nonce, payload, b"")
    return SealedBlob(nonce=nonce, ciphertext=ciphertext)


def unseal(measurement: bytes, blob: SealedBlob) -> bytes:
    if len(measurement) != DIGEST_LENGTH:
        raise WrongLength("measurement must be a 32-byte digest")
    try:
        return AESGCM(_seal_key(measurement)).decrypt(
            blob.nonce, blob.ciphertext, b""
        )
    except InvalidTag:
        raise IdentityMismatch(
            "blob was sealed by an enclave with a different measurement"
        ) from None


#: The one canonical JSON form: sorted keys, no spaces, ASCII only.
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json_bytes(value) -> bytes:
    """Stable serialization used for plaintexts and measurements."""
    return CANONICAL_JSON.encode(value).encode()
