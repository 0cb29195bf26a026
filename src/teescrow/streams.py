"""A run's seeded byte stream: what ``random.Random(seed)`` draws.

A run draws its requestor's and its host's random bytes from
``random.Random`` generators seeded from the config's ``rng_seed``, and
seeding one takes longer than a whole run's draws.  So a stream seeds its
generator on its first draw: a run that never draws from it never seeds it.

``randbytes(n)`` consumes ``ceil(n / 4)`` 32-bit words, so the stream's
read position ``pos``, in bytes of whole words, is its whole state.  A
stream set to another's position (a run resumed from its config family's
record, ``harness``) skips that many bytes on its first draw.
"""

from __future__ import annotations

from random import Random


class ByteStream:
    """The bytes ``random.Random(seed)`` would return, for any sequence of
    sizes, read on from ``pos``."""

    def __init__(self, seed: int | str) -> None:
        self.seed = seed
        self.pos = 0  # bytes read, in whole words
        self._rng: Random | None = None
        self._at = 0  # bytes the generator has drawn, in whole words

    def randbytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("number of bytes must be non-negative")
        if self._rng is None or self._at > self.pos:
            self._rng, self._at = Random(self.seed), 0
        if self._at < self.pos:
            self._rng.randbytes(self.pos - self._at)
        self.pos = self._at = self.pos + (n + 3) // 4 * 4
        return self._rng.randbytes(n)
