"""Seeded byte streams whose first bytes a config family draws once.

Every run of a scenario draws its requestor's and its host's random bytes
from ``random.Random`` generators seeded with strings built from the
config's ``rng_seed``.  Seeding one takes longer than a whole run's draws,
and the cells of a payoff matrix share the seed.  So a family of configs
(``ScenarioConfig.with_strategies``) keeps one ``SeededBytes`` record per
seed: the first ``PREFIX`` bytes, drawn once.  Each run reads them through
a ``ByteStream`` of its own, which returns exactly what
``random.Random(seed).randbytes`` returns for the same sequence of sizes.

``randbytes(n)`` consumes ``ceil(n / 4)`` 32-bit words and keeps the high
``n % 4`` bytes of the last one, so a stream reads the record in whole
words.  A run that reads past the record draws from a generator of its
own, advanced past the record.
"""

from __future__ import annotations

from random import Random

#: Bytes each record holds, a whole number of 32-bit words: four tasks of
#: a requestor (112 bytes each) and eleven attested sessions of a host (44).
PREFIX = 512


class SeededBytes:
    """The first ``PREFIX`` bytes of ``random.Random(seed)``, drawn by the
    first stream that reads and kept, unchanged, from then on."""

    __slots__ = ("seed", "prefix")

    def __init__(self, seed: int | str) -> None:
        self.seed = seed
        self.prefix: bytes | None = None

    def generator(self) -> Random:
        """A generator seeded with ``seed`` and advanced past the prefix,
        which it records if no stream has yet."""
        rng = Random(self.seed)
        prefix = rng.randbytes(PREFIX)
        if self.prefix is None:
            self.prefix = prefix
        return rng


class ByteStream:
    """One run's stream over a record: the bytes ``random.Random(seed)``
    would return, for any sequence of sizes."""

    def __init__(self, record: SeededBytes) -> None:
        self._record = record
        self._pos = 0  # bytes of the prefix read, in whole words
        self._rng: Random | None = None  # advanced past the prefix

    def randbytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("number of bytes must be non-negative")
        prefix = self._record.prefix
        if prefix is None:
            self._rng = self._record.generator()
            prefix = self._record.prefix
        pos = self._pos
        end = pos + (n + 3) // 4 * 4
        if end <= PREFIX:
            self._pos = end
            tail = n % 4
            if tail:
                return prefix[pos:end - 4] + prefix[end - tail:end]
            return prefix[pos:end]
        # Past the prefix: the part in it is whole words, so the rest is
        # the generator's next draw.  The instance attribute hides this
        # method, so a long run's later draws go straight to the generator.
        rng = self._rng or self._record.generator()
        self.randbytes = rng.randbytes
        return prefix[pos:] + rng.randbytes(n - (PREFIX - pos))
