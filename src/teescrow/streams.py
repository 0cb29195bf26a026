"""Seeded byte streams that read one record their config family extends.

A run draws its requestor's and its host's random bytes from
``random.Random`` generators seeded from the config's ``rng_seed``, and
seeding one takes longer than a whole run's draws.  So a config family
(``ScenarioConfig.with_strategies``) keeps one ``SeededBytes`` record per
seed, every byte its streams have drawn, and each run reads it through a
``ByteStream`` of its own: exactly what ``random.Random(seed).randbytes``
returns for the same sequence of sizes.

``randbytes(n)`` consumes ``ceil(n / 4)`` 32-bit words and keeps the high
``n % 4`` bytes of the last one, so a stream reads the record in whole
words, and its read position ``pos`` is its whole state.
"""

from __future__ import annotations

from random import Random


class SeededBytes:
    """The bytes of ``random.Random(seed)`` as far as any stream has read,
    in whole words, kept unchanged; seeded by the first draw."""

    __slots__ = ("seed", "data", "_rng")

    def __init__(self, seed: int | str) -> None:
        self.seed = seed
        self.data = b""
        self._rng: Random | None = None

    def extend(self, end: int) -> bytes:
        """The record grown, at least doubled, to hold ``end`` bytes."""
        if self._rng is None:
            self._rng = Random(self.seed)
        data = self.data
        data += self._rng.randbytes(max(end, 2 * len(data)) - len(data))
        self.data = data
        return data


class ByteStream:
    """One run's stream over a record: the bytes ``random.Random(seed)``
    would return, for any sequence of sizes."""

    def __init__(self, record: SeededBytes) -> None:
        self._record = record
        self.pos = 0  # bytes of the record read, in whole words

    def randbytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("number of bytes must be non-negative")
        pos = self.pos
        end = pos + (n + 3) // 4 * 4
        data = self._record.data
        if end > len(data):
            data = self._record.extend(end)
        self.pos = end
        tail = n % 4
        if tail:
            return data[pos:end - 4] + data[end - tail:end]
        return data[pos:end]
