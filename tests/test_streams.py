"""A family's seeded streams return exactly what ``random.Random`` draws."""

from __future__ import annotations

import dataclasses
import random
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_traces import PAIRS

from teescrow import harness
from teescrow.config import ScenarioConfig
from teescrow.harness import ScenarioRunner
from teescrow.streams import ByteStream, SeededBytes

#: Bytes the interleaved property reads from each stream, at least.
LONG = 2048


@settings(max_examples=200)
@given(seed=st.text(max_size=12), readers=st.integers(1, 3),
       draws=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 80)),
                      min_size=1, max_size=20)
       .filter(lambda draws: any(size for _, size in draws)))
def test_streams_of_one_record_return_what_random_draws(seed, readers,
                                                        draws):
    """Interleaved streams of one record.  The draws repeat, each round
    moved on to the next stream, until every stream has read ``LONG``
    bytes, so the record grows under streams that are still reading it."""
    record = SeededBytes(seed)
    streams = [ByteStream(record) for _ in range(readers)]
    references = [random.Random(seed) for _ in range(readers)]
    read = [0] * readers
    for round_number in count():
        if min(read) > LONG:
            break
        for which, size in draws:
            which = (which + round_number) % readers
            assert (streams[which].randbytes(size)
                    == references[which].randbytes(size))
            read[which] += size


@settings(max_examples=25, deadline=None)
@given(seeds=st.lists(st.integers(-2**255, 2**255), min_size=2, max_size=2,
                      unique=True),
       pair=st.sampled_from(PAIRS))
def test_a_config_replaced_with_another_seed_shares_no_bytes(seeds, pair):
    def trace(config):
        runner = ScenarioRunner(config)
        runner.run()
        return runner.trace.to_jsonl()

    cell = ScenarioConfig(rng_seed=seeds[0]).with_strategies(*pair)
    trace(cell)  # the family's records now hold the first seed's bytes
    other = dataclasses.replace(cell, rng_seed=seeds[1])
    _, requestor, host = other.family.share(harness._setup, other)
    for name, record in (("requestor", requestor), ("host", host)):
        assert (ByteStream(record).randbytes(LONG + 3)
                == random.Random(f"{seeds[1]}:{name}").randbytes(LONG + 3))
    assert trace(other) == trace(ScenarioConfig(
        rng_seed=seeds[1], requestor_strategy=pair[0], node_strategy=pair[1]))


def test_a_negative_size_is_refused_as_random_refuses_it():
    with pytest.raises(ValueError):
        random.Random(0).randbytes(-1)
    with pytest.raises(ValueError):
        ByteStream(SeededBytes(0)).randbytes(-1)


@settings(max_examples=50)
@given(seed=st.integers(-2**64, 2**64),
       before=st.lists(st.integers(0, 600), max_size=8),
       after=st.lists(st.integers(0, 600), min_size=1, max_size=8))
def test_a_stream_set_to_another_streams_position_reads_on_from_there(
        seed, before, after):
    record = SeededBytes(seed)
    first = ByteStream(record)
    reference = random.Random(seed)
    for size in before:
        first.randbytes(size)
    reference.randbytes(first.pos)  # whole words: the same words consumed
    second = ByteStream(record)
    second.pos = first.pos
    for size in after:
        assert second.randbytes(size) == reference.randbytes(size)
