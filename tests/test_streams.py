"""A seeded stream returns exactly what ``random.Random`` draws."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teescrow.streams import ByteStream


@settings(max_examples=200)
@given(seed=st.one_of(st.text(max_size=12), st.integers(-2**64, 2**64)),
       sizes=st.lists(st.integers(0, 80), min_size=1, max_size=40))
def test_a_stream_returns_what_random_draws(seed, sizes):
    stream, reference = ByteStream(seed), random.Random(seed)
    for size in sizes:
        assert stream.randbytes(size) == reference.randbytes(size)


def test_a_negative_size_is_refused_as_random_refuses_it():
    with pytest.raises(ValueError):
        random.Random(0).randbytes(-1)
    with pytest.raises(ValueError):
        ByteStream(0).randbytes(-1)


@settings(max_examples=50)
@given(seed=st.integers(-2**64, 2**64),
       before=st.lists(st.integers(0, 600), max_size=8),
       after=st.lists(st.integers(0, 600), min_size=1, max_size=8))
def test_a_stream_set_to_another_streams_position_reads_on_from_there(
        seed, before, after):
    first = ByteStream(seed)
    reference = random.Random(seed)
    for size in before:
        first.randbytes(size)
    reference.randbytes(first.pos)  # whole words: the same words consumed
    second = ByteStream(seed)
    second.pos = first.pos
    read = [second.randbytes(size) for size in after]
    assert read == [reference.randbytes(size) for size in after]
    second.pos = first.pos  # back: the same bytes again
    assert [second.randbytes(size) for size in after] == read
