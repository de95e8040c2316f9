"""Property: ``wire_size`` sizes a message as the reference walk does.

:func:`repro.net.wire.wire_size` sizes ASCII strings, events and process-id
sets in line and hands every other value to :func:`~repro.net.wire.sizeof`.
Whatever the payload, its size must equal the plain definition: the Rivulet
header plus ``sizeof`` of each value, plus one frame overhead per segment.
A string's size is its UTF-8 length, with or without non-ASCII characters.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import Command, Event
from repro.net.message import Message
from repro.net.wire import (
    FRAME_OVERHEAD, MESSAGE_HEADER, MSS, ProcessIdSet, payload_size, sizeof, wire_size)


class _Name(str):
    pass


class _Count(int):
    pass


texts = st.text(max_size=40)  # non-ASCII included
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40), st.floats(allow_nan=False),
    texts, texts.map(_Name), st.integers(0, 99).map(_Count), st.binary(max_size=16),
)
events = st.builds(Event, st.sampled_from(["door", "pièce", "m1"]), st.integers(0, 2**40),
                   st.floats(0, 1e6), st.integers(), st.integers(0, 30_000),
                   st.none() | st.integers(0, 9))
commands = st.builds(Command, st.sampled_from(["lamp", "tv"]), st.integers(0, 99),
                     st.floats(0, 1e6), st.sampled_from(["on", "off"]),
                     st.none() | st.integers(), st.integers(0, 64))
id_sets = st.frozensets(st.sampled_from(["p0", "p1", "p2", "hub"])).map(ProcessIdSet)
leaves = st.one_of(scalars, events, commands, id_sets)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.frozensets(scalars, max_size=4),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=12,
)
payloads = st.dictionaries(st.sampled_from(["sensor", "event", "S", "V", "seq", "marks", "x"]),
                           values, max_size=6)


@given(payloads)
def test_wire_size_is_header_plus_each_values_size_plus_framing(payload):
    app_bytes = MESSAGE_HEADER + sum(sizeof(value) for value in payload.values())
    segments = -(-app_bytes // MSS)
    assert wire_size(Message("k", "a", "b", payload)) == app_bytes + segments * FRAME_OVERHEAD
    assert payload_size(Message("k", "a", "b", payload)) == app_bytes


@given(texts)
def test_a_string_is_sized_by_its_utf8_length(text):
    expected = 1 + len(text.encode("utf-8"))
    assert sizeof(text) == sizeof(_Name(text)) == expected
    assert wire_size(Message("k", "a", "b", {"s": text})) == (
        MESSAGE_HEADER + expected + FRAME_OVERHEAD)
