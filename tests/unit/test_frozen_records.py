"""The per-event records built slot by slot: ``Event``, ``Command``,
``TriggeredWindow`` and ``CombinedWindows``.

Each has a hand-written ``__init__`` that writes its slots through the
member descriptors (:func:`repro.core.events.slot_setters`) instead of the
generated one's ``object.__setattr__`` per field. Everything else is the
frozen dataclass's: construction by position, keyword and default, refusal
to assign or delete, eq/hash/order, ``replace``, ``repr`` and pickles.
``Event`` and ``Command`` pickle byte for byte as a plain frozen slotted
dataclass with the generated ``__init__`` does, so snapshot files and the
caches that hold them do not move.
"""

import dataclasses
import pickle
from dataclasses import FrozenInstanceError, dataclass, field, fields
from typing import Any

import pytest

from repro.core import events
from repro.core.combiners import CombinedWindows
from repro.core.events import Command, Event, slot_setters
from repro.core.windows import TriggeredWindow


@dataclass(frozen=True, order=True, slots=True)
class _ReferenceEvent:
    sensor_id: str
    seq: int
    emitted_at: float
    value: Any = field(compare=False)
    size_bytes: int = field(compare=False)
    epoch: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class _ReferenceCommand:
    actuator_id: str
    seq: int
    issued_at: float
    action: str
    value: Any = None
    size_bytes: int = 8
    issued_by: str = ""


# Named as the real classes, so their pickles name the same global: a
# pickle test lets one stand in under that name while it is pickled.
for _reference, _name in ((_ReferenceEvent, "Event"), (_ReferenceCommand, "Command")):
    _reference.__module__, _reference.__qualname__ = events.__name__, _name


def _window(fired_at: float = 2.0) -> TriggeredWindow:
    return TriggeredWindow("door", (Event("door", 1, 1.5, True, 4),), fired_at)


def _samples() -> list:
    """One instance of each record, every field set to a distinct value."""
    return [
        Event("door", 3, 1.25, {"open": True}, 6, 2),
        Command("lamp", 4, 2.5, "on", 0.75, 12, "app@p1"),
        _window(),
        CombinedWindows({"door": _window()}, 2.0, frozenset({"motion"})),
    ]


# -- construction --------------------------------------------------------------------


def test_positional_keyword_and_default_construction_agree():
    assert Event("s", 1, 0.5, 7, 4) == Event(
        sensor_id="s", seq=1, emitted_at=0.5, value=7, size_bytes=4, epoch=None)
    assert Event("s", 1, 0.5, 7, 4).epoch is None
    command = Command("a", 2, 1.0, "on")
    assert (command.value, command.size_bytes, command.issued_by) == (None, 8, "")
    assert command == Command(actuator_id="a", seq=2, issued_at=1.0, action="on",
                              value=None, size_bytes=8, issued_by="")
    assert _window() == TriggeredWindow(stream="door", fired_at=2.0,
                                        events=(Event("door", 1, 1.5, True, 4),))
    combined = CombinedWindows({"door": _window()}, 2.0)
    assert combined.missing == frozenset()
    assert combined == CombinedWindows(windows={"door": _window()}, fired_at=2.0,
                                       missing=frozenset())
    with pytest.raises(TypeError):
        Event("s", 1, 0.5, 7)  # size_bytes has no default
    with pytest.raises(TypeError):
        Command("a", 2, 1.0, "on", bogus=1)


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_every_field_is_written_by_the_init(record):
    cls = type(record)
    values = {f.name: getattr(record, f.name) for f in fields(cls)}
    assert len(set(map(id, values.values()))) == len(values)  # distinct values
    assert cls(*values.values()) == record
    rebuilt = cls(**values)
    for name, value in values.items():
        assert getattr(rebuilt, name) is value
    assert not hasattr(rebuilt, "__dict__")  # slotted


def test_slot_setters_refuses_an_init_that_skips_a_field():
    @dataclass(frozen=True, slots=True)
    class Pair:
        a: int
        b: int

        def __init__(self, a: int) -> None:  # b forgotten
            pass

    with pytest.raises(TypeError, match="must take the fields"):
        slot_setters(Pair)


# -- frozen --------------------------------------------------------------------------


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_assignment_and_deletion_are_refused(record):
    name = fields(record)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, "x")
    with pytest.raises(FrozenInstanceError):
        delattr(record, name)
    # Not a field: a slotted frozen dataclass refuses it too (the exception
    # type differs between Python versions).
    with pytest.raises((FrozenInstanceError, AttributeError, TypeError)):
        record.unknown = 1


# -- eq / hash / order ---------------------------------------------------------------


def test_event_compares_on_identity_fields_only():
    a = Event("door", 3, 1.25, True, 4, None)
    b = Event("door", 3, 1.25, False, 900, 7)  # value, size, epoch differ
    assert a == b and hash(a) == hash(b)
    assert a != Event("door", 4, 1.25, True, 4)
    assert sorted([Event("door", 2, 9.0, 0, 1), Event("a", 5, 0.0, 0, 1),
                   Event("door", 1, 9.0, 0, 1)]) == [
        Event("a", 5, 0.0, 0, 1), Event("door", 1, 9.0, 0, 1), Event("door", 2, 9.0, 0, 1)]
    reference = _ReferenceEvent("door", 3, 1.25, True, 4)
    assert hash(a) == hash(reference)  # the same field tuple is hashed


def test_command_window_and_combined_eq_hash_and_no_order():
    command = Command("lamp", 4, 2.5, "on", 0.75, 12, "app@p1")
    assert command == Command("lamp", 4, 2.5, "on", 0.75, 12, "app@p1")
    assert command != dataclasses.replace(command, value=0.5)  # every field compares
    assert hash(command) == hash(_ReferenceCommand("lamp", 4, 2.5, "on", 0.75, 12, "app@p1"))
    assert hash(_window()) == hash(_window())
    assert _window() != _window(fired_at=3.0)
    combined = CombinedWindows({"door": _window()}, 2.0)
    with pytest.raises(TypeError):
        hash(combined)  # a dict field: unhashable, as generated
    for record in (command, _window(), combined):
        with pytest.raises(TypeError):
            record < record  # noqa: B015 - only Event is ordered


# -- replace / repr / pickle ---------------------------------------------------------


#: A new value for one field of each record (its last: the defaulted one).
_REPLACEMENTS = {Event: 9, Command: "other@p2", TriggeredWindow: 7.5,
                 CombinedWindows: frozenset({"lamp"})}


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_replace_builds_through_the_init(record):
    name = fields(record)[-1].name
    new_value = _REPLACEMENTS[type(record)]
    changed = dataclasses.replace(record, **{name: new_value})
    assert type(changed) is type(record)
    assert getattr(changed, name) == new_value != getattr(record, name)
    for other in fields(record)[:-1]:
        assert getattr(changed, other.name) is getattr(record, other.name)


def test_generated_reprs_are_unchanged():
    event = Event("door", 1, 1.5, True, 4)
    assert repr(_window()) == f"TriggeredWindow(stream='door', events=({event!r},), fired_at=2.0)"
    assert repr(CombinedWindows({"door": _window()}, 2.0)) == (
        f"CombinedWindows(windows={{'door': {_window()!r}}}, fired_at=2.0, "
        "missing=frozenset())")
    assert repr(Event("door", 1, 1.5, True, 4, 3)) == (
        "<Event door#1 t=1.500 4B epoch=3 value=True>")
    assert repr(Command("lamp", 4, 2.5, "on", issued_by="x")) == (
        "<Command lamp!on #4 t=2.500 by=x>")


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_pickle_round_trip(record):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol=protocol))
        assert type(copy) is type(record)
        for f in fields(record):
            assert getattr(copy, f.name) == getattr(record, f.name)


@pytest.mark.parametrize("real, reference, name", [
    (Event("door", 3, 1.25, {"open": True}, 6, 2),
     _ReferenceEvent("door", 3, 1.25, {"open": True}, 6, 2), "Event"),
    (Command("lamp", 4, 2.5, "on", 0.75, 12, "app@p1"),
     _ReferenceCommand("lamp", 4, 2.5, "on", 0.75, 12, "app@p1"), "Command"),
])
def test_pickles_are_byte_equal_to_a_generated_dataclass(monkeypatch, real, reference, name):
    """The reference class stands in under the real one's name while it is
    pickled, so the two byte strings differ only if the state does."""
    expected = {}
    with monkeypatch.context() as patch:
        patch.setattr(events, name, type(reference))
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            expected[protocol] = pickle.dumps(reference, protocol=protocol)
    for protocol, blob in expected.items():
        assert pickle.dumps(real, protocol=protocol) == blob
