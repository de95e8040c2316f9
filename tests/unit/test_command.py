"""``Command`` is a frozen, slotted value, like ``Event``.

An rt node keeps every command it applied in ``actuations``, so a
command carries no per-instance ``__dict__``.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.events import Command


def _command(**changes) -> Command:
    fields = dict(actuator_id="light", seq=2, issued_at=9.0, action="set",
                  value=False, size_bytes=8, issued_by="app@p1")
    return Command(**(fields | changes))


def test_a_command_has_slots_and_no_dict():
    command = _command()
    assert not hasattr(command, "__dict__")
    assert set(Command.__slots__) == {f.name for f in dataclasses.fields(Command)}


def test_a_command_is_immutable():
    command = _command()
    with pytest.raises(dataclasses.FrozenInstanceError):
        command.seq = 3
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        command.note = "x"


def test_equal_commands_hash_equal():
    assert _command() == _command()
    assert hash(_command()) == hash(_command())
    assert _command() != _command(seq=3)
    assert len({_command(), _command(), _command(issued_by="app@p2")}) == 2
    assert _command().command_id == ("light", "app@p1", 2)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_command_round_trips_through_pickle(protocol):
    command = _command(value={"level": (1, 2.5)})
    clone = pickle.loads(pickle.dumps(command, protocol=protocol))
    assert clone == command
    assert type(clone) is Command
    assert clone.value == {"level": (1, 2.5)}
    assert dataclasses.replace(clone, seq=5).seq == 5
