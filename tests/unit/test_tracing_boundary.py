"""The digest byte layout lives in ``repro.sim.tracing`` and nowhere else.

A record's digest bytes used to be composed by hand in the transport, the
radio, the sensors and the delivery service; the copies drifted from the
generic encoder and a home's digest came to depend on the lane that wrote
it. This guard keeps the layout behind one module: outside ``repro/sim/``
nothing imports the packing helpers or reads the trace's digest memos, and
the staging buffer is touched only by the transport's quiescent multicast
pair (``send_multicast`` and the ``_deliver`` of a plan's copy), which
stages ``packed time + a suffix from MessageChannel.bind``.

Record kinds are declared in ``repro.sim.schema`` and nowhere else: every
call site that records a literal kind under ``src/repro`` passes that
kind's declared fields, in declared order, and no module re-types a list
of kind names the table can derive.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.sim.schema import KINDS, MESSAGE

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Names of ``repro.sim.tracing`` that encode the byte layout.
LAYOUT_NAMES = {
    "_pack_str", "_pack_int", "_pack_value", "_kind_lp", "_NF", "_PACK_Q",
    "_lp", "_clen", "_record_bytes",
}
#: Trace attributes that belong to the encoder's memos and kind states.
TRACE_INTERNALS = {"_lt", "_ltr", "_ls", "_lsr", "_kind_state"}
#: The digest staging surface, and the only functions allowed to use it.
STAGING_NAMES = {"_dig_buf", "_flush_hash", "_FLUSH_BYTES"}
STAGING_ALLOWED = {
    "net/transport.py": {"send_multicast", "_deliver"},
}


def _is_layout_name(name: str) -> bool:
    return name in LAYOUT_NAMES or name.startswith("_K_")


def _names_used(node: ast.AST) -> set[str]:
    """Every bare name and attribute name read or written under ``node``."""
    used = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
    return used


def _modules_outside_sim():
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if not relative.startswith("sim/"):
            yield relative, ast.parse(path.read_text(encoding="utf-8"))


def test_byte_layout_is_private_to_sim_tracing():
    offences = []
    for relative, tree in _modules_outside_sim():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.sim.tracing":
                offences += [
                    f"{relative}: imports {alias.name}"
                    for alias in node.names if _is_layout_name(alias.name)
                ]
        used = _names_used(tree)
        offences += [
            f"{relative}: uses {name}" for name in sorted(used)
            if _is_layout_name(name) or name in TRACE_INTERNALS
        ]
    assert not offences, offences


def test_digest_buffer_is_staged_only_by_the_quiescent_multicast_pair():
    offences = []
    for relative, tree in _modules_outside_sim():
        allowed = STAGING_ALLOWED.get(relative, set())
        functions = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in functions:
            if function.name in allowed:
                continue
            hits = _names_used(function) & STAGING_NAMES
            offences += [f"{relative}:{function.name} uses {name}"
                         for name in sorted(hits)]
    assert not offences, offences
    # The permitted pair really is there (a rename must update this guard).
    transport = ast.parse((SRC / "net" / "transport.py").read_text(encoding="utf-8"))
    present = {
        node.name for node in ast.walk(transport)
        if isinstance(node, ast.FunctionDef)
        and _names_used(node) & STAGING_NAMES
    }
    assert present == STAGING_ALLOWED["net/transport.py"]


# -- the declared record schema ------------------------------------------------------

#: Recording call -> (index of its kind argument, how its fields are given).
#: "keywords": the call's keyword names; "process+keywords": the same after
#: the ``process`` field the environment fills. The positional lanes give a
#: row by position: their fields are the declared ones, so only the row's
#: width and the fields the lane itself fills can be checked.
RECORDING_CALLS = {
    "record": (1, "keywords"),
    "trace": (0, "process+keywords"),
    "trace_row": (0, "process+row"),
    "record_row": (1, "row"),
    "record_device": (1, "args"),
    "trace_device": (0, "device"),
    "device_channel": (0, "channel"),
    "message_channel": (0, "message"),
    "record_message": (1, "message"),
}
#: Fields as ``MessageChannel.record`` takes them.
MESSAGE_FIELDS = ("src", "dst", "kind", "bytes", "reason")


def _literal_kinds(node: ast.expr) -> list[str]:
    """The kind names an argument spells: a string, or either branch of a
    conditional between two strings."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _literal_kinds(node.body) + _literal_kinds(node.orelse)
    return []


def _passed(how: str, call: ast.Call, at: int):
    """``(fields, extras)`` a call passes; a ``None`` field stands for
    whatever the declared field at that position is."""
    rest = call.args[at + 1:]
    keywords = tuple(kw.arg for kw in call.keywords if kw.arg is not None)
    extras = any(kw.arg is None for kw in call.keywords)
    if how == "keywords":
        return keywords, extras
    if how == "process+keywords":
        return ("process", *keywords), extras
    row = len(rest[-1].elts) if rest and isinstance(rest[-1], ast.Tuple) else -1
    if how == "process+row":
        return ("process", *[None] * row), False
    if how == "row":
        return (None,) * row, False
    if how == "args":
        return (None,) * (len(rest) + len(call.keywords)), False
    if how == "device":  # id value and seq; the environment fills process
        return (None, "process", "seq")[:len(rest) + 1], False
    if how == "channel":  # sensor[, process], and seq on each record
        return ("sensor", "seq") if len(rest) == 1 else ("sensor", "process", "seq"), False
    return MESSAGE_FIELDS, False


def _fits(kind: str, how: str, passed: tuple, extras: bool) -> bool:
    spec = KINDS[kind]
    if how == "message":
        return MESSAGE in spec.tags and spec.fields == passed
    if None in passed or how in ("device", "channel"):
        return len(passed) == len(spec.fields) and all(
            name is None or name == field for name, field in zip(passed, spec.fields))
    expected = tuple(f for f in spec.fields if f in passed or f not in spec.optional)
    head, more = passed[:len(expected)], passed[len(expected):]
    if spec.open:
        return head == expected and not set(more) & set(spec.fields)
    return head == expected and not more and not extras


def test_every_recorded_kind_is_declared_once():
    undeclared, misfits, retyped = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Tuple, ast.Set, ast.List))
                    and relative != "sim/schema.py"):
                named = [e.value for e in node.elts
                         if isinstance(e, ast.Constant) and e.value in KINDS]
                if len(named) >= 2:
                    retyped.append(f"{relative}:{node.lineno} {named}")
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            at, how = RECORDING_CALLS.get(node.func.attr, (None, None))
            if at is None or len(node.args) <= at:
                continue
            for kind in _literal_kinds(node.args[at]):
                where = f"{relative}:{node.lineno} {node.func.attr}({kind!r})"
                if kind not in KINDS:
                    undeclared.append(where)
                    continue
                passed, extras = _passed(how, node, at)
                if not _fits(kind, how, passed, extras):
                    misfits.append(f"{where} passes {passed}, declared {KINDS[kind].fields}")
    assert not undeclared, undeclared
    assert not misfits, misfits
    assert not retyped, retyped
