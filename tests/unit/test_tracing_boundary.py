"""The digest byte layout lives in ``repro.sim.tracing`` and nowhere else.

A record's digest bytes used to be composed by hand in the transport, the
radio, the sensors and the delivery service; the copies drifted from the
generic encoder and a home's digest came to depend on the lane that wrote
it. This guard keeps the layout behind one module: outside ``repro/sim/``
nothing imports the packing helpers or reads the trace's digest memos, and
the staging buffer is touched only by the transport's quiescent multicast
pair, which stages ``packed time + a suffix from MessageChannel.bind``.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
    "net/transport.py": {"send_multicast", "_deliver_quiescent"},
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
