"""The scheduler's bucket layout is known to three hot loops and nowhere else.

``Scheduler.post_at`` is inlined where a call frame per copy measurably
costs: the transport's per-message ``send``, its multicast fan-out and the
radio's sensor emission. Each copy of that insert spells out the
``_buckets`` / ``_heap`` / ``_live`` layout (empty instant, bare post,
list bucket), so a change to the layout has to reach every copy. This
guard keeps the copies to those three: any other module or function that
reaches into the scheduler's storage goes through its methods instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The scheduler's storage: the instant map, the heap of instants and the
#: live-entry counter.
STORAGE_NAMES = {"_buckets", "_heap", "_live"}
#: (module, qualified function) pairs allowed to touch them.
INLINE_INSERTS = {
    ("net/transport.py", "HomeNetwork.send"),
    ("net/transport.py", "HomeNetwork.send_multicast"),
    ("net/radio.py", "RadioNetwork.emit"),
}


def _storage_uses(tree: ast.AST):
    """Yield ``(qualified function, name)`` for every use of a storage
    name, as an attribute or as a string (``getattr(s, "_heap")``)."""

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                yield from visit(child, inner)
                continue
            if isinstance(child, ast.Attribute) and child.attr in STORAGE_NAMES:
                yield scope or "<module>", child.attr
            elif (isinstance(child, ast.Constant)
                  and isinstance(child.value, str) and child.value in STORAGE_NAMES):
                yield scope or "<module>", child.value
            yield from visit(child, scope)

    yield from visit(tree, "")


def test_only_the_three_inline_inserts_touch_scheduler_storage():
    offences = []
    present = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "sim/scheduler.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, name in _storage_uses(tree):
            if (relative, function) in INLINE_INSERTS:
                present.add((relative, function))
            else:
                offences.append(f"{relative}:{function} uses {name}")
    assert not offences, offences
    # The permitted inserts really are there (a rename must update this guard).
    assert present == INLINE_INSERTS
