"""A protocol step nobody cancels is deferred, not scheduled.

``RuntimeEnv.schedule`` returns a cancel handle; on the simulator that is
a four-slot timer entry and a :class:`~repro.sim.scheduler.TimerHandle`
per call. ``RuntimeEnv.defer`` is the same step on the scheduler's post
lane, with no handle. A statement that calls ``schedule`` on a runtime
environment and drops the result pays for a handle nobody can use, so
under ``src/repro`` such a statement must call ``defer`` instead.

Only environments are in scope — ``env``, ``self.env``, ``self._env`` and
``self._ctx.env``; ``Workload.schedule()`` and ``driver.schedule()`` in
``repro.eval`` are other methods.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: How a runtime environment is spelled at a call site.
ENV_RECEIVERS = {"env", "self.env", "self._env", "self._ctx.env"}


def _dropped_env_schedules(tree: ast.AST) -> list[int]:
    """Line numbers of expression statements ``<env>.schedule(...)``."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "schedule"
        and ast.unparse(node.value.func.value) in ENV_RECEIVERS
    )


def test_no_runtime_env_schedule_handle_is_thrown_away():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offences += [f"{relative}:{line}" for line in _dropped_env_schedules(tree)]
    assert not offences, f"use env.defer(...) where the handle is dropped: {offences}"


def test_the_guard_sees_every_receiver_spelling():
    source = "\n".join(
        f"{receiver}.schedule(1.0, f)" for receiver in sorted(ENV_RECEIVERS)
    ) + "\nworkload.schedule()\nhandle = env.schedule(1.0, f)\nenv.defer(1.0, f)\n"
    assert _dropped_env_schedules(ast.parse(source)) == [1, 2, 3, 4]
