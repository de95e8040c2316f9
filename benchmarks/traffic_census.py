"""Which statements under src/repro no benchmark workload executes.

    python benchmarks/traffic_census.py [--quick] [--seed 7] [--workload W ...]

Runs each workload ``BENCHMARK.json`` declares (or only the ``--workload``
ones) as ``measure(seed, Sizing(1, quick=...))`` from ``bench/``, each in
a fresh interpreter under ``sys.settrace``, which records the lines run
in files under ``src/repro`` and ignores every other frame. Tracing
starts before the workload is imported, so what runs at import counts.
Then it prints, per file and function, the statements that no workload
executed: ``never called`` for a function none of whose statements ran,
else the lines of the statements that did not. A function nested in
another is listed under its own ``outer.<locals>.inner`` name.

A statement counts as run when any line of it produced a trace ``line``
event; a compound statement (``if``, ``for``, ``with``, ...) is judged by
its header lines, its body statement by statement. ``try`` headers,
docstrings and ``global`` / ``nonlocal`` declarations run no code and are
not counted. Only the workload's own interpreter is traced.

Report only: it exits 0 whatever it finds, and 1 only when a workload's
interpreter fails. It imports ``bench/`` and writes nothing there (the
workloads' scratch files go to a temporary directory). Under the tracer
a workload runs several times slower, so its timing checks may fail;
those failures are printed and do not stop the census.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Statements not counted: declarations compile to no instruction, and a
#: ``try`` header is judged by its body.
_UNCOUNTED = (ast.Global, ast.Nonlocal, ast.Try, getattr(ast, "TryStar", ast.Try))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_FUNCTIONS, ast.ClassDef)


def _trace_workload(name: str, seed: int, quick: bool, scratch: Path) -> tuple[dict, str]:
    """Run one workload in this interpreter under the line tracer: the
    lines run per file, and the workload's first error ('' if none)."""
    prefix = str(SRC) + os.sep
    lines: dict[str, set[int]] = {}
    local_tracers: dict[str, object] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        local = local_tracers.get(filename)
        if local is None:
            if not filename.startswith(prefix):
                return None
            add = lines.setdefault(filename, set()).add

            def local(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return local

            local_tracers[filename] = local
        return local

    sys.dont_write_bytecode = True
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        from bench.harness import Sizing
        from bench.run import load_workload

        outcome = load_workload(name)(seed, Sizing(1, quick=quick), scratch_dir=scratch)
        problem = "; ".join(outcome.errors)
    except Exception as exc:  # the census still reports what ran
        traceback.print_exc()
        problem = f"{type(exc).__name__}: {exc}"
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {path: sorted(seen) for path, seen in lines.items()}, problem


# -- statements per function ------------------------------------------------------------


def _span(node: ast.stmt) -> tuple[int, int]:
    """The lines whose trace events mean ``node`` itself ran."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    if isinstance(node, _SCOPES):
        return first, node.lineno
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:  # a compound statement's header
        return first, max(first, body[0].lineno - 1)
    return first, node.end_lineno or node.lineno


def _blocks(node: ast.stmt):
    """The statement lists nested in a compound statement that is not a
    scope: bodies, ``else`` / ``finally`` blocks, handlers and cases."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(node, field, None) or []
    for handler in getattr(node, "handlers", ()):
        yield handler.body
    for case in getattr(node, "cases", ()):
        yield case.body


def _statements(body: list[ast.stmt]):
    """The counted statements of one function body, not descending into
    nested functions or classes (whose ``def`` / ``class`` line counts)."""
    for node in body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or a bare constant: no code
        if not isinstance(node, _UNCOUNTED):
            yield node
        if not isinstance(node, _SCOPES):
            for block in _blocks(node):
                yield from _statements(block)


def functions(tree: ast.Module):
    """``(qualname, [statement spans])`` for every function in ``tree``."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, _FUNCTIONS):
                name = f"{prefix}{node.name}"
                yield name, [_span(s) for s in _statements(node.body)]
                yield from walk(node.body, f"{name}.<locals>.")
            else:  # a def inside an ``if`` / ``try`` block keeps this prefix
                for block in _blocks(node):
                    yield from walk(block, prefix)

    yield from walk(tree.body, "")


def _ranges(numbers: list[int]) -> str:
    parts, start, prev = [], None, None
    for n in numbers:
        if start is None:
            start = prev = n
        elif n == prev + 1:
            prev = n
        else:
            parts.append(f"{start}" if start == prev else f"{start}-{prev}")
            start = prev = n
    if start is not None:
        parts.append(f"{start}" if start == prev else f"{start}-{prev}")
    return ", ".join(parts)


def report(executed: dict[str, set[int]]) -> tuple[list[str], dict[str, int]]:
    out: list[str] = []
    totals = dict(functions=0, never_called=0, statements=0, never_run=0)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_bytes(), filename=str(path))
        ran = executed.get(str(path), set())
        rows = []
        for name, spans in functions(tree):
            if not spans:
                continue
            missed = [first for first, last in spans
                      if not any(line in ran for line in range(first, last + 1))]
            totals["functions"] += 1
            totals["statements"] += len(spans)
            totals["never_run"] += len(missed)
            if len(missed) == len(spans):
                totals["never_called"] += 1
                rows.append(f"  {name}: never called ({len(spans)} statements)")
            elif missed:
                rows.append(f"  {name}: {len(missed)} of {len(spans)} statements "
                            f"never run: {_ranges(sorted(set(missed)))}")
        if rows:
            out.append(str(path.relative_to(ROOT)))
            out.extend(rows)
    return out, totals


# -- command line -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="each workload's quick sizing (a second or less untraced)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="census only this workload (repeatable)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        with tempfile.TemporaryDirectory() as scratch:
            lines, problem = _trace_workload(args.child, args.seed, args.quick, Path(scratch))
        Path(args.out).write_text(json.dumps({"lines": lines, "problem": problem}))
        return 0

    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    names = args.workloads or declared
    unknown = sorted(set(names) - set(declared))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json declares {declared}")
    executed: dict[str, set[int]] = {}
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.json"
            command = [sys.executable, __file__, "--child", name, "--out", str(out),
                       "--seed", str(args.seed), *(["--quick"] if args.quick else [])]
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
            elapsed = time.perf_counter() - start
            if done.returncode or not out.exists():
                print(f"workload {name}: interpreter exited {done.returncode}")
                status = 1
                continue
            child = json.loads(out.read_text())
            for path, seen in child["lines"].items():
                executed.setdefault(path, set()).update(seen)
            count = sum(map(len, child["lines"].values()))
            print(f"workload {name}: {count} lines run, {elapsed:.1f} s traced")
            if child["problem"]:
                print(f"  (under the tracer it reported: {child['problem'][:300]})")
    rows, totals = report(executed)
    print()
    print("\n".join(rows))
    print()
    print(f"functions never called: {totals['never_called']} of {totals['functions']}; "
          f"statements never run: {totals['never_run']} of {totals['statements']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
