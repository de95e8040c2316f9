"""Code lines under src/repro: no comments, blank lines or docstrings.

    python benchmarks/code_lines.py [ROOT]        # per package, then total
    python benchmarks/code_lines.py FILE [...]    # per file, then total
(the numbers every simplicity PR reports in CHANGES.md; CI prints them, no
gate). Directories and files mix: a directory adds one row per package.
"""
import ast
import sys
import tokenize
from collections import Counter
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        first = node.body[0] if isinstance(node, DOCUMENTED) and node.body else None
        if isinstance(first, ast.Expr):
            if isinstance(getattr(first.value, "value", None), str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    with tokenize.open(path) as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type not in SKIP:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


if __name__ == "__main__":
    roots = [Path(arg) for arg in sys.argv[1:]] or [Path(__file__).parent.parent / "src/repro"]
    totals: Counter = Counter()
    for root in roots:
        if not root.is_dir():
            totals[str(root)] += code_lines(root)
            continue
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root)
            totals[relative.parts[0] if len(relative.parts) > 1 else "."] += code_lines(path)
    width = max([12, *(len(name) + 1 for name in totals)])
    for name, count in sorted(totals.items()):
        print(f"{name:{width}}{count:7}")
    print(f"{'total':{width}}{sum(totals.values()):7}")
