"""Print the lines of each ``src/fuchsreduce`` module, split by kind.

Each line is counted once, as

* ``docstring``: within the first string statement of a module, class or
  function (found with ``ast``), blank lines inside it included;
* ``blank``: empty or whitespace only, outside a docstring;
* ``comment``: a ``#`` comment alone on its line;
* ``code``: every other line.

Run it from any directory:

    python tools/src_lines.py                 # this checkout
    python tools/src_lines.py --root ../other # another checkout
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers (from 1) that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> dict[str, int]:
    """The number of lines of each kind in one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    out = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if number in docs:
            out["docstring"] += 1
        elif not stripped:
            out["blank"] += 1
        elif stripped.startswith("#"):
            out["comment"] += 1
        else:
            out["code"] += 1
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="the checkout to count (default: this one)")
    args = parser.parse_args(argv)
    rows = [(path.name, counts(path))
            for path in sorted((args.root / "src" / "fuchsreduce").glob("*.py"))]
    total = {kind: sum(c[kind] for _, c in rows) for kind in KINDS}
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}  {'total':>5}  " + "  ".join(f"{k:>9}" for k in KINDS))
    for name, c in [*rows, ("total", total)]:
        print(f"{name:<{width}}  {sum(c.values()):>5}  "
              + "  ".join(f"{c[k]:>9}" for k in KINDS))


if __name__ == "__main__":
    main()
