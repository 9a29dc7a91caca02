"""Count the lines of a package's source, and its code lines.

    python tests/code_lines.py [DIR]

Prints the total number of lines of the `.py` files under DIR (default:
`src/gluesem`), and the number of its code lines. A code line holds a
token other than a comment or a docstring: a line that is blank, holds
only a comment, or lies wholly inside a docstring is not one, while each
line of any other string is. A docstring is a string literal that stands
alone as the first statement of a module, class or function. Reads the
files only; it imports neither the package nor pytest.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_starts(tree) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of `tree` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of the Python source `text`."""
    docstrings = docstring_starts(ast.parse(text))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in SKIPPED:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    if len(argv) > 2 or (len(argv) == 2 and argv[1].startswith("-")):
        print("usage: python tests/code_lines.py [DIR]", file=sys.stderr)
        return 2
    name = argv[1] if len(argv) == 2 else "src/gluesem"
    package = Path(name) if len(argv) == 2 else ROOT / name
    lines = code = 0
    for path in sorted(package.rglob("*.py")):
        file_lines, file_code = count(path.read_text(encoding="utf-8"))
        lines, code = lines + file_lines, code + file_code
    print(f"{name}: {lines} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
