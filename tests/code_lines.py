"""Count the code lines of Python files: docstrings, comments and blank lines
are left out, and a statement written over several lines counts each of them.

    python3 tests/code_lines.py            # every module under src/, and the total
    python3 tests/code_lines.py PATH ...   # the named files, or the .py files under a directory

Standard library only (ast and tokenize), so any Python the package supports
can run it.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_rows(tree: ast.Module) -> set[int]:
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def count_code_lines(source: str) -> int:
    """Rows that hold a token of code, a string that is no docstring included."""
    docstrings = _docstring_rows(ast.parse(source))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def _files(paths: list[str]) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    files = _files(argv or [str(SRC)])
    total = 0
    for path in files:
        n = count_code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
