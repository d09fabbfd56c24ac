"""Count the lines of a package's modules: all lines, as ``wc -l`` counts them, and code lines.

A code line holds a token other than a comment and lies outside every docstring (a string
that opens a module, class or function body); blank and comment-only lines are not code.

Usage: python3 tools/line_count.py [PACKAGE_DIR]   (default: src/freshopt)
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def count_lines(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            code.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return source.count("\n"), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src" / "freshopt")
    counts = {path.name: count_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    counts["total"] = tuple(map(sum, zip(*counts.values())))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, (lines, code) in counts.items():
        print(f"{name:<16}{lines:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
