"""Print the size of ``src/``: its total lines, its code lines and the
number of public names (``len(bellquasi.__all__)``).

Usage, from anywhere:

    python3 tools/srcsize.py

A code line holds at least one token that is neither a comment nor part
of a docstring (the string that opens a module, class or function body),
so blank lines, comment lines and docstring lines do not count.  Standard
library only.
"""

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    docstrings = docstring_lines(ast.parse(path.read_text()))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines)


def main() -> int:
    files = sorted(SRC.rglob("*.py"))
    total = sum(len(path.read_text().splitlines()) for path in files)
    code = sum(code_lines(path) for path in files)
    sys.path.insert(0, str(SRC))
    import bellquasi

    print(f"src/: {total} lines, {code} code lines, {len(bellquasi.__all__)} names in __all__")
    return 0


if __name__ == "__main__":
    sys.exit(main())
