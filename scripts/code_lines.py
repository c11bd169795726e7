"""Count the code lines of Python modules.

A line counts if it holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or the end marker, and is not part of a module, class or
function docstring.  Blank lines, comment-only lines and docstrings do not count;
every line a multi-line string other than a docstring spans does.

    python scripts/code_lines.py              # src/fcrkpm/*.py
    python scripts/code_lines.py FILE...      # the given modules

Prints one line per module and the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of code lines of one module, by the rule above."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with path.open() as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(a) for a in argv] or sorted((root / "src" / "fcrkpm").glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{path.stem:>12} {n:6d}")
    print(f"{'total':>12} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
