#!/usr/bin/env python3
"""Print the net line delta of ``src/`` between a git revision and the working tree.

    python3 scripts/src_delta.py BASE

Each ``src/**/*.py`` file at ``BASE`` (read with ``git show``) is compared
with the working tree's, in path order; a file on one side only counts
as 0 lines on the other. Per file and in total, the table gives the lines
before and after and their delta, then the same for code lines: lines
that hold a token other than a comment, leaving out blank and comment
lines (found with ``tokenize``) and docstrings (module, class and
function docstrings, found with ``ast``). Run it inside the repository.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

LAYOUT = "{:<40} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout


def docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) (line, column) of each module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        body = node.body if isinstance(node, DOCUMENTED) else []
        first = body[0] if body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count_lines(text: str) -> tuple[int, int]:
    """(lines, code lines) of a Python source."""
    spans = docstring_spans(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in NOT_CODE:
            continue
        if token.type == tokenize.STRING and any(
            start <= token.start and token.end <= end for start, end in spans
        ):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code)


def signed(n: int) -> str:
    return f"{n:+d}" if n else "0"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the git revision to compare with, e.g. HEAD~1")
    args = parser.parse_args()
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").strip())
    listed = git(root, "ls-tree", "-r", "--name-only", args.base, "--", "src").splitlines()
    before = {path: git(root, "show", f"{args.base}:{path}")
              for path in listed if path.endswith(".py")}
    after = {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
             for path in (root / "src").rglob("*.py")}
    print(LAYOUT.format("file", "before", "after", "delta", "code", "after", "delta"))
    total = [0, 0, 0, 0]
    for path in sorted(before.keys() | after.keys()):
        lines, code = zip(*(count_lines(side.get(path, "")) for side in (before, after)))
        counts = [lines[0], lines[1], code[0], code[1]]
        total = [t + n for t, n in zip(total, counts)]
        print(LAYOUT.format(path, lines[0], lines[1], signed(lines[1] - lines[0]),
                            code[0], code[1], signed(code[1] - code[0])))
    print(LAYOUT.format("total", total[0], total[1], signed(total[1] - total[0]),
                        total[2], total[3], signed(total[3] - total[2])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
