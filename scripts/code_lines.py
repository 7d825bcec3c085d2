#!/usr/bin/env python3
"""Count the code lines of each Python module under a directory.

A code line holds a token other than a comment and lies outside every
docstring (of a module, class or function).  Blank lines, comment lines and
docstring lines are not counted; each line of a multi-line statement or
string that is not a docstring is.  Prints one line per module, sorted by
path, then the total.

Usage:
    python scripts/code_lines.py [DIR]    # DIR defaults to src/drglab
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
#: tokens that do not make a line a code line
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    top = sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src", "drglab")
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(top)
                   for f in files if f.endswith(".py"))
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d}  {os.path.relpath(path, top)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
