"""Code lines: the lines of src/minis2s/*.py by kind.

    python3 tools/code_lines.py

Prints, summed over the package's modules, the total line count (what
`make lines` counts) and its split into docstring, comment, blank and
code lines. A docstring line lies in the docstring of a module, class
or function, as the AST places it; a comment line holds a comment token
and no code token; a blank line holds neither; every other line is code,
so a line of code with a trailing comment is code, and so is each line
of a multi-line string that is not a docstring.
"""

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("docstring", "comment", "blank", "code")
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.COMMENT}


def docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict:
    """The line count of each kind in one module's source."""
    doc = docstring_lines(ast.parse(text))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for n in range(1, len(text.splitlines()) + 1):
        kind = ("docstring" if n in doc else "code" if n in code
                else "comment" if n in comment else "blank")
        counts[kind] += 1
    return counts


def main() -> int:
    total = dict.fromkeys(KINDS, 0)
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "minis2s",
                                              "*.py"))):
        with open(path, encoding="utf-8") as fh:
            for kind, n in count(fh.read()).items():
                total[kind] += n
    print(f"{'total':<10} {sum(total.values()):>6}")
    for kind in KINDS:
        print(f"{kind:<10} {total[kind]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
