"""Code lines: the lines of src/minis2s/*.py by kind.

    python3 tools/code_lines.py [--ref REF]

Prints, summed over the package's modules, the total line count (what
`make lines` counts) and its split into docstring, comment, blank and
code lines: for commit REF's committed modules (read with `git show
REF:path`; REF defaults to HEAD), for this checkout's modules as they
are on disk, and each delta, this checkout's count less REF's.

A docstring line lies in the docstring of a module, class or function,
as the AST places it; a comment line holds a comment token and no code
token; a blank line holds neither; every other line is code, so a line
of code with a trailing comment is code, and so is each line of a
multi-line string that is not a docstring.
"""

import argparse
import ast
import glob
import io
import os
import subprocess
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


def tally(texts) -> dict:
    """The total and each kind's line count over the modules' sources."""
    total = dict.fromkeys(KINDS, 0)
    for text in texts:
        for kind, n in count(text).items():
            total[kind] += n
    return {"total": sum(total.values()), **total}


def checkout_texts(root: str):
    """The sources of the checkout's modules, as they are on disk."""
    for path in sorted(glob.glob(os.path.join(root, "src", "minis2s",
                                              "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield fh.read()


def committed_texts(root: str, ref: str):
    """The sources of the modules commit ref holds."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, check=True,
                              capture_output=True, text=True).stdout

    for path in git("ls-tree", "--name-only", ref, "src/minis2s/").split():
        if path.endswith(".py"):
            yield git("show", f"{ref}:{path}")


def main(argv=None, root: str = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", default="HEAD",
                        help="commit to compare with (default: HEAD)")
    args = parser.parse_args(argv)
    this = tally(checkout_texts(root))
    ref = tally(committed_texts(root, args.ref))
    print(f"{'':<10} {'ref':>6} {'this':>6} {'delta':>6}   (ref {args.ref})")
    for kind, n in this.items():
        print(f"{kind:<10} {ref[kind]:>6} {n:>6} {n - ref[kind]:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
