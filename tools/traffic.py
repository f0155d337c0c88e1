"""Traffic: the functions and lines of src/minis2s that the benchmark's
workloads never run.

    python3 tools/traffic.py

Runs each workload of perfbench (train-asr, decode-asr and tts) as a
benchmark run does, at seed SEED, in a temporary directory, in this
process under `sys.settrace`: one set-up, with `gen-data` run in process
as a traced benchmark run runs it, and one execution of the timed part.
Every command goes through `minis2s.cli.main` with the arguments the
benchmark gives it.

Then prints each function of src/minis2s that never ran (a nested
function only when the one around it ran), and each line that never ran
outside those functions, leaving out the lines of `raise` statements.
Exits 1 if a set-up or an execution fails.

Tracing is per line: a line counts as run once any part of it runs, so
the untaken arm of a one-line conditional (`a if c else b`) or of a
lambda reads as run. How often a branch written on one line is taken
needs a count of its own, such as a wrapper that counts calls by case.
"""

import ast
import contextlib
import glob
import os
import shutil
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "minis2s")

SEED = 1   # the seed of the first pair of a `make pairs` campaign


class Tracer:
    """While active, records the lines run in, and the code objects called
    from, the source files under a directory."""

    def __init__(self, root: str):
        self.root = os.path.realpath(root) + os.sep
        self.lines = set()    # (path, line)
        self.calls = set()    # (path, first line of the code object)
        self._paths = {}      # code object -> its file if under root, else None

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code not in self._paths:
            path = os.path.realpath(code.co_filename)
            self._paths[code] = path if path.startswith(self.root) else None
        path = self._paths[code]
        if path is None:
            return None
        self.calls.add((path, code.co_firstlineno))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((self._paths[frame.f_code], frame.f_lineno))
        return self._line

    def __enter__(self):
        self._before = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._before)


def _code_lines(code: types.CodeType):
    """Every line that holds bytecode of code or of a code object in it."""
    for _, _, line in code.co_lines():
        if line:    # a module's code starts with an instruction at line 0
            yield line
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_lines(const)


def _functions(node, prefix=""):
    """(qualified name, node) of every function under node, in source
    order."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def never_run(path: str, tracer: Tracer):
    """([(line, qualified name)] of the functions of the file at path
    that never ran, [line] of the other lines that never ran), raise
    statements left out."""
    path = os.path.realpath(path)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    functions, skipped = [], set()
    for name, node in _functions(tree):
        # a decorated function's code object starts at its first decorator
        first = min([d.lineno for d in node.decorator_list] + [node.lineno])
        if first in skipped or (path, first) in tracer.calls:
            continue
        functions.append((node.lineno, name))
        skipped.update(range(first, node.end_lineno + 1))
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    ran = {line for p, line in tracer.lines if p == path}
    lines = set(_code_lines(compile(source, path, "exec")))
    return functions, sorted(lines - ran - skipped)


def main() -> int:
    tracer = Tracer(PACKAGE)
    work = tempfile.mkdtemp(prefix="traffic-")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    try:
        # the package is imported under the tracer, so its module-level
        # lines count as run
        with tracer, contextlib.redirect_stdout(sys.stderr):
            from probe import Probe
            from speed import Speed
            from workloads import WORKLOADS
            for name, workload in WORKLOADS.items():
                wl = workload(SEED, Speed())
                wl.gen_in_process = True
                setup = os.path.join(work, name, "setup")
                wl.setup(setup)
                res = wl.execute(setup, os.path.join(work, name, "exec"),
                                 Probe())
                if res.failed or res.problems:
                    print(f"{name}: " + "; ".join(res.problems),
                          file=sys.stderr)
                    return 1
    except RuntimeError as exc:   # a set-up command failed
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    n_functions = n_lines = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        rel = os.path.relpath(path, ROOT)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        functions, lines = never_run(path, tracer)
        for line, name in functions:
            print(f"{rel}:{line} function {name}")
        for line in lines:
            print(f"{rel}:{line} line {text[line - 1].strip()}")
        n_functions += len(functions)
        n_lines += len(lines)
    print(f"\n{n_functions} functions and {n_lines} other lines never ran "
          "(raise statements left out)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
