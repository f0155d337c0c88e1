"""tools/code_lines.py on a temporary git repository: a commit's modules
are read from the commit, this checkout's from the disk, and the deltas
are this checkout's counts less the commit's."""

import importlib.util
import pathlib
import subprocess

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], cwd=root, check=True, capture_output=True)


def test_ref_mode_compares_a_commit_with_the_disk(tmp_path, capsys):
    pkg = tmp_path / "src" / "minis2s"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text('"""Doc."""\n\nx = 1\n')
    (pkg / "notes.txt").write_text("not a module\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "one")
    # on disk only: a module's new lines, and a new module
    (pkg / "a.py").write_text('"""Doc."""\n\nx = 1\n# why\ny = 2\n')
    (pkg / "b.py").write_text("z = 3\n")
    assert _load().main(["--ref", "HEAD"], root=str(tmp_path)) == 0
    rows = {line.split()[0]: [int(n) for n in line.split()[1:]]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"total": [3, 6, 3], "docstring": [1, 1, 0],
                    "comment": [0, 1, 1], "blank": [1, 1, 0],
                    "code": [1, 3, 2]}
