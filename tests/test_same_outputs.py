"""tools/same_outputs.py's report of a differing file, on planted pairs:
a checkpoint names the parameter that moved most, a feature file the
frame, and a hypothesis file whether its ids and texts agree and the
largest score difference."""

import importlib.util
import pathlib

import numpy as np

from minis2s.data import write_feature_file
from minis2s.training import save_checkpoint

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def _load():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differing_files_say_how_far_they_moved(tmp_path, capsys):
    tool = _load()
    params = {"a.weight": np.ones((2, 3)), "b.bias": np.zeros(4)}
    save_checkpoint(str(tmp_path / "ref.esc"), params)
    params["b.bias"][2] += 3e-13
    params["a.weight"][1, 0] -= 1e-14
    save_checkpoint(str(tmp_path / "this.esc"), params)
    save_checkpoint(str(tmp_path / "other.esc"), {"a.weight": np.ones(6)})
    feats = np.zeros((5, 2))
    write_feature_file(str(tmp_path / "ref.esf"), feats)
    feats[3, 1] = 0.5
    write_feature_file(str(tmp_path / "this.esf"), feats)
    (tmp_path / "ref.tsv").write_text("u0\ta b\t-1.5\nu0\tb\t-2.25\n")
    (tmp_path / "this.tsv").write_text("u0\ta b\t-1.25\nu0\tb\t-2.5\n")
    (tmp_path / "swap.tsv").write_text("u0\tb\t-2.25\nu0\ta b\t-1.5\n")

    def moved(ref, this):
        return tool.moved(str(tmp_path / ref), str(tmp_path / this))

    assert moved("ref.esc", "this.esc") == "max |diff| 3e-13 in b.bias"
    assert moved("ref.esc", "other.esc") == "parameter names or shapes differ"
    assert moved("ref.esf", "this.esf") == "max |diff| 0.5 at frame 3"
    assert moved("ref.tsv", "this.tsv") == ("ids and texts agree, "
                                            "max |score diff| 0.25")
    assert moved("ref.tsv", "swap.tsv") == "ids or texts differ"

    files = [(name, str(tmp_path / f"ref.{ext}"), str(tmp_path / f"{b}.{ext}"))
             for name, ext, b in (("x.esc", "esc", "this"),
                                  ("x.tsv", "tsv", "ref"),
                                  ("x.esf", "esf", "gone"))]
    assert tool.compare(files) == 2
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS  x.esc  (max |diff| 3e-13 in b.bias)", "same  x.tsv",
        "DIFFERS  x.esf"]
