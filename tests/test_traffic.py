"""tools/traffic.py's report, on a planted module: the lines and
functions a call leaves unrun are listed, raise statements are not."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "traffic.py"

PLANTED = '''\
def used(x):
    if x > 0:
        return 1
    y = x * 2
    if y > 100:
        raise ValueError(
            "never")
    return y


def unused():
    return 3
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traffic_reports_a_planted_never_run_line(tmp_path):
    traffic = _load("traffic", TOOL)
    path = tmp_path / "planted.py"
    path.write_text(PLANTED, encoding="utf-8")
    with traffic.Tracer(str(tmp_path)) as tracer:
        assert _load("planted", path).used(-1) == -2
    functions, lines = traffic.never_run(str(path), tracer)
    assert functions == [(11, "unused")]
    assert lines == [3]
