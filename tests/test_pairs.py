"""tools/pairs.py's BENCH_<workload>.json record, from two fake runs: its
schema, the summary's medians and quartiles, the wins per side, and the
tier-1 run it keeps."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_campaign_record_schema():
    pairs = _load()
    env = {"python": "3.x", "numpy": "2.x", "blas": "openblas 0.3",
           "nproc": 2, "threads": {"OPENBLAS_NUM_THREADS": "1"}}
    runs = [{"order": 1, "seed": 1, "side": "ref", "correct": True,
             "metrics": {"job1_scaled_ms_per_op": 4.0, "ok_share": 1.0}},
            {"order": 2, "seed": 1, "side": "this", "correct": True,
             "metrics": {"job1_scaled_ms_per_op": 3.5, "ok_share": 1.0}}]
    metrics = {"job1_scaled_ms_per_op": "lower", "ok_share": "higher"}
    tier1 = {"wall_s": 131.5, "returncode": 0,
             "summary": "1029 passed, 1 warning in 130.20s (0:02:10)"}
    record = pairs.campaign_record(
        "tts", {"ref": "a" * 40, "this": "b" * 40}, True, 10,
        {"ref": env, "this": env}, runs, metrics, tier1)
    assert json.loads(json.dumps(record)) == record
    assert set(record) == {"workload", "commits", "dirty", "run_seconds",
                           "env", "runs", "summary", "tier1"}
    assert record["tier1"] == tier1
    assert record["workload"] == "tts" and record["dirty"] is True
    assert record["run_seconds"] == 10
    assert record["commits"] == {"ref": "a" * 40, "this": "b" * 40}
    assert record["env"]["this"]["nproc"] == 2
    assert [(r["order"], r["seed"], r["side"]) for r in record["runs"]] == [
        (1, 1, "ref"), (2, 1, "this")]
    assert set(record["summary"]) == set(metrics)
    job1 = record["summary"]["job1_scaled_ms_per_op"]
    assert job1["better"] == "lower" and job1["pairs"] == 1
    assert job1["ref"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert job1["this"] == {"median": 3.5, "q1": 3.5, "q3": 3.5}
    assert job1["wins"] == {"ref": 0, "this": 1}
    assert record["summary"]["ok_share"]["wins"] == {"ref": 0, "this": 0}


def test_summary_line_is_pytests_last_line():
    pairs = _load()
    out = ("..........                                   [100%]\n"
           "=== 1029 passed, 1 warning in 130.20s (0:02:10) ===\n\n")
    assert pairs.summary_line(out) == ("1029 passed, 1 warning in 130.20s "
                                       "(0:02:10)")
    assert pairs.summary_line("") == ""
