"""Benchmark for minis2s.

    python3 perfbench/run.py --workload train-asr|decode-asr|tts \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program under test is the
checkout's own `src/minis2s`, which needs no build. perfbench/NOTES.md
describes the workloads, the metrics and how steady they are.

An untraced run (`--trace 0`) sets the workload up several times
(setup_s is the median), then executes its timed part at least twice
and for at least `--seconds` seconds; timings are medians over the
executions, scaled to a reference machine speed (speed.py). Every
execution must leave byte-identical outputs and identical work counts,
or the run is not correct.

A traced run (`--trace 1`) sets up once with spans around the calls
into every layer, executes once untraced and once traced, checks that
tracing changed no output and no count, and prints the per-layer
metrics of perfbench/layers.py.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Work files go to .perfbench-work/
in the checkout.
"""

import os
import sys

# One BLAS thread, set before numpy loads: the toolkit promises a single
# core. The workloads see only the files the benchmark writes, so no
# seed may leak in from the environment either.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("S2S_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# name -> (unit, better, bound); every workload reports every one.
# job1/job2 are the two timed jobs named by each workload's `jobs`,
# scaled to the reference machine speed (speed.py); so is setup_s.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "ok_share": ("share", "higher", 0.01),
    "job1_scaled_ms_per_op": ("ms/op", "lower", 0.2),
    "job2_scaled_ms_per_op": ("ms/op", "lower", 0.2),
}
MAX_EXECS = 50


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the name is optional
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "commit": commit, "seed": seed}


def check_declared(layers) -> None:
    """BENCHMARK.json must list exactly the metrics this code prints."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"], m["bound"])
           for m in spec["end_to_end"]]
    want = [(k, *v) for k, v in END_TO_END.items()]
    if e2e != want or spec["per_layer"] != layers.declared():
        raise SystemExit("perfbench: BENCHMARK.json does not list the metrics "
                         "perfbench prints")


class Run:
    """One benchmark run: set-ups, executions and their cross-checks."""

    def __init__(self, workload, probe, speed, work: str):
        self.wl = workload
        self.probe = probe
        self.speed = speed
        self.work = work
        self.problems = []
        self.failed = 0
        self.attempted = 0
        self.execs = []      # (Outcome, counts, wall seconds, dir)
        self.setup_digest = None

    def setup(self, name: str):
        """Set up into `name`; return its seconds and speed window."""
        from workloads import tree_digest
        d = os.path.join(self.work, name)
        self.probe.phase = "setup"
        mark = self.speed.mark()
        t0 = time.perf_counter()
        self.wl.setup(d)
        seconds = time.perf_counter() - t0 - self.speed.spent_since(mark)
        digest = tree_digest(d)
        if self.setup_digest is None:
            self.setup_digest = digest
        elif digest != self.setup_digest:
            self.problems.append(f"{name}: set-up outputs differ from "
                                 "the first set-up")
        self.probe.take_counts()
        return seconds, self.speed.window(mark)

    def execute(self, setup_name: str) -> None:
        d = os.path.join(self.work, f"exec-{len(self.execs) + 1}")
        self.probe.phase, self.probe.utt = "exec", ""
        mark = self.speed.mark()
        t0 = time.perf_counter()
        res = self.wl.execute(os.path.join(self.work, setup_name), d,
                              self.probe)
        wall = time.perf_counter() - t0 - self.speed.spent_since(mark)
        counts = self.probe.take_counts()
        if self.execs:
            self._compare(self.execs[0], res, counts, d)
        self.execs.append((res, counts, wall, d))
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems.extend(res.problems)

    def _compare(self, first, res, counts, d) -> None:
        res0, counts0, _, d0 = first
        for rel, (job, ops) in res.artifacts.items():
            a, b = os.path.join(d0, rel), os.path.join(d, rel)
            if rel not in res0.artifacts or not _same_bytes(a, b):
                res.fail(job, ops, f"{os.path.basename(d)}/{rel} is not "
                         "byte-identical to the first execution")
        if counts != counts0:
            self.problems.append(f"{os.path.basename(d)}: work counts "
                                 f"{counts} differ from {counts0}")

    def medians(self, field: str) -> dict:
        """Median over executions of each timing in Outcome.<field>."""
        per = [getattr(res, field) for res, *_ in self.execs]
        keys = sorted({k for d in per for k in d})
        return {k: statistics.median(d[k] for d in per if k in d)
                for k in keys}


def _same_bytes(a: str, b: str) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minis2s", "cli.py")):
        print(f"perfbench: no minis2s sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import minis2s
    if not os.path.abspath(minis2s.__file__).startswith(SRC + os.sep):
        print(f"perfbench: minis2s loaded from {minis2s.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    from probe import Probe
    from speed import Speed
    from workloads import WORKLOADS

    check_declared(layers)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    speed = Speed()
    wl = WORKLOADS[args.workload](args.seed, speed)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work_root = os.path.join(ROOT, ".perfbench-work")
    work = os.path.join(work_root, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment(args.seed)
    print(f"perfbench env {json.dumps(env)}")

    probe = Probe()
    probe.install(tracing=False)
    run = Run(wl, probe, speed, work)
    try:
        if args.trace:
            # spans time the program itself; no sampler interrupts it
            metrics, info = traced(run, probe, layers, work_root, tag)
        else:
            speed.start()
            metrics, info = untraced(run, args.seconds)
    except RuntimeError as exc:  # a set-up command failed: nothing to time
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        speed.stop()
        probe.uninstall()
    if probe.missing:
        info["missing_wrappers"] = list(probe.missing)

    for p in run.problems:
        print(f"perfbench problem: {p}", file=sys.stderr)
    result = {"correct": run.failed == 0 and not run.problems,
              "attempted": max(run.attempted, 1), "failed": run.failed,
              "metrics": metrics}
    info.update(env=env, workload=wl.name, problems=run.problems,
                result=result)
    with open(os.path.join(work_root, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)
    print(f"perfbench {wl.name} seed {args.seed}: "
          f"{json.dumps(info['workload_metrics'], sort_keys=True)}")
    print(json.dumps(result))
    return 0


def untraced(run: Run, seconds: float):
    # The cheap set-ups write a few hundred small files. On a shared host
    # that takes 15 ms or five times that, in spells of 10-20 s, so their
    # median draws on three points of the run: before, between and after
    # the executions.
    per_point = max(1, run.wl.setups // 3)
    setups = []

    def set_up(n: int) -> None:
        for _ in range(min(n, run.wl.setups - len(setups))):
            setups.append(run.setup(f"setup-{len(setups) + 1}"))

    set_up(per_point)
    t0 = time.perf_counter()
    while len(run.execs) < 2 or (time.perf_counter() - t0 < seconds
                                 and len(run.execs) < MAX_EXECS):
        run.execute("setup-1")
        if len(run.execs) == 1:
            set_up(per_point)
    set_up(run.wl.setups)
    scaled = run.medians("scaled")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(
            sec * run.speed.scale(window) for sec, window in setups),
        "peak_rss_mb": peak_mb,
        "ok_share": 1.0 - run.failed / max(run.attempted, 1),
        "job1_scaled_ms_per_op": scaled.get(run.wl.jobs[0], 0.0),
        "job2_scaled_ms_per_op": scaled.get(run.wl.jobs[1], 0.0),
    }
    metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]}
               for k in END_TO_END}
    samples = run.speed.samples
    info = {"workload_metrics": {
                **run.medians("times"), **run.execs[0][0].quality,
                **{f"{k}_scaled": v for k, v in scaled.items()}},
            "setup_s": [sec for sec, _ in setups],
            "exec_s": [wall for _, _, wall, _ in run.execs],
            "speed": {"kernel_median_s": statistics.median(samples),
                      "kernel_min_s": min(samples),
                      "kernel_max_s": max(samples),
                      "samples": len(samples),
                      "scale": run.speed.scale(samples)},
            "counts": run.execs[0][1]}
    return metrics, info


def traced(run: Run, probe, layers, work_root: str, tag: str):
    # The set-up is traced too (training and gen-data spans); both
    # executions then start from its outputs, the first untraced.
    probe.install(tracing=True)
    run.wl.gen_in_process = True
    run.setup("setup-traced")
    probe.install(tracing=False)
    run.execute("setup-traced")
    probe.install(tracing=True)
    run.execute("setup-traced")
    (res0, _, wall0, _), (res, counts, wall, _) = run.execs
    summary = layers.Summary(probe.stats, counts, res.attempted, res.frames,
                             res.output_tokens, wall - wall0, wall0,
                             len(probe.spans))
    probe.write_spans(os.path.join(work_root, f"{tag}.spans.tsv"))
    info = {"workload_metrics": {**res.times, **res.quality},
            "untraced_exec_s": wall0, "traced_exec_s": wall,
            "counts": counts}
    return layers.per_layer_metrics(summary), info


if __name__ == "__main__":
    sys.exit(main())
