"""Alternating benchmark pairs: a commit against this checkout.

    python3 tools/pairs.py --ref REF --workload W [--pairs N]

Copies both sides into one temporary directory: REF with `git archive`,
and this checkout's files as they are on disk (tracked, or untracked and
not ignored). Then runs `perfbench/run.py --workload W --seed s` in each
copy for s = 1..N, one pair per seed, each run as long as
BENCHMARK.json's run_seconds, switching which side runs first from pair
to pair. Prints every run, each side's median and quartiles of every
end-to-end metric that BENCHMARK.json declares, and the pairs the
checkout wins on each (ties count for neither side). The temporary
directory is removed at the end, also when a run fails.

After the pairs, runs the tier-1 tests (ROADMAP.md's command) once in
the checkout's copy, for their wall time and pytest's summary line. A
finished campaign also writes BENCH_<workload>.json at the checkout root
(see `campaign_record`): both commits, every run in the order it ran,
each side's perfbench environment, the summary printed here, and the
tier-1 run, which gates nothing.

The two copies differ in their code alone: run from the checkout itself,
the parent's own code read slower than from an archive of it. Both
sides also start from the same bytecode state: each gets a fresh
PYTHONPYCACHEPREFIX directory for the whole campaign, which the
benchmark's child processes inherit, and imports minis2s.cli once
before pair 1 with bytecode writing on (PYTHONDONTWRITEBYTECODE is
dropped), so no run compiles the toolkit and no stale __pycache__ in
either tree is read.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def side_env(root: str, pycache: str) -> dict:
    """The environment of one side's runs: its own bytecode cache,
    filled once by importing the toolkit from the copy at root."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", "import minis2s.cli"], cwd=root,
                   env=dict(env, PYTHONPATH=os.path.join(root, "src")),
                   check=True)
    return env


def copy_checkout(dst: str) -> None:
    """This checkout's tracked files, and its untracked ones that are not
    ignored, as they are on disk, copied into dst."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True).stdout
    for name in filter(None, os.fsdecode(listed).split("\0")):
        # a tracked file deleted from the disk is still listed
        if os.path.isfile(os.path.join(ROOT, name)):
            os.makedirs(os.path.dirname(os.path.join(dst, name)),
                        exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(dst, name))


def bench(root: str, env: dict, workload: str, seed: int,
          seconds: int) -> tuple:
    """One benchmark run in the copy at root: its result object, whose
    metrics map each name to {"value": ..., "unit": ...}, and the
    environment perfbench reported (Python, numpy, BLAS, nproc)."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {root} (seed {seed}) exited "
                           f"{run.returncode}: {run.stderr.strip()}")
    tag = "perfbench env "
    bench_env = json.loads(next(x for x in lines
                                if x.startswith(tag))[len(tag):])
    # the copies are no git checkouts, and the seed is kept per run
    for key in ("commit", "seed"):
        bench_env.pop(key, None)
    return json.loads(lines[-1]), bench_env


def tier1(root: str, env: dict) -> dict:
    """One tier-1 run in the copy at root: its wall time in seconds, its
    exit code and the last line pytest printed, its summary."""
    t0 = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"], cwd=root,
        env=dict(env, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True)
    wall = time.perf_counter() - t0
    return {"wall_s": round(wall, 1), "returncode": run.returncode,
            "summary": summary_line(run.stdout)}


def summary_line(stdout: str) -> str:
    """pytest's closing summary, its last non-empty line, without the
    rule of = signs around it."""
    lines = [x for x in stdout.splitlines() if x.strip()]
    return lines[-1].strip("= ") if lines else ""


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def campaign_record(workload: str, commits: dict, dirty: bool,
                    run_seconds, envs: dict, runs: list,
                    metrics: dict, tier1_run: dict) -> dict:
    """The BENCH_<workload>.json object of a campaign. commits maps "ref"
    and "this" to commit ids, dirty says whether the checkout differed
    from its commit, envs maps each side to its perfbench environment,
    runs lists every run as {"order", "seed", "side", "correct",
    "metrics"} in the order they ran, and metrics maps each end-to-end
    name to "lower" or "higher", the better direction. The summary
    gives per metric each side's median and quartiles and the pairs
    (same seed) each side wins; ties count for neither. tier1_run is
    the tier-1 run of the checkout's copy (`tier1`), kept as it is."""
    summary = {}
    for name, better in metrics.items():
        by_side = {side: {r["seed"]: r["metrics"][name] for r in runs
                          if r["side"] == side} for side in ("ref", "this")}
        seeds = sorted(set(by_side["ref"]) & set(by_side["this"]))
        sign = 1 if better == "higher" else -1
        diffs = [sign * (by_side["this"][s] - by_side["ref"][s])
                 for s in seeds]
        summary[name] = {"better": better,
                         "pairs": len(seeds),
                         "wins": {"ref": sum(d < 0 for d in diffs),
                                  "this": sum(d > 0 for d in diffs)}}
        for side, values in by_side.items():
            q1, q2, q3 = quartiles(list(values.values()))
            summary[name][side] = {"median": q2, "q1": q1, "q3": q3}
    return {"workload": workload, "commits": commits, "dirty": dirty,
            "run_seconds": run_seconds, "env": envs, "runs": runs,
            "summary": summary, "tier1": tier1_run}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="commit to compare")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

    commits = {"ref": git("rev-parse", f"{args.ref}^{{commit}}"),
               "this": git("rev-parse", "HEAD")}
    # the files a campaign writes do not count as a change
    dirty = bool(git("status", "--porcelain", "--", ".", ":!BENCH_*.json"))
    tmp = tempfile.mkdtemp(prefix="pairs-")
    roots = {side: os.path.join(tmp, side) for side in ("ref", "this")}
    runs, bench_envs = [], {}
    try:
        os.mkdir(roots["ref"])
        archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", roots["ref"]], input=archive,
                       check=True)
        copy_checkout(roots["this"])
        envs = {side: side_env(root, os.path.join(tmp, f"pycache-{side}"))
                for side, root in roots.items()}
        for seed in range(1, args.pairs + 1):
            order = ["ref", "this"] if seed % 2 else ["this", "ref"]
            for side in order:
                result, bench_envs[side] = bench(
                    roots[side], envs[side], args.workload, seed,
                    spec["run_seconds"])
                values = {k: result["metrics"][k]["value"] for k in metrics}
                runs.append({"order": len(runs) + 1, "seed": seed,
                             "side": side, "correct": result["correct"],
                             "metrics": values})
                print(f"seed {seed} {side:4} correct={result['correct']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                      flush=True)
        tier1_run = tier1(roots["this"], envs["this"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = campaign_record(args.workload, commits, dirty,
                             spec["run_seconds"], bench_envs, runs, metrics,
                             tier1_run)
    path = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\n{args.workload}: {args.ref} (ref) against this checkout, "
          f"{args.pairs} pairs; median [q1, q3]")
    for name, m in record["summary"].items():
        r, t = m["ref"], m["this"]
        print(f"{name:24} ref {r['median']:.4g} [{r['q1']:.4g}, "
              f"{r['q3']:.4g}]  this {t['median']:.4g} [{t['q1']:.4g}, "
              f"{t['q3']:.4g}]  this better in {m['wins']['this']}/"
              f"{args.pairs}")
    print(f"tier-1 in the checkout's copy: {tier1_run['summary']} "
          f"(exit {tier1_run['returncode']}, wall {tier1_run['wall_s']} s)")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
