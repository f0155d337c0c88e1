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
          seconds: int) -> dict:
    """One benchmark run in the copy at root: its result object,
    whose metrics map each name to {"value": ..., "unit": ...}."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {root} (seed {seed}) exited "
                           f"{run.returncode}: {run.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


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

    tmp = tempfile.mkdtemp(prefix="pairs-")
    roots = {side: os.path.join(tmp, side) for side in ("ref", "this")}
    runs = {"ref": [], "this": []}
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
                result = bench(roots[side], envs[side], args.workload, seed,
                               spec["run_seconds"])
                values = {k: result["metrics"][k]["value"] for k in metrics}
                runs[side].append(values)
                print(f"seed {seed} {side:4} correct={result['correct']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                      flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"\n{args.workload}: {args.ref} (ref) against this checkout, "
          f"{args.pairs} pairs; median [q1, q3]")
    for name, better in metrics.items():
        ref = [r[name] for r in runs["ref"]]
        this = [r[name] for r in runs["this"]]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(ref, this))
        (r1, r2, r3), (t1, t2, t3) = quartiles(ref), quartiles(this)
        print(f"{name:24} ref {r2:.4g} [{r1:.4g}, {r3:.4g}]  "
              f"this {t2:.4g} [{t1:.4g}, {t3:.4g}]  "
              f"this better in {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
