"""Alternating benchmark pairs: a commit against this checkout.

    python3 tools/pairs.py --ref REF --workload W [--pairs N]

Checks REF out with `git worktree` in a temporary directory, then runs
`perfbench/run.py --workload W --seed s` there and in this checkout for
s = 1..N, one pair per seed, each run as long as BENCHMARK.json's
run_seconds, switching which side runs first from pair to pair. Prints
every run, each side's median and quartiles of every end-to-end metric
that BENCHMARK.json declares, and the pairs the checkout wins on each
(ties count for neither side). The worktree is removed at the end, also
when a run fails.
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


def bench(root: str, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in the checkout at root: its result object,
    whose metrics map each name to {"value": ..., "unit": ...}."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True)
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
    ref_root = os.path.join(tmp, "ref")
    subprocess.run(["git", "worktree", "add", "--detach", ref_root,
                    args.ref], cwd=ROOT, check=True, capture_output=True)
    runs = {"ref": [], "this": []}
    try:
        for seed in range(1, args.pairs + 1):
            order = ["ref", "this"] if seed % 2 else ["this", "ref"]
            for side in order:
                result = bench(ref_root if side == "ref" else ROOT,
                               args.workload, seed, spec["run_seconds"])
                values = {k: result["metrics"][k]["value"] for k in metrics}
                runs[side].append(values)
                print(f"seed {seed} {side:4} correct={result['correct']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                      flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", ref_root],
                       cwd=ROOT, check=False)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)

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
