"""Run the benchmark alternately on two source trees and record the pair.

    python3 .github/scripts/bench_pair.py LABEL BASE_TREE HEAD_TREE [--seed 1] [--out DIR]

Each tree is a checkout of this repository, for instance the parent commit
made with ``git worktree add`` or ``git clone``.  The workloads, the run
length ``S`` and the end-to-end metrics are those of the head tree's
``BENCHMARK.json``.  For each of ``PAIRS`` pair indexes ``i`` and every
workload, ``python3 TREE/bench/run.py --workload W --seed SEED+i --seconds
S`` runs once on each tree, the base first on even ``i`` and the head first
on odd ``i``, so that a drift of the machine's load does not favour one
tree.  A run reports the end-to-end metrics and its count of failed checks.

``DIR/BENCH_<LABEL>.json`` (``DIR`` defaults to the current directory)
holds every run's values and seed, the median and quartiles of each
metric per tree, the number of pairs in which the head was better, each
tree's git revision, ``nproc`` and the numpy version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

PAIRS = 10  # a gain must show in at least nine of ten pairs


def revision(tree):
    """``git rev-parse HEAD`` of ``tree``, with ``+dirty`` for local changes."""
    def git(*args):
        return subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def run_once(tree, workload, seed, seconds):
    """One ``bench/run.py`` run: its seed, failed and attempted checks and metrics."""
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "failed": report["failed"],
        "attempted": report["attempted"],
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
    }


def summary(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("base", help="source tree of the baseline")
    parser.add_argument("head", help="source tree of the change")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    with open(os.path.join(args.head, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    lower = {m["name"]: m["better"] == "lower" for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    trees = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    seeds = [args.seed + i for i in range(PAIRS)]
    runs = {w: {"base": [], "head": []} for w in workloads}
    for i, seed in enumerate(seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            for name in order:
                run = run_once(trees[name], workload, seed, seconds)
                runs[workload][name].append(run)
                print(f"pair {i} {workload} {name}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()),
                      file=sys.stderr)

    results = {}
    for workload, by_tree in runs.items():
        metrics = {}
        for metric, is_lower in lower.items():
            base = [r["metrics"][metric] for r in by_tree["base"]]
            head = [r["metrics"][metric] for r in by_tree["head"]]
            better = sum((h < b) if is_lower else (h > b) for b, h in zip(base, head))
            metrics[metric] = {
                "better": "lower" if is_lower else "higher",
                "base": summary(base),
                "head": summary(head),
                "median_ratio": float(np.median(head) / np.median(base)),
                "pairs_head_better": better,
            }
        results[workload] = {
            "failed": {name: sum(r["failed"] for r in by_tree[name]) for name in trees},
            "metrics": metrics,
            "runs": by_tree,
        }

    record = {
        "label": args.label,
        "command": f"python3 TREE/bench/run.py --workload W --seed S --seconds {seconds}",
        "pairs": PAIRS,
        "seeds": seeds,
        "revisions": {name: revision(path) for name, path in trees.items()},
        "nproc": os.cpu_count(),
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "results": results,
    }
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{workload:13s} {metric:12s} base {m['base']['median']:.6g} "
                  f"head {m['head']['median']:.6g} ratio {m['median_ratio']:.3f} "
                  f"head better in {m['pairs_head_better']}/{PAIRS}")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
