"""Paired benchmark runs: a base commit against the working tree.

Run from the repository root:

    python3 tools/bench_pair.py --out BENCH_N.json [--base HEAD] [--pairs 10] [--seed 3]

The base commit is exported with ``git archive``, and the working tree's
tracked and untracked, not ignored, files are copied, into two sibling
directories with names of equal length in one temporary directory
(``TMPDIR`` chooses where), so the repository's worktree list and index are
left alone. Both sides run from paths of the same length: the sweep's peak
RSS moves by up to 6 MB with the length of its output path, through glibc's
dynamic mmap threshold. Each pair runs ``perfbench/run.py --trace 0`` once on
each side for every workload in ``BENCHMARK.json``, for its ``run_seconds``;
which side runs first alternates from pair to pair. The output file holds
every run (its metrics, failure count and per-pass samples), and per
workload and end-to-end metric: each side's values, median and quartiles,
and how many pairs the working tree won, lost and tied in the metric's
``better`` direction.

Two verdicts follow the benchmark's rules. ``gain`` holds when the working
tree wins at least nine tenths of the pairs and its median is better than
the base median by more than the base's interquartile range. ``within_bound``
holds when the working tree's median is no worse than the base median by
more than the metric's relative ``bound``.

Standard library only, like ``perfbench/run.py``, so the measuring process
adds no numpy pages to the children's peak RSS.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_commit(commit: str, dest: str) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def export_worktree(dest: str) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its result line plus the per-pass samples."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_pair: {workload} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "samples": info["samples"],
        "env": info["env"],
    }


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(spec: dict, runs: list[dict]) -> dict:
    """Per-metric sides, win count and verdicts over the pairs of one workload."""
    name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
    base = [r["base"]["metrics"][name] for r in runs]
    change = [r["change"]["metrics"][name] for r in runs]
    # gain > 0 means the working tree is better.
    gains = [sign * (b - c) for b, c in zip(base, change)]
    sb, sc = summary(base), summary(change)
    median_gain = sign * (sb["median"] - sc["median"])
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "base": sb,
        "change": sc,
        "wins": sum(g > 0 for g in gains),
        "losses": sum(g < 0 for g in gains),
        "ties": sum(g == 0 for g in gains),
        "median_rel_change": (sc["median"] - sb["median"]) / sb["median"],
        "gain": (10 * sum(g > 0 for g in gains) >= 9 * len(gains)
                 and median_gain > sb["q3"] - sb["q1"]),
        "within_bound": -median_gain <= spec["bound"] * abs(sb["median"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two values)")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    base = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    runs = {w: [] for w in workloads}
    env = None
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        sides = {"base": os.path.join(tmp, "old"), "change": os.path.join(tmp, "new")}
        export_commit(base, sides["base"])
        export_worktree(sides["change"])
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for workload in workloads:
                record = {"pair": pair, "first": order[0]}
                for side in order:
                    result = run_bench(sides[side], workload, args.seed, seconds)
                    env = result.pop("env")
                    record[side] = result
                    print(f"bench_pair: pair {pair} {workload} {side}: "
                          + ", ".join(f"{k}={v:.4g}" for k, v in result["metrics"].items())
                          + f", failed={result['failed']}", file=sys.stderr)
                runs[workload].append(record)

    doc = {
        "base": base,
        "change": {"head": head, "uncommitted_changes": dirty},
        "seed": args.seed,
        "run_seconds": seconds,
        "pairs": args.pairs,
        "env": env,
        "workloads": {
            w: {
                "failed": {side: sum(r[side]["failed"] for r in runs[w])
                           for side in ("base", "change")},
                "metrics": {m["name"]: compare(m, runs[w]) for m in bench["end_to_end"]},
                "runs": runs[w],
            }
            for w in workloads
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
