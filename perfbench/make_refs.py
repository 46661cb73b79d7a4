"""Regenerate ``refs.json``, the reference values the output checks compare to.

    python3 perfbench/make_refs.py [--size full|tiny] [--workload NAME]

Runs each workload's commands with the current sources on the inputs of
seeds 0 .. REF_SEEDS-1, checks their invariants, and stores the values that
``checks.extract`` reads. References are meant to be fixed at one commit and
kept: later commits are checked against them, so regenerate only when the
workloads or their inputs change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import checks
import workloads
from run import REFS, WORK, generate_inputs, run_process


def reference_values(workload: str, seed: int, size: str) -> dict:
    workdir = os.path.join(WORK, "refs", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    indir, outdir = os.path.join(workdir, "in"), os.path.join(workdir, "out")
    os.makedirs(indir)
    os.makedirs(outdir)
    generate_inputs(workload, seed, size, indir)
    values = {}
    for command in workloads.commands(workload, seed, size, indir, outdir):
        log = os.path.join(outdir, command["name"] + ".log")
        code, _, _ = run_process([sys.executable, "-m", "dsppcond.cli", *command["argv"]], log)
        if code != 0:
            raise SystemExit(f"{workload} seed {seed}: {command['name']} exited with {code}")
        values[command["name"]] = checks.extract(command, size)
    return values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=tuple(workloads.SIZES), action="append")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args()
    refs = checks.load_refs(REFS) if os.path.exists(REFS) else {}
    for size in args.size or workloads.SIZES:
        for workload in args.workload or workloads.WORKLOADS:
            by_seed = {}
            for seed in range(workloads.REF_SEEDS):
                by_seed[str(seed)] = reference_values(workload, seed, size)
                print(f"{size} {workload} seed {seed}", file=sys.stderr)
            refs.setdefault(size, {})[workload] = by_seed
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
