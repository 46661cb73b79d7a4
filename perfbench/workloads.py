"""Workload definitions: sizes and the CLI commands of one pass.

Why each workload exists:

* ``sweep``: the 28-row ``experiment example1 --q 4:16:2`` study. B and C are
  about 0.8% nonzero, so the max-norm numerator dominates, and it is the only
  workload that runs the ``experiments`` layer (generate, perturb, re-solve).
* ``structured``: structured numbers on example2 at q = 7 (l = 406), where the
  materialized k x s structured map dominates time and memory.
* ``dense``: ``analyze`` on a dense Gaussian system and ``eils`` on a dense
  EILS problem. Every weight entry is nonzero, so sparsity cannot help; full
  SVDs, JSON parsing and the ``eils`` layer carry the time.

Stdlib only: the measuring process must stay small (see ``run.py``).
"""

from __future__ import annotations

import os

WORKLOADS = ("sweep", "structured", "dense")

SWEEP_SELECTORS = ("full", "x", "y", "z")

STRUCTURE = "A=symmetric,D=toeplitz,E=toeplitz"

# "full" is what the benchmark measures; "tiny" keeps the smoke test fast.
SIZES = {
    "full": {
        "sweep": {"q": "4:16:2"},
        "structured": {"q": 7},
        "dense": {"dspp": (300, 200, 100), "eils": (300, 80, 20)},
    },
    "tiny": {
        "sweep": {"q": "3:4"},
        "structured": {"q": 2},
        "dense": {"dspp": (12, 8, 4), "eils": (12, 6, 3)},
    },
}

# Reference outputs are stored for this many input seeds; a workload seed s
# uses the inputs of seed s % REF_SEEDS.
REF_SEEDS = 16


def q_values(spec: str) -> list[int]:
    """The sizes of an inclusive ``start:stop[:step]`` q spec."""
    parts = [int(v) for v in spec.split(":")]
    step = parts[2] if len(parts) == 3 else 1
    return list(range(parts[0], parts[1] + 1, step))


def commands(workload: str, seed: int, size: str, indir: str, outdir: str) -> list[dict]:
    """The commands of one pass: CLI arguments, output path and format."""
    dims = SIZES[size][workload]

    def out(name: str) -> str:
        return os.path.join(outdir, name)

    if workload == "sweep":
        return [{
            "name": "experiment",
            "argv": ["experiment", "example1", "--q", dims["q"], "--seed", str(seed),
                     "--selector", ",".join(SWEEP_SELECTORS), "--out", out("sweep.csv")],
            "out": out("sweep.csv"),
        }]
    problem = os.path.join(indir, "problem.json")
    if workload == "structured":
        return [{
            "name": "structured",
            "argv": ["structured", "--input", problem, "--structure", STRUCTURE,
                     "--selector", "full", "--cn", "all", "--upper-bounds",
                     "--out", out("structured.json")],
            "out": out("structured.json"),
        }]
    if workload == "dense":
        return [
            {
                "name": "analyze",
                "argv": ["analyze", "--input", problem, "--selector", "full", "--cn", "all",
                         "--upper-bounds", "--out", out("analyze.json")],
                "out": out("analyze.json"),
            },
            {
                "name": "eils",
                "argv": ["eils", "--input", os.path.join(indir, "eils.json"),
                         "--selector", "full", "--out", out("eils.json")],
                "out": out("eils.json"),
            },
        ]
    raise ValueError(f"unknown workload {workload!r}")
