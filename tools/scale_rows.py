"""Wall time and peak RSS of the README's "Large cases" commands.

Run from the repository root:

    python3 tools/scale_rows.py [--root DIR] [--rows 1,3,4] [--workdir DIR]

It first writes the two problem files the commands read, through the
package of ``DIR/src`` (default: this repository): an example1 q = 20 file
(l = 1600) and an example2 q = 16 file (l = 2080), both from seed 3. Then it
runs each command of the table, ``python -m dsppcond.cli`` with
``DIR/src`` on ``PYTHONPATH``, one after another, and prints one line per
command: its wall time and the peak RSS of its largest process, from
``os.wait4`` (Linux reports the largest of a process and its reaped
descendants, so a pool worker's peak counts). ``--rows`` picks rows of the
table by their 1-based number; rows 6 and 7 take 10 to 15 s and 250 MB to
0.7 GB. The files and outputs go to ``--workdir`` (default: a temporary
directory, removed at the end).

Standard library only, so the measuring process adds no numpy pages.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STRUCTURE = "A=symmetric,D=toeplitz,E=toeplitz"

WRITE_FILES = """
import json, sys
from dsppcond import problem_to_dict
from dsppcond.experiments import gen_example1, gen_example2
for path, blocks in ((sys.argv[1], gen_example1(20, 3)), (sys.argv[2], gen_example2(16, 3)[0])):
    with open(path, "w") as fh:
        json.dump(problem_to_dict(blocks), fh)
"""


def commands(ex1: str, ex2: str) -> list[list[str]]:
    """The table's commands, in its order."""
    bounds = ["--cn", "all", "--upper-bounds"]
    return [
        ["analyze", "--input", ex1, *bounds],
        ["analyze", "--input", ex1, *bounds, "--selector", "y"],
        ["structured", "--input", ex2, "--structure", STRUCTURE, *bounds],
        ["experiment", "example2", "--q", "16", "--selector", "full"],
        ["experiment", "example1", "--q", "32", "--selector", "y,z"],
        ["experiment", "example1", "--q", "48", "--selector", "y"],
        ["experiment", "example2", "--q", "24", "--selector", "full"],
    ]


def measure(argv: list[str], env: dict, out: str) -> tuple[float, float, int]:
    """``(wall seconds, peak RSS in MB, exit status)`` of one command."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "dsppcond.cli", *argv, "--out", out], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, usage.ru_maxrss / 1024, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=ROOT, help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--rows", default=None, help="comma list of 1-based table rows (default: all)")
    parser.add_argument("--workdir", default=None, help="where files and outputs go (default: a temporary one)")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(args.root), "src"))
    with tempfile.TemporaryDirectory() as tmp:
        work = args.workdir or tmp
        os.makedirs(work, exist_ok=True)
        ex1, ex2 = os.path.join(work, "example1_q20.json"), os.path.join(work, "example2_q16.json")
        subprocess.run([sys.executable, "-c", WRITE_FILES, ex1, ex2], env=env, check=True)
        table = commands(ex1, ex2)
        picked = range(1, len(table) + 1) if args.rows is None else [int(r) for r in args.rows.split(",")]
        failed = 0
        for row in picked:
            wall, peak, code = measure(table[row - 1], env, os.path.join(work, f"row{row}.out"))
            failed += code != 0
            shown = " ".join(a if not a.startswith(work) else os.path.basename(a) for a in table[row - 1])
            print(f"{row}  {shown}: {wall:.2f} s, {peak:.1f} MB" + (f", exit {code}" if code else ""),
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
