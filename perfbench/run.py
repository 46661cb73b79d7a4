"""Benchmark of the dsppcond command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep,structured,dense} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics. Each CLI command
(``python -m dsppcond.cli`` with ``src`` on ``PYTHONPATH``) runs as one
subprocess at a time, closed loop, with the default BLAS thread count:

* ``wall_s``: wall time of one pass over the workload's commands; the median
  over the passes of the run. Passes repeat until ``--seconds`` have passed,
  so a run measures at least that long.
* ``peak_rss_mb``: the largest peak RSS of any command in a pass, taken per
  child from ``os.wait4``; the median over the passes.
* ``setup_s``: cold start of the CLI (interpreter and ``dsppcond`` imports),
  the median of ``--version`` runs made before and after the passes.

``--trace 1`` runs each command once in-process through
``dsppcond.cli.main`` without tracing, then once more with the layer tracer
of ``spans.py`` and tracemalloc on, and reports per-layer metrics: calls,
self time and allocation peaks per function, the work counts computed from
the inputs by ``gen.py``, and the tracing overhead (traced minus untraced
wall time). The spans are written to ``perfbench/.work/<workload>/spans.jsonl``.

Every command's report is checked by ``checks.py``. A command that exits
non-zero, times out or fails its check counts as failed. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment and every sample.

The measuring process imports only the standard library. On Linux an exec'd
child's peak RSS includes the peak of the process that spawned it, so a
parent holding numpy arrays would raise every child's figure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFS = os.path.join(HERE, "refs.json")

COMMAND_TIMEOUT_S = 150
# Every command of a run must end this long after the run starts; a command
# still running then is killed and fails, so a run exits within 180 s.
RUN_BUDGET_S = 165
SETUP_SAMPLES = 8

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Traced functions reported per layer (the spans file has every public one).
TRACED_FUNCTIONS = (
    "cli.main",
    "dspp.problem_from_dict", "dspp.assemble", "dspp.factorize", "dspp.solve_dspp",
    "dspp.norm_fro_system",
    "linalg.induced_norm",
    "partial_cn.build_g", "partial_cn.build_j", "partial_cn.inv_rows", "partial_cn.ncn",
    "partial_cn.ncn_upper", "partial_cn.inf_cn", "partial_cn.inf_cn_upper",
    "structured.structured_ncn", "structured.structured_inf_cn",
    "eils.eils_from_dict", "eils.solve_eils", "eils.eils_cn",
    "experiments.gen_example1", "experiments.perturb", "experiments.apply_perturbation",
    "experiments.epsilons", "experiments.forward_errors", "experiments.run_experiment",
    "experiments.write_csv_report",
)
# The heavy ones, which also report their time including traced callees and
# their tracemalloc peak.
HEAVY_FUNCTIONS = (
    "cli.main", "dspp.problem_from_dict", "linalg.induced_norm", "partial_cn.build_g",
    "partial_cn.ncn", "partial_cn.ncn_upper", "partial_cn.inf_cn", "structured.structured_ncn",
    "structured.structured_inf_cn", "eils.eils_from_dict", "eils.eils_cn",
    "experiments.run_experiment",
)
WORK_COUNTS = {
    "partial_cn.inf_numerator.entries": "count",
    "partial_cn.inf_numerator.useful_frac": "ratio",
    "structured.map_entries": "count",
}
TRACE_TIMES = {"trace.wall_s": "s", "trace.overhead_s": "s"}


def per_layer_units() -> dict:
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in HEAVY_FUNCTIONS:
        units[f"{name}.total_s"] = "s"
        units[f"{name}.peak_alloc_mb"] = "MB"
    units.update(WORK_COUNTS)
    units.update(TRACE_TIMES)
    return units


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_process(args: list[str], log_path: str, timeout: float = COMMAND_TIMEOUT_S):
    """Run one child to completion, output to ``log_path``.

    Returns (exit code, or None when killed at the timeout; wall seconds;
    the child's own peak RSS in MB).
    """
    timed_out = threading.Event()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out.is_set() else proc.returncode
    return code, wall, usage.ru_maxrss / 1024.0


def _tail(path: str, lines: int = 5) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


class Run:
    """Counts attempted and failed operations and reports failures."""

    def __init__(self, workload: str, size: str, reference: dict | None, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.size = size
        self.reference = reference or {}
        self.attempted = 0
        self.failed = 0

    def time_left(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        print(f"perfbench: {self.workload}: {what} failed: {reason}", file=sys.stderr)

    def check(self, command: dict) -> None:
        try:
            checks.check(command, self.size, self.reference.get(command["name"]))
        except checks.CheckFailed as exc:
            self.fail(command["name"], str(exc))

    def cli(self, command: dict, logdir: str):
        """One CLI command as a subprocess; returns (wall, peak RSS)."""
        self.attempted += 1
        log = os.path.join(logdir, command["name"] + ".log")
        code, wall, rss = run_process(
            [sys.executable, "-m", "dsppcond.cli", *command["argv"]], log, self.time_left())
        if code != 0:
            why = "timed out" if code is None else f"exit code {code}"
            self.fail(command["name"], f"{why}\n{_tail(log)}")
        else:
            self.check(command)
        return wall, rss


def measure_setup(run: Run, logdir: str, count: int) -> list[float]:
    """Wall times of ``count`` successful ``--version`` runs."""
    log = os.path.join(logdir, "version.log")
    samples = []
    for _ in range(count):
        run.attempted += 1
        code, wall, _ = run_process(
            [sys.executable, "-m", "dsppcond.cli", "--version"], log, run.time_left())
        with open(log, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        if code != 0 or not text.startswith("dsppcond "):
            run.fail("--version", f"exit code {code}: {text.strip()[-200:]}")
        else:
            samples.append(wall)
    return samples


def timed_run(run: Run, commands: list[dict], seconds: float, logdir: str) -> tuple[dict, dict]:
    # One warm-up start (bytecode compilation, page cache), then half of the
    # set-up samples before the passes and half after, so that their median
    # covers the same stretch of machine time as the passes.
    if not measure_setup(run, logdir, 1):
        raise SystemExit("perfbench: the CLI does not start")
    setup = measure_setup(run, logdir, SETUP_SAMPLES // 2)
    walls, peaks = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < min(seconds, run.deadline - start):
        results = [run.cli(command, logdir) for command in commands]
        walls.append(sum(wall for wall, _ in results))
        peaks.append(max(rss for _, rss in results))
    setup += measure_setup(run, logdir, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setup),
    }
    samples = {"pass_wall_s": walls, "pass_peak_rss_mb": peaks, "setup_s": setup}
    return metrics, samples


def _timeout(signum, frame):
    raise TimeoutError("command timed out")


def _in_process(run: Run, cli_main, commands: list[dict], tracer=None) -> float:
    """Each command once through ``cli.main``; returns the summed wall time."""
    signal.signal(signal.SIGALRM, _timeout)
    total = 0.0
    for index, command in enumerate(commands):
        run.attempted += 1
        error = None
        signal.setitimer(signal.ITIMER_REAL, run.time_left())
        start = time.perf_counter()
        try:
            with tracer.request(index) if tracer else contextlib.nullcontext():
                code = cli_main(command["argv"])
        except Exception:  # a crash is a failed command; keep measuring the rest
            error = traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        total += time.perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            run.check(command)
        else:
            run.fail(command["name"], error)
    return total


def traced_run(run: Run, commands: list[dict], counts: dict, workdir: str) -> tuple[dict, dict]:
    import tracemalloc

    sys.path.insert(0, SRC)
    import dsppcond.cli
    import spans

    untraced = _in_process(run, dsppcond.cli.main, commands)
    tracer = spans.Tracer()
    tracer.install()
    tracemalloc.start()
    try:
        traced = _in_process(run, dsppcond.cli.main, commands, tracer)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    tracer.write(os.path.join(workdir, "spans.jsonl"))

    totals = tracer.totals()
    metrics = {}
    for name in TRACED_FUNCTIONS:
        agg = totals.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = agg["calls"]
        metrics[f"{name}.self_s"] = agg["self_s"]
    for name in HEAVY_FUNCTIONS:
        metrics[f"{name}.total_s"] = totals.get(name, {}).get("total_s", 0.0)
        metrics[f"{name}.peak_alloc_mb"] = totals.get(name, {}).get("peak_alloc_mb", 0.0)
    metrics.update(counts)
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced,
               "self_s_top": sorted(((v["self_s"], k) for k, v in totals.items()), reverse=True)[:5]}
    return metrics, samples


def generate_inputs(workload: str, seed: int, size: str, indir: str) -> dict:
    log = os.path.join(indir, "gen.log")
    code, _, _ = run_process(
        [sys.executable, os.path.join(HERE, "gen.py"), workload, str(seed), size, indir], log)
    if code != 0:
        raise SystemExit(f"perfbench: input generation failed:\n{_tail(log, 20)}")
    with open(log, encoding="utf-8") as fh:
        return json.loads(fh.read().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(workloads.SIZES),
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "dsppcond", "cli.py")):
        print(f"perfbench: no dsppcond sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    indir, outdir = os.path.join(workdir, "in"), os.path.join(workdir, "out")
    os.makedirs(indir)
    os.makedirs(outdir)

    input_seed = args.seed % workloads.REF_SEEDS
    generated = generate_inputs(args.workload, input_seed, args.size, indir)
    reference = checks.load_refs(REFS).get(args.size, {}).get(args.workload, {}).get(str(input_seed))
    commands = workloads.commands(args.workload, input_seed, args.size, indir, outdir)
    run = Run(args.workload, args.size, reference, deadline)
    if args.trace:
        metrics, samples = traced_run(run, commands, generated["counts"], workdir)
        units = per_layer_units()
    else:
        metrics, samples = timed_run(run, commands, args.seconds, outdir)
        units = END_TO_END

    print(json.dumps({"workload": args.workload, "seed": args.seed, "input_seed": input_seed,
                      "size": args.size, "env": generated["env"], "samples": samples}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
