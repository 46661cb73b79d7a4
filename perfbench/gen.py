"""Seeded input generation for the benchmark workloads.

Run as ``python perfbench/gen.py WORKLOAD SEED SIZE OUTDIR`` with ``src`` on
``PYTHONPATH``. It writes the workload's input files into OUTDIR and prints
one JSON object with the work counts computed from those inputs (not
measured) and a record of the numerical environment. Generation runs in its
own process so that neither its time nor its memory reaches the timed
commands or the measuring process.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys

import numpy as np
import scipy

from dsppcond import DsppBlocks, EilsProblem, problem_to_dict, selector
from dsppcond.eils import eils_to_dict
from dsppcond.experiments import gen_example1, gen_example2

import workloads


def dense_dspp(rng: np.random.Generator, n: int, m: int, p: int) -> DsppBlocks:
    """All blocks standard normal, so every weight entry is nonzero."""
    return DsppBlocks(
        A=rng.standard_normal((n, n)),
        B=rng.standard_normal((m, n)),
        C=rng.standard_normal((p, m)),
        D=rng.standard_normal((m, m)),
        E=rng.standard_normal((p, p)),
        b=rng.standard_normal(n + m + p),
    )


def dense_eils(rng: np.random.Generator, n: int, m: int, p: int) -> EilsProblem:
    """A well-posed dense EILS problem.

    Plain Gaussian draws with a sizeable negative signature part are usually
    indefinite on the constraint null space. Two negative rows scaled down to
    3% keep M^T J M positive definite there, as in the acceptance tests.
    """
    n2 = 2
    mmat = rng.standard_normal((n, m))
    mmat[n - n2 :, :] *= 0.03
    return EilsProblem(
        M=mmat, C=rng.standard_normal((p, m)), n1=n - n2, n2=n2,
        b=rng.standard_normal(n), d=rng.standard_normal(p),
    )


def _numerator_counts(problems) -> tuple[int, int]:
    """Entries and nonzero-weight entries of the max-norm numerator loop,
    k (mn + pm) and k (nnz B + nnz C), summed over (problem, selector) pairs."""
    entries = useful = 0
    for blocks, kind in problems:
        k = selector(kind, blocks.n, blocks.m, blocks.p).k
        entries += k * (blocks.B.size + blocks.C.size)
        useful += k * (np.count_nonzero(blocks.B) + np.count_nonzero(blocks.C))
    return entries, useful


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def generate(workload: str, seed: int, size: str, outdir: str) -> dict:
    """Write the inputs of one workload and return its computed work counts."""
    dims = workloads.SIZES[size][workload]
    map_entries = 0
    if workload == "sweep":
        # example1's B and C do not depend on the seed; the CLI draws b itself.
        problems = [
            (gen_example1(q, 0), kind)
            for q in workloads.q_values(dims["q"])
            for kind in workloads.SWEEP_SELECTORS
        ]
    elif workload == "structured":
        blocks, _ = gen_example2(dims["q"], seed)
        _write_json(os.path.join(outdir, "problem.json"), problem_to_dict(blocks))
        problems = [(blocks, "full")]
        n, m, p = blocks.n, blocks.m, blocks.p
        map_entries = blocks.l * (n * n + n * m + m * p + m * m + p * p)
    elif workload == "dense":
        rng = np.random.Generator(np.random.PCG64(seed))
        blocks = dense_dspp(rng, *dims["dspp"])
        _write_json(os.path.join(outdir, "problem.json"), problem_to_dict(blocks))
        _write_json(os.path.join(outdir, "eils.json"), eils_to_dict(dense_eils(rng, *dims["eils"])))
        problems = [(blocks, "full")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    entries, useful = _numerator_counts(problems)
    return {
        "partial_cn.inf_numerator.entries": entries,
        "partial_cn.inf_numerator.useful_frac": useful / entries,
        "structured.map_entries": map_entries,
    }


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit("usage: gen.py WORKLOAD SEED SIZE OUTDIR")
    name, seed_arg, size_arg, out = sys.argv[1:]
    counts = generate(name, int(seed_arg), size_arg, out)
    print(json.dumps({"counts": counts, "env": environment()}))
