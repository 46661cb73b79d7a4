"""Shared test helpers: seeded random problems and acceptance reporting."""

import tracemalloc

import numpy as np

from dsppcond import DsppBlocks

# Filled by the acceptance tests; echoed after the run so every criterion
# shows one PASS/FAIL line even under output capture.
ACCEPTANCE_LINES = []


def random_dspp(rng, n, m, p, scale_b=1.0):
    """A dense random system with all blocks standard normal.

    Gaussian blocks make the assembled matrix nonsingular with probability
    one, so draws at a fixed seed are safe to use as test instances.
    """
    return DsppBlocks(
        A=rng.standard_normal((n, n)),
        B=rng.standard_normal((m, n)),
        C=rng.standard_normal((p, m)),
        D=rng.standard_normal((m, m)),
        E=rng.standard_normal((p, p)),
        b=scale_b * rng.standard_normal(n + m + p),
    )


def random_sizes(rng, lo=2, hi=8):
    return tuple(int(v) for v in rng.integers(lo, hi + 1, size=3))


def traced_peak(fn, *args):
    """The peak of the memory tracemalloc traces while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rel_err(got, want):
    got, want = float(got), float(want)
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
