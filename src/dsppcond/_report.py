"""The names every command's parser and report read: the experiment families
and selectors, the recorded random algorithm, the report header and the
float format. Kept apart from :mod:`~dsppcond.experiments`, so that a
command other than ``experiment`` never loads the harness."""

from __future__ import annotations

import numpy as np

from ._version import __version__

RNG_ALGORITHM = "numpy-pcg64+standard_normal"

FAMILIES = ("example1", "example2")

DEFAULT_SELECTORS = ("full", "x", "y", "z")


def report_meta(family: str | None = None, s: int | None = None, seed=None) -> dict:
    """Reproducibility header recorded in every report."""
    meta = {
        "generator": "dsppcond",
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "numpy": np.__version__,
    }
    if family is not None:
        meta["family"] = family
    if s is not None:
        meta["s"] = int(s)
    if seed is not None:
        meta["seed"] = int(seed)
    return meta


def format_float(v: float) -> str:
    """Scientific notation with 10 significant digits."""
    return f"{v:.9E}"
