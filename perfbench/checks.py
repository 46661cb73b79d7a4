"""Output checks: parse each command's report, test its invariants and compare
it with the reference values in ``refs.json``.

Values are compared with a relative tolerance, never byte for byte, so a
correct evaluation route that changes the last bits still passes:

* ``RTOL`` (1e-6) for condition numbers, bounds, weights, eps and solution
  norms. Routes that agree to rounding differ by about 1e-13 here.
* ``MEASURED_RTOL`` (1e-4) for the measured forward errors r_k, r_m, r_c of
  the sweep. They difference two solves; swapping the LU solve for a QR solve
  moves them by up to 8e-7 relative.

Stdlib only: the measuring process must stay small (see ``run.py``).
"""

from __future__ import annotations

import csv
import json
import math

import workloads

RTOL = 1e-6
MEASURED_RTOL = 1e-4
# Slack for value <= bound checks, the CLI's own dominance slack.
DOMINANCE_RTOL = 1e-9
# Constraint residual acceptance of the eils solve, as in the program.
CONSTRAINT_RTOL = 1e-8

MEASURED_COLUMNS = ("r_k", "r_m", "r_c")
CN_FLAVORS = ("ncn", "mcn", "ccn")


class CheckFailed(Exception):
    """An output is missing, malformed, non-finite or wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _finite(values: dict) -> dict:
    for key, value in values.items():
        _require(isinstance(value, float) and math.isfinite(value), f"{key} = {value!r} is not finite")
    return values


def _dominated(value: float, bound: float, label: str) -> None:
    _require(value <= bound + DOMINANCE_RTOL * max(abs(value), abs(bound)),
             f"{label}: {value!r} exceeds {bound!r}")


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sweep_values(path: str, size: str) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    want = [(kind, q) for q in workloads.q_values(workloads.SIZES[size]["sweep"]["q"])
            for kind in workloads.SWEEP_SELECTORS]
    got = [(row["selector"], int(row["q"])) for row in rows]
    _require(got == want, f"sweep rows {got} differ from {want}")
    values = {}
    for row in rows:
        label = f"{row['selector']}.q{row['q']}"
        for col, text in row.items():
            if col not in ("selector", "q"):
                values[f"{label}.{col}"] = float(text)
        for pred in ("K2", "Km", "Kc"):
            _dominated(float(row[pred]), float(row[pred + "U"]), f"{label} {pred}")
    return _finite(values)


def _analyze_values(path: str) -> dict:
    doc = _load_json(path)
    values = {f"weights.{k}": float(v) for k, v in doc["weights"].items()}
    for section in ("cn", "upper_bounds", "structured_cn"):
        for flavor, value in doc.get(section, {}).items():
            values[f"{section}.{flavor}"] = float(value)
    _finite(values)
    for flavor in CN_FLAVORS:
        _require(f"cn.{flavor}" in values, f"missing cn.{flavor}")
        _dominated(values[f"cn.{flavor}"], values[f"upper_bounds.{flavor}"], f"{flavor} vs bound")
        if f"structured_cn.{flavor}" in values:
            _dominated(values[f"structured_cn.{flavor}"], values[f"cn.{flavor}"],
                       f"structured {flavor} vs unstructured")
    return values


def _matvec(mat, vec) -> list[float]:
    return [math.fsum(a * b for a, b in zip(row, vec)) for row in mat]


def _norm(vec) -> float:
    return math.sqrt(math.fsum(v * v for v in vec))


def _eils_values(path: str, input_path: str) -> dict:
    doc = _load_json(path)
    prob = _load_json(input_path)
    y, x, resid = doc["y"], doc["x"], doc["residual"]
    values = {f"cn.{k}": float(v) for k, v in doc["cn"].items()}
    for key in ("y", "x", "lambda", "residual"):
        values[f"norm.{key}"] = _norm(doc[key])
    _finite(values)
    _require(sorted(doc["cn"]) == sorted(CN_FLAVORS), f"eils cn keys {sorted(doc['cn'])}")

    # residual = b - M y, entry by entry.
    my = _matvec(prob["M"], y)
    scale = _matvec([[abs(v) for v in row] for row in prob["M"]], [abs(v) for v in y])
    for i, (r, b, v, s) in enumerate(zip(resid, prob["b"], my, scale)):
        _require(abs(r - (b - v)) <= 1e-10 * (abs(b) + s), f"residual[{i}] disagrees with b - M y")
    # x = J (b - M y), up to the accuracy of the saddle point solve.
    n1 = prob["n1"]
    jr = [r if i < n1 else -r for i, r in enumerate(resid)]
    _require(_norm([a - b for a, b in zip(x, jr)]) <= 1e-6 * _norm(jr), "x differs from J (b - M y)")
    # C y = d, with the program's own acceptance.
    cy = _matvec(prob["C"], y)
    c_inf = max(math.fsum(abs(v) for v in row) for row in prob["C"])
    bound = CONSTRAINT_RTOL * (c_inf * _norm(y) + _norm(prob["d"]))
    _require(_norm([a - b for a, b in zip(cy, prob["d"])]) <= bound, "C y = d is violated")
    return values


def extract(command: dict, size: str) -> dict:
    """Parse one command's report into named values and check its invariants."""
    try:
        if command["name"] == "experiment":
            return _sweep_values(command["out"], size)
        if command["name"] in ("analyze", "structured"):
            return _analyze_values(command["out"])
        if command["name"] == "eils":
            return _eils_values(command["out"], command["argv"][command["argv"].index("--input") + 1])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"{command['name']}: unreadable report: {exc!r}") from exc
    raise ValueError(f"no check for command {command['name']!r}")


def compare(values: dict, reference: dict) -> None:
    """Require the same names as the reference and values within tolerance."""
    _require(sorted(values) == sorted(reference),
             f"value names differ from the reference: {sorted(set(values) ^ set(reference))}")
    for key, want in reference.items():
        got = values[key]
        tol = MEASURED_RTOL if key.rsplit(".", 1)[-1] in MEASURED_COLUMNS else RTOL
        _require(abs(got - want) <= tol * max(abs(got), abs(want)),
                 f"{key} = {got!r}, reference {want!r} (rtol {tol:g})")


def load_refs(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(command: dict, size: str, reference: dict | None) -> None:
    """Raise :class:`CheckFailed` unless the command's report is correct."""
    values = extract(command, size)
    _require(reference is not None, f"no reference values for {command['name']}")
    compare(values, reference)
