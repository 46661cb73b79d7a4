"""Command-line interface.

Four commands: ``analyze`` (condition numbers of a problem file),
``experiment`` (seeded perturbation studies on the built-in families),
``eils`` (solve and condition an equality constrained indefinite least
squares file), and ``structured`` (structure-respecting condition numbers).

Exit codes: 0 success, 2 usage error (an unwritable --out among them,
found once the input is read and before any computing), 3
input file missing or unreadable, 4 malformed input, 5 numerical failure
(singular system, zero normalizer, violated dominance, a failing LAPACK
routine). Failures with code 3, 4 or 5 write a machine-readable JSON error
record to --out when given and writable, else to stdout.
Output is deterministic: the same command produces byte-identical bytes on
every run.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import re
import sys

import numpy as np

from ._report import DEFAULT_SELECTORS, FAMILIES, format_float, report_meta
from ._version import __version__
from .dspp import SELECTOR_KINDS, Selector, _check_numbers, norm_fro_system, problem_from_dict, selector
from .eils import default_scalar_weights, eils_cn, eils_from_dict, eils_inf_cn, eils_reduce, solve_eils
from .errors import (
    DimensionMismatch,
    DominanceViolation,
    IncompatibleZeroPattern,
    IndefiniteProblem,
    MalformedProblem,
    NotInSubspace,
    RankDeficientC,
    SingularMatrix,
    UncertifiedBound,
    ZeroMatrix,
    ZeroXi,
)
from .linalg import _blas_single_thread, _norm_upper
from .partial_cn import DOMINANCE_RTOL, PerturbationWeights, SolvedSystem, _ncn_upper, inf_cn, inf_cn_upper, ncn
from .structured import StructureTriple, structured_inf_cn, structured_ncn

USAGE_EXIT = 2
MISSING_FILE_EXIT = 3
MALFORMED_EXIT = 4
NUMERICAL_EXIT = 5

_MALFORMED_ERRORS = (
    MalformedProblem,
    NotInSubspace,
    RankDeficientC,
    IndefiniteProblem,
    DimensionMismatch,
)
_NUMERICAL_ERRORS = (
    np.linalg.LinAlgError,
    SingularMatrix,
    ZeroXi,
    IncompatibleZeroPattern,
    ZeroMatrix,
    DominanceViolation,
    UncertifiedBound,
)

CN_FLAVORS = ("ncn", "mcn", "ccn")


_STRUCTURE_ALIASES = {"toeplitz": "toeplitz_sym"}


def parse_q_spec(text: str) -> list[int]:
    """Parse '4', '4,6,8', or inclusive 'start:stop:step' (step optional)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {text!r}, expected start:stop or start:stop:step")
        try:
            start, stop = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ValueError(f"non-integer field in range {text!r}") from None
        if step < 1:
            raise ValueError("range step must be >= 1")
        if stop < start:
            raise ValueError("range stop must be >= start")
        values = list(range(start, stop + 1, step))
    else:
        try:
            values = [int(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"non-integer value in q list {text!r}") from None
    if not values:
        raise ValueError("empty q list")
    if any(q < 2 for q in values):
        raise ValueError("q values must be >= 2")
    return values


def _parse_choices(text: str, allowed, what: str) -> list[str]:
    """A nonempty comma list of values from ``allowed``, duplicates dropped."""
    chosen = []
    for tok in (tok.strip() for tok in text.split(",")):
        if tok and tok not in allowed:
            raise ValueError(f"unknown {what} {tok!r}, choose from {', '.join(allowed)}")
        if tok and tok not in chosen:
            chosen.append(tok)
    if not chosen:
        raise ValueError(f"empty {what} list")
    return chosen


def parse_cn_list(text: str) -> list[str]:
    """Parse the --cn flag: 'all' or a comma list drawn from ncn, mcn, ccn."""
    text = text.strip().lower()
    return list(CN_FLAVORS) if text == "all" else _parse_choices(text, CN_FLAVORS, "cn flavor")


def parse_structure_spec(text: str) -> StructureTriple:
    """Parse 'A=symmetric,D=toeplitz,E=toeplitz'; omitted blocks mean full."""
    kinds = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, kind = item.partition("=")
        if not sep:
            raise ValueError(f"bad structure item {item!r}, expected BLOCK=kind")
        key = key.strip().upper()
        kind = kind.strip().lower()
        kind = _STRUCTURE_ALIASES.get(kind, kind)
        if key not in ("A", "D", "E"):
            raise ValueError(f"structure applies to blocks A, D, E, not {key!r}")
        if key in kinds:
            raise ValueError(f"block {key} appears twice in the structure spec")
        kinds[key] = kind
    if not kinds:
        raise ValueError("empty structure spec")
    return StructureTriple(kinds.get("A", "full"), kinds.get("D", "full"), kinds.get("E", "full"))


def parse_selector_list(text: str) -> list[str]:
    return _parse_choices(text, DEFAULT_SELECTORS, "experiment selector")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsppcond",
        description="Partial condition numbers for double saddle point systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="condition numbers of one problem file")
    pa.add_argument("--input", required=True, help="problem JSON path")
    pa.add_argument("--selector", default="full", choices=SELECTOR_KINDS,
                    help="projected part of the solution (custom reads L from the input)")
    pa.add_argument("--cn", default="all", help="comma list of ncn,mcn,ccn or 'all'")
    pa.add_argument("--upper-bounds", action="store_true", dest="upper_bounds",
                    help="also report the cheap upper bounds")
    pa.add_argument("--structure", default=None,
                    help="optional A=kind,D=kind,E=kind to add structured values")
    pa.add_argument("--out", default=None, help="output path (default stdout)")
    pa.add_argument("--format", choices=("csv", "json"), default="json")

    pe = sub.add_parser("experiment", help="seeded perturbation study on a built-in family")
    pe.add_argument("family", choices=FAMILIES)
    pe.add_argument("--q", required=True, help="sizes: '4', '4,6,8', or inclusive '4:16:2'")
    pe.add_argument("--s", type=int, default=8, help="perturbation magnitude 10^-s (default 8)")
    pe.add_argument("--seed", type=int, default=42)
    pe.add_argument("--selector", default=",".join(DEFAULT_SELECTORS),
                    help="comma list from full,x,y,z (default all four)")
    pe.add_argument("--out", default=None, help="output path (default stdout)")
    pe.add_argument("--format", choices=("csv", "json"), default="csv")

    pl = sub.add_parser("eils", help="equality constrained indefinite least squares")
    pl.add_argument("--input", required=True, help="EILS JSON path")
    pl.add_argument("--selector", default="full", choices=SELECTOR_KINDS,
                    help="projection of [x; y; lambda] (custom reads L from the input)")
    pl.add_argument("--out", default=None, help="output path (default stdout, always JSON)")

    ps = sub.add_parser("structured", help="structure-respecting condition numbers")
    ps.add_argument("--input", required=True, help="problem JSON path")
    ps.add_argument("--selector", default="full", choices=SELECTOR_KINDS)
    ps.add_argument("--cn", default="all", help="comma list of ncn,mcn,ccn or 'all'")
    ps.add_argument("--upper-bounds", action="store_true", dest="upper_bounds",
                    help="also report the cheap upper bounds of the unstructured values")
    ps.add_argument("--structure", required=True, help="A=kind,D=kind,E=kind; kinds: "
                    "symmetric, toeplitz (symmetric), diagonal, full")
    ps.add_argument("--out", default=None, help="output path (default stdout)")
    ps.add_argument("--format", choices=("csv", "json"), default="json")

    return parser


class _UnreadableInput(Exception):
    """An OSError from opening or reading --input, its ``__cause__`` (exit 3)."""


class _NotRows(Exception):
    """The list at hand is not a rectangular list of numeric rows."""


_DECODER = json.JSONDecoder()
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's, as json.decoder skips it
# No JSON number (nor NaN or Infinity) holds one of these; every string,
# list, object, true, false and null does.
_NOT_IN_NUMBERS = '"[{ul'


def _load_json(path: str):
    """The JSON document at ``path`` as ``json.load`` reads it, except that
    each value of the top-level object that is a rectangular list of numeric
    rows is a float64 array, decoded one row at a time: no data block is
    ever held as Python floats. json's scanner decodes every token, so each
    number is exactly json's. Any other value is decoded whole, and a text
    the walk does not take (not an object, a syntax error) is handed to
    ``json.loads``, so it reads or fails exactly as it always did."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedProblem(f"invalid UTF-8 in {path}: {exc}") from exc
    except OSError as exc:
        raise _UnreadableInput from exc
    try:
        try:
            return _decode_object(text)
        except json.JSONDecodeError:
            return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedProblem(f"invalid JSON in {path}: {exc}") from exc


def _expect(text: str, pos: int, chars: str) -> tuple[str, int]:
    """The one of ``chars`` after the whitespace at ``pos``, and the index
    past it and the whitespace that follows."""
    pos = _WHITESPACE.match(text, pos).end()
    if pos == len(text) or text[pos] not in chars:
        raise json.JSONDecodeError(f"Expecting one of {chars!r}", text, pos)
    return text[pos], _WHITESPACE.match(text, pos + 1).end()


def _decode_object(text: str) -> dict:
    """The nonempty object ``text`` holds, key by key (see ``_load_json``)."""
    _, pos = _expect(text, 0, "{")
    doc = {}
    sep = ","
    while sep == ",":
        if not text.startswith('"', pos):
            raise json.JSONDecodeError("Expecting property name", text, pos)
        key, pos = _DECODER.raw_decode(text, pos)
        _, pos = _expect(text, pos, ":")
        try:
            doc[key], pos = _rows(text, pos)
        except _NotRows:
            doc[key], pos = _DECODER.raw_decode(text, pos)
        sep, pos = _expect(text, pos, ",}")
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)
    return doc


def _rows(text: str, pos: int) -> tuple[np.ndarray, int]:
    """The list of lists at ``pos`` as a float64 array, each row converted
    before the next is decoded, and the index past it. Raises ``_NotRows``
    unless it is nonempty, rectangular and its entries are JSON numbers."""
    if not text.startswith("[", pos):
        raise _NotRows
    pos = _WHITESPACE.match(text, pos + 1).end()
    rows = []
    sep = ","
    while sep == ",":
        if not text.startswith("[", pos):
            raise _NotRows
        start = pos
        row, pos = _DECODER.raw_decode(text, pos)
        if rows and len(row) != len(rows[0]):
            raise _NotRows
        for char in _NOT_IN_NUMBERS:
            if text.find(char, start + 1, pos) >= 0:
                raise _NotRows
        try:
            rows.append(np.asarray(row, dtype=float))
        except OverflowError:  # an integer past the float range
            raise _NotRows from None
        sep, pos = _expect(text, pos, ",]")
    return np.stack(rows), pos


def _selector_from(kind: str, doc, n: int, m: int, p: int) -> Selector:
    if kind != "custom":
        return selector(kind, n, m, p)
    if not isinstance(doc, dict) or "L" not in doc:
        raise MalformedProblem("selector 'custom' requires an 'L' matrix in the input document")
    _check_numbers(doc, "L")
    try:
        return selector("custom", n, m, p, custom_l=doc["L"])
    except (ValueError, TypeError, OverflowError) as exc:
        raise MalformedProblem(f"bad custom selector: {exc}") from exc


def _check_out(path: str | None) -> None:
    """Raise a usage error (ValueError) when ``--out`` cannot be written:
    its directory is missing or not writable, or the path is a directory or
    an unwritable file. Checked after the input is read and before the work,
    and nothing is opened, so an existing file keeps its contents until the
    report replaces it."""
    if path is None:
        return
    directory = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --out: {OSError(code, os.strerror(code), path)}")


def _check_dominance(value: float, upper: float, label: str) -> None:
    if value > upper + DOMINANCE_RTOL * max(abs(upper), abs(value)):
        raise DominanceViolation(f"{label} = {value!r} exceeds its bound {upper!r}")


def _analyze_payload(args, triple: StructureTriple | None) -> str:
    doc = _load_json(args.input)
    blocks = problem_from_dict(doc)
    sel = _selector_from(args.selector, doc, blocks.n, blocks.m, blocks.p)
    del doc
    flavors = parse_cn_list(args.cn)
    _check_out(args.out)
    # Every number but the weights is invariant under exact power-of-two scaling
    # of (S, b): take max |entry| into [1/2, 1), where psi^2 cannot over/underflow.
    data = (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)
    scale = math.frexp(max(max(a.max(), -a.min()) for a in data))[1]
    for a in data:
        np.ldexp(a, -scale, out=a)

    system = SolvedSystem.of(blocks, sel)
    psi = norm_fro_system(blocks)
    chi = float(np.linalg.norm(blocks.b, 2))

    values: dict[str, float] = {}
    uppers: dict[str, float] = {}
    structured_values: dict[str, float] = {}
    want_inf_upper = args.upper_bounds and ("mcn" in flavors or "ccn" in flavors)
    inf_uppers = inf_cn_upper(system) if want_inf_upper else None
    for flavor in flavors:
        if flavor == "ncn":
            values["ncn"] = ncn(system, psi, chi).value
            if args.upper_bounds:
                uppers["ncn"] = None  # computed last, below; the key keeps its place
            if triple is not None:
                weights = PerturbationWeights.scalar(psi, chi)
                structured_values["ncn"] = structured_ncn(system, weights, "ncn", triple).value
        else:
            values[flavor] = inf_cn(system, flavor).value
            if args.upper_bounds:
                uppers[flavor] = inf_uppers[0 if flavor == "mcn" else 1].value
            if triple is not None:
                structured_values[flavor] = structured_inf_cn(system, flavor, triple).value
    # The normwise bound comes last, once nothing holds the blocks: it reads only
    # L S^-1, the solution and the selector, and forms its Gram in L S^-1 itself.
    dims = {"n": blocks.n, "m": blocks.m, "p": blocks.p, "l": blocks.l, "k": sel.k}
    if "ncn" in uppers:
        rows, sol = system.rows, system.sol
        del system, blocks, data
        rows.flags.writeable = True
        uppers["ncn"] = _ncn_upper(_norm_upper(rows, overwrite=True)[0], sol, sel, psi, chi).value

    for flavor in flavors:
        if flavor in uppers:
            _check_dominance(values[flavor], uppers[flavor], flavor)
        if flavor in structured_values:
            _check_dominance(structured_values[flavor], values[flavor],
                             f"structured {flavor} (vs unstructured)")

    meta = report_meta()
    meta["command"] = args.command
    meta["selector"] = args.selector
    if triple is not None:
        meta["structure"] = ",".join(f"{k}={v}" for k, v in zip("ADE", triple))

    if args.format == "json":
        payload = {
            "meta": meta,
            "selector": args.selector,
            "dims": dims,
            "weights": {"psi": math.ldexp(psi, scale), "chi": math.ldexp(chi, scale)},
            "cn": values,
        }
        if args.upper_bounds:
            payload["upper_bounds"] = uppers
        if triple is not None:
            payload["structured_cn"] = structured_values
        return json.dumps(payload, indent=2) + "\n"

    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    buf.write("flavor,value\n")
    for flavor in flavors:
        buf.write(f"{flavor},{format_float(values[flavor])}\n")
        if flavor in uppers:
            buf.write(f"{flavor}_upper,{format_float(uppers[flavor])}\n")
        if flavor in structured_values:
            buf.write(f"{flavor}_structured,{format_float(structured_values[flavor])}\n")
    return buf.getvalue()


def _cmd_analyze(args) -> str:
    triple = parse_structure_spec(args.structure) if args.structure else None
    return _analyze_payload(args, triple)


def _cmd_structured(args) -> str:
    return _analyze_payload(args, parse_structure_spec(args.structure))


def _cmd_experiment(args) -> str:
    # The harness, and the multiprocessing it brings, load for this command only.
    from .experiments import run_experiment, write_csv_report, write_json_report

    q_list = parse_q_spec(args.q)
    selectors = parse_selector_list(args.selector)
    if args.s < 1:
        raise ValueError("--s must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    _check_out(args.out)
    rows = run_experiment(args.family, q_list, s=args.s, seed=args.seed, selectors=selectors)
    for row in rows:
        label = f"q={row.q} selector={row.selector}"
        _check_dominance(row.k2, row.k2_upper, f"K2 ({label})")
        _check_dominance(row.km, row.km_upper, f"Km ({label})")
        _check_dominance(row.kc, row.kc_upper, f"Kc ({label})")
    meta = report_meta(family=args.family, s=args.s, seed=args.seed)
    meta["selectors"] = ",".join(selectors)
    buf = io.StringIO()
    if args.format == "csv":
        write_csv_report(rows, buf, meta)
    else:
        write_json_report(rows, buf, meta)
    return buf.getvalue()


def _cmd_eils(args) -> str:
    doc = _load_json(args.input)
    prob = eils_from_dict(doc)
    blocks = eils_reduce(prob)
    sel = _selector_from(args.selector, doc, blocks.n, blocks.m, blocks.p)
    del doc
    _check_out(args.out)
    system = SolvedSystem.of(blocks, sel)
    esol = solve_eils(prob, system.sol)

    psi, chi = default_scalar_weights(prob)
    cn = {
        "ncn": eils_cn(system, psi, chi, "ncn", "two").value,
        "mcn": eils_inf_cn(system, "mcn").value,
        "ccn": eils_inf_cn(system, "ccn").value,
    }
    meta = report_meta()
    meta["command"] = "eils"
    meta["selector"] = args.selector
    payload = {
        "meta": meta,
        "selector": args.selector,
        "dims": {"n": prob.n, "m": prob.m, "p": prob.p, "n1": prob.n1, "n2": prob.n2},
        "y": esol.y.tolist(),
        "x": esol.x.tolist(),
        "lambda": esol.lam.tolist(),
        "residual": esol.residual.tolist(),
        "cn": cn,
    }
    return json.dumps(payload, indent=2) + "\n"


def _write_output(text: str, out_path: str | None) -> OSError | None:
    """Write ``text`` to ``out_path``, or to stdout when it is None; return
    the OSError that kept ``out_path`` from being written, if any."""
    if out_path is None:
        sys.stdout.write(text)
        return None
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        return exc
    return None


def _fail(exc: BaseException, code: int, out_path: str | None) -> int:
    record = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
    text = json.dumps(record, indent=2) + "\n"
    if _write_output(text, out_path) is not None:
        _write_output(text, None)
    print(f"dsppcond: error: {exc}", file=sys.stderr)
    return code


_COMMANDS = {
    "analyze": _cmd_analyze,
    "experiment": _cmd_experiment,
    "eils": _cmd_eils,
    "structured": _cmd_structured,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    out_path = getattr(args, "out", None)
    try:
        with _blas_single_thread():
            text = _COMMANDS[args.command](args)
    except _UnreadableInput as exc:
        return _fail(exc.__cause__, MISSING_FILE_EXIT, out_path)
    except _MALFORMED_ERRORS as exc:
        return _fail(exc, MALFORMED_EXIT, out_path)
    except _NUMERICAL_ERRORS as exc:  # before ValueError, which LinAlgError subclasses
        return _fail(exc, NUMERICAL_EXIT, out_path)
    except ValueError as exc:
        print(f"dsppcond: usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    error = _write_output(text, out_path)
    if error is not None:
        print(f"dsppcond: usage error: cannot write --out: {error}", file=sys.stderr)
        return USAGE_EXIT
    return 0


def entrypoint() -> None:
    sys.exit(main())


__all__ = [
    "build_parser",
    "main",
    "entrypoint",
    "parse_q_spec",
    "parse_cn_list",
    "parse_structure_spec",
    "parse_selector_list",
    "USAGE_EXIT",
    "MISSING_FILE_EXIT",
    "MALFORMED_EXIT",
    "NUMERICAL_EXIT",
]


if __name__ == "__main__":
    entrypoint()
