"""The problem-file reader ``cli._load_json``.

It returns ``json.load``'s document with each rectangular list of numeric
rows replaced by its float64 array, bit for bit; it reads or fails wherever
the whole-document ``json.load`` reader did; and it reads within the memory
budget the README states. Input and output paths that cannot be opened keep
to the documented exit codes.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dspp
from dsppcond import cli
from dsppcond.cli import MALFORMED_EXIT, MISSING_FILE_EXIT, USAGE_EXIT, main
from dsppcond.dspp import problem_from_dict, problem_to_dict
from dsppcond.errors import MalformedProblem

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
WHITESPACE = st.text(alphabet=" \t\n\r", max_size=3)
LEAVES = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
          | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4))
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# Lists of lists, some of them rectangular and numeric.
GRIDS = st.lists(st.lists(LEAVES | st.floats(allow_nan=False), max_size=3), max_size=3)

VALID = {
    "n": 1, "m": 1, "p": 1,
    "A": [[2.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.5]], "E": [[1.0]],
    "b": [1.0, 0.0, 1.0],
}


def document(**changes) -> str:
    return json.dumps({**VALID, **changes})


def is_rows(value) -> bool:
    """Whether a decoded JSON value is a nonempty rectangular list of lists
    of numbers (int or float, not bool)."""
    return (
        isinstance(value, list) and len(value) > 0
        and all(isinstance(row, list) for row in value)
        and len({len(row) for row in value}) == 1
        and all(type(v) in (int, float) for row in value for v in row)
    )


def json_load_reader(path):
    """The reader the CLI had before it read by rows: ``json.load`` whole."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedProblem(f"invalid JSON in {path}: {exc}") from exc


def assert_is_json_load_by_rows(doc, text):
    want = json.loads(text)
    if not isinstance(want, dict):
        assert type(doc) is type(want) and doc == want
        return
    assert list(doc) == list(want)
    for key, value in want.items():
        if is_rows(value):
            expected = np.asarray(value, dtype=float)
            assert isinstance(doc[key], np.ndarray) and doc[key].dtype == np.float64
            assert doc[key].shape == expected.shape and doc[key].tobytes() == expected.tobytes()
        else:  # json.dumps tells -0.0 from 0.0 and 1 from 1.0, and NaN is NaN
            assert json.dumps(doc[key]) == json.dumps(value)


@st.composite
def number_tokens(draw, finite):
    """A JSON number written as a float, an int or an exponent form; unless
    ``finite``, also one past the float range or a constant json reads as a
    float (NaN, Infinity)."""
    form = draw(st.sampled_from(("float", "int", "exponent", "exponent", "constant")))
    if form == "constant" and not finite:
        return draw(st.sampled_from(("NaN", "Infinity", "-Infinity")))
    if form == "float":
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if form == "int":
        return str(draw(st.integers(-10**20, 10**20)))
    mantissa = str(draw(st.integers(-999, 999)))
    if draw(st.booleans()):
        mantissa += "." + draw(st.text(alphabet="0123456789", min_size=1, max_size=17))
    marker = draw(st.sampled_from(("e", "E", "e+", "E-", "e-")))
    return f"{mantissa}{marker}{draw(st.integers(0, 300 if finite else 330))}"


@st.composite
def matrix_texts(draw, rows, cols, finite):
    def numbers():
        return ",".join(draw(WHITESPACE) + draw(number_tokens(finite)) + draw(WHITESPACE)
                        for _ in range(cols))

    row_texts = (draw(WHITESPACE) + "[" + numbers() + "]" + draw(WHITESPACE) for _ in range(rows))
    return "[" + ",".join(row_texts) + "]"


@st.composite
def problem_texts(draw):
    """A problem document with n, m, p >= 1, any JSON whitespace, extra keys
    holding strings, objects or nested lists, and keys that may repeat (the
    last one wins, as in json)."""
    n, m, p = (draw(st.integers(1, 4)) for _ in range(3))
    finite = draw(st.booleans())
    shapes = {"A": (n, n), "B": (m, n), "C": (p, m), "D": (m, m), "E": (p, p), "L": (2, n + m + p)}
    pairs = [(key, draw(matrix_texts(*shape, finite))) for key, shape in shapes.items()]
    pairs += [("n", str(n)), ("m", str(m)), ("p", str(p))]
    pairs.append(("b", "[" + ",".join(draw(number_tokens(finite)) for _ in range(n + m + p)) + "]"))
    extras = draw(st.lists(
        st.tuples(st.sampled_from(("note", "meta", "A", "b", "E")), JSON_VALUES | GRIDS), max_size=3,
    ))
    pairs += [(key, json.dumps(value, indent=draw(st.sampled_from((None, 1, "\t")))))
              for key, value in extras]
    body = ",".join(
        draw(WHITESPACE) + json.dumps(key) + draw(WHITESPACE) + ":" + draw(WHITESPACE) + value
        + draw(WHITESPACE)
        for key, value in draw(st.permutations(pairs))
    )
    return draw(WHITESPACE) + "{" + body + "}" + draw(WHITESPACE)


@SETTINGS
@given(text=problem_texts())
def test_reader_is_json_load_with_numeric_rows_as_arrays(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "reader.json"
    path.write_bytes(text.encode("utf-8"))
    doc = cli._load_json(str(path))
    assert_is_json_load_by_rows(doc, text)
    try:
        want = problem_from_dict(json.loads(text))
    except MalformedProblem:
        with pytest.raises(MalformedProblem):
            problem_from_dict(doc)
        return
    got = problem_from_dict(doc)
    for name in "ABCDEb":
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


MALFORMED = {
    "ragged rows": (document(n=2, A=[[2.0, 1.0], [1.0]]), MALFORMED_EXIT),
    "string in a row": (document(A=[[2.0], ["x"]]), MALFORMED_EXIT),
    "numeric string in a row": (document(A=[["2.0"]]), MALFORMED_EXIT),
    "null in a row": (document(A=[[None]]), MALFORMED_EXIT),
    "bool in a row": (document(A=[[True]]), MALFORMED_EXIT),
    "numeric string in b": (document(b=[1.0, "0", 1.0]), MALFORMED_EXIT),
    "bool in b": (document(b=[1.0, False, 1.0]), MALFORMED_EXIT),
    "3-deep nesting": (document(A=[[[2.0]]]), MALFORMED_EXIT),
    "empty rows": (document(A=[[], []]), MALFORMED_EXIT),
    "trailing data": (document() + " {}", MALFORMED_EXIT),
    "trailing comma in rows": (document().replace('"A": [[2.0]]', '"A": [[2.0],]'), MALFORMED_EXIT),
    "top-level array": (json.dumps([[1.0, 2.0]]), MALFORMED_EXIT),
    "empty object": ("{}", MALFORMED_EXIT),
    "truncated": (document()[:40], MALFORMED_EXIT),
    "truncated in a row": (document()[:document().index("[[2.0]]") + 4], MALFORMED_EXIT),
    "byte order mark": ("\ufeff" + document(), MALFORMED_EXIT),
    "string size": (document(n="1"), MALFORMED_EXIT),
    "bool size": (document(m=True), MALFORMED_EXIT),
    "fractional size": (document(p=1.9), MALFORMED_EXIT),
    "float size": (document(n=1.0), MALFORMED_EXIT),
    "null size": (document(n=None), MALFORMED_EXIT),
}


def outcome(capsys, path):
    code = main(["analyze", "--input", path])
    out = capsys.readouterr().out
    return code, json.loads(out)["error"] if code else None


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_files_fail_as_with_json_load(capsys, tmp_path, monkeypatch, case):
    text, code = MALFORMED[case]
    read = cli._load_json
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    got = outcome(capsys, str(path))
    monkeypatch.setattr(cli, "_load_json", json_load_reader)
    assert outcome(capsys, str(path)) == got
    assert got[0] == code
    if code:
        assert got[1]["type"] == "MalformedProblem"
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return
    assert_is_json_load_by_rows(read(str(path)), text)


EILS_VALID = {
    "M": [[2.0, 0.0], [0.0, 2.0], [0.0, 1.0]], "C": [[1.0, 0.0]], "n1": 2, "n2": 1,
    "b": [1.0, 1.0, 1.0], "d": [1.0],
}


@pytest.mark.parametrize("argv, valid, keys", [
    (["analyze"], VALID, "ABCDEb"),
    (["analyze", "--selector", "custom"], {**VALID, "L": [[1.0, 0.0, 0.0]]}, "L"),
    (["eils"], EILS_VALID, "MCbd"),
], ids=["problem", "custom_L", "eils"])
def test_non_number_entries_exit_4(capsys, tmp_path, monkeypatch, argv, valid, keys):
    """A string (even a numeric one), a boolean or null among the entries of
    any data value exits 4 with the key named, by the row reader and by
    json.load alike; the document without it exits 0."""
    path = tmp_path / "doc.json"

    def outcomes(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        got = []
        for reader in (cli._load_json, json_load_reader):
            monkeypatch.setattr(cli, "_load_json", reader)
            code = main([*argv, "--input", str(path)])
            out = capsys.readouterr().out
            got.append((code, json.loads(out)["error"] if code else None))
        return got

    assert [code for code, _ in outcomes(valid)] == [0, 0]
    for key in keys:
        for entry in ("2.0", True, None):
            value = json.loads(json.dumps(valid[key]))
            if isinstance(value[0], list):
                value[0][0] = entry
            else:
                value[0] = entry
            for code, record in outcomes({**valid, key: value}):
                assert code == MALFORMED_EXIT and record["type"] == "MalformedProblem"
                assert record["message"].startswith(key), record["message"]


@pytest.mark.parametrize("key, value", [("n1", "2"), ("n1", 2.0), ("n2", True)])
def test_eils_sizes_must_be_integers(capsys, tmp_path, key, value):
    """An EILS size that is not a JSON integer exits 4 naming the key; the
    valid document exits 0."""
    path = tmp_path / "doc.json"
    for doc, want in ((EILS_VALID, 0), ({**EILS_VALID, key: value}, MALFORMED_EXIT)):
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["eils", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == want
    record = json.loads(out)["error"]
    assert record["type"] == "MalformedProblem" and record["message"].startswith(key)


def test_non_utf8_input_exits_4(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"n": 1}')
    code = main(["analyze", "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == MALFORMED_EXIT
    record = json.loads(out)["error"]
    assert record["type"] == "MalformedProblem" and record["exit_code"] == MALFORMED_EXIT
    assert "UTF-8" in record["message"] and "usage error" not in err


def test_unreadable_input_exits_3(capsys, tmp_path, monkeypatch):
    code = main(["eils", "--input", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)["error"]
    assert code == record["exit_code"] == MISSING_FILE_EXIT
    assert record["type"] == "IsADirectoryError"

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", denied, raising=False)
    code = main(["analyze", "--input", str(tmp_path / "prob.json")])
    assert code == MISSING_FILE_EXIT
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "PermissionError"


def test_os_errors_outside_the_input_are_not_exit_3(monkeypatch):
    def failing(args):
        raise PermissionError(13, "Permission denied", "worker")

    monkeypatch.setitem(cli._COMMANDS, "experiment", failing)
    with pytest.raises(PermissionError):
        main(["experiment", "example1", "--q", "4"])


def test_unwritable_out_exits_2(capsys, tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(problem_to_dict(random_dspp(np.random.default_rng(5), 2, 2, 2))))
    out_path = tmp_path / "missing" / "report.json"
    code = main(["analyze", "--input", str(path), "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert code == USAGE_EXIT and out == "" and not out_path.exists()
    assert err.count("\n") == 1 and err.startswith("dsppcond: usage error: cannot write --out")
    # A failure record that cannot go to --out goes to stdout.
    code = main(["analyze", "--input", str(tmp_path / "nope.json"), "--out", str(out_path)])
    assert code == MISSING_FILE_EXIT
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "FileNotFoundError"


def traced(read, path):
    """What ``read(path)`` leaves held, and its traced peak, in bytes."""
    tracemalloc.start()
    try:
        doc = read(path)  # alive while the memory is read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_reading_memory_budget(tmp_path):
    # The benchmark's dense size. The document holds 8 B per number, a
    # Python float (24 B more) per entry of the vector b, which stays a
    # list, and the keys; reading peaks at the larger of the file's bytes
    # with its decoded text, and the text with the arrays and the largest
    # block's rows beside its stacked copy, plus 1 MiB.
    blocks = random_dspp(np.random.default_rng(3), 300, 200, 100)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(problem_to_dict(blocks)), encoding="utf-8")
    size = path.stat().st_size
    mats = (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E)
    numbers = sum(a.size for a in mats) + blocks.l
    held_budget = 8 * numbers + 24 * blocks.l + 16 * 1024
    peak_budget = max(2 * size, size + 8 * numbers + 16 * blocks.A.size) + 2**20
    held, peak = traced(cli._load_json, str(path))
    assert held <= held_budget and peak <= peak_budget
    # The whole-document json.load reader exceeds both budgets.
    held, peak = traced(json_load_reader, str(path))
    assert held > 3 * held_budget and peak > peak_budget
