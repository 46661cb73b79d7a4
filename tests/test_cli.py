"""Command-line interface: flag parsing, exit codes, payloads, determinism."""

import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from conftest import random_dspp
from dsppcond import cli, experiments, linalg, partial_cn
from dsppcond.cli import (
    DOMINANCE_RTOL,
    MALFORMED_EXIT,
    MISSING_FILE_EXIT,
    NUMERICAL_EXIT,
    USAGE_EXIT,
    main,
    parse_cn_list,
    parse_q_spec,
    parse_selector_list,
    parse_structure_spec,
)
from dsppcond.dspp import DsppBlocks, problem_to_dict
from dsppcond.errors import ZeroXi
from dsppcond.structured import StructureTriple


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_problem(path, blocks, extra=None):
    doc = problem_to_dict(blocks)
    if extra:
        doc.update(extra)
    return write_json(path, doc)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_q_spec():
    assert parse_q_spec("4") == [4]
    assert parse_q_spec("4,6,8") == [4, 6, 8]
    assert parse_q_spec("4:16:2") == [4, 6, 8, 10, 12, 14, 16]
    assert parse_q_spec("2:5") == [2, 3, 4, 5]
    for bad in ("1", "a", "5:4", "4:8:0", "", "4:6:2:1", "2,1"):
        with pytest.raises(ValueError):
            parse_q_spec(bad)


def test_parse_cn_list():
    assert parse_cn_list("all") == ["ncn", "mcn", "ccn"]
    assert parse_cn_list("mcn") == ["mcn"]
    assert parse_cn_list("ccn, ncn") == ["ccn", "ncn"]
    assert parse_cn_list("ncn,ncn") == ["ncn"]
    for bad in ("kappa", "", ","):
        with pytest.raises(ValueError):
            parse_cn_list(bad)


def test_parse_structure_spec():
    spec = parse_structure_spec("A=symmetric,D=toeplitz,E=toeplitz")
    assert spec == StructureTriple("symmetric", "toeplitz_sym", "toeplitz_sym")
    assert parse_structure_spec("D=diagonal") == StructureTriple("full", "diagonal", "full")
    for bad in ("B=symmetric", "A=circulant", "A=symmetric,A=full", "", "symmetric"):
        with pytest.raises(ValueError):
            parse_structure_spec(bad)


def test_parse_selector_list():
    assert parse_selector_list("full,x,y,z") == ["full", "x", "y", "z"]
    assert parse_selector_list("x, x ,y") == ["x", "y"]
    for bad in ("custom", "w", ""):
        with pytest.raises(ValueError):
            parse_selector_list(bad)


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, [])[0] == USAGE_EXIT
    assert run(capsys, ["analyze"])[0] == USAGE_EXIT
    assert run(capsys, ["experiment", "example1", "--q", "1"])[0] == USAGE_EXIT
    assert run(capsys, ["experiment", "example9", "--q", "4"])[0] == USAGE_EXIT
    code, _, err = run(capsys, ["experiment", "example1", "--q", "4", "--s", "0"])
    assert code == USAGE_EXIT and "usage error" in err
    assert run(capsys, ["experiment", "example1", "--q", "4", "--seed", "-1"])[0] == USAGE_EXIT
    assert run(capsys, ["--version"])[0] == 0


def test_missing_file_exit_3(capsys, tmp_path):
    code, out, err = run(capsys, ["analyze", "--input", str(tmp_path / "nope.json")])
    assert code == MISSING_FILE_EXIT
    record = json.loads(out)
    assert record["error"]["exit_code"] == MISSING_FILE_EXIT
    assert record["error"]["type"] == "FileNotFoundError"
    assert "error" in err


def test_error_record_goes_to_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["analyze", "--input", str(tmp_path / "nope.json"), "--out", str(out_file)],
    )
    assert code == MISSING_FILE_EXIT
    assert out == ""
    record = json.loads(out_file.read_text(encoding="utf-8"))
    assert record["error"]["exit_code"] == MISSING_FILE_EXIT


def test_malformed_inputs_exit_4(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(capsys, ["analyze", "--input", str(bad)])[0] == MALFORMED_EXIT
    missing_keys = write_json(tmp_path / "keys.json", {"n": 1})
    assert run(capsys, ["analyze", "--input", missing_keys])[0] == MALFORMED_EXIT
    rng = np.random.default_rng(60)
    blocks = random_dspp(rng, 2, 2, 2)
    path = write_problem(tmp_path / "asym.json", blocks)
    code, out, _ = run(capsys, [
        "structured", "--input", path, "--structure", "A=symmetric",
    ])
    assert code == MALFORMED_EXIT
    assert json.loads(out)["error"]["type"] == "NotInSubspace"


# A JSON integer past the float range: json reads it as a Python int, which
# no float64 holds.
_HUGE = 10**400


def _overflow_record(capsys, argv):
    code, out, err = run(capsys, argv)
    record = json.loads(out)["error"]
    assert code == MALFORMED_EXIT and record["exit_code"] == MALFORMED_EXIT
    assert record["type"] == "MalformedProblem" and "too large" in record["message"]
    assert err.startswith("dsppcond: error:")


def test_analyze_integer_past_float_range_exits_4(capsys, tmp_path):
    doc = problem_to_dict(random_dspp(np.random.default_rng(61), 2, 2, 2))
    doc["A"][0][1] = _HUGE
    _overflow_record(capsys, ["analyze", "--input", write_json(tmp_path / "p.json", doc)])


def test_structured_integer_past_float_range_exits_4(capsys, tmp_path):
    doc = problem_to_dict(random_dspp(np.random.default_rng(62), 2, 2, 2))
    doc["b"][3] = -_HUGE
    path = write_json(tmp_path / "p.json", doc)
    _overflow_record(capsys, ["structured", "--input", path, "--structure", "A=symmetric"])


def test_eils_integer_past_float_range_exits_4(capsys, tmp_path):
    doc = {"M": [[1.0], [_HUGE]], "C": [[1.0]], "n1": 1, "n2": 1, "b": [1.0, 3.0], "d": [2.0]}
    _overflow_record(capsys, ["eils", "--input", write_json(tmp_path / "e.json", doc)])


def test_custom_selector_integer_past_float_range_exits_4(capsys, tmp_path):
    blocks = random_dspp(np.random.default_rng(63), 2, 2, 2)
    path = write_problem(tmp_path / "p.json", blocks, {"L": [[_HUGE] + [0.0] * (blocks.l - 1)]})
    _overflow_record(capsys, ["analyze", "--input", path, "--selector", "custom"])


@pytest.mark.parametrize("target", ["missing/x.csv", "dir", "file/x.csv"])
def test_unwritable_out_exits_2_before_any_work(capsys, tmp_path, monkeypatch, target):
    # --out is checked once the arguments (and an input file) are read, so
    # an experiment that could not write its report never starts.
    def never(*args, **kwargs):
        pytest.fail("the experiment ran although --out cannot be written")

    monkeypatch.setattr(experiments, "run_experiment", never)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("", encoding="utf-8")
    out_path = tmp_path / target
    code, out, err = run(capsys, ["experiment", "example1", "--q", "4:12:2", "--seed", "3",
                                  "--out", str(out_path)])
    assert code == USAGE_EXIT and out == ""
    assert err.count("\n") == 1 and err.startswith("dsppcond: usage error: cannot write --out")
    assert str(out_path) in err


def test_out_is_checked_without_truncating_it(capsys, tmp_path, monkeypatch):
    # The check opens nothing: an existing report keeps its contents while
    # the work runs, and is replaced only by the new report.
    out_path = tmp_path / "report.csv"
    out_path.write_text("old report\n", encoding="utf-8")
    run_experiment = experiments.run_experiment
    seen = []

    def checked(*args, **kwargs):
        seen.append(out_path.read_text(encoding="utf-8"))
        return run_experiment(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_experiment", checked)
    code, _, _ = run(capsys, ["experiment", "example1", "--q", "3", "--out", str(out_path)])
    assert code == 0 and seen == ["old report\n"]
    assert out_path.read_text(encoding="utf-8").startswith("# generator=dsppcond")


def test_numerical_failures_exit_5(capsys, tmp_path):
    singular = DsppBlocks(
        A=[[1.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]], E=[[1.0]], b=[1.0, 1.0, 1.0]
    )
    path = write_problem(tmp_path / "singular.json", singular)
    code, out, _ = run(capsys, ["analyze", "--input", path])
    assert code == NUMERICAL_EXIT
    assert json.loads(out)["error"]["type"] == "SingularMatrix"
    # Exactly representable identity system whose x block is zero.
    zero_x = DsppBlocks(
        A=np.eye(2), B=np.zeros((2, 2)), C=np.zeros((2, 2)),
        D=-np.eye(2), E=np.eye(2), b=[0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
    )
    path = write_problem(tmp_path / "zerox.json", zero_x)
    code, out, _ = run(capsys, ["analyze", "--input", path, "--selector", "x", "--cn", "ncn"])
    assert code == NUMERICAL_EXIT
    assert json.loads(out)["error"]["type"] == "ZeroXi"
    # A zero right-hand side zeroes both the data-derived chi and L w: the
    # normalizer fails first, not the weight check.
    zero_b = DsppBlocks(
        A=np.eye(2), B=np.ones((2, 2)), C=np.ones((2, 2)),
        D=-np.eye(2), E=np.eye(2), b=np.zeros(6),
    )
    path = write_problem(tmp_path / "zerob.json", zero_b)
    zero_bd = write_json(tmp_path / "zero_eils.json", {
        "M": [[1.0], [1.0]], "C": [[1.0]], "n1": 1, "n2": 1, "b": [0.0, 0.0], "d": [0.0],
    })
    for argv in (
        ["analyze", "--input", path],
        ["structured", "--input", path, "--structure", "A=full"],
        ["eils", "--input", zero_bd],
    ):
        code, out, _ = run(capsys, argv)
        assert code == NUMERICAL_EXIT
        assert json.loads(out)["error"]["type"] == "ZeroXi"


def test_uncertified_bound_exits_5(capsys, tmp_path, monkeypatch):
    real = linalg._lanczos

    def halved(apply, k):
        for theta, u in real(apply, k):
            yield theta / 2.0, u

    monkeypatch.setattr(linalg, "_lanczos", halved)
    path = write_problem(tmp_path / "prob.json", random_dspp(np.random.default_rng(61), 3, 2, 2))
    code, out, _ = run(capsys, ["analyze", "--input", path, "--upper-bounds"])
    assert code == NUMERICAL_EXIT
    assert json.loads(out)["error"]["type"] == "UncertifiedBound"


def test_linalg_error_exits_5(capsys, tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError, yet a failing kernel is a numerical
    # failure, not a usage error.
    def fails(apply, k):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(linalg, "_lanczos", fails)
    path = write_problem(tmp_path / "prob.json", random_dspp(np.random.default_rng(61), 3, 2, 2))
    code, out, _ = run(capsys, ["analyze", "--input", path])
    assert code == NUMERICAL_EXIT
    assert json.loads(out)["error"]["type"] == "LinAlgError"


@pytest.mark.parametrize("command", ["analyze", "structured"])
def test_normwise_bound_runs_after_the_blocks_are_released(capsys, tmp_path, monkeypatch, command):
    # The bound's k x k Gram is formed last, when nothing holds the data
    # blocks; the report is the one with the bound first.
    path = symmetric_toeplitz_problem(tmp_path)
    argv = [command, "--input", path, "--cn", "all", "--upper-bounds", "--structure", "A=symmetric"]
    want = run(capsys, argv)
    made, seen = [], []
    parse = cli.problem_from_dict

    def recorded(doc):
        parsed = parse(doc)
        made.extend(weakref.ref(a) for a in (parsed, parsed.A, parsed.B, parsed.C, parsed.D, parsed.E))
        return parsed

    def checked(*args, **kwargs):
        seen.append([ref() for ref in made if ref() is not None])
        return linalg._norm_upper(*args, **kwargs)

    monkeypatch.setattr(cli, "problem_from_dict", recorded)
    monkeypatch.setattr(cli, "_norm_upper", checked)
    assert run(capsys, argv) == want and want[0] == 0
    assert len(made) == 6 and seen == [[]]


def test_analyze_json_payload(capsys, tmp_path):
    rng = np.random.default_rng(61)
    blocks = random_dspp(rng, 3, 2, 2)
    path = write_problem(tmp_path / "prob.json", blocks)
    code, out, _ = run(capsys, [
        "analyze", "--input", path, "--selector", "y", "--upper-bounds",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "analyze"
    assert doc["selector"] == "y"
    assert doc["dims"] == {"n": 3, "m": 2, "p": 2, "l": 7, "k": 2}
    assert doc["weights"]["psi"] > 0 and doc["weights"]["chi"] > 0
    for flavor in ("ncn", "mcn", "ccn"):
        value = doc["cn"][flavor]
        upper = doc["upper_bounds"][flavor]
        assert np.isfinite(value) and value > 0
        assert value <= upper * (1 + DOMINANCE_RTOL)


def test_analyze_csv_deterministic(capsys, tmp_path):
    rng = np.random.default_rng(62)
    blocks = random_dspp(rng, 2, 3, 2)
    path = write_problem(tmp_path / "prob.json", blocks)
    argv = ["analyze", "--input", path, "--format", "csv", "--upper-bounds"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "# generator=dsppcond"
    assert "flavor,value" in lines
    assert any(line.startswith("ncn,") for line in lines)
    assert any(line.startswith("ncn_upper,") for line in lines)


def test_analyze_custom_selector(capsys, tmp_path):
    rng = np.random.default_rng(63)
    blocks = random_dspp(rng, 2, 2, 2)
    lmat = [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]
    path = write_problem(tmp_path / "custom.json", blocks, extra={"L": lmat})
    code, out, _ = run(capsys, ["analyze", "--input", path, "--selector", "custom"])
    assert code == 0
    assert json.loads(out)["dims"]["k"] == 1
    plain = write_problem(tmp_path / "plain.json", blocks)
    code, out, _ = run(capsys, ["analyze", "--input", plain, "--selector", "custom"])
    assert code == MALFORMED_EXIT
    assert json.loads(out)["error"]["type"] == "MalformedProblem"


def test_experiment_csv_and_json(capsys, tmp_path):
    out_file = tmp_path / "rows.csv"
    code, out, _ = run(capsys, [
        "experiment", "example1", "--q", "2", "--s", "6", "--seed", "1",
        "--selector", "full", "--out", str(out_file),
    ])
    assert code == 0 and out == ""
    text = out_file.read_text(encoding="utf-8")
    assert text.startswith("# generator=dsppcond\n")
    lines = text.splitlines()
    assert "# family=example1" in lines
    assert "# selectors=full" in lines
    header = next(line for line in lines if not line.startswith("#"))
    assert header.split(",")[:3] == ["selector", "q", "r_k"]
    code, out, _ = run(capsys, [
        "experiment", "example1", "--q", "2", "--s", "6", "--seed", "1",
        "--selector", "full", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["family"] == "example1"
    assert doc["meta"]["s"] == 6 and doc["meta"]["seed"] == 1
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["q"] == 2 and doc["rows"][0]["selector"] == "full"


def test_experiment_stdout_deterministic(capsys):
    argv = ["experiment", "example1", "--q", "2,3", "--s", "6", "--seed", "7"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2 and out1.count("\n") >= 9


def test_eils_payload(capsys, tmp_path):
    path = write_json(tmp_path / "eils.json", {
        "M": [[1.0], [1.0]], "C": [[1.0]], "n1": 1, "n2": 1,
        "b": [1.0, 3.0], "d": [2.0],
    })
    code, out, _ = run(capsys, ["eils", "--input", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "eils"
    assert doc["dims"] == {"n": 2, "m": 1, "p": 1, "n1": 1, "n2": 1}
    assert doc["y"] == [2.0]
    assert doc["lambda"] == [2.0]
    assert doc["x"] == [-1.0, -1.0]
    assert doc["residual"] == [-1.0, 1.0]
    for flavor in ("ncn", "mcn", "ccn"):
        assert np.isfinite(doc["cn"][flavor]) and doc["cn"][flavor] > 0
    bad = write_json(tmp_path / "bad_eils.json", {"M": [[1.0]]})
    assert run(capsys, ["eils", "--input", bad])[0] == MALFORMED_EXIT


def test_eils_max_norm_values_share_one_numerator(capsys, tmp_path, monkeypatch):
    # mcn and ccn read the embedded system's shared B, C and rhs numerator:
    # the pair kernel runs once for B = M^T and once for C.
    rng = np.random.default_rng(66)
    n, m, p = 6, 3, 2
    mmat = rng.standard_normal((n, m))
    mmat[n - 1 :, :] *= 0.03
    path = write_json(tmp_path / "eils.json", {
        "M": mmat.tolist(), "C": rng.standard_normal((p, m)).tolist(), "n1": n - 1, "n2": 1,
        "b": rng.standard_normal(n).tolist(), "d": rng.standard_normal(p).tolist(),
    })
    weight_shapes = []
    pair_sum = partial_cn._pair_sum

    def counting_pair_sum(*args):
        weight_shapes.append(args[-1].shape)
        return pair_sum(*args)

    monkeypatch.setattr(partial_cn, "_pair_sum", counting_pair_sum)
    code, out, _ = run(capsys, ["eils", "--input", path, "--selector", "full"])
    assert code == 0
    assert weight_shapes == [(m, n), (p, m)]
    assert json.loads(out)["cn"]["mcn"] > 0


def symmetric_toeplitz_problem(tmp_path):
    a = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.5], [0.0, 0.5, 2.0]])
    d = np.array([[1.5, 0.3], [0.3, 1.5]])
    e = np.array([[2.5, -0.4], [-0.4, 2.5]])
    rng = np.random.default_rng(64)
    blocks = DsppBlocks(
        A=a, B=rng.standard_normal((2, 3)), C=rng.standard_normal((2, 2)),
        D=d, E=e, b=rng.standard_normal(7),
    )
    return write_problem(tmp_path / "structured.json", blocks)


def test_structured_command(capsys, tmp_path):
    path = symmetric_toeplitz_problem(tmp_path)
    spec = "A=symmetric,D=toeplitz,E=toeplitz"
    code, out, _ = run(capsys, [
        "structured", "--input", path, "--structure", spec, "--upper-bounds",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "structured"
    assert doc["meta"]["structure"] == "A=symmetric,D=toeplitz_sym,E=toeplitz_sym"
    for flavor in ("ncn", "mcn", "ccn"):
        assert doc["structured_cn"][flavor] <= doc["cn"][flavor] * (1 + DOMINANCE_RTOL)
        assert doc["cn"][flavor] <= doc["upper_bounds"][flavor] * (1 + DOMINANCE_RTOL)
    # The flag is mandatory for this command.
    assert run(capsys, ["structured", "--input", path])[0] == USAGE_EXIT
    # analyze accepts the same spec optionally.
    code, out, _ = run(capsys, ["analyze", "--input", path, "--structure", spec])
    assert code == 0
    assert "structured_cn" in json.loads(out)


def test_power_of_two_scaling_leaves_reports_unchanged(capsys, tmp_path):
    # At 2^530 psi^2 = ||S||_F^2 overflows, at 2^-560 psi underflows to 0;
    # every reported number is invariant under the exact scaling of (S, b)
    # except the weights, which scale with it.
    path = symmetric_toeplitz_problem(tmp_path)
    doc = json.loads((tmp_path / "structured.json").read_text(encoding="utf-8"))
    commands = (
        ["analyze", "--upper-bounds", "--input"],
        ["structured", "--structure", "A=symmetric,D=toeplitz,E=toeplitz", "--upper-bounds", "--input"],
    )
    for argv in commands:
        code, out, _ = run(capsys, argv + [path])
        assert code == 0
        want = json.loads(out)
        for e in (530, -560):
            scaled = {k: np.ldexp(v, e).tolist() if k in ("A", "B", "C", "D", "E", "b") else v
                      for k, v in doc.items()}
            code, out, _ = run(capsys, argv + [write_json(tmp_path / f"scaled{e}.json", scaled)])
            assert code == 0
            got = json.loads(out)
            for key in ("cn", "upper_bounds", "structured_cn"):
                assert got.get(key) == want.get(key)
            assert got["weights"] == {k: float(np.ldexp(v, e)) for k, v in want["weights"].items()}


def test_structured_csv_rows(capsys, tmp_path):
    path = symmetric_toeplitz_problem(tmp_path)
    code, out, _ = run(capsys, [
        "structured", "--input", path, "--structure", "A=symmetric,D=toeplitz,E=toeplitz",
        "--format", "csv", "--cn", "mcn",
    ])
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "flavor,value"
    assert lines[1].startswith("mcn,")
    assert lines[2].startswith("mcn_structured,")


@pytest.fixture
def numpy_pool():
    """numpy's OpenBLAS ``(get, set)``, set to 2 threads for the test so the
    pin is visible, and restored after it."""
    pool = linalg._openblas_threads()
    if pool is None:
        pytest.skip("numpy has no bundled OpenBLAS whose thread count can be read")
    get, set_ = pool
    before = get()
    set_(2)
    if get() != 2:
        set_(before)
        pytest.skip("numpy's OpenBLAS does not accept 2 threads here")
    yield get
    set_(before)


def recording_command(monkeypatch, name, probe):
    """Wrap ``_COMMANDS[name]`` so each call appends ``probe()`` to the result."""
    seen = []
    command = cli._COMMANDS[name]

    def wrapped(args):
        seen.append(probe())
        return command(args)

    monkeypatch.setitem(cli._COMMANDS, name, wrapped)
    return seen


def test_commands_pin_numpy_blas_to_one_thread(capsys, tmp_path, monkeypatch, numpy_pool):
    seen = recording_command(monkeypatch, "analyze", numpy_pool)
    path = write_problem(tmp_path / "prob.json", random_dspp(np.random.default_rng(64), 2, 2, 2))
    assert run(capsys, ["analyze", "--input", path])[0] == 0
    assert seen == [1]
    assert numpy_pool() == 2
    singular = DsppBlocks(
        A=[[1.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]], E=[[1.0]], b=[1.0, 1.0, 1.0]
    )
    path = write_problem(tmp_path / "singular.json", singular)
    assert run(capsys, ["analyze", "--input", path])[0] == NUMERICAL_EXIT
    assert seen == [1, 1]
    assert numpy_pool() == 2


def test_commands_run_without_numpy_openblas(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
    seen = recording_command(monkeypatch, "analyze", lambda: "ran")
    path = write_problem(tmp_path / "prob.json", random_dspp(np.random.default_rng(65), 2, 2, 2))
    code, out, _ = run(capsys, ["analyze", "--input", path])
    assert code == 0
    assert seen == ["ran"]
    assert "cn" in json.loads(out)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_experiment_csv_independent_of_threads_and_cores():
    """Fresh processes: the CSV is the same bytes under one and two OpenBLAS
    threads, and with the process on one CPU (rows in-process) or on all
    (rows in a pool where there are two or more)."""
    if linalg._openblas_threads() is None:
        pytest.skip("numpy calls no OpenBLAS whose thread count can be set")
    argv = [sys.executable, "-m", "dsppcond.cli",
            "experiment", "example1", "--q", "6:12:6", "--seed", "3"]

    def csv(threads, preexec_fn=None):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        proc = subprocess.run(argv, capture_output=True, env=env, preexec_fn=preexec_fn, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    one_cpu = min(os.sched_getaffinity(0))
    reference = csv(1)
    assert reference.startswith(b"# generator=")
    assert csv(2) == reference
    assert csv(2, preexec_fn=lambda: os.sched_setaffinity(0, {one_cpu})) == reference


def test_experiment_row_error_exits_5(capsys, monkeypatch):
    def no_xi(*args):
        raise ZeroXi("L w is zero")

    # Patched before the pool forks, so the workers inherit it.
    monkeypatch.setattr(experiments, "forward_errors", no_xi)
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", 0)
    code, out, _ = run(capsys, ["experiment", "example1", "--q", "2", "--selector", "full,x"])
    assert code == NUMERICAL_EXIT
    assert json.loads(out)["error"]["type"] == "ZeroXi"


def test_runtime_loads_no_scipy():
    """The package runs on numpy alone: neither the CLI's start nor an import
    of the package loads a scipy module (scipy is a test dependency)."""
    version = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "dsppcond.cli", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert version.returncode == 0 and version.stdout.startswith("dsppcond ")
    imported = [line.rsplit("|", 1)[-1].strip() for line in version.stderr.splitlines()
                if line.startswith("import time:")]
    assert "dsppcond.linalg" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]
    modules = subprocess.run(
        [sys.executable, "-c",
         "import sys, dsppcond, dsppcond.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
    )
    assert modules.returncode == 0, modules.stderr
    loaded = modules.stdout.split()
    assert "dsppcond.linalg" in loaded
    assert not [name for name in loaded if name.split(".")[0] == "scipy"]


def test_commands_other_than_experiment_load_no_harness(tmp_path):
    """analyze, structured and eils, and --version, load neither the
    experiment harness nor numpy.random nor multiprocessing: the Lanczos start
    vector is built without a random package, and the harness is imported by
    `experiment` alone. `experiment` still runs in the same process, and the
    package still exports the harness's names."""
    problem = symmetric_toeplitz_problem(tmp_path)
    eils = write_json(tmp_path / "eils.json", {
        "M": [[1.0], [1.0]], "C": [[1.0]], "n1": 1, "n2": 1, "b": [1.0, 3.0], "d": [2.0],
    })
    out = str(tmp_path / "out.txt")
    spec = "A=symmetric,D=toeplitz,E=toeplitz"
    commands = [
        ["--version"],
        ["analyze", "--input", problem, "--upper-bounds", "--structure", spec, "--out", out],
        ["structured", "--input", problem, "--structure", spec, "--upper-bounds", "--out", out],
        ["eils", "--input", eils, "--out", out],
    ]
    script = f"""
import sys
from dsppcond.cli import main
assert [main(argv) for argv in {commands!r}] == [0, 0, 0, 0]
forbidden = ("numpy.random", "multiprocessing", "dsppcond.experiments")
print(" ".join(name for name in forbidden if name in sys.modules))
assert main(["experiment", "example1", "--q", "2", "--selector", "x", "--out", {out!r}]) == 0
from dsppcond import experiments, run_experiment
assert run_experiment is experiments.run_experiment
print("multiprocessing" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["", "True"]
