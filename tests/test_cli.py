import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lvbij
from lvbij.cli import main
from lvbij.oracle import omega_pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_forward_golden(capsys):
    code, out, _ = run(capsys, "forward", "--alpha", "4,3,2,1,1", "--nu", "15,14,9,4,4")
    assert code == 0
    assert out.strip() == "8,7,6,6,5,4,3,3,2,2,0"


def test_forward_trivial(capsys):
    code, out, _ = run(capsys, "forward", "--alpha", "1", "--nu", "0")
    assert code == 0
    assert out.strip() == "0"


def test_forward_check_flag(capsys):
    code, out, _ = run(
        capsys, "forward", "--alpha", "3,2,2,1", "--nu", "15,8,8,4", "--check"
    )
    assert code == 0
    assert out.strip() == "7,7,6,5,4,3,2,1"


def test_forward_json_matches_text(capsys):
    code, out, _ = run(
        capsys, "forward", "--alpha", "4,3,2,1,1", "--nu", "15,14,9,4,4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == [8, 7, 6, 6, 5, 4, 3, 3, 2, 2, 0]
    assert payload["input"] == {"alpha": [4, 3, 2, 1, 1], "nu": [15, 14, 9, 4, 4]}


def test_inverse_golden(capsys):
    code, out, _ = run(capsys, "inverse", "--lambda", "8,7,6,6,5,4,3,3,2,2,0")
    assert code == 0
    assert out.strip() == "alpha=4,3,2,1,1 nu=15,14,9,4,4"


def test_text_roundtrip_through_cli(capsys):
    code, out, _ = run(capsys, "forward", "--alpha", "3,2,2,1", "--nu", "15,8,8,4")
    assert code == 0
    code, out, _ = run(capsys, "inverse", "--lambda", out.strip())
    assert code == 0
    fields = dict(part.split("=") for part in out.strip().split())
    assert fields == {"alpha": "3,2,2,1", "nu": "15,8,8,4"}


def test_diagram_text(capsys):
    code, out, _ = run(capsys, "diagram", "--alpha", "4,3,2,1,1", "--nu", "15,14,9,4,4")
    assert code == 0
    assert out == (
        "X:\n4 5\n4 5 5\n4\n4 4 4 3\n4\n"
        "Y:\n8 7\n6 5 6\n4\n2 2 3 3\n0\n"
    )


def test_diagram_json_encodes_same_values(capsys):
    code, text_out, _ = run(
        capsys, "diagram", "--alpha", "1,2,3", "--nu", "5,10,11", "--eps", "1"
    )
    code2, json_out, _ = run(
        capsys, "diagram", "--alpha", "1,2,3", "--nu", "5,10,11", "--eps", "1",
        "--format", "json",
    )
    assert code == code2 == 0
    payload = json.loads(json_out)
    assert payload["result"]["X"] == [[5], [5, 5], [4, 4, 3]]
    assert payload["result"]["Y"] == [[7], [5, 6], [2, 3, 3]]
    x_text = text_out.split("Y:\n")[0].removeprefix("X:\n")
    assert [[int(v) for v in line.split()] for line in x_text.strip().splitlines()] == (
        payload["result"]["X"]
    )


def _pair_from_text(line):
    fields = dict(part.split("=") for part in line.split())
    return {key: [int(v) for v in fields[key].split(",")] for key in ("alpha", "nu")}


def _rows_from_text(text, sep):
    return [[int(v) for v in row.split()] for row in text.split(sep)]


def _sweep_from_text(out):
    # a passing report: "<label>: N cases", one "  <check>: N ok" line each, verdict
    head, *checks, verdict = out.splitlines()
    return {
        "cases": int(head.rsplit(": ", 1)[1].removesuffix(" cases")),
        "ok": verdict == "all checks passed",
        "checks": {name: {"cases": int(n.removesuffix(" ok")), "first_failure": None}
                   for name, n in (line.strip().split(": ") for line in checks)},
    }


@pytest.mark.parametrize("argv, parse", [
    (["inverse", "--lambda", "8,7,6,6,5,4,3,3,2,2,0"], _pair_from_text),
    (["verify", "--n-max", "3", "--entry-bound", "1"], _sweep_from_text),
    (["enumerate", "--n-max", "3", "--entry-bound", "1"],
     lambda out: [_pair_from_text(line) for line in out.splitlines()]),
    (["enumerate", "--alpha", "2,2", "--nu", "2,2", "--window", "1"],
     lambda out: [_rows_from_text(line, ";") for line in out.splitlines()]),
    (["enumerate", "--alpha", "3,1", "--nu", "4,2"],
     lambda out: [_rows_from_text(line, ";") for line in out.splitlines()]),
], ids=["inverse", "verify", "enumerate-pairs", "enumerate-fillings",
        "enumerate-fillings-default-window"])
def test_text_and_json_carry_the_same_values(capsys, argv, parse):
    # enumerate: one text line per JSON item, in the same order
    code, text_out, _ = run(capsys, *argv)
    code2, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == code2 == 0
    result = json.loads(json_out)["result"]
    assert result
    assert parse(text_out) == result


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "2", "--entry-bound", "2")
    assert code == 0
    assert "all checks passed" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--n-max", "2", "--entry-bound", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["ok"] is True
    assert payload["result"]["checks"]["roundtrip"]["first_failure"] is None


def test_verify_reports_the_first_failure(capsys, monkeypatch):
    # a wrong inverse for one input: the sweep names that input, and verify exits 1
    target = lvbij.gamma_forward([1, 1], [0, 0])
    inverse = lvbij.oracle.gamma_inverse
    monkeypatch.setattr(lvbij.oracle, "gamma_inverse",
                        lambda lam: inverse([5]) if lam == target else inverse(lam))
    label = "alpha=[1, 1], nu=[0, 0]"
    report = lvbij.roundtrip_sweep(2, 1)
    assert report.checks["roundtrip"].first_failure == label
    assert report.checks["kappa_recovery"].first_failure is None
    text = report.format_text()
    assert f"  roundtrip: FAIL ({label})" in text.splitlines()
    assert text.endswith("FAILURES FOUND")
    code, out, _ = run(capsys, "verify", "--n-max", "2", "--entry-bound", "1",
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"]["ok"] is False
    assert payload["result"]["checks"]["roundtrip"]["first_failure"] == label


def test_forward_check_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("lvbij.cli.gamma_via_diagrams", lambda alpha, nu: ())
    code, out, err = run(capsys, "forward", "--alpha", "2,1", "--nu", "5,1", "--check")
    assert code == 1
    assert out == ""
    assert "cross-check failed" in err


def test_an_answer_of_more_than_4300_digits_is_printed(capsys):
    # str() refuses more than 4300 digits by default (from Python 3.10.7 on):
    # main lifts that limit while it runs and puts back the one it found
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    saved = get_limit()
    set_limit(4300)
    nines = "9" * 4300
    argv = ("forward", "--alpha", "1,1", "--nu", f"{nines},{nines}")
    answer = f"1{'0' * 4300},{'9' * 4299}8"
    try:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == answer
        assert get_limit() == 4300
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert f'"result": [{answer.replace(",", ", ")}]' in out
        assert get_limit() == 4300
    finally:
        set_limit(saved)


def test_negative_sweep_bounds_exit_2(capsys):
    for argv in (
        ("verify", "--entry-bound", "-1"),
        ("verify", "--n-max", "-3"),
        ("enumerate", "--n-max", "-1"),
        ("enumerate", "--n-max", "2", "--entry-bound", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "must be >= 0" in err
        assert "all checks passed" not in out
    code, out, _ = run(capsys, "verify", "--n-max", "0")
    assert code == 0
    assert "0 cases" in out


def test_enumerate_fillings(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--alpha", "2", "--nu", "7", "--window", "0"
    )
    assert code == 0
    assert out.splitlines() == ["3 4", "4 3"]


def test_enumerate_omega_pairs(capsys):
    code, out, _ = run(capsys, "enumerate", "--n-max", "2", "--entry-bound", "1")
    assert code == 0
    lines = out.splitlines()
    assert "alpha=1 nu=0" in lines
    assert "alpha=1,1 nu=1,-1" in lines
    assert len(lines) == 3 + 3 + 6


def test_enumerate_omega_pairs_bound_entries_by_2_by_default(capsys):
    code, out, _ = run(capsys, "enumerate", "--n-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == {"n_max": 2, "entry_bound": 2}
    assert payload["result"] == [
        {"alpha": list(alpha), "nu": list(nu)} for alpha, nu in omega_pairs(2, 2)
    ]


def test_enumerate_prints_each_pair_as_it_is_produced(capsys, monkeypatch):
    def watched(n_max, entry_bound):
        for i, item in enumerate(omega_pairs(n_max, entry_bound)):
            if i == 1:
                assert capsys.readouterr().out == "alpha=1 nu=1\n"
            yield item

    monkeypatch.setattr("lvbij.cli.omega_pairs", watched)
    assert main(["enumerate", "--n-max", "2", "--entry-bound", "1"]) == 0


def test_enumerate_a_long_row_through_cli(capsys):
    code, out, _ = run(capsys, "enumerate", "--alpha", "1200", "--nu", "0", "--window", "0")
    assert code == 0
    assert out.splitlines() == [" ".join(["0"] * 1200)]


def test_enumerate_requires_arguments(capsys):
    code, _, err = run(capsys, "enumerate")
    assert code == 2
    assert "enumerate needs" in err


@pytest.mark.parametrize("argv", [
    ["--alpha", "2", "--n-max", "1"],
    ["--nu", "1", "--n-max", "1"],
    ["--alpha", "1", "--nu", "0", "--n-max", "1", "--window", "0"],
    ["--n-max", "1", "--window", "3"],
    ["--alpha", "2"],
    ["--nu", "1", "--window", "0"],
    ["--window", "3"],
    ["--alpha", "1", "--nu", "0", "--entry-bound", "5"],
], ids=["alpha-with-n-max", "nu-with-n-max", "pair-with-n-max", "window-with-n-max",
        "alpha-alone", "nu-without-alpha", "window-alone", "entry-bound-with-pair"])
def test_enumerate_refuses_flags_of_the_other_mode(capsys, argv):
    # one mode lists the fillings of one pair, the other the pairs up to --n-max
    code, out, err = run(capsys, "enumerate", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: enumerate ") and err.count("\n") == 1


def test_invalid_domain_input_exits_2(capsys):
    code, _, err = run(capsys, "forward", "--alpha", "2,3", "--nu", "1,1")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "inverse", "--lambda", "1,2")
    assert code == 2
    code, _, err = run(capsys, "diagram", "--alpha", "2,1", "--nu", "1")
    assert code == 2
    assert "equal length" in err


def test_an_answer_too_large_to_build_exits_2(capsys):
    # a row of 10^20 boxes overflows an index before anything is allocated
    for command in ("forward", "diagram"):
        code, out, err = run(capsys, command, "--alpha", str(10**20), "--nu", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: the answer is too large to build")


@pytest.mark.parametrize("command", ["forward", "inverse", "diagram", "verify", "enumerate"])
def test_every_subcommand_parses_its_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--format" in out
    if command in ("forward", "diagram"):
        assert "--alpha" in out and "--nu" in out


def test_parse_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--alpha", "a,b", "--nu", "1"])
    assert exc.value.code == 2


def test_deep_single_row_through_cli(capsys):
    code, out, _ = run(capsys, "forward", "--alpha", "1200", "--nu", "0")
    assert code == 0
    assert out.strip() == ",".join(["0"] * 1200)
    code, out, _ = run(capsys, "inverse", "--lambda", ",".join(["0"] * 1200))
    assert code == 0
    assert out.strip() == "alpha=1200 nu=0"


def test_closed_stdout_exits_141_without_a_traceback():
    # the output is far larger than the pipe buffer, so the writer hits the
    # closed pipe while it still has lines to print
    env = dict(os.environ, PYTHONPATH=str(Path(lvbij.__file__).resolve().parent.parent))
    argv = [sys.executable, "-m", "lvbij.cli", "enumerate", "--n-max", "7", "--entry-bound", "2"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"alpha=1 nu=2\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 141
    assert err == b""
