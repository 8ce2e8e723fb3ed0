import json

import pytest

from lvbij.cli import main


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


def test_enumerate_requires_arguments(capsys):
    code, _, err = run(capsys, "enumerate")
    assert code == 2
    assert "enumerate needs" in err


def test_invalid_domain_input_exits_2(capsys):
    code, _, err = run(capsys, "forward", "--alpha", "2,3", "--nu", "1,1")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "inverse", "--lambda", "1,2")
    assert code == 2


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
