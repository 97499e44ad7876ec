import json
from pathlib import Path

import pytest

from colshuffle.cli import main


@pytest.fixture
def config_files(tmp_path):
    left = tmp_path / "left.txt"
    left.write_text("1 * 1^0\n1 * 1^1\n1 -> -X^-1\n")
    right = tmp_path / "right.txt"
    right.write_text("1 * 2^0\n1 * 2^2\n2 -> -X^-2\n")
    return str(left), str(right)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stats_golden(capsys):
    code, out, _ = run(capsys, "stats", "1^1 2^2")
    assert code == 0
    report = json.loads(out)
    assert report["des"] == 2
    assert report["comaj"] == 3
    assert report["col"] == {"1": 1, "2": 1}
    assert report["Des"] == [0, 1]
    assert report["sDes"] == [[1, 1], [2, 2]]


def test_stats_uncoloured(capsys):
    code, out, _ = run(capsys, "stats", "2 1 3")
    report = json.loads(out)
    assert code == 0
    assert (report["des"], report["comaj"]) == (1, 2)


def test_stats_empty(capsys):
    code, out, _ = run(capsys, "stats", "")
    report = json.loads(out)
    assert code == 0
    assert report == {"permutation": "", "length": 0, "des": 0, "comaj": 0,
                      "col": {}, "Des": [], "sDes": []}


def test_stats_parse_error(capsys):
    code, _, err = run(capsys, "stats", "1^x")
    assert code == 2
    assert "position" in err


def test_hadamard_pass(config_files, capsys):
    left, right = config_files
    code, out, _ = run(capsys, "hadamard", left, right, "--eps", "1",
                       "--verify", "10")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "(1 - Y)(1 - X*Y)(1 - X^2*Y)" in out


def test_hadamard_json(config_files, capsys):
    left, right = config_files
    code, out, _ = run(capsys, "hadamard", left, right, "--eps", "1",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["config"]) == 8
    assert obj["w"]["denominator"] == [
        {"coeff": "1", "x": 0}, {"coeff": "1", "x": 1}, {"coeff": "1", "x": 2}]


def test_hadamard_identity_operand(config_files, tmp_path, capsys):
    left, _ = config_files
    unit = tmp_path / "unit.txt"
    unit.write_text("1 *\n")
    code, out, _ = run(capsys, "hadamard", left, str(unit), "--eps", "2",
                       "--verify", "8")
    assert code == 0
    assert "PASS" in out


def test_hadamard_incoherent_inputs(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("1 * 1^1\n1 -> -X\n")
    b = tmp_path / "b.txt"
    b.write_text("1 * 2^1\n1 -> X\n")
    code, _, err = run(capsys, "hadamard", str(a), str(b),
                       "--assume-coherent")
    assert code == 2
    assert "error" in err
    # without the flag the right operand is relabelled and it works
    code, out, _ = run(capsys, "hadamard", str(a), str(b), "--verify", "6")
    assert code == 0
    assert "PASS" in out


def test_hadamard_missing_file(capsys):
    code, _, err = run(capsys, "hadamard", "/nonexistent/x", "/nonexistent/y")
    assert code == 2


def test_verify_suites_quick(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--trials", "5",
                       "--order", "6", "--seed", "7")
    assert code == 0
    assert json.loads(out)["failures"] == []

    code, out, _ = run(capsys, "verify", "qsym", "--max-len", "1",
                       "--cutoff", "3")
    assert code == 0

    code, out, _ = run(capsys, "verify", "psi", "--max-len", "2",
                       "--t-order", "5")
    assert code == 0

    code, out, _ = run(capsys, "verify", "compat", "--max-total-len", "3",
                       "--trials", "20")
    assert code == 0
    report = json.loads(out)
    assert [r["statistic"] for r in report["reports"]] == \
        ["des_comaj_col", "sdes", "first_symbol"]

    code, out, _ = run(capsys, "verify", "catalog", "--max-n", "1",
                       "--max-d", "2")
    assert code == 0
    assert json.loads(out)["cases"] == 14


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_zeta_build(capsys):
    code, out, _ = run(capsys, "zeta", "build", "mat", "2", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "mat"
    assert obj["eps"] == 1
    code, out, _ = run(capsys, "zeta", "build", "unitriangular_oc", "2",
                       "--format", "latex")
    assert code == 0
    assert out.strip().startswith(r"\frac{")


def test_zeta_build_bad_args(capsys):
    code, _, err = run(capsys, "zeta", "build", "mat", "2")
    assert code == 2
    code, _, err = run(capsys, "zeta", "build", "mystery", "1")
    assert code == 2


def test_zeta_hadamard(capsys):
    code, out, _ = run(capsys, "zeta", "hadamard", "mat:2,1", "mat:3,2",
                       "mat:4,3")
    assert code == 0
    obj = json.loads(out)
    assert obj["eps"] == 1
    assert obj["shift"] == {"sign": 1, "exponent": 0}
    assert "numerator" in obj and "denominator" in obj


def test_zeta_hadamard_eps_mismatch(capsys):
    code, _, err = run(capsys, "zeta", "hadamard", "mat:3,1", "so:2")
    assert code == 2


def test_zeta_verify(capsys):
    code, out, _ = run(capsys, "zeta", "verify", "--max-n", "1", "--max-d", "1")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_w_command(config_files, capsys):
    left, _ = config_files
    code, out, _ = run(capsys, "w", left, "--eps", "1", "--order", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(1 - Y) / ((1 - Y)(1 - X*Y))"
    assert json.loads(lines[1]) == ["1", "X", "X^2", "X^3"]


@pytest.mark.parametrize("argv", [
    ["verify", "qsym", "--cutoff", "0"],
    ["verify", "psi", "--t-order", "-1"],
    ["verify", "theorem", "--order", "-1"],
    ["verify", "theorem", "--trials", "-1"],
    ["verify", "compat", "--colours", "0"],
    ["w", "LEFT", "--order", "-1"],
    ["hadamard", "LEFT", "RIGHT", "--verify", "-1"],
    ["verify", "compat", "--max-total-len", "9", "--colours", "5"],
])
def test_out_of_range_bounds_are_usage_errors(argv, config_files, capsys):
    left, right = config_files
    argv = [{"LEFT": left, "RIGHT": right}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


GOLDEN = Path(__file__).parent / "golden"


def _golden_cases():
    # left.txt has a label with a negative X-exponent; in right.txt two
    # terms cancel in W
    left, right = str(GOLDEN / "left.txt"), str(GOLDEN / "right.txt")
    for fmt in ("text", "json", "latex"):
        for name, path in (("left", left), ("right", right)):
            yield (f"w_{name}_{fmt}",
                   ["w", path, "--order", "6", "--format", fmt])
        yield (f"hadamard_{fmt}",
               ["hadamard", left, right, "--verify", "9", "--format", fmt])
        yield (f"zeta_hadamard_{fmt}",
               ["zeta", "hadamard", "mat:2,1", "so:3", "f2d_cc:4", "Tn:1",
                "--format", fmt])


@pytest.mark.parametrize("name,argv", [pytest.param(name, argv, id=name)
                                       for name, argv in _golden_cases()])
def test_golden_stdout(name, argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.out").read_text()
