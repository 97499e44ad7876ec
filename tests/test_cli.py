import argparse
import importlib
import inspect
import json
import pkgutil
import random
import shlex
import signal
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import colshuffle
from colshuffle import (BadParameters, ColouredConfiguration,
                        ColouredPermutation, LaurentPoly, RationalGF,
                        check_shuffle_compatibility, config_shuffle, shuffles,
                        verify)
from colshuffle.cli import _write_json, build_parser, main
from colshuffle.ratfun import hadamard
from colshuffle.shuffle_algebra import STATISTICS
from colshuffle.zeta import hadamard_mde


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
    ["verify", "psi", "--max-len", "9", "--colours", "5"],
    ["verify", "qsym", "--max-len", "5", "--colours", "3"],
    ["verify", "psi", "--t-order", "100000"],
    ["verify", "qsym", "--cutoff", "1000"],
    ["verify", "psi", "--max-len", "0", "--t-order", "2000000"],
    ["verify", "theorem", "--max-len", "7"],
    ["verify", "theorem", "--max-len", "12", "--trials", "20", "--seed", "1"],
    ["verify", "theorem", "--max-support", "0"],
    ["verify", "theorem", "--exp-range", "-1"],
    ["verify", "theorem", "--max-len", "6", "--max-support", "33"],
])
def test_out_of_range_bounds_are_usage_errors(argv, config_files, capsys):
    left, right = config_files
    argv = [{"LEFT": left, "RIGHT": right}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_hadamard_over_the_shuffle_cap(tmp_path, capsys):
    # 3 x 3 term pairs of length 10: 9 * C(20, 10) = 1,662,804 words
    paths = []
    for side, first in (("left", 1), ("right", 11)):
        symbols = list(range(first, first + 10))
        terms = [symbols[k:] + symbols[:k] for k in range(3)]
        path = tmp_path / f"{side}.txt"
        path.write_text("".join(
            "1 * " + " ".join(map(str, term)) + "\n" for term in terms))
        paths.append(str(path))
    code, out, err = run(capsys, "hadamard", *paths)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1662804" in err


def test_psi_transfer_table_cap(capsys):
    # 4 letters at m = 251 indices: (4 * 251)^2 = 1,008,016 > 1,000,000
    code, out, err = run(capsys, "verify", "psi", "--max-len", "4",
                         "--t-order", "250", "--colours", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1008016" in err
    # at m = 250 the table is exactly the cap, and the suite runs
    code, out, _ = run(capsys, "verify", "psi", "--max-len", "4",
                       "--t-order", "249", "--colours", "1")
    assert code == 0
    report = json.loads(out)
    assert report["cases"] == 16 and report["failures"] == []


@pytest.mark.parametrize("argv", [
    ["zeta", "build", "unitriangular_oc", "30"],
    ["zeta", "hadamard", "unitriangular_oc:30"],
    ["verify", "catalog", "--max-d", "30"],
])
def test_unitriangular_cap(argv, capsys):
    """2^30 colourings are refused before any row is built."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "19" in err


@pytest.mark.parametrize("argv", [
    ["zeta", "hadamard", "mat:1000000001,1000000000"],
    ["zeta", "hadamard", "mat:1000000001,1"],
    ["zeta", "hadamard", *["mat:2,1"] * 200],
])
def test_hadamard_span_cap(argv, capsys):
    """An exponent spread or an eps of 10^9, and 200 blocks whose packed
    ints would take 14.5 MB, are refused before any packing."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1000000" in err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("value", [10**9, 10**18])
@pytest.mark.parametrize("argv", [
    ["w", "{left}", "--order", "{value}"],
    ["hadamard", "{left}", "{right}", "--verify", "{value}"],
    ["verify", "theorem", "--order", "{value}"],
    ["verify", "theorem", "--max-len", "{value}"],
    ["verify", "theorem", "--max-support", "{value}"],
    ["verify", "qsym", "--max-len", "{value}"],
    ["verify", "qsym", "--cutoff", "{value}"],
    ["verify", "qsym", "--colours", "{value}"],
    ["verify", "psi", "--max-len", "{value}"],
    ["verify", "psi", "--t-order", "{value}"],
    ["verify", "psi", "--colours", "{value}"],
    ["verify", "compat", "--max-total-len", "{value}"],
    ["verify", "compat", "--colours", "{value}"],
    ["verify", "catalog", "--max-d", "{value}"],
    ["zeta", "verify", "--max-d", "{value}"],
    ["zeta", "build", "unitriangular_oc", "{value}"],
    ["zeta", "hadamard", "unitriangular_oc:{value}"],
    ["w", "{empty}", "--order", "{value}"],
    ["hadamard", "{empty}", "{right}", "--verify", "{value}"],
])
def test_huge_series_order_is_refused(argv, value, capsys, tmp_path):
    """A series order, and every other integer option that a documented cap
    bounds, is refused at 10^9 and 10^18 before any work is sized by it.
    A comment-only file gives W = 0, whose series still has a slot per
    coefficient."""
    paths = {side: str(GOLDEN / f"{side}.txt") for side in ("left", "right")}
    paths["empty"] = str(tmp_path / "empty.txt")
    Path(paths["empty"]).write_text("# no terms\n")
    argv = [a.format(value=value, **paths) for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(value) in err


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
    # one row three times over: built once, expanded once
    for fmt in ("text", "json"):
        yield (f"zeta_hadamard_repeated_{fmt}",
               ["zeta", "hadamard", "mat:2,1", "mat:2,1", "mat:2,1",
                "--format", fmt])
    for name, perm in (("coloured", "1^1 2^2"), ("empty", ""),
                       ("mixed", "2^1 1 3^2")):
        yield f"stats_{name}", ["stats", perm]
    # both spellings of the catalog sweep print the same report
    yield "zeta_verify", ["zeta", "verify", "--max-n", "2"]
    yield "verify_catalog", ["verify", "catalog", "--max-n", "2"]
    # the JSON of one catalog entry per family and of a verify report
    yield "zeta_build_json", ["zeta", "build", "Tn", "2"]
    for family, *params in (("mat", "2", "1"), ("so", "3"), ("f2d_cc", "4"),
                            ("threshold", "2"), ("threshold_cc", "2"),
                            ("Tn_cc", "1"), ("unitriangular_oc", "3")):
        yield (f"zeta_build_{'_'.join([family, *params])}_json",
               ["zeta", "build", family, *params])
    yield "verify_psi", ["verify", "psi", "--max-len", "2", "--t-order", "6",
                         "--colours", "2"]
    yield "verify_qsym", ["verify", "qsym", "--max-len", "1", "--cutoff", "3",
                          "--colours", "2"]
    # both relabelling phases and the planted control's counterexample
    yield "verify_compat", ["verify", "compat", "--max-total-len", "4",
                            "--colours", "2", "--trials", "20", "--seed", "3"]


@pytest.mark.parametrize("name,argv", [pytest.param(name, argv, id=name)
                                       for name, argv in _golden_cases()])
def test_golden_stdout(name, argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_a_flag_the_suite_does_not_take_is_ignored(capsys):
    code, out, _ = run(capsys, "verify", "psi", "--max-len", "2", "--t-order",
                       "6", "--colours", "2", "--trials", "5")
    assert (code, out) == (0, (GOLDEN / "verify_psi.out").read_text())


def _subparser(parser, *path):
    for name in path:
        action, = (a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


def _int_options(parser):
    return {a.dest for a in parser._actions if a.type is int}


def _suite_bounds(*suites):
    return {name for suite in suites
            for name in inspect.signature(suite).parameters}


def test_verify_flags_are_the_suites_bounds():
    parser = build_parser()
    verify_options = _int_options(_subparser(parser, "verify"))
    assert verify_options == _suite_bounds(*verify.SUITES.values())
    assert len(verify_options) == 12
    assert (_int_options(_subparser(parser, "zeta", "verify"))
            == _suite_bounds(verify.catalog_suite) == {"max_n", "max_d"})


def _word(first, last):
    return ColouredPermutation((s, 0) for s in range(first, last + 1))


def _spread(top):
    return RationalGF({0: LaurentPoly({0: 1, top: 1})}, [(1, 0)])


@pytest.mark.parametrize("refused,count", [
    (lambda: shuffles(_word(1, 12), _word(13, 24)), 2704156),
    (lambda: config_shuffle(ColouredConfiguration([(_word(1, 12), 1)]),
                            ColouredConfiguration([(_word(13, 24), 1)])),
     2704156),
    (lambda: hadamard([_spread(10**6)], 0), 1000001),
    (lambda: hadamard_mde([(2, 1)] * 200), 14516381),
    (lambda: check_shuffle_compatibility(STATISTICS["des"], max_len=7,
                                         colours=3), 11022480),
    (lambda: verify.qsym_suite(max_len=5, colours=3), 4528384),
    (lambda: verify.qsym_suite(max_len=2, cutoff=100), 4421275),
    (lambda: verify.psi_suite(max_len=9, colours=5), 11640806),
    (lambda: verify.psi_suite(max_len=4, t_order=250, colours=1), 1008016),
    (lambda: verify.random_coherent_pair(random.Random(0), max_support=33,
                                         max_len=6), 1006236),
], ids=["shuffles", "config_shuffle", "kernel_digits", "kernel_bytes",
        "harness", "qsym_words", "qsym_expansion", "psi_words", "psi_table",
        "random_coherent_pair"])
def test_every_library_cap_names_its_count_and_the_cap(refused, count):
    with pytest.raises(BadParameters) as exc:
        refused()
    message = str(exc.value)
    assert f" {count} " in message
    assert message.endswith(", over the cap of 1000000")


def test_suite_words_are_refused_before_the_case_size_is_computed(capsys):
    """With both bounds at 10^6, qsym's expansion size would be a binomial
    of 2 * 10^6 letters; the word count refuses first."""
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "qsym", "--max-len", "1000000",
                         "--cutoff", "1000000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_len 1000000 with 3 colours")


def test_catalog_rows_are_drawn_one_at_a_time(monkeypatch):
    """The sweep draws each row's parameters just before building it, in
    family order and, within a family, in increasing parameters."""
    built = []

    class Enough(Exception):
        pass

    def stop(*_):
        raise Enough

    def record(family, **params):
        built.append((family, params))
        if len(built) == limit or family == last_family:
            stop()

    def peak_of_sweep(max_n):
        """The traced peak of a sweep that ``record`` stops; an eager
        sweep is stopped after 1 s, long before 10^9 rows would fill the
        memory."""
        built.clear()
        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 1)
        tracemalloc.start()
        try:
            with pytest.raises(Enough):
                verify.catalog_suite(max_n=max_n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            tracemalloc.stop()

    monkeypatch.setattr(verify, "build_entry", record)
    limit = last_family = None
    verify.catalog_suite(max_n=2, max_d=2)
    assert built == (
        [("mat", {"d": d, "e": e}) for d in (1, 2) for e in (1, 2)]
        + [(family, {"d": d}) for family in ("so", "f2d_cc") for d in (1, 2)]
        + [(family, {"n": n})
           for family in ("threshold", "threshold_cc", "Tn", "Tn_cc")
           for n in (1, 2)]
        + [("unitriangular_oc", {"d": d}) for d in (1, 2)])
    limit = 3
    assert peak_of_sweep(10**9) < 1_000_000
    assert len(built) == 3
    # the first n-family row: the n range is drawn lazily too (10^6, not
    # 10^9, because a range materialised in C is not stopped by the alarm)
    limit, last_family = None, "threshold"
    assert peak_of_sweep(10**6) < 1_000_000
    assert built[-1] == ("threshold", {"n": 1})


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process; no call's options or defaults
    reach a later call."""
    left = str(GOLDEN / "left.txt")
    build_parser.cache_clear()
    fresh_plain = run(capsys, "w", left)
    assert fresh_plain[0] == 0 and fresh_plain[1].count("\n") == 1
    build_parser.cache_clear()
    assert build_parser() is build_parser()
    for fmt in ("text", "json"):
        code, out, _ = run(capsys, "w", left, "--order", "6", "--format", fmt)
        assert (code, out) == (0, (GOLDEN / f"w_left_{fmt}.out").read_text())
        assert run(capsys, "w", left) == fresh_plain
    with pytest.raises(SystemExit) as exc:
        main(["w", left, "--order", "six"])
    assert exc.value.code == 2
    capsys.readouterr()
    for fmt in ("text", "json", "latex"):
        code, out, _ = run(capsys, "zeta", "hadamard", "mat:2,1", "so:3",
                           "f2d_cc:4", "Tn:1", "--format", fmt)
        assert (code, out) == (
            0, (GOLDEN / f"zeta_hadamard_{fmt}.out").read_text())
    assert run(capsys, "w", left) == fresh_plain


json_scalars = st.one_of(
    st.none(), st.booleans(), st.text(),
    st.sampled_from(["", "\\", "\"", "\n\t\x00\x7f", "é☃\U0001f600"]),
    st.integers(), st.integers(-2**300, -2**200))
# json.dumps sorts the keys of a dict, so they share one type
json_keys = st.sampled_from([st.text(max_size=4), st.integers(),
                             st.booleans(), st.none()])
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        json_keys.flatmap(lambda keys: st.dictionaries(keys, inner,
                                                       max_size=4))),
    max_leaves=20)


@given(json_values)
def test_json_writer_matches_json_dumps(obj):
    chunks = []
    _write_json(obj, "\n", chunks.append)
    assert "".join(chunks) == json.dumps(obj, indent=2, sort_keys=True)


def _json_case(perm="[[1, 1]]", mult="1", label=""):
    label = f', "label": [{label}]' if label else ""
    return f'{{"config": [{{"perm": {perm}, "mult": {mult}}}]{label}}}'


@pytest.mark.parametrize("text", [
    pytest.param(_json_case(perm="[[1.9, 0.5]]"), id="float_entry"),
    pytest.param(_json_case(mult="1.5"), id="float_mult"),
    pytest.param(_json_case(perm='[["1", 0]]'), id="string_symbol"),
    pytest.param(_json_case(perm="[[true, 0]]"), id="bool_symbol"),
    pytest.param(_json_case(mult="true"), id="bool_mult"),
    pytest.param(_json_case(label='{"colour": 1, "sign": 3, "exponent": 1}'),
                 id="sign_3"),
    pytest.param(_json_case(label='{"colour": 1, "sign": 0, "exponent": 1}'),
                 id="sign_0"),
    pytest.param(_json_case(
        label='{"colour": 1, "sign": -1, "exponent": 1.5}'),
        id="float_exponent"),
    pytest.param(_json_case(
        label='{"colour": 1.0, "sign": -1, "exponent": 1}'),
        id="float_colour"),
])
def test_json_configuration_takes_only_integers(text, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(text)
    code, out, err = run(capsys, "w", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _readme_commands():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("colshuffle ")]


def test_readme_commands_run(capsys, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 9
    monkeypatch.chdir(Path(__file__).parent.parent)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_every_public_name_resolves():
    for info in pkgutil.iter_modules(colshuffle.__path__):
        module = importlib.import_module(f"colshuffle.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"
