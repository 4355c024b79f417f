import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hironaka import cli, coeff, poly, polyhedra
from hironaka.errors import PreconditionError, ProblemParseError

from conftest import CORPUS, corpus_problems

A3_BLOWN_UP = {
    "variables": ["x", "y"], "u": ["x"], "y": ["y"],
    "pair": {"components": [{"gens": ["y^2 + x^4"], "b": "2"}]},
    "script": {"steps": [{"center": ["x", "y"], "chart": "x"}]},
}


def call(tmp_path, data, *args):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    return cli.main([str(path), *args])


@pytest.mark.parametrize("options, message", [
    ({"hs_cutoff": "abc"}, "option 'hs_cutoff': expected a JSON integer"),
    ({"hs_cutoff": 2.5}, "option 'hs_cutoff': expected a JSON integer"),
    ({"hs_cutoff": True}, "option 'hs_cutoff': expected a JSON integer"),
    ({"hs_cutoff": "12"}, "option 'hs_cutoff': expected a JSON integer"),
    ({"hs_cutoff": None}, "option 'hs_cutoff': expected a JSON integer"),
    ({"hs_cutoff": 0}, "option 'hs_cutoff': must be at least 1"),
    ({"hs_cutoff": -3}, "option 'hs_cutoff': must be at least 1"),
])
def test_options_must_have_json_types(tmp_path, capsys, options, message):
    # the file is read before the command runs, so every command refuses it
    for command in cli.COMMANDS:
        assert call(tmp_path, dict(A3_BLOWN_UP, options=options), command) == 3, command
        assert message in capsys.readouterr().err, command


def test_birth_must_be_an_integer(tmp_path, capsys):
    data = dict(A3_BLOWN_UP, exceptional=[{"id": "E1", "variable": "x", "birth": "1"}])
    assert call(tmp_path, data, "hs") == 3
    assert "exceptional E1: birth: expected a JSON integer" in capsys.readouterr().err


@pytest.mark.parametrize("exceptional, message", [
    ([{"id": "E1", "d": "1/2"}], "absent divisors carry assigned number 0"),
    ([{"id": "E1", "variable": "x"}, {"id": "E1"}], "divisor ids must be distinct"),
    ([{"id": "E1", "variable": "x"}, {"id": "E1", "variable": "y"}],
     "exceptional markings must be pairwise distinct"),
])
def test_malformed_divisor_entries_are_parse_errors(capsys, exceptional, message):
    data = dict(A3_BLOWN_UP, exceptional=exceptional)
    assert cli.main([json.dumps(data), "run-lsb"]) == 3
    assert capsys.readouterr().err == f"parse error: {message}\n"


@pytest.mark.parametrize("gen, message", [
    ("y^2 + x^(1/0)", "zero denominator in exponent"),
    ("y^2 + (x*y)^(1/2)*y^3", "fractional exponent on non-exceptional variable 'y'"),
])
@pytest.mark.parametrize("command", ["hs", "newton"])
def test_bad_fractional_exponents_are_parse_errors(tmp_path, capsys, gen, message, command):
    data = dict(A3_BLOWN_UP, pair={"components": [{"gens": [gen], "b": "2"}]},
                exceptional=[{"id": "E1", "variable": "x"}])
    assert call(tmp_path, data, command) == 3
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_non_ascii_digits_are_parse_errors(capsys):
    # int() reads Arabic-Indic digits, as it would read "x^3 + 2*y"
    data = dict(A3_BLOWN_UP, pair={"components": [{"gens": ["x^\u0663 + \u0662*y"], "b": "2"}]})
    assert cli.main([json.dumps(data), "hs"]) == 3
    assert capsys.readouterr().err == "parse error: bad character in polynomial: '\u0663 + \u0662*y'\n"


def test_an_impermissible_scripted_center_exits_2(capsys):
    data = dict(A3_BLOWN_UP, script={"steps": [{"center": ["y"], "chart": "y"}]})
    assert cli.main([json.dumps(data), "run-lsb"]) == 2
    assert capsys.readouterr().err == (
        "precondition failed: year 1: center not permissible (order along center below a weight)\n")


def test_options_are_read(tmp_path, capsys):
    data = dict(A3_BLOWN_UP, options={"hs_cutoff": 3})
    assert call(tmp_path, data, "hs", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out) == {"command": "hs", "cutoff": 3, "dims": [1, 3, 5]}
    problem = cli.problem_from_data(data)
    assert problem.options == cli.Options(hs_cutoff=3)


@pytest.mark.parametrize("flags", [{}, {"fast": True}])
def test_invariant_after_blowup_in_divisor_chart(tmp_path, capsys, flags):
    assert call(tmp_path, A3_BLOWN_UP, "invariant", "--format", "json") == 0
    cli_report = json.loads(capsys.readouterr().out)["invariant"]
    run_report = cli.run(cli.problem_from_data(A3_BLOWN_UP), "invariant", **flags)["invariant"]
    for report in (cli_report, run_report):
        assert (report["s1"], report["entries"], report["terminal"], report["monomial"]) == (
            0, [], "0", "x")


def test_unknown_option_is_rejected(tmp_path, capsys):
    assert call(tmp_path, dict(A3_BLOWN_UP, options={"hs_cuttoff": 3}), "hs") == 3
    assert "options: unknown option 'hs_cuttoff'" in capsys.readouterr().err


def test_verify_is_no_longer_an_option(tmp_path, capsys):
    assert call(tmp_path, dict(A3_BLOWN_UP, options={"verify": False}), "invariant") == 3
    assert "options: unknown option 'verify'" in capsys.readouterr().err


def test_skip_unit_steps_is_no_longer_an_option(tmp_path, capsys):
    data = dict(A3_BLOWN_UP, options={"skip_unit_steps": True})
    assert call(tmp_path, data, "invariant") == 3
    assert "options: unknown option 'skip_unit_steps'" in capsys.readouterr().err


@pytest.mark.parametrize("options", [{"max_prep_iters": 0}, {"contact_height_cap": 1}])
def test_cost_caps_are_not_options(tmp_path, capsys, options):
    # the preparation cap is the constant coeff.MAX_PREP_ITERS, and the
    # contact sweep has no height to cap: it ends by proof
    assert call(tmp_path, dict(A3_BLOWN_UP, options=options), "invariant") == 3
    assert f"options: unknown option {next(iter(options))!r}" in capsys.readouterr().err


def test_svg_is_no_longer_a_format(tmp_path):
    with pytest.raises(SystemExit) as exc:
        call(tmp_path, A3_BLOWN_UP, "poly", "--format", "svg")
    assert exc.value.code == 2


def test_hilbert_samuel_past_the_column_limit_exits_2(tmp_path, capsys):
    names = [f"x{i}" for i in range(8)]
    data = {
        "variables": names, "pair": {"components": [{"gens": ["x0^2 + x7^3"], "b": "2"}]},
        "options": {"hs_cutoff": 16},
    }
    assert call(tmp_path, data, "hs") == 2
    assert ("Hilbert-Samuel in 8 variables up to k_max = 16 needs 490314 monomial columns"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flag", ["--fast", "--hs-cutoff=3", "--max-prep-iters=3"])
def test_options_have_no_flags(tmp_path, flag):
    with pytest.raises(SystemExit):
        call(tmp_path, A3_BLOWN_UP, "invariant", flag)


def with_b(value):
    return dict(A3_BLOWN_UP, pair={"components": [{"gens": ["y^2 + x^4"], "b": value}]})


def with_d(value):
    return dict(A3_BLOWN_UP, exceptional=[{"id": "E1", "variable": "x", "d": value}])


@pytest.mark.parametrize("text", ["1e5000", "2.5e3", "0.5", "1/0", " 2", "2_0"])
@pytest.mark.parametrize("build, message", [
    (with_b, "component 0: b: bad rational"), (with_d, "exceptional E1: d: bad rational"),
])
def test_rationals_have_the_documented_form(tmp_path, capsys, build, message, text):
    assert call(tmp_path, build(text), "nu") == 3
    assert message in capsys.readouterr().err


def test_rationals_past_the_digit_limit_are_parse_errors(capsys):
    digits = "1" * 4400
    assert cli.main([json.dumps(with_b(digits)), "hs"]) == 3
    assert "component 0: b: bad rational" in capsys.readouterr().err
    integer = json.dumps(with_b(0)).replace('"b": 0', '"b": ' + digits)
    assert cli.main([integer, "hs"]) == 3
    assert "parse error" in capsys.readouterr().err


def xyz(gen):
    return {"variables": ["x", "y", "z"], "u": ["x", "y"], "y": ["z"],
            "pair": {"components": [{"gens": [gen], "b": "2"}]}}


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("gen, message", [
    ("z^2 + " + "7" * 5000 + "*x^3", f"a number of 5000 digits is past the limit of {LIMIT}"),
    ("z^2 + x^" + "7" * 5000, f"a number of 5000 digits is past the limit of {LIMIT}"),
    ("z^(1/" + "7" * 5000 + ")", f"a number of 5000 digits is past the limit of {LIMIT}"),
    ("3^100000*z^2 + x^3", f"a numeric power has more digits than the limit of {LIMIT}"),
    ("7^20000000*z^2 + x^3", f"a numeric power has more digits than the limit of {LIMIT}"),
    ("(7)^20000000*z^2 + x^3", f"a numeric power has more digits than the limit of {LIMIT}"),
    (f"z^2 + 10^{LIMIT}*x^3", f"a numeric power has more digits than the limit of {LIMIT}"),
], ids=["literal", "exponent", "denominator", "3^100000", "7^20000000", "(7)^20000000",
        "10^limit"])
@pytest.mark.parametrize("command", ["hs", "run-lsb", "invariant"])
def test_numbers_past_the_digit_limit_are_parse_errors(tmp_path, capsys, gen, message, command):
    # each is refused before the number is built: 7^20000000 alone takes
    # seconds to compute
    start = time.perf_counter()
    assert call(tmp_path, xyz(gen), command) == 3
    assert capsys.readouterr().err == f"parse error: {message}\n"
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("command", ["hs", "invariant"])
def test_a_power_past_the_term_bound_is_refused_at_once(tmp_path, capsys, command):
    # unbounded, the ladder runs past a 15 s timeout: C(5003, 3) = 20845835001
    data = {"variables": ["x", "y", "z", "w"], "u": ["x", "y", "z"], "y": ["w"],
            "pair": {"components": [{"gens": ["w^2 + (x + y + z + w)^5000"], "b": "2"}]}}
    start = time.perf_counter()
    assert call(tmp_path, data, command) == 3
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().err == (
        "parse error: a power of 4 terms to the 5000 may have up to C(5000 + 3, 3) "
        "terms, past the limit of 100000\n")


@pytest.mark.parametrize("gen, refused", [
    ("(x + y)^9", False), ("(x + y)^10", True),          # 10 and 11 terms
    ("(x + y + z)^3", False), ("(x + y + z)^4", True),  # C(5, 2) = 10, C(6, 2) = 15
    ("(x + x^2 + x^3)^3", False), ("(x + x^2 + x^3)^4", True),  # bounds, not counts
    ("(x + y + z)^0", False), ("(2 + 3)^9", False), ("(x - x)^9", False),
])
def test_the_term_bound_is_multinomial(monkeypatch, gen, refused):
    monkeypatch.setattr(poly, "MAX_POWER_TERMS", 10)
    if refused:
        with pytest.raises(ProblemParseError, match="past the limit of 10$"):
            poly.parse_polynomial(gen, ["x", "y", "z"])
    else:
        poly.parse_polynomial(gen, ["x", "y", "z"])


def test_a_product_past_the_term_bound_is_refused_at_once(tmp_path, capsys):
    # unbounded, two 1771-term powers form 3136441 term products: seconds
    data = {"variables": ["x", "y", "z", "w"], "u": ["x", "y", "z"], "y": ["w"],
            "pair": {"components": [
                {"gens": ["(x + y + z + w)^20 * (x + y + z + w)^20"], "b": "2"}]}}
    start = time.perf_counter()
    assert call(tmp_path, data, "hs") == 3
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        "parse error: a product of 1771 by 1771 terms forms 3136441 term products, "
        "past the limit of 1000000\n")


@pytest.mark.parametrize("gen, refused", [
    ("(x + y)*(x + y + z)", False), ("(x + y + z)*(x + y + z)", True),  # 6 and 9
    ("(x + y)*(x - y)*(x + y + z)", False),  # 2*2, then x^2 - y^2 by 3: counts
    ("(x + y)*(x + y)*(x + y + z)", True),   # 2*2, then 3 terms by 3
    ("x*(x + y + z)*3*y*(x + y)", False), ("(x + y)^2*(x + y + z)", True),
])
def test_the_product_bound_counts_term_products(monkeypatch, gen, refused):
    monkeypatch.setattr(poly, "MAX_PRODUCT_TERMS", 6)
    if refused:
        with pytest.raises(ProblemParseError, match="term products, past the limit of 6$"):
            poly.parse_polynomial(gen, ["x", "y", "z"])
    else:
        poly.parse_polynomial(gen, ["x", "y", "z"])


def test_a_high_binomial_power_parses_in_one_pass(tmp_path, capsys):
    # (x + y)^3000 comes from the binomial theorem; repeated squaring of
    # full products took seconds
    start = time.perf_counter()
    assert call(tmp_path, xyz("z^2 + (x + y)^3000"), "hs") == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out.startswith(
        "command: hs\ndims: 1 4 9 16 25 36 49 64 81 100 121 144\n")


def test_a_number_at_the_digit_limit_is_read(tmp_path, capsys):
    assert call(tmp_path, xyz(f"10^{LIMIT - 1}*z^2 + x^3"), "run-lsb") == 0
    assert f"1{'0' * (LIMIT - 1)}*z^2" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run-lsb", "coeff"])
def test_a_result_past_the_digit_limit_exits_2(tmp_path, capsys, command):
    # (10^2000)^3 is read; the report would print it
    assert call(tmp_path, xyz("(z^2 + 10^2000*x^3)^3"), command) == 2
    assert capsys.readouterr().err == (
        f"precondition failed: a number has more digits than can be printed, the limit is {LIMIT}\n")
    assert call(tmp_path, xyz("(z^2 + 10^2000*x^3)^3"), "hs") == 0


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main([str(path), "hs"]) == 3
    assert capsys.readouterr().err.startswith("parse error: ")


@pytest.mark.parametrize("make", ["missing", "directory", "utf-16 mark"])
def test_unreadable_problem_files_are_parse_errors(tmp_path, capsys, make):
    path = tmp_path / "problem.json"
    if make == "directory":
        path.mkdir()
    elif make == "utf-16 mark":
        path.write_bytes(b"\xff\xfe" + json.dumps(A3_BLOWN_UP).encode("utf-16-le"))
    assert cli.main([str(path), "hs"]) == 3
    assert capsys.readouterr().err.startswith("parse error: ")


def test_undecodable_stdin_is_a_parse_error(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert cli.main(["-", "hs"]) == 3
    assert capsys.readouterr().err.startswith("parse error: ")


@pytest.mark.parametrize("depth, code", [(300, 0), (400, 3)])
def test_deeply_parenthesized_generator(tmp_path, capsys, depth, code):
    gen = "(" * depth + "x" + ")" * depth + "^2"
    data = {"variables": ["x", "y"], "pair": {"components": [{"gens": [gen], "b": "2"}]}}
    assert call(tmp_path, data, "hs") == code
    assert capsys.readouterr().err.startswith("parse error: ") == (code == 3)


def test_rationals_are_integers_or_fraction_strings(tmp_path, capsys):
    assert cli.problem_from_data(with_b("+4/2")).pair.components[0].weight == 2
    assert cli.problem_from_data(with_d("3/2")).state.exdata.entries[0].d == Fraction(3, 2)
    for data in (with_b(2), with_d(1), with_d("3/2")):
        assert call(tmp_path, data, "hs") == 0, data
    capsys.readouterr()
    assert call(tmp_path, with_d("-3/2"), "hs") == 3
    assert "exceptional E1: d: assigned numbers are nonnegative" in capsys.readouterr().err
    for value in (2.0, True, None):
        assert call(tmp_path, with_b(value), "hs") == 3
        assert "component 0: b: bad rational" in capsys.readouterr().err


def test_delta_report_when_y_misses_the_directrix(tmp_path, capsys):
    data = {"variables": ["x", "y"], "u": ["x", "y"], "y": [],
            "pair": {"components": [{"gens": ["y^2 - x^3"], "b": "2"}]}}
    assert call(tmp_path, data, "delta", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "delta", "error": "y does not span directrix", "forced_delta": "1"}
    assert call(tmp_path, data, "char-poly") == 2


SQUARE_OF_A_SHIFTED_LINE = {
    "variables": ["x", "y"], "u": ["x"], "y": ["y"],
    "pair": {"components": [{"gens": ["y^2 + 2*y*x^2 + x^4"], "b": "2"}]},
}
PAIRS_028 = json.loads((Path(__file__).resolve().parent.parent
                        / "bench/corpus/pairs-local/problems/028.json").read_text())


@pytest.mark.parametrize("data", [SQUARE_OF_A_SHIFTED_LINE, PAIRS_028], ids=["textbook", "028"])
@pytest.mark.parametrize("command", ["delta", "nu"])
def test_delta_is_read_after_preparation(tmp_path, capsys, data, command):
    # one translation y -> y + c*u^v empties the polyhedron: delta is inf,
    # not the finite delta of the unprepared polyhedron
    assert call(tmp_path, data, "char-poly", "--format", "json") == 0
    prepared = json.loads(capsys.readouterr().out)
    assert (prepared["prepared"], prepared["vertices"]) == (True, [])
    assert call(tmp_path, data, command, "--format", "json") == 0
    assert json.loads(capsys.readouterr().out) == {"command": command, command: "inf"}


@pytest.mark.parametrize("command", ["delta", "nu"])
def test_delta_of_an_unprepared_polyhedron_is_refused(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(coeff, "MAX_PREP_ITERS", 0)
    assert call(tmp_path, SQUARE_OF_A_SHIFTED_LINE, command) == 2
    assert "vertex (2) is still solvable after 0 preparation steps" in capsys.readouterr().err


# a preparation whose translations grow the pair: by the 28th the pair holds
# about 203k terms, and each of nu, char-poly and delta ran past 20 s
GROWING_PREPARATION = {
    "options": {"hs_cutoff": 4},
    "pair": {"components": [
        {"b": "1", "gens": ["(-3*x0*x1*x2)^2", "(-3*x0*x1*x2)^2"]},
        {"b": "1", "gens": [
            "2*x2 + x2^27*x3 + -0*x1^2*x2 + -1*x0*x2^2 + 2*x0*x1*x2 + x0^5*x0^4*x3^3",
            "-2*x3 + 24*x2 + -2*x2*x3 + x0^2*x1 + x0^3*x3^3*x3^4",
        ]},
    ]},
    "u": ["x0", "x1"],
    "variables": ["x0", "x1", "x2", "x3"],
    "y": ["x2", "x3"],
}


@pytest.mark.parametrize("command", ["nu", "char-poly", "delta"])
def test_a_growing_preparation_is_refused_by_its_work(tmp_path, capsys, command):
    assert call(tmp_path, GROWING_PREPARATION, command) == 2
    assert capsys.readouterr().err == (
        "precondition failed: the translation at vertex (18, 6) would form 50911 term "
        f"products, past the limit of {coeff.MAX_PREP_PRODUCTS}\n")


def test_a_refusal_solves_the_vertex_system_once(tmp_path, capsys, monkeypatch):
    # the solvable vertex travels in PrepareResult; the refusal does not
    # solve the system again to name it
    solve, calls = coeff._solve_vertex, []
    monkeypatch.setattr(coeff, "_solve_vertex", lambda *args: calls.append(1) or solve(*args))
    monkeypatch.setattr(coeff, "MAX_PREP_ITERS", 0)
    assert call(tmp_path, SQUARE_OF_A_SHIFTED_LINE, "delta") == 2
    assert len(calls) == 1
    assert call(tmp_path, SQUARE_OF_A_SHIFTED_LINE, "char-poly", "--format", "json") == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["prepared"], report["iterations"], report["vertices"]) == (False, 0, [["2"]])


@pytest.mark.parametrize("command", ["run-lsb", "invariant"])
def test_blowup_errors_of_a_script_name_the_year(tmp_path, capsys, command):
    data = {
        "variables": ["x", "y", "z"], "u": ["x", "y"], "y": ["z"],
        "pair": {"components": [{"gens": ["z^2 + x^3*y^2 + y^5"], "b": "2"}]},
        "script": {"steps": [{"center": ["y", "z"], "chart": "x"}]},
    }
    assert call(tmp_path, data, command) == 2
    assert ("precondition failed: year 1: chart variable must belong to the center\n"
            == capsys.readouterr().err)


def test_command_table():
    problem = cli.problem_from_data(A3_BLOWN_UP)
    assert cli.COMMANDS == tuple(cli.HANDLERS)
    assert "invariant-fast" not in cli.COMMANDS
    for command in ("order", "hs", "d-i"):
        report = cli.run(problem, command)
        assert next(iter(report)) == "command" and report["command"] == command
    with pytest.raises(PreconditionError, match="unknown command"):
        cli.run(problem, "invariant-fast")


@pytest.mark.parametrize("field, value, message", [
    ("script", [], "script: expected a JSON object"),
    ("script", {"steps": [1]}, "script.steps: expected a JSON list of objects"),
    ("script", {"steps": [{"center": "xy", "chart": "x"}]},
     "script step 0: center: expected a JSON list of strings"),
    ("script", {"steps": [{"center": ["x"], "chart": ["x"]}]},
     "script step 0: chart: expected a JSON string"),
    ("exceptional", ["E1"], "exceptional: expected a JSON list of objects"),
    ("exceptional", [{"id": "E1", "variable": ["x"]}],
     "exceptional E1: variable: expected a JSON string"),
    ("pair", {"components": [1]}, "pair.components: expected a JSON list of objects"),
    ("pair", {"components": {"gens": ["x"]}}, "pair.components: expected a JSON list of objects"),
    ("pair", {"components": [{"gens": "x^2", "b": "2"}]},
     "component 0: gens: expected a JSON list of strings"),
    ("variables", "xy", "variables: expected a JSON list of strings"),
    ("variables", ["x", 1], "variables: expected a JSON list of strings"),
    ("u", "x", "u: expected a JSON list of strings"),
    ("y", {"y": 1}, "y: expected a JSON list of strings"),
    ("options", [], "options: expected a JSON object"),
    ("exceptional", [{"variable": "x"}], "exceptional 0: id: expected a JSON string, got None"),
    ("exceptional", [{"id": "E1", "variable": "x"}, {"id": 7, "variable": "y"}],
     "exceptional 1: id: expected a JSON string, got 7"),
])
def test_containers_must_have_json_shapes(tmp_path, capsys, field, value, message):
    assert call(tmp_path, dict(A3_BLOWN_UP, **{field: value}), "hs") == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["2", "+", "x y", "\u00e9"])
def test_a_variable_no_polynomial_can_use_is_a_parse_error(capsys, name):
    """A declared name that the tokenizer never reads as one identifier: a
    number, an operator, two words, a non-ASCII letter."""
    data = {"variables": ["x", "y", name], "y": ["y"],
            "pair": {"components": [{"gens": ["y^2 + x^4"], "b": "2"}]}}
    assert cli.main([json.dumps(data), "order"]) == 3
    assert capsys.readouterr() == (
        "", f"parse error: variables: no polynomial can use the name {name!r}\n")


NAMES = st.sampled_from(["x", "y", "z", "E1", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | NAMES | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["steps", "center", "chart", "components", "gens",
                                       "b", "id", "variable", "d", "birth"]) | st.text(max_size=4),
                      inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(field=st.sampled_from(["variables", "u", "y", "exceptional", "pair", "script",
                              "b", "d"]),
       value=JSON_VALUES)
def test_any_json_in_one_field_is_rejected_or_run(field, value):
    """One field replaced by an arbitrary JSON value: a top-level field, a
    component's ``b`` or an exceptional entry's ``d``.  The CLI answers,
    rejects or reports a parse error, and never raises."""
    if field == "b":
        data = with_b(value)
    elif field == "d":
        data = with_d(value)
    else:
        data = dict(A3_BLOWN_UP, **{field: value})
    assert cli.main([json.dumps(data), "run-lsb", "--format", "json"]) in (0, 2, 3)


def test_blowups_invariants_and_d_i_build_no_vertices(monkeypatch):
    # their numbers are minima over raw points: no vertex minimization, no LP
    calls = Counter()

    def counted(name):
        original = getattr(polyhedra, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(polyhedra, name, wrapper)

    counted("minimize_vertices")
    counted("lp_feasible")
    lsb = corpus_problems("lsb-hypersurface")
    for _, problem in lsb:
        assert problem.script
        cli.run(problem, "run-lsb")
        cli.run(problem, "invariant")
    for _, problem in corpus_problems("pairs-local"):
        cli.run(problem, "d-i")
    assert calls == Counter()
    cli.run(lsb[0][1], "poly")  # the counters see the vertex path
    assert calls["minimize_vertices"] == 1


def with_field(path, key):
    """A3_BLOWN_UP with a divisor entry, and ``key`` added to the object at
    ``path``."""
    data = json.loads(json.dumps(dict(A3_BLOWN_UP, exceptional=[{"id": "E1", "birth": 0}])))
    obj = data
    for step in path:
        obj = obj[step]
    obj[key] = 1
    return data


@pytest.mark.parametrize("path, key, message", [
    (("exceptional", 0), "birth_year", "exceptional E1: unknown field 'birth_year'"),
    ((), "scirpt", "problem: unknown field 'scirpt'"),
    (("pair", "components", 0), "weight", "component 0: unknown field 'weight'"),
    (("script", "steps", 0), "charts", "script step 0: unknown field 'charts'"),
])
def test_unknown_fields_are_parse_errors(capsys, path, key, message):
    # each object is complete without the key, which used to be dropped unread
    assert cli.main([json.dumps(with_field(path, key)), "run-lsb"]) == 3
    assert capsys.readouterr().err == f"parse error: {message}\n"


def marked_contact_family(n):
    """x0^2 + z^3 with x0 .. x(n-2) marked by divisors born in year 1: the
    only top form x0^2 vanishes on every direction a contact may take."""
    names = [f"x{i}" for i in range(n - 1)] + ["z"]
    return {
        "variables": names,
        "exceptional": [{"id": f"E{i}", "birth": 1, "variable": f"x{i}"} for i in range(n - 1)],
        "pair": {"components": [{"gens": ["x0^2 + z^3"], "b": 2}]},
    }


def unmarked_contact_family(n):
    """x(n-1)^2 + x0^3 in n unmarked variables: the contact is the last
    unit direction."""
    return {
        "variables": [f"x{i}" for i in range(n)],
        "pair": {"components": [{"gens": [f"x{n - 1}^2 + x0^3"], "b": 2}]},
        "options": {"hs_cutoff": 3},
    }


def test_a_hopeless_contact_in_many_marked_variables_is_rejected_fast(capsys):
    start = time.perf_counter()
    assert cli.main([json.dumps(marked_contact_family(8)), "invariant"]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == "precondition failed: no maximal contact witness\n"


def test_a_contact_in_many_unmarked_variables_is_found_fast(capsys):
    start = time.perf_counter()
    assert cli.main([json.dumps(unmarked_contact_family(12)), "invariant", "--format", "json"]) == 0
    assert time.perf_counter() - start < 0.5
    vec = json.loads(capsys.readouterr().out)["invariant"]
    assert (vec["s1"], vec["entries"], vec["terminal"]) == (0, [{"nu": "3/2", "s": 0}], "inf")


def test_a_contact_past_every_low_height_direction_is_found(capsys):
    # f is the product of the 24 lines c*x - a*y, one for each primitive (a, c)
    # of max-norm <= 4: its top form vanishes on every direction of height
    # <= 4, and the sweep finds the contact at height 5
    forms = [f"({c}*x - {a}*y)" for a in range(5) for c in range(-4, 5)
             if math.gcd(a, c) == 1 and (a > 0 or c > 0)]
    assert len(forms) == 24
    data = {"variables": ["x", "y"], "pair": {"components": [{"gens": ["*".join(forms)], "b": 24}]}}
    start = time.perf_counter()
    assert cli.main([json.dumps(data), "invariant", "--format", "json"]) == 0
    assert time.perf_counter() - start < 0.5
    vec = json.loads(capsys.readouterr().out)["invariant"]
    assert (vec["entries"], vec["terminal"], vec["center"]) == ([{"nu": "1", "s": 0}], "inf", ["x", "y"])


# ---------------------------------------------------------------------------
# The entry point as a process


def run_module(*args):
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "hironaka.cli", *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)


def test_the_module_runs_as_a_program(tmp_path):
    path = sorted((Path(__file__).resolve().parent.parent / "bench" / "corpus"
                   / "lsb-hypersurface" / "problems").glob("*.json"))[0]
    done = run_module(str(path), "invariant", "--format", "json")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == cli.render(cli.run(cli.parse_problem(str(path)), "invariant"), "json")

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"variables": ["x"]')
    done = run_module(str(malformed), "hs")
    assert done.returncode == 3
    assert done.stderr.startswith(b"parse error: ")
    assert b"Traceback" not in done.stderr

    smooth = tmp_path / "smooth.json"
    smooth.write_text(json.dumps({"variables": ["x", "z"], "u": ["x"], "y": ["z"],
                                    "pair": {"components": [{"gens": ["z + x^2"], "b": "2"}]}}))
    done = run_module(str(smooth), "invariant")
    assert done.returncode == 2
    assert done.stderr.startswith(b"precondition failed: ")
    assert b"Traceback" not in done.stderr


# ---------------------------------------------------------------------------
# newton and blowup, pinned in both formats

NEWTON_PINS = [
    ("contact-reject", {"coordinates": ["x0", "x1"], "vertices": [["1", "2"], ["2", "1"]]},
     "coordinates: x0 x1\nvertices:\n  [0]: 1 2\n  [1]: 2 1\n"),
    ("lsb-hypersurface",
     {"coordinates": ["x0", "x1", "x2", "z"], "vertices": [["0", "0", "0", "2"], ["3", "1", "1", "0"]]},
     "coordinates: x0 x1 x2 z\nvertices:\n  [0]: 0 0 0 2\n  [1]: 3 1 1 0\n"),
    ("pairs-local", {"coordinates": ["x0", "x1"], "vertices": [["0", "1"], ["3", "0"]]},
     "coordinates: x0 x1\nvertices:\n  [0]: 0 1\n  [1]: 3 0\n"),
]

A3_UNSCRIPTED = {key: value for key, value in A3_BLOWN_UP.items() if key != "script"}
# E1 already holds the year-1 id, so the new divisor is E1.1
E1_HELD = {
    "variables": ["x", "y", "z"], "u": ["x", "y"], "y": ["z"],
    "pair": {"components": [{"gens": ["z^2 + x^3*y^4"], "b": "2"}]},
    "exceptional": [{"id": "E1", "variable": "x", "d": "3/2"}],
}
A3_CHART_X = (
    {"center": ["x", "y"], "chart": "x", "delta_center": "2", "new_divisor": "E1",
     "d_from_center": "1", "d_from_polyhedron": "1",
     "pair": {"components": [{"gens": ["y^2 + x^2"], "b": "2"}]},
     "frame": {"variables": ["x", "y"], "u": ["x"], "y": ["y"],
               "exceptional": [{"id": "E1", "variable": "x"}]}},
    "center: x y\nchart: x\ndelta_center: 2\nnew_divisor: E1\nd_from_center: 1\n"
    "d_from_polyhedron: 1\npair:\n  components:\n    [0]:\n      gens: y^2 + x^2\n      b: 2\n"
    "frame:\n  variables: x y\n  u: x\n  y: y\n  exceptional:\n    [0]:\n      id: E1\n"
    "      variable: x\n",
)
BLOWUP_PINS = [
    ("first script step", A3_BLOWN_UP, [], *A3_CHART_X),
    ("no script, --chart", A3_UNSCRIPTED, ["--chart", "x"], *A3_CHART_X),
    ("id suffix", E1_HELD, ["--chart", "y"],
     {"center": ["x", "y", "z"], "chart": "y", "delta_center": "7/2", "new_divisor": "E1.1",
      "d_from_center": "5/2", "d_from_polyhedron": "5/2",
      "pair": {"components": [{"gens": ["z^2 + x^3*y^5"], "b": "2"}]},
      "frame": {"variables": ["x", "y", "z"], "u": ["x", "y"], "y": ["z"],
                "exceptional": [{"id": "E1", "variable": "x"}, {"id": "E1.1", "variable": "y"}]}},
     "center: x y z\nchart: y\ndelta_center: 7/2\nnew_divisor: E1.1\nd_from_center: 5/2\n"
     "d_from_polyhedron: 5/2\npair:\n  components:\n    [0]:\n      gens: z^2 + x^3*y^5\n"
     "      b: 2\nframe:\n  variables: x y z\n  u: x y\n  y: z\n  exceptional:\n    [0]:\n"
     "      id: E1\n      variable: x\n    [1]:\n      id: E1.1\n      variable: y\n"),
]


def assert_pinned(capsys, args, command, report, text):
    """``cli.main`` prints the report pinned for ``command`` in both formats."""
    assert cli.main([*args, "--format", "json"]) == 0
    want = json.dumps({"command": command, **report}, indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr() == (want, "")
    assert cli.main([*args, "--format", "text"]) == 0
    assert capsys.readouterr() == (f"command: {command}\n{text}", "")


@pytest.mark.parametrize("workload, report, text", NEWTON_PINS, ids=[pin[0] for pin in NEWTON_PINS])
def test_newton_reports_are_pinned(capsys, workload, report, text):
    path = CORPUS / workload / "problems" / "000.json"
    assert_pinned(capsys, [str(path), "newton"], "newton", report, text)


@pytest.mark.parametrize("case, data, flags, report, text", BLOWUP_PINS, ids=[c[0] for c in BLOWUP_PINS])
def test_blowup_reports_are_pinned(capsys, case, data, flags, report, text):
    assert_pinned(capsys, [json.dumps(data), "blowup", *flags], "blowup", report, text)


@pytest.mark.parametrize("format", ["json", "text"])
def test_blowup_without_a_chart_exits_2(capsys, format):
    assert cli.main([json.dumps(A3_UNSCRIPTED), "blowup", "--format", format]) == 2
    assert capsys.readouterr() == ("", "precondition failed: blowup needs a chart variable (--chart)\n")


# ---------------------------------------------------------------------------
# The JSON writer, byte for byte against json.dumps


def dumps(report) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("workload", ["contact-reject", "lsb-hypersurface", "pairs-local"])
def test_every_corpus_report_is_written_as_json_dumps_writes_it(workload):
    """Every command on every problem of a corpus, ``blowup`` charted at
    the first variable."""
    written = Counter()
    for name, problem in corpus_problems(workload):
        for command in cli.COMMANDS:
            try:
                report = cli.run(problem, command, chart=problem.frame.variables[0])
            except PreconditionError:
                continue
            assert cli.render(report, "json") == dumps(report), (name, command)
            written[command] += 1
    assert written["blowup"] and written["run-lsb"], written


JSON_TEXT = st.text(
    st.sampled_from('x"\\/\x00\x1f\x7f\n\t \u00e9\u20ac\U0001f600') | st.characters(), max_size=6)
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=3),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(value=REPORT_VALUES)
def test_the_json_writer_writes_what_json_dumps_writes(value):
    """Strings with non-ASCII, quotes, backslashes and control characters;
    negative and large ints; bools and None; tuples; empty and nested
    containers."""
    assert cli.render(value, "json") == dumps(value)


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2), {1: "a key that is no str"}])
def test_the_json_writer_refuses_what_no_report_holds(value):
    """An inexact number, which an exact report never holds, and a dict key
    that is not a str."""
    with pytest.raises(TypeError):
        cli.render({"entries": [{"nu": value, "s": 0}]}, "json")
