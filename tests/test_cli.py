import json

import pytest

from hironaka import cli
from hironaka.errors import PreconditionError

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
    ({"verify": "false"}, "option 'verify': expected a JSON boolean"),
    ({"skip_unit_steps": 1}, "option 'skip_unit_steps': expected a JSON boolean"),
])
def test_options_must_have_json_types(tmp_path, capsys, options, message):
    assert call(tmp_path, dict(A3_BLOWN_UP, options=options), "hs") == 3
    assert message in capsys.readouterr().err


def test_birth_must_be_an_integer(tmp_path, capsys):
    data = dict(A3_BLOWN_UP, exceptional=[{"id": "E1", "variable": "x", "birth": "1"}])
    assert call(tmp_path, data, "hs") == 3
    assert "exceptional E1: birth: expected a JSON integer" in capsys.readouterr().err


def test_options_are_read(tmp_path, capsys):
    data = dict(A3_BLOWN_UP, options={"hs_cutoff": 3, "verify": False})
    assert call(tmp_path, data, "hs", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out) == {"command": "hs", "cutoff": 3, "dims": [1, 3, 5]}
    problem = cli.problem_from_data(data)
    assert problem.options == cli.Options(hs_cutoff=3, verify=False)


@pytest.mark.parametrize("flags", [(), ("--fast",)])
def test_invariant_after_blowup_in_divisor_chart(tmp_path, capsys, flags):
    assert call(tmp_path, A3_BLOWN_UP, "invariant", "--format", "json", *flags) == 0
    report = json.loads(capsys.readouterr().out)["invariant"]
    assert (report["s1"], report["entries"], report["terminal"], report["monomial"]) == (
        0, [], "0", "x")


def test_command_table():
    problem = cli.problem_from_data(A3_BLOWN_UP)
    assert cli.COMMANDS == tuple(cli.HANDLERS)
    assert "invariant-fast" not in cli.COMMANDS
    for command in ("order", "hs", "d-i"):
        report = cli.run(problem, command)
        assert next(iter(report)) == "command" and report["command"] == command
    with pytest.raises(PreconditionError, match="unknown command"):
        cli.run(problem, "invariant-fast")
