"""What the benchmark relies on in the library: every function that
``bench/tracing.py`` wraps by name still exists, and the fast-path
invariant that ``bench/gen_corpus.py`` checks reports against still agrees
with the default one.  ``bench/`` is only read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hironaka import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
corpus = _load("corpus")


@pytest.mark.parametrize("span", tracing.span_names())
def test_traced_names_resolve(span):
    mod, qual = span.split(".", 1)
    home = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        assert callable(vars(getattr(home, cls_name))[attr])
    else:
        assert callable(getattr(home, qual))


def test_fast_path_report_equals_the_default_one():
    item = next(i for i in corpus.load("lsb-hypersurface")
                if i["command"] == "invariant" and i["expect"]["expect"] == "ok")
    problem = cli.parse_problem(item["text"])
    assert problem.script
    default = cli.run(problem, "invariant")
    assert default == item["expect"]["report"]
    assert cli.run(problem, "invariant", fast=True) == default
