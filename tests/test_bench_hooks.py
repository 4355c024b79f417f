"""What the benchmark relies on in the library.  Read off ``bench/*.py``
with ``ast``: every ``cli.<name>`` it uses, every ``from hironaka.<mod>
import <name>`` and every ``sys.modules["hironaka.<mod>"].<name>`` resolves,
and every keyword it passes to ``cli.run`` is a parameter of ``cli.run``.
Every function that ``bench/tracing.py`` wraps by name still exists.

``bench/gen_corpus.py`` checks each expected ``invariant`` report against
``cli.run(..., fast=True)``.  The keyword now selects
``invariant.projected_invariant``, the paper's polyhedral route, and keeps
its name until the benchmark itself changes; so every expected ``invariant``
outcome of the corpora must equal the route's.  ``bench/`` is only read."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from hironaka import cli
from hironaka.errors import PreconditionError

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
corpus = _load("corpus")


def _uses():
    """(cli attributes, cli.run keywords, (module, name) imports) of bench/."""
    attrs, keywords, imports = set(), set(), set()
    for path in SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                owner = node.value
                if isinstance(owner, ast.Name) and owner.id == "cli":
                    attrs.add(node.attr)
                elif (isinstance(owner, ast.Subscript) and isinstance(owner.slice, ast.Constant)
                      and ast.unparse(owner.value) == "sys.modules"):
                    imports.add((owner.slice.value, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hironaka":
                imports.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "cli.run":
                keywords.update(kw.arg for kw in node.keywords)
    return attrs, keywords, imports


ATTRS, KEYWORDS, IMPORTS = _uses()
ATTRS |= set(tracing.TARGETS["cli"])  # wrapped by name, read as cli.<name>.calls


def test_the_scan_sees_what_bench_uses_today():
    assert ATTRS >= {"parse_problem", "problem_from_data", "render", "run"}
    assert KEYWORDS >= {"fast"}
    assert IMPORTS >= {("hironaka", "cli"), ("hironaka.errors", "PreconditionError"),
                       ("hironaka.poly", "Polynomial"),
                       ("hironaka.invariant", "find_maximal_contact")}


@pytest.mark.parametrize("name", sorted(ATTRS))
def test_cli_attributes_resolve(name):
    assert hasattr(cli, name)


@pytest.mark.parametrize("keyword", sorted(KEYWORDS))
def test_cli_run_keywords_are_parameters(keyword):
    assert keyword in inspect.signature(cli.run).parameters


@pytest.mark.parametrize("module, name", sorted(IMPORTS))
def test_imported_names_resolve(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("span", tracing.span_names())
def test_traced_names_resolve(span):
    mod, qual = span.split(".", 1)
    home = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        assert callable(vars(getattr(home, cls_name))[attr])
    else:
        assert callable(getattr(home, qual))


@pytest.mark.parametrize("workload", ["lsb-hypersurface", "pairs-local", "contact-reject"])
def test_the_route_reproduces_every_expected_invariant(workload):
    items = [i for i in corpus.load(workload) if i["command"] == "invariant"]
    assert items
    for item in items:
        expect = item["expect"]
        try:
            report = cli.run(cli.parse_problem(item["text"]), "invariant", fast=True)
        except PreconditionError as exc:
            assert (expect["expect"], expect.get("message")) == ("reject", str(exc))
            continue
        assert (expect["expect"], expect.get("report")) == ("ok", report)
