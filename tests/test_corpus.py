"""The checked-in benchmark corpora as a regression gate: every expected
entry of ``bench/corpus/*/expected.json`` is run through the benchmark's
own ``invoke``, ``attempt`` and ``judge`` and must be judged consistent,
and every substitution the corpora make must agree with the reference
kernel.  The corpus files are only read."""

import importlib.util
from pathlib import Path

import pytest

from hironaka import coeff, invariant
from hironaka.errors import PreconditionError
from hironaka.poly import Polynomial, substitute

from conftest import reference_substitute

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_corpus_module():
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _load_corpus_module()


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_reports_are_reproduced(workload):
    cli = corpus.import_cli()
    wrong = []
    for item in corpus.load(workload):
        expect = item["expect"]
        status, payload = corpus.attempt(corpus.invoke, cli, item["text"], item["command"])
        verdict, consistent = corpus.judge(expect, status, payload)
        if not consistent:
            wrong.append((expect["problem"], item["command"], verdict, status))
    assert not wrong


def test_every_corpus_substitution_matches_the_reference(monkeypatch):
    """Every ``substitute`` call the three corpora make, and every call of
    the kernel ``_substitute`` that the contact rewrite and vertex
    preparation make with one power table per pair, rerun through the
    Polynomial-arithmetic reference: the same terms in the same order with
    the same types, or the same error."""
    calls = []

    def recorded(kernel, f, images, *powers):
        try:
            result = kernel(f, images, *powers)
        except PreconditionError as exc:
            calls.append((f, images, str(exc)))
            raise
        calls.append((f, images, repr(list(result.terms.items()))))
        return result

    kernel = coeff._substitute
    monkeypatch.setattr(invariant, "substitute", lambda *args: recorded(substitute, *args))
    monkeypatch.setattr(coeff, "_substitute", lambda *args: recorded(kernel, *args))
    cli = corpus.import_cli()
    for workload in sorted(corpus.WORKLOADS):
        for item in corpus.load(workload):
            corpus.attempt(corpus.invoke, cli, item["text"], item["command"])
    monkeypatch.undo()

    assert len(calls) > 100
    for f, images, got in calls:
        assignment = {i: g if isinstance(g, Polynomial) else Polynomial._wrap(f.nvars, g)
                      for i, g in images.items()}
        try:
            want = repr(list(reference_substitute(f, assignment).terms.items()))
        except PreconditionError as exc:
            want = str(exc)
        assert got == want


@pytest.mark.parametrize("workload, expanded", [
    ("contact-reject", (0, 0)),
    ("lsb-hypersurface", (18, 0)),
    ("pairs-local", (223, 0)),
])
def test_rejected_directions_never_expand_the_generator(monkeypatch, workload, expanded):
    """Calls of the substitution kernel ``_substitute`` and of
    ``hasse_derivative`` in ``coeff`` over one ``invariant`` pass of a
    corpus.  The line screen rejects every direction of contact-reject
    before f is changed.  The witness is read off f after the linear
    change, so no direction differentiates f, and an accepted direction's
    change is built with its shift in place, by no substitution of its
    own."""
    calls = {"_substitute": 0, "hasse_derivative": 0}

    def counted(name, kernel):
        def call(*args):
            calls[name] += 1
            return kernel(*args)
        return call

    for name in calls:
        monkeypatch.setattr(coeff, name, counted(name, getattr(coeff, name)))
    cli = corpus.import_cli()
    for item in corpus.load(workload):
        if item["command"] == "invariant":
            corpus.attempt(corpus.invoke, cli, item["text"], item["command"])
    assert (calls["_substitute"], calls["hasse_derivative"]) == expanded
