"""The checked-in benchmark corpora as a regression gate: every expected
entry of ``bench/corpus/*/expected.json`` is run through the benchmark's
own ``invoke``, ``attempt`` and ``judge`` and must be judged consistent,
and every ``substitute`` call the corpora make must agree with the
reference kernel.  The corpus files are only read."""

import importlib.util
from pathlib import Path

import pytest

from hironaka import coeff, invariant
from hironaka.errors import PreconditionError
from hironaka.poly import substitute

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
    """Every ``substitute`` call the three corpora make, rerun through the
    Polynomial-arithmetic reference: the same terms in the same order with
    the same types, or the same error."""
    calls = []

    def recording(f, assignment):
        calls.append((f, dict(assignment)))
        return substitute(f, assignment)

    for module in (coeff, invariant):
        monkeypatch.setattr(module, "substitute", recording)
    cli = corpus.import_cli()
    for workload in sorted(corpus.WORKLOADS):
        for item in corpus.load(workload):
            corpus.attempt(corpus.invoke, cli, item["text"], item["command"])
    monkeypatch.undo()

    def outcome(kernel, f, assignment):
        try:
            return repr(list(kernel(f, assignment).terms.items()))
        except PreconditionError as exc:
            return str(exc)

    assert len(calls) > 100
    for f, assignment in calls:
        assert outcome(substitute, f, assignment) == outcome(reference_substitute, f, assignment)


@pytest.mark.parametrize("workload, expanded", [
    ("contact-reject", (0, 0)),
    ("lsb-hypersurface", (26, 42)),
    ("pairs-local", (269, 163)),
])
def test_rejected_directions_never_expand_the_generator(monkeypatch, workload, expanded):
    """Calls of ``substitute`` and ``hasse_derivative`` in ``coeff`` over one
    ``invariant`` pass of a corpus.  The line screen rejects every direction
    of contact-reject before f is changed or differentiated.  An accepted
    direction's change is built with its shift in place, by no
    ``substitute`` call of its own."""
    calls = {"substitute": 0, "hasse_derivative": 0}

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
    assert (calls["substitute"], calls["hasse_derivative"]) == expanded
