"""The checked-in benchmark corpora as a regression gate: every expected
entry of ``bench/corpus/*/expected.json`` is run through the benchmark's
own ``invoke``, ``attempt`` and ``judge`` and must be judged consistent.
The corpus files are only read."""

import importlib.util
from pathlib import Path

import pytest

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
