"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/selftest.py

Kept out of the package test suite (the file name does not match
``test_*.py``): generating a corpus slice takes seconds.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import gen_corpus  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

cli = corpus.import_cli()
invoke = partial(corpus.invoke, cli)


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_generator_is_deterministic(tmp_path):
    name = "pairs-local"
    seed = corpus.WORKLOADS[name]["seed"]
    for out in ("a", "b"):
        gen_corpus.write(gen_corpus.generate(name, seed, limit=3), tmp_path / out)
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert first == second
    # the checked-in corpus starts with the same problems and expectations
    checked_in = corpus.workload_dir(name)
    for key, data in first.items():
        if key.startswith("problems/"):
            assert (checked_in / key).read_bytes() == data
    expected = json.loads(first["expected.json"])
    assert json.loads((checked_in / "expected.json").read_text())[: len(expected)] == expected


def test_altered_expected_report_is_a_failure():
    items = [i for i in corpus.load("pairs-local") if i["command"] == "hs"][:2]
    altered = copy.deepcopy(items[1])
    altered["expect"]["report"]["dims"][-1] += 1
    results = run.one_pass([items[0], altered], invoke, hostspeed.HostClock())
    assert [(r[2], r[3]) for r in results] == [("ok", True), ("fail", False)]


def test_judge_outcomes():
    ok = {"expect": "ok", "report": {"dims": [1]}}
    reject = {"expect": "reject", "message": "no", "nu1_dims": [1, 2]}
    bug = {"expect": "error"}
    assert corpus.judge(ok, "reject", "no") == ("fail", False)
    assert corpus.judge(ok, "error", "InternalError") == ("fail", False)
    assert corpus.judge(reject, "reject", "no") == ("reject", True)
    assert corpus.judge(reject, "reject", "another reason") == ("fail", False)
    assert corpus.judge(reject, "error", "InternalError") == ("fail", False)
    answer = json.dumps({"invariant": {"nu1": {"dims": [1, 2]}}}).encode()
    assert corpus.judge(reject, "ok", answer) == ("unchecked", True)
    wrong = json.dumps({"invariant": {"nu1": {"dims": [1, 3]}}}).encode()
    assert corpus.judge(reject, "ok", wrong) == ("fail", False)
    assert corpus.judge(bug, "error", "InternalError") == ("fail", True)
    assert corpus.judge(bug, "reject", "no") == ("unchecked", True)


def _attributes():
    mods = tracing._package_modules()
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    poly = sys.modules["hironaka.poly"].Polynomial
    state.update({("Polynomial", k): poly.__dict__[k] for k in ("__mul__", "__add__")})
    return state


def test_traced_run_restores_module_attributes():
    before = _attributes()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        wrapped = sys.modules["hironaka.invariant"].find_maximal_contact
        assert wrapped is not before[("hironaka.coeff", "find_maximal_contact")]
        assert cli.render is not before[("hironaka.cli", "render")]
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_run_counts_and_accounts():
    items = corpus.load("pairs-local")[:8]
    results, metrics, passes = run.traced_run(invoke, items, random.Random(1), 0.01)
    assert passes == 1 and len(results) == 2 * len(items)
    assert all(r[3] for r in results)
    assert metrics["cli.render.calls"][0] == len(items)
    assert metrics["cli.problem_from_data.calls"][0] == len(items)
    assert metrics["poly.Polynomial.__mul__.calls"][0] > 0
    assert metrics["trace.untraced_s"][0] > 0
    assert 0.5 < metrics["trace.accounted_share"][0] < 2.0


def test_host_clock_scales_each_duration_by_the_probe_after_it():
    clock = hostspeed.HostClock()
    clock.add(0.001)
    assert clock.slowness == []  # owes less than one reference chunk
    clock.add(hostspeed.REFERENCE_S / hostspeed.SHARE)
    assert len(clock.slowness) == 2 and clock.slowness[0] == clock.slowness[1] > 0
    clock.add(0.002)
    scaled = clock.scaled()
    assert len(clock.slowness) == 3 and clock.reference_s > 0
    assert scaled == [t / s for t, s in zip(clock.raw, clock.slowness)]


def test_p90_needs_one_hundred_samples():
    few = [("hs", 0.001 * i, "ok", True) for i in range(99)]
    metrics, samples = run.latency_metrics(few, ("hs",))
    assert "op_p90_ms" not in metrics and "op_p90_ms" not in samples
    metrics, samples = run.latency_metrics(few + [("hs", 0.1, "ok", True)], ("hs",))
    assert samples["op_p90_ms"] == 100


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((corpus.ROOT / "BENCHMARK.json").read_text())
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.GATED
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(corpus.WORKLOADS)
    per_layer = set(tracing.Tracer().metrics({})) | {
        "trace.wall_s", "trace.untraced_s", "trace.overhead_s",
        "trace.unwrapped_s", "trace.accounted_share"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(corpus.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pairs-local", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
