"""Benchmark of the exact invariant pipeline, one workload per process.

    python3 bench/run.py --workload pairs-local --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

One closed-loop caller in one thread makes CLI invocations, each
parse -> ``hironaka.cli.run`` -> ``hironaka.cli.render(..., "json")``, over the
workload's checked-in corpus (``corpus/<workload>/``) and checks every
report against the expected one.  ``--seed`` only shuffles the order of each
pass over the corpus.  Whole passes run until another would overrun
``--seconds``, so every run measures the same mix.

Every timing is scaled to a nominal host speed (see ``hostspeed.py``): a
fixed reference computation runs between invocations, and each duration is
divided by the host's slowness measured just before and just after it.  The
unscaled figures are printed too, under ``raw.``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes whole passes in which each invocation runs once with
every layer function wrapped (see ``tracing.py``) and once without, and
reports per-layer calls, self time and counters, and the tracing overhead.
``trace.accounted_share`` is the sum of all self times over the untraced
time of the same invocations; it should be within 10% of 1.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full run record: git revision, Python version, nproc, sample
counts, and every metric including those not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from functools import partial
from time import perf_counter

import corpus
import hostspeed
import tracing

# End-to-end metrics on the last line, as BENCHMARK.json lists them: the
# ones every workload has.  op_p50_ms is printed but not gated: on
# lsb-hypersurface it falls between the run-lsb and hs/invariant clusters.
GATED = ("setup_s", "ops_per_s", "invariant_p50_ms", "peak_rss_mb")
SETUP_SAMPLES = 25
SETUP_CPU_LIMIT_S = 60
P90_MIN_SAMPLES = 100
ACCOUNTED_TOLERANCE = 0.10


def _limit_child_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (SETUP_CPU_LIMIT_S, SETUP_CPU_LIMIT_S))


def measure_setup(samples: int) -> hostspeed.HostClock:
    """Seconds from starting a fresh interpreter until it has imported
    ``hironaka.cli`` and exited, one value per sample.

    The wait blocks in waitpid: with a timeout, ``subprocess`` polls at up
    to 50 ms intervals, which is half the time being measured.  A CPU-time
    limit on the child bounds a hang instead."""
    env = dict(os.environ, PYTHONPATH=str(corpus.ROOT / "src"))
    clock = hostspeed.HostClock()
    for _ in range(samples):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import hironaka.cli"], env=env,
                       cwd=corpus.ROOT, check=True, preexec_fn=_limit_child_cpu)
        clock.add(perf_counter() - start)
    return clock


def one_pass(items, call, clock: hostspeed.HostClock) -> list[tuple[str, float, str, bool]]:
    """``call(text, command)`` for every item in order, each timed into
    ``clock``: (command, raw seconds, verdict, consistent)."""
    results = []
    for item in items:
        start = perf_counter()
        status, payload = corpus.attempt(call, item["text"], item["command"])
        elapsed = perf_counter() - start
        clock.add(elapsed)
        verdict, consistent = corpus.judge(item["expect"], status, payload)
        results.append((item["command"], elapsed, verdict, consistent))
    return results


def rescaled(results, clock: hostspeed.HostClock):
    """``results`` with each raw time replaced by its scaled one."""
    return [(c, t, v, k) for (c, _, v, k), t in zip(results, clock.scaled())]


def whole_passes(seconds: float, run_pass) -> tuple[list, int]:
    """``run_pass()`` until another pass would overrun ``seconds``."""
    results = []
    passes = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        results += run_pass()
        passes += 1
        now = perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return results, passes


def p90(values):
    """90th percentile, or None below P90_MIN_SAMPLES samples (fewer than
    ten would lie beyond it)."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[8]


def latency_metrics(results, commands) -> tuple[dict, dict]:
    """Latency and outcome metrics, and the sample count behind each."""
    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, int] = {}
    ms = [r[1] * 1000 for r in results]
    metrics["op_p50_ms"] = (statistics.median(ms), "ms")
    samples["op_p50_ms"] = len(ms)
    tail = p90(ms)
    if tail is not None:
        metrics["op_p90_ms"] = (tail, "ms")
        samples["op_p90_ms"] = len(ms)
    for command in commands:
        mine = [r[1] * 1000 for r in results if r[0] == command]
        metrics[f"{command}_p50_ms"] = (statistics.median(mine), "ms")
        samples[f"{command}_p50_ms"] = len(mine)
    verdicts = Counter(r[2] for r in results)
    metrics["fail_ratio"] = (verdicts["fail"] / len(results), "ratio")
    metrics["reject_ratio"] = (verdicts["reject"] / len(results), "ratio")
    return metrics, samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def traced_run(invoke, items, rng, seconds):
    """Whole shuffled passes in which every invocation runs twice back to
    back, traced and untraced in alternating order, so that both runs see
    the same host.  Each traced invocation's self times are scaled by the
    host's slowness around it, like its duration."""
    tracer = tracing.Tracer()
    call = tracer.wrap(tracing.ROOT, invoke)
    clock = hostspeed.HostClock()
    deltas = []  # per invocation: self-time increments by span, None if untraced

    def traced_one(item):
        before = dict(tracer.self_s)
        with tracing.traced(tracer):
            results = one_pass([item], call, clock)
        deltas.append({n: v - before.get(n, 0.0) for n, v in tracer.self_s.items()})
        return results

    def plain_one(item):
        deltas.append(None)
        return one_pass([item], invoke, clock)

    def run_pass():
        results = []
        for k, item in enumerate(rng.sample(items, len(items))):
            first, second = (plain_one, traced_one) if k % 2 else (traced_one, plain_one)
            results += first(item) + second(item)
        return results

    results, passes = whole_passes(seconds, run_pass)
    self_s: dict[str, float] = defaultdict(float)
    traced_wall = plain_wall = 0.0
    for t, slowness, delta in zip(clock.scaled(), clock.slowness, deltas):
        if delta is None:
            plain_wall += t
            continue
        traced_wall += t
        for name, value in delta.items():
            self_s[name] += value / slowness
    metrics = tracer.metrics(self_s)
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_s": (plain_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.unwrapped_s": (self_s[tracing.ROOT], "s"),
        "trace.accounted_share": (sum(self_s.values()) / plain_wall, "ratio"),
    })
    return results, metrics, passes


def git_revision() -> str:
    if not (corpus.ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(corpus.ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print its metrics; 1 if a report was wrong."""
    invoke = partial(corpus.invoke, cli)
    items = corpus.load(name)
    rng = random.Random(seed)
    commands = corpus.WORKLOADS[name]["commands"]

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "git_revision": git_revision(), "python": platform.python_version(),
              "nproc": nproc(), "corpus_invocations": len(items)}
    samples = {}
    if trace:
        results, metrics, passes = traced_run(invoke, items, rng, seconds)
        gated = list(metrics)
        share = metrics["trace.accounted_share"][0]
        record["accounted_within_tolerance"] = abs(1 - share) <= ACCOUNTED_TOLERANCE
    else:
        setup = measure_setup(SETUP_SAMPLES)
        clock = hostspeed.HostClock()
        start = perf_counter()
        raw, passes = whole_passes(
            seconds, lambda: one_pass(rng.sample(items, len(items)), invoke, clock))
        record["wall_s"] = perf_counter() - start
        results = rescaled(raw, clock)
        metrics = {"setup_s": (statistics.median(setup.scaled()), "s"),
                   "ops_per_s": (len(results) / sum(r[1] for r in results), "1/s")}
        lat, samples = latency_metrics(results, commands)
        metrics.update(lat)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        samples["setup_s"] = len(setup.raw)
        raw_lat, _ = latency_metrics(raw, ("invariant",))
        metrics.update({
            "raw.setup_s": (statistics.median(setup.raw), "s"),
            "raw.ops_per_s": (len(raw) / sum(r[1] for r in raw), "1/s"),
            "raw.invariant_p50_ms": raw_lat["invariant_p50_ms"],
            "host.slowness_p50": (statistics.median(clock.slowness), "ratio"),
        })
        record["reference_s"] = clock.reference_s
        gated = list(GATED)
    record["passes"] = passes

    outcomes = Counter(r[2] for r in results)
    correct = all(r[3] for r in results)
    record.update(samples=samples, outcomes=dict(sorted(outcomes.items())),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    for key, (value, unit) in metrics.items():
        count = f"  (n={samples[key]})" if key in samples else ""
        print(f"{name:<17} {key:<44} {value:>14.6g} {unit}{count}")
    if trace and not record["accounted_within_tolerance"]:
        print(f"warning: self times account for {share:.1%} of the untraced time",
              file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": outcomes["fail"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in gated},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh interpreter, one after another, with its
    output in full; non-zero if any workload had a wrong report."""
    status = 0
    for name in corpus.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        cli = corpus.import_cli()
    except ImportError as exc:
        print(f"cannot run {args.workload}: {exc}", file=sys.stderr)
        return 2
    return run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
