"""Generate the fixed corpus of one benchmark workload from its seed.

    python3 bench/gen_corpus.py --workload pairs-local
    python3 bench/gen_corpus.py --workload contact-reject --seed 3303
    python3 bench/gen_corpus.py --all

Writes ``bench/corpus/<workload>/`` (see ``corpus.py``).  The same seed
gives byte-identical files: candidates come from ``random.Random(seed)`` and
the per-invocation cost cap counts polynomial term operations instead of
reading a clock.

Independent checks run before anything is written, and the generator stops
on a disagreement:

- every ``hs`` report of ``lsb-hypersurface`` equals the closed form
  C(k-1+n, n) - C(k-1-b+n, n) for one generator of order b in n variables;
- every expected ``invariant`` report equals the fast-path invariant.

Candidates on which a command is rejected (PreconditionError) are left out
of ``lsb-hypersurface`` and ``pairs-local``; candidates that hit a bug
(InternalError or any other exception) are kept and expected to fail.
``contact-reject`` keeps only "completion-level coordinate change"
rejections within the cost cap.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import sys
from collections import Counter
from contextlib import contextmanager

import corpus

# Per-invocation cost cap, in polynomial term operations (terms multiplied
# pairwise plus terms added).  On a 2-vCPU x86-64 VM 100000 term
# operations take about 1 s.  The contact-reject cap keeps multi-second
# rejections in that slice; pairs-local keeps invocations of milliseconds.
COST_CAPS = {
    "lsb-hypersurface": 300_000,
    "pairs-local": 20_000,
    "contact-reject": 300_000,
}
CONTACT_REJECTION = "completion-level coordinate change"
NAMES = ("x0", "x1", "x2", "x3")


class CostCapExceeded(BaseException):
    """Raised inside the program when an invocation passes the cost cap.

    A BaseException, so that no handler in the program swallows it."""


@contextmanager
def cost_cap(limit: int):
    from hironaka.poly import Polynomial

    mul, add = Polynomial.__mul__, Polynomial.__add__
    spent = [0]

    def charge(n):
        spent[0] += n
        if spent[0] > limit:
            raise CostCapExceeded

    def counted_mul(a, b):
        if isinstance(b, Polynomial):
            charge(len(a.terms) * len(b.terms))
        return mul(a, b)

    def counted_add(a, b):
        charge(len(a.terms) + len(b.terms))
        return add(a, b)

    Polynomial.__mul__, Polynomial.__add__ = counted_mul, counted_add
    try:
        yield
    finally:
        Polynomial.__mul__, Polynomial.__add__ = mul, add


# ---------------------------------------------------------------------------
# Random inputs


def _monomial(names, exps, coeff) -> str:
    factors = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, exps) if e]
    text = "*".join(factors) or "1"
    return text if coeff == 1 else f"{coeff}*{text}"


def random_polynomial(rng, names, max_degree) -> dict:
    """Exponent tuple -> integer coefficient: up to 5 nonzero terms, all of
    degree in [1, max_degree]."""
    n = len(names)
    terms: dict[tuple, int] = {}
    for _ in range(rng.randint(1, 5)):
        while True:
            exps = tuple(rng.randint(0, max_degree) for _ in range(n))
            if 1 <= sum(exps) <= max_degree:
                break
        c = 0
        while c == 0:
            c = rng.randint(-4, 4)
        terms[exps] = terms.get(exps, 0) + c
    terms = {e: c for e, c in terms.items() if c}
    return terms or random_polynomial(rng, names, max_degree)


def _poly_text(names, terms: dict) -> str:
    return " + ".join(_monomial(names, e, c) for e, c in sorted(terms.items()))


def random_singular_components(rng, names, components) -> list[dict]:
    """Components whose generators have order >= weight at the origin, as in
    the test suite's random singular pairs: a generator of low order is
    multiplied by random variables until it reaches the weight."""
    n = len(names)
    comps = []
    for _ in range(components):
        b = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = random_polynomial(rng, names, max_degree=b + 2)
            while min(sum(e) for e in g) < b:
                i = rng.randrange(n)
                g = {tuple(x + (j == i) for j, x in enumerate(e)): c for e, c in g.items()}
            gens.append(_poly_text(names, g))
        comps.append({"gens": gens, "b": str(b)})
    return comps


def lsb_candidate(rng) -> dict:
    """z^b + u-monomials of degree >= b, then 1-3 point blow-ups in u-charts."""
    b = rng.randint(2, 4)
    us = list(NAMES[: rng.randint(2, 3)])
    monomials = []
    for _ in range(rng.randint(1, 2)):
        while True:
            exps = tuple(rng.randint(0, b + 1) for _ in us)
            if sum(exps) >= b:
                break
        monomials.append(_monomial(us, exps, rng.choice((1, 1, 2, 3, -1))))
    steps = [{"center": us + ["z"], "chart": rng.choice(us)}
             for _ in range(rng.randint(1, 3))]
    return {
        "variables": us + ["z"], "u": us, "y": ["z"],
        "pair": {"components": [{"gens": [" + ".join([f"z^{b}"] + monomials)],
                                 "b": str(b)}]},
        "script": {"steps": steps},
        "options": {"hs_cutoff": 12},
    }


def pairs_candidate(rng) -> dict:
    """A 2-3 component singular pair in 2-4 variables; y is chosen later."""
    names = list(NAMES[: rng.randint(2, 4)])
    return {
        "variables": names,
        "pair": {"components": random_singular_components(rng, names, rng.randint(2, 3))},
        "options": {"hs_cutoff": 4},
    }


def contact_candidate(rng) -> dict:
    names = list(NAMES[: rng.randint(2, 4)])
    return {
        "variables": names,
        "pair": {"components": random_singular_components(rng, names, rng.randint(1, 2))},
        "options": {"hs_cutoff": 8},
    }


# ---------------------------------------------------------------------------
# Evaluation and checks


class CheckFailed(Exception):
    pass


def _evaluate(cli, problem: dict, commands, cap: int) -> list[tuple[str, str, object]] | str:
    """(command, status, payload) per command, or an exclusion reason."""
    text = corpus.dump_json(problem)
    results = []
    for command in commands:
        try:
            with cost_cap(cap):
                status, payload = corpus.attempt(corpus.invoke, cli, text, command)
        except CostCapExceeded:
            return f"{command}: over cost cap"
        results.append((command, status, payload))
    return results


def _pick_directrix_y(cli, problem: dict) -> dict | str:
    """Set y to the directrix when its forms are coordinate variables."""
    status, payload = corpus.attempt(corpus.invoke, cli, corpus.dump_json(problem), "directrix")
    if status != "ok":
        return f"directrix: {status}"
    forms = json.loads(payload)["forms"]
    if not forms or any(f not in problem["variables"] for f in forms):
        return "directrix: forms are not coordinate variables"
    ordered = [v for v in problem["variables"] if v in forms]
    return dict(problem, u=[v for v in problem["variables"] if v not in forms], y=ordered)


def check_hs_closed_form(problem: dict, report: dict) -> None:
    n = len(problem["variables"])
    b = int(problem["pair"]["components"][0]["b"])
    for k, got in enumerate(report["dims"], start=1):
        want = math.comb(k - 1 + n, n)
        if k - 1 - b >= 0:
            want -= math.comb(k - 1 - b + n, n)
        if got != want:
            raise CheckFailed(f"hs at k={k}: {got} != closed form {want}: {problem}")


def check_fast_path(cli, problem: dict, payload: bytes) -> None:
    parsed = cli.parse_problem(corpus.dump_json(problem))
    fast = cli.render(cli.run(parsed, "invariant", fast=True), "json")
    if fast != payload:
        raise CheckFailed(f"fast-path invariant disagrees: {problem}")


def generate(workload: str, seed: int, limit: int | None = None) -> dict:
    """Build the corpus in memory: {"problems", "expected", "manifest"}."""
    cli = corpus.import_cli()
    spec = corpus.WORKLOADS[workload]
    size = spec["size"] if limit is None else limit
    commands = spec["commands"]
    rng = random.Random(seed)
    make = {"lsb-hypersurface": lsb_candidate, "pairs-local": pairs_candidate,
            "contact-reject": contact_candidate}[workload]

    problems: dict[str, dict] = {}
    expected: list[dict] = []
    excluded: Counter = Counter()
    checks: Counter = Counter()
    candidates = 0
    while len(problems) < size:
        candidates += 1
        problem = make(rng)
        if workload == "pairs-local":
            problem = _pick_directrix_y(cli, problem)
            if isinstance(problem, str):
                excluded[problem] += 1
                continue
        results = _evaluate(cli, problem, commands, COST_CAPS[workload])
        if isinstance(results, str):
            excluded[results] += 1
            continue
        rejected = [(c, p) for c, s, p in results if s == "reject"]
        if workload == "contact-reject":
            if not (rejected and CONTACT_REJECTION in rejected[0][1]):
                excluded[f"invariant: {results[0][1]} without contact rejection"] += 1
                continue
        elif rejected:
            excluded[f"{rejected[0][0]}: rejected"] += 1
            continue

        pid = f"{len(problems):03d}"
        entries = []
        for command, status, payload in results:
            entry = {"problem": pid, "command": command, "expect": status}
            if status == "ok":
                if command == "hs" and workload == "lsb-hypersurface":
                    check_hs_closed_form(problem, json.loads(payload))
                    checks["hs_closed_form"] += 1
                if command == "invariant":
                    check_fast_path(cli, problem, payload)
                    checks["fast_path_agrees"] += 1
                entry["report"] = json.loads(payload)
            else:
                entry["message"] = payload
            if workload == "contact-reject":
                hs = json.loads(corpus.invoke(cli, corpus.dump_json(problem), "hs"))
                entry["nu1_dims"] = hs["dims"]
            entries.append(entry)
        problems[pid] = problem
        expected.extend(entries)

    manifest = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "commands": list(commands),
        "candidates": candidates,
        "excluded": dict(sorted(excluded.items())),
        "cost_cap_term_ops": COST_CAPS[workload],
        "over_cost_cap": sum(v for k, v in excluded.items() if k.endswith("over cost cap")),
        "expected_outcomes": dict(sorted(Counter(e["expect"] for e in expected).items())),
        "checks": dict(sorted(checks.items())),
    }
    return {"problems": problems, "expected": expected, "manifest": manifest}


def write(result: dict, target) -> None:
    problems_dir = target / "problems"
    if problems_dir.exists():
        shutil.rmtree(problems_dir)
    problems_dir.mkdir(parents=True)
    for pid, problem in result["problems"].items():
        (problems_dir / f"{pid}.json").write_text(corpus.dump_json(problem), encoding="utf-8")
    (target / "expected.json").write_text(corpus.dump_json(result["expected"]),
                                          encoding="utf-8")
    (target / "manifest.json").write_text(corpus.dump_json(result["manifest"]),
                                          encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed (default: the workload's fixed seed)")
    args = parser.parse_args(argv)
    names = sorted(corpus.WORKLOADS) if args.all else [args.workload]
    for name in names:
        seed = corpus.WORKLOADS[name]["seed"] if args.seed is None else args.seed
        try:
            result = generate(name, seed)
        except CheckFailed as exc:
            print(f"{name}: check failed, nothing written: {exc}", file=sys.stderr)
            return 1
        write(result, corpus.workload_dir(name))
        print(f"{name}: {corpus.dump_json(result['manifest'])}", end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
