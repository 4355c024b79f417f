"""Span tracing for the benchmark's traced run.

Every function named in ``TARGETS`` is wrapped at each module attribute of
the ``hironaka`` package that refers to it, so calls through
``from .x import f`` bindings are seen too; the ``Polynomial`` methods are
wrapped on the class.  A wrapper records one span per call: its duration,
and its self time (duration minus the time its child spans cover).  Only
aggregates are kept: calls, self seconds and a few per-layer counters.

Nothing is wrapped unless ``traced()`` is entered, and leaving it puts every
original attribute back.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "hironaka"

# layer module -> traced public functions; "Class.method" names a method
TARGETS = {
    "poly": ("Polynomial.__mul__", "Polynomial.__add__", "substitute",
             "hasse_derivative", "parse_polynomial"),
    "linalg": ("rref", "sparse_rank", "lp_feasible", "solve", "nullspace"),
    "polyhedra": ("polyhedron_of_pair", "minimize_vertices", "point_in_hull_orthant"),
    "cone": ("hilbert_samuel_truncated", "directrix", "homogeneous_member",
             "graded_piece"),
    "coeff": ("find_maximal_contact", "coefficient_pair", "prepare_vertices"),
    "history": ("run_lsb", "blowup_chart"),
    "invariant": ("compute_invariant", "invariant_step", "companion_pair"),
    "cli": ("problem_from_data", "render"),
}


def _term_products(args, result):
    a, b = args
    return len(a.terms) * len(b.terms) if hasattr(b, "terms") else 0


# span name -> (counter name, amount counted on each normal return)
COUNTERS = {
    "poly.Polynomial.__mul__": ("term_products", _term_products),
    "linalg.sparse_rank": ("rows", lambda args, result: len(args[0])),
    "coeff.find_maximal_contact": ("returns", lambda args, result: 1),
    "coeff.prepare_vertices": ("translations",
                               lambda args, result: len(result.translations)),
}

ROOT = "bench.invocation"  # the benchmark's own span around one invocation


def span_names() -> list[str]:
    return [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]


class Tracer:
    """Aggregated spans: calls and self time per name, plus counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # child-time accumulators of the open spans; the bottom one
        # collects the duration of top-level spans
        self._children = [0.0]

    def wrap(self, name: str, fn):
        children = self._children
        calls, self_s, counts = self.calls, self.self_s, self.counts
        counter = COUNTERS.get(name)

        def traced_call(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = children.pop()
                children[-1] += duration
                self_s[name] += duration - inner
                calls[name] += 1
            if counter is not None:
                counts[f"{name}.{counter[0]}"] += counter[1](args, result)
            return result

        return traced_call

    def metrics(self, self_s: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit), with the self time
        of each span name taken from ``self_s``."""
        out: dict[str, tuple[float, str]] = {}
        for name in span_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out["poly.Polynomial.__mul__.term_products"] = (
            self.counts["poly.Polynomial.__mul__.term_products"], "count")
        out["linalg.sparse_rank.rows"] = (self.counts["linalg.sparse_rank.rows"], "count")
        fmc_calls = self.calls["coeff.find_maximal_contact"]
        out["coeff.find_maximal_contact.accept_ratio"] = (
            self.counts["coeff.find_maximal_contact.returns"] / fmc_calls
            if fmc_calls else 0.0, "ratio")
        out["coeff.prepare_vertices.translations"] = (
            self.counts["coeff.prepare_vertices.translations"], "count")
        return out


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers of ``tracer`` for the duration of the block."""
    patches = []  # (owner, attribute, original)
    modules = _package_modules()
    try:
        for mod, names in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for qual in names:
                span = f"{mod}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    patches.append((owner, attr, original))
                    setattr(owner, attr, tracer.wrap(span, original))
                    continue
                original = getattr(home, qual)
                wrapper = tracer.wrap(span, original)
                for module in modules:
                    for key in [k for k, v in vars(module).items() if v is original]:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
