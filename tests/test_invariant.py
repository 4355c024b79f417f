import json
import math
import random
from collections import Counter
from contextlib import suppress
from fractions import Fraction
from functools import partial
from itertools import combinations, product

import pytest

from hironaka import cli, coeff, history, invariant
from hironaka.cli import problem_from_data, run
from hironaka.coeff import MaximalContact, delta_invariant, prepare_vertices
from hironaka.cone import directrix, hilbert_samuel_truncated, initial_ideal
from hironaka.errors import DirectrixNotSpanned, InternalError, PreconditionError
from hironaka.frames import Frame
from hironaka.history import (
    ExcDivisor,
    ExceptionalData,
    PairWithHistory,
    Trace,
    exceptional_nu,
    run_lsb,
)
from hironaka.invariant import (
    HilbertSamuel,
    InvariantEntry,
    InvariantVector,
    Options,
    compare_invariants,
    compute_invariant,
    projected_invariant,
    s_partition,
)
from hironaka.pairs import Component, Pair, is_singular_at_origin
from hironaka.poly import INF, format_polynomial, format_rational, parse_polynomial
from hironaka.polyhedra import delta, polyhedron_of_pair

from conftest import (
    CORPUS, coordinate_min, corpus_problems, random_singular_pair, reference_companion_pair,
)


def hypersurface(f, b, u, y, charts=(), **options):
    """Problem for the hypersurface (f, b), blown up at the origin once per
    chart; returns (state, trace or None, options)."""
    data = {
        "variables": list(u) + list(y), "u": list(u), "y": list(y),
        "pair": {"components": [{"gens": [f], "b": str(b)}]},
        "options": options,
    }
    if charts:
        point = list(u) + list(y)
        data["script"] = {"steps": [{"center": point, "chart": c} for c in charts]}
    problem = problem_from_data(data)
    if not problem.script:
        return problem.state, None, problem.options
    trace = run_lsb(problem.state, problem.script)
    return trace.final, trace, problem.options


def summary(vec):
    """(s1, ((nu2, s2), ...), terminal, center, monomial)"""
    entries = tuple((e.nu, e.s) for e in vec.entries)
    return vec.s1, entries, vec.terminal, vec.center, vec.monomial


SQUARES = tuple(k * k for k in range(1, 13))  # HS of a double point in 3-space

# name -> (problem, nu1 dims, summary, s_partition records or None)
PINNED = {
    "cusp, no script": (
        ("z^2 + x^3*y^2 + y^5", 2, ["x", "y"], ["z"]),
        SQUARES,
        (0, ((Fraction(5, 2), 0), (1, 0)), INF, ("z", "y", "x"), None),
        None,
    ),
    "A3 curve, no script": (
        ("z^2 + x^4", 2, ["x"], ["z"]),
        tuple(range(1, 24, 2)),
        (0, ((2, 0),), INF, ("z", "x"), None),
        None,
    ),
    "cusp, one blow-up": (
        ("z^2 + x^3*y^2 + y^5", 2, ["x", "y"], ["z"], ["x"]),
        SQUARES,
        (0, ((1, 1), (1, 0)), INF, ("z", "x", "y"), None),
        [(0, (), ("E1",)), (1, ("E1",), ()), (0, (), ())],
    ),
    "monomial, one blow-up": (
        ("z^2 + x^3*y^3", 2, ["x", "y"], ["z"], ["x"]),
        SQUARES,
        (0, ((Fraction(3, 2), 1), (1, 0)), INF, ("z", "x", "y"), None),
        [(0, (), ("E1",)), (1, ("E1",), ()), (0, (), ())],
    ),
    "cusp, two blow-ups": (
        ("z^2 + x^3*y^2 + y^5", 2, ["x", "y"], ["z"], ["y", "x"]),
        SQUARES,
        (0, (), 0, None, "x^(1/2)*y^(3/2)"),
        [(0, (), ("E1", "E2"))],
    ),
    "monomial, three blow-ups": (
        ("z^2 + x^5*y^7", 2, ["x", "y"], ["z"], ["x", "y", "x"]),
        SQUARES,
        (0, (), 0, None, "x^(23/2)*y^(15/2)"),
        [(0, (), ("E2", "E3"))],
    ),
    "triple point, one blow-up": (
        ("z^3 + x2^3", 3, ["x0", "x1", "x2"], ["z"], ["x1"]),
        (1, 5, 15, 34, 65, 111, 175, 260, 369, 505, 671, 870),
        (0, ((1, 0),), INF, ("x2", "z"), None),
        [(0, (), ("E1",)), (0, (), ("E1",))],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_invariants(name):
    problem, dims, expected, records = PINNED[name]
    state, trace, opts = hypersurface(*problem)
    for compute in (compute_invariant, projected_invariant):
        vec = compute(state, trace, opts)
        assert vec.nu1.dims == dims and vec.nu1.cutoff == 12
        assert summary(vec) == expected
    if records is not None:
        assert s_partition(trace, opts) == records


def test_contact_leaves_unadjoined_divisor_alone():
    # E1 = {x = 0} is not adjoined at the first step, so the contact must
    # be transversal to it: taking x would consume E1's variable
    state, trace, opts = hypersurface("y^2 + x^4", 2, ["x"], ["y"], ["x"])
    for compute in (compute_invariant, projected_invariant):
        assert summary(compute(state, trace, opts)) == (0, (), 0, None, "x")
    assert s_partition(trace, opts) == [(0, (), ("E1",))]


def test_a_contact_on_a_tracked_divisor_is_an_internal_error(monkeypatch):
    # the same state; a contact forced onto E1's variable x would drop the
    # mark of a divisor the step still tracks
    state, trace, opts = hypersurface("y^2 + x^4", 2, ["x"], ["y"], ["x"])
    find = invariant.find_maximal_contact

    def onto_the_divisor(pair, frame, preferred_variables=()):
        idx = frame.variable_of("E1")
        if idx is None:
            return find(pair, frame, preferred_variables)
        direction = tuple(int(i == idx) for i in range(frame.nvars))
        return MaximalContact(pair, frame.move_to_y(idx), idx, direction)

    monkeypatch.setattr(invariant, "find_maximal_contact", onto_the_divisor)
    with pytest.raises(InternalError, match="^tracked divisor variable was consumed$"):
        compute_invariant(state, trace, opts)


def test_state_must_be_final_year_of_trace():
    state, trace, opts = hypersurface("z^2 + x^3*y^2 + y^5", 2, ["x", "y"], ["z"], ["y", "x"])
    for compute in (compute_invariant, projected_invariant):
        with pytest.raises(PreconditionError):
            compute(trace.years[0].state, trace, opts)
        # an equal copy of the final state is accepted
        copy = PairWithHistory(state.pair, state.frame, state.exdata)
        assert copy == state and copy is not state
        assert compute(copy, trace, opts) == compute(state, trace, opts)


def test_invariant_orders_compare():
    state, trace, opts = hypersurface("z^2 + x^3*y^2 + y^5", 2, ["x", "y"], ["z"], ["x"])
    before = compute_invariant(trace.years[0].state, None, opts)
    after = compute_invariant(state, trace, opts)
    assert compare_invariants(after, before) == "less"
    assert compare_invariants(before, before) == "equal"


def vector(dims, cutoff, s1=0, entries=(), terminal=INF):
    return InvariantVector(HilbertSamuel(tuple(dims), cutoff), s1,
                           tuple(InvariantEntry(nu, s) for nu, s in entries), terminal, None, None)


FLIPPED = {"less": "greater", "greater": "less", "equal": "equal",
           "incomparable-at-cutoff": "incomparable-at-cutoff"}


@pytest.mark.parametrize("a, b, order", [
    (vector((1, 3, 5), 3), vector((1, 3, 5), 3), "equal"),
    (vector((1, 3, 5), 3, terminal=0), vector((1, 3, 5), 3), "less"),
    (vector((1, 3, 5), 3, 1, [(2, 0)]), vector((1, 3, 5), 3, 1, [(Fraction(3, 2), 1)]), "greater"),
    # the dims of y^2 + x^3 and of y^3 + x^4 at cutoff 3 (below)
    (vector((1, 3, 5), 3), vector((1, 3, 6), 3), "less"),
    # unequal dims within the common cutoff decide before the cutoffs do
    (vector((1, 3), 2), vector((1, 2, 3), 3), "greater"),
    # equal within the common cutoff, computed at different cutoffs
    (vector((1, 3, 5), 3), vector((1, 3, 5, 7), 4), "incomparable-at-cutoff"),
    # a run cut before its terminal is a prefix of its completion
    (vector((1, 3, 5), 3, 0, [(Fraction(3, 2), 0)], None),
     vector((1, 3, 5), 3, 0, [(Fraction(3, 2), 0)]), "less"),
])
def test_every_branch_of_the_comparison(a, b, order):
    assert compare_invariants(a, b) == order
    assert compare_invariants(b, a) == FLIPPED[order]


def test_unequal_hilbert_samuel_dims_compare_first():
    # below degree 3, an order-2 generator removes the one monomial of its
    # lead, y^2, and an order-3 generator none: dims (1, 3, 5) and (1, 3, 6)
    cusp, higher = (compute_invariant(state, None, opts) for state, _, opts in (
        hypersurface("y^2 + x^3", 2, ["x"], ["y"], hs_cutoff=3),
        hypersurface("y^3 + x^4", 3, ["x"], ["y"], hs_cutoff=3)))
    assert (cusp.nu1.dims, higher.nu1.dims) == ((1, 3, 5), (1, 3, 6))
    assert (compare_invariants(cusp, higher), compare_invariants(higher, cusp)) == ("less", "greater")


def test_the_comparison_is_antisymmetric_on_the_corpora():
    vectors = []
    for _, problem in corpus_problems():
        trace = run_lsb(problem.state, problem.script) if problem.script else None
        vec = _outcome(compute_invariant, trace.final if trace else problem.state, trace,
                       problem.options)
        if not isinstance(vec, str):
            vectors.append(vec)
    seen = Counter()
    for a, b in product(vectors, repeat=2):
        order = compare_invariants(a, b)
        assert compare_invariants(b, a) == FLIPPED[order], (a, b)
        seen[order] += 1
    assert len(vectors) >= 60 and len(seen) == 4 and min(seen.values()) >= 10, seen


def test_divisor_multiplicities_run_once_per_step(monkeypatch):
    """The companion pair reuses the mu_H of its step instead of
    recomputing: one ``pair_minima`` walk per coefficient pair, empty or
    not, reads mu and every mu_H.  On the lsb corpus, ``invariant`` over
    each script, a chart blow-up makes two walks (delta_center on the old
    pair, then every d on the new one), and ``d-i`` makes one walk on every
    corpus problem."""
    calls = Counter()
    pair_of = invariant.coefficient_pair

    def coefficient_pair(*args):
        H = pair_of(*args)
        calls["H"] += 1
        calls["non-empty H"] += not H.is_empty()
        return H

    monkeypatch.setattr(invariant, "coefficient_pair", coefficient_pair)
    for module, name in ((invariant, "pair_minima"), (history, "pair_minima"),
                         (history, "blowup_chart"), (cli, "pair_minima")):
        def call(*args, kernel=getattr(module, name), key=f"{module.__name__}.{name}", **kw):
            calls[key] += 1
            return kernel(*args, **kw)
        monkeypatch.setattr(module, name, call)
    problems = dict(corpus_problems("lsb-hypersurface"))
    run(problems["001"], "invariant")
    assert calls["hironaka.invariant.pair_minima"] == calls["H"] and calls["non-empty H"] == 3
    for problem in problems.values():
        run(problem, "invariant")
    assert calls["hironaka.invariant.pair_minima"] == calls["H"]
    assert calls["hironaka.history.pair_minima"] == 2 * calls["hironaka.history.blowup_chart"]
    assert calls["hironaka.history.blowup_chart"] == 25, calls
    problems = corpus_problems()
    for _, problem in problems:
        run(problem, "d-i")
    assert calls["hironaka.cli.pair_minima"] == len(problems)


def _outcome(compute, state, trace, opts):
    try:
        return compute(state, trace, opts)
    except PreconditionError as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# The paper's route as the oracle of the descent: ``projected_invariant``
# reads every nu off projections of the Newton points of G o Phi, Phi the
# composed contact changes, and must equal the descent's vector, or raise
# the same PreconditionError.


def _route_tally(cases):
    tally = Counter()
    for state, trace, opts in cases:
        descent = _outcome(compute_invariant, state, trace, opts)
        assert _outcome(projected_invariant, state, trace, opts) == descent
        tally["rejected" if isinstance(descent, str) else "accepted"] += 1
    return tally


def random_pair_state(seed, nvars):
    names = tuple(f"x{i}" for i in range(nvars))
    pair = random_singular_pair(random.Random(seed), nvars)
    return PairWithHistory(pair, Frame(names, tuple(range(nvars)), ()), ExceptionalData(()))


def test_the_route_agrees_on_the_corpus():
    cases = []
    for _, problem in corpus_problems():
        if problem.script:
            trace = run_lsb(problem.state, problem.script)
            cases.append((trace.final, trace, problem.options))
        else:
            cases.append((problem.state, None, problem.options))
    assert _route_tally(cases) == {"accepted": 72, "rejected": 10}


def test_the_route_agrees_on_random_pairs():
    opts = Options(hs_cutoff=4)
    tally = _route_tally((random_pair_state(seed, nvars), None, opts)
                         for seed in range(200) for nvars in (2, 3, 4))
    assert tally == {"accepted": 187, "rejected": 413}


def cusp_trace(seed):
    """z^b + x^max(a, b - c)*y^c, b = 2 or 3, u = x, y and y = z, blown up
    at the origin in 1-3 charts x or y; None when a center is not
    permissible."""
    rng = random.Random(seed)
    b = rng.randint(2, 3)
    a, c = rng.randint(0, b + 3), rng.randint(0, b + 3)
    charts = [rng.choice("xy") for _ in range(rng.randint(1, 3))]
    try:
        return hypersurface(f"z^{b} + x^{max(a, b - c)}*y^{c}", b, ["x", "y"], ["z"], charts,
                            hs_cutoff=4)
    except PreconditionError:
        return None


def test_the_route_agrees_on_random_traces():
    tally = _route_tally(filter(None, map(random_trace, range(300))))
    assert tally == {"accepted": 65, "rejected": 73}
    assert _route_tally(filter(None, map(cusp_trace, range(60))))["accepted"] >= 30


@pytest.mark.parametrize("case", ["pairs-local 028", "random pair, seed 55"])
def test_the_route_needs_the_composed_change(monkeypatch, case):
    if case == "pairs-local 028":
        problem = dict(corpus_problems("pairs-local"))["028"]
        state, opts = problem.state, problem.options
    else:
        state, opts = random_pair_state(55, 2), Options(hs_cutoff=4)
    descent = compute_invariant(state, None, opts)
    assert descent.terminal == INF
    assert projected_invariant(state, None, opts) == descent
    # a route that drops the recorded changes reads the wrong terminal
    monkeypatch.setattr(invariant, "substitute", lambda g, change: g)
    assert projected_invariant(state, None, opts).terminal != INF


def test_every_step_works_in_the_year_s_coordinates(monkeypatch):
    """No step drops a variable: each contact search gets a frame with the
    year's variables whose y-part is the consumed contacts, in order, with
    exponent 0 on them, and returns a change over the year's variables.
    Every descent on the corpora, random pairs and random traces."""
    find, year, seen = invariant.find_maximal_contact, [], Counter()

    def checked(pair, frame, preferred_variables=()):
        n = len(year[0])
        assert frame.variables == year[0] and pair.nvars == n
        assert not any(e[i] for g in pair.all_generators() for e in g.terms for i in frame.y_indices)
        mc = find(pair, frame, preferred_variables)
        assert mc.frame.variables == year[0]
        assert mc.frame.y_indices == frame.y_indices + (mc.contact_index,)
        assert all(0 <= i < n and g.nvars == n for i, g in mc.change.items())
        seen["steps"] += 1
        seen["consumed before"] += len(frame.y_indices)
        seen["changes"] += bool(mc.change)
        return mc

    monkeypatch.setattr(invariant, "find_maximal_contact", checked)
    cases = []
    for _, problem in corpus_problems():
        trace = run_lsb(problem.state, problem.script) if problem.script else None
        cases.append((trace.final if trace else problem.state, trace, problem.options))
    cases += ((random_pair_state(seed, nvars), None, Options(hs_cutoff=4))
              for seed in range(200) for nvars in (2, 3, 4))
    cases += filter(None, map(random_trace, range(300)))
    cases += filter(None, map(cusp_trace, range(60)))
    for state, trace, opts in cases:
        year[:] = [state.frame.variables]
        _outcome(compute_invariant, state, trace, opts)
    assert seen["steps"] >= 900 and seen["consumed before"] >= 600 and seen["changes"] >= 200, seen


def _normal(x) -> bool:
    """An int, or a Fraction that is not integral: never a float."""
    return type(x) is int or type(x) is Fraction and x.denominator != 1


def _exact(x) -> bool:
    """An int, a Fraction or the sentinel INF: never any other float."""
    return type(x) in (int, Fraction) or x is INF


def test_the_descent_stays_integral_and_float_free(monkeypatch):
    """On integral input every pair of the descent has int coefficients:
    the pair a contact is sought in, the pair rewritten by it (also when
    its shift is not integral), the coefficient pair and the companion
    pair.  Every weight (so every level b - |B|) and exponent is in normal
    form, and every mu, mu_H, nu and token is an int or a Fraction.  Every
    descent on the corpora, random int pairs and random traces, all of
    them integral."""
    seen = Counter()

    def check(pair):
        for comp in pair.components:
            assert _normal(comp.weight)
            for g in comp.gens:
                for exps, c in g.terms.items():
                    assert type(c) is int
                    assert all(map(_normal, exps))
        seen["pairs"] += 1

    def checked(name):
        kernel = getattr(invariant, name)

        def call(*args):
            result = kernel(*args)
            if name == "find_maximal_contact":
                check(args[0])
                check(result.pair)
                seen["shifts by 1/L', L' > 1"] += any(
                    type(c) is Fraction for g in result.change.values() for c in g.terms.values())
            elif name == "pair_minima":
                assert all(map(_exact, result))
                seen["minima"] += len(result)
            else:
                check(result)
            return result
        return call

    for name in ("find_maximal_contact", "coefficient_pair", "companion_pair", "pair_minima"):
        monkeypatch.setattr(invariant, name, checked(name))
    for state, trace, opts in _descent_cases():
        check(state.pair)
        vec = _outcome(compute_invariant, state, trace, opts)
        if not isinstance(vec, str):
            assert all(type(d) is int for d in vec.nu1.dims)
            assert all(map(_exact, vec.tokens()))
    assert seen["pairs"] >= 3800 and seen["minima"] >= 900, seen
    assert seen["shifts by 1/L', L' > 1"] >= 150, seen


def _descent_cases():
    """(state, trace, options) of every corpus problem, of random int pairs
    and of random traces."""
    cases = []
    for _, problem in corpus_problems():
        trace = run_lsb(problem.state, problem.script) if problem.script else None
        cases.append((trace.final if trace else problem.state, trace, problem.options))
    cases += ((random_pair_state(seed, nvars), None, Options(hs_cutoff=4))
              for seed in range(200) for nvars in (2, 3, 4))
    cases += filter(None, map(random_trace, range(300)))
    return cases


def test_descent_minima_and_companion_pairs_match_the_references(monkeypatch):
    """Every ``pair_minima`` and ``companion_pair`` call of the descents of
    ``_descent_cases``, rerun: mu and each mu_H are the least coordinate
    sums over the vertices of the coefficient pair's polyhedron (no
    y-part), and the companion pair is the one that one exact division per
    divisor gives, with the same number types."""
    calls = Counter()
    minima_of, companion_of = invariant.pair_minima, invariant.companion_pair

    def pair_minima(H, y, coord_sets):
        got = minima_of(H, y, coord_sets)
        assert y == ()
        n = 0 if H.is_empty() else H.nvars
        P = polyhedron_of_pair(H, Frame(tuple(f"x{i}" for i in range(n)), tuple(range(n)), ()))
        assert got == [coordinate_min(P, coords) for coords in coord_sets]
        calls["minima"] += len(got)
        return got

    def terms(pair):
        return [(repr(c.weight), [repr(list(g.terms.items())) for g in c.gens])
                for c in pair.components]

    def companion_pair(H, mus, nu):
        got = companion_of(H, mus, nu)
        assert terms(got) == terms(reference_companion_pair(H, mus, nu))
        calls["companions"] += 1
        calls["divided"] += any(m for _, m in mus)
        return got

    monkeypatch.setattr(invariant, "pair_minima", pair_minima)
    monkeypatch.setattr(invariant, "companion_pair", companion_pair)
    for state, trace, opts in _descent_cases():
        _outcome(compute_invariant, state, trace, opts)
    assert calls["minima"] >= 900 and calls["companions"] >= 500 and calls["divided"] >= 50, calls


def test_companion_pair_refuses_an_inexact_factor():
    H = Pair.single([parse_polynomial("x*y + y^3", ["x", "y"])], 1)
    with pytest.raises(InternalError, match="inexact exceptional factoring"):
        invariant.companion_pair(H, ((0, 1),), Fraction(1, 2))
    with pytest.raises(InternalError, match="inexact exceptional factoring"):
        reference_companion_pair(H, ((0, 1),), Fraction(1, 2))


def test_every_stored_rational_has_one_normal_form(monkeypatch):
    """``poly._coeff``'s rule holds for every stored exact rational: an int
    when integral, a non-integral Fraction otherwise, never a float, and
    INF only where a minimum may be empty.  Every ``pair_minima`` value of
    the blow-ups and of the descent (each mu and mu_H), every ``delta``, the assigned number d of
    every divisor and the chart report of every year, ``exceptional_nu`` of
    every year, and each nu and terminal of both routes.  Every case on the
    corpora, random int pairs and random traces."""
    seen = Counter()

    def normal_or_inf(x) -> bool:
        seen["INF" if x is INF else type(x).__name__] += 1
        return _normal(x) or x is INF

    for module, name in ((history, "pair_minima"), (invariant, "pair_minima"), (coeff, "delta")):
        def call(*args, kernel=getattr(module, name), name=name):
            result = kernel(*args)
            for x in result if name == "pair_minima" else [result]:
                assert normal_or_inf(x), (name, x)
                seen[name] += 1
            return result
        monkeypatch.setattr(module, name, call)

    for state, trace, opts in _descent_cases():
        for year in trace.years if trace else ():
            if year.step is not None:
                report = year.step
                assert normal_or_inf(report.delta_center_value)
                assert _normal(report.d_from_center) and _normal(report.d_from_polyhedron)
                seen["chart reports"] += 1
            assert all(_normal(e.d) for e in year.state.exdata.entries)
            seen["divisors"] += len(year.state.exdata.entries)
        for year in [rec.state for rec in trace.years] if trace else [state]:
            nu = _outcome(lambda s, *_: exceptional_nu(s.pair, s.frame, s.exdata), year, None, None)
            assert isinstance(nu, str) or normal_or_inf(nu)
        for compute in (compute_invariant, projected_invariant):
            vec = _outcome(compute, state, trace, opts)
            if not isinstance(vec, str):
                assert all(_normal(e.nu) for e in vec.entries)
                assert vec.terminal is INF or type(vec.terminal) is int and vec.terminal == 0
                seen["entries"] += len(vec.entries)
    assert seen["pair_minima"] >= 3000 and seen["delta"] >= 200, seen
    assert seen["chart reports"] >= 250 and seen["divisors"] >= 400 and seen["entries"] >= 700, seen
    assert min(seen["int"], seen["Fraction"], seen["INF"]) >= 100, seen


@pytest.mark.parametrize("e", [100, 1000, 3000])
def test_a_non_integral_contact_shift_keeps_the_known_vector(monkeypatch, e):
    """z^2 + x^3*y^e (u = x, y; y = z; b = 2): nu = (e + 3)/2, then 1, then
    INF.  The second contact's witness is x - e/(e + 3)*y after
    y -> y - x, so the pair is rewritten with L' = (e + 3)/g, g = gcd(e, 3):
    x -> (x + e/g*y)/L', y -> (3/g*y - x)/L', and its coefficients stay
    ints."""
    L = (e + 3) // math.gcd(e, 3)
    find, changes = invariant.find_maximal_contact, []

    def recorded(*args):
        mc = find(*args)
        changes.append(mc.change)
        assert all(type(c) is int for g in mc.pair.all_generators() for c in g.terms.values())
        return mc

    monkeypatch.setattr(invariant, "find_maximal_contact", recorded)
    state, _, opts = hypersurface(f"z^2 + x^3*y^{e}", 2, ["x", "y"], ["z"])
    vec = compute_invariant(state, None, opts)
    assert summary(vec) == (0, ((Fraction(e + 3, 2), 0), (1, 0)), INF, ("z", "x", "y"), None)
    names = ["x", "y", "z"]
    assert [{names[i]: format_polynomial(g, names) for i, g in change.items()}
            for change in changes] == [{}, {"x": f"{Fraction(e, e + 3)}*y + 1/{L}*x",
                                            "y": f"{Fraction(3, e + 3)}*y - 1/{L}*x"}, {}]


def test_the_s_partition_is_a_partition():
    cases = []
    for _, problem in corpus_problems("lsb-hypersurface"):
        trace = run_lsb(problem.state, problem.script)
        cases.append((trace.final, trace, problem.options))
    cases += filter(None, map(random_trace, range(300)))
    checked = 0
    for state, trace, opts in cases:
        vec = _outcome(compute_invariant, state, trace, opts)
        if isinstance(vec, str):
            continue
        records = s_partition(trace, opts)
        assert len(records) == 1 + len(vec.entries)
        remaining = {d for d, _ in state.frame.exceptional}
        seen = set()
        for s, E, rest in records:
            assert s == len(E) == len(set(E))
            assert not seen & set(E) and not set(E) & set(rest)
            assert set(E) | set(rest) == remaining
            seen |= set(E)
            remaining = set(rest)
        checked += 1
    assert checked == 77


def test_divisor_names_do_not_matter():
    """Two divisors born in year 0 on x0 and x1, named A, B and then B, A:
    ``_drive`` adjoins E^r in sorted id order, yet the vector, and the
    records with the names swapped back, must be the same, or the
    rejection identical."""
    opts, back = Options(hs_cutoff=4), {"A": "B", "B": "A"}
    tally = Counter()
    for nvars, seed in product((3, 4), range(200)):
        pair = random_singular_pair(random.Random(seed), nvars)
        variables = tuple(f"x{i}" for i in range(nvars))
        outcomes = []
        for names in ("AB", "BA"):
            frame = Frame(variables, tuple(range(nvars)), (), ((names[0], 0), (names[1], 1)))
            state = PairWithHistory(pair, frame, ExceptionalData(
                tuple(ExcDivisor(d, 0, 0) for d in names)))
            outcomes.append(_outcome(lazy_evaluate, state, run_lsb(state, ()), opts))
        first, second = outcomes
        if isinstance(first, str):
            assert second == first, (nvars, seed)
            tally["rejected"] += 1
            continue
        vec, records = second
        swapped = [(s, tuple(back[d] for d in E), tuple(back[d] for d in rest))
                   for s, E, rest in records]
        assert (vec, swapped) == first, (nvars, seed)
        tally["equal"] += 1
    assert tally == {"equal": 391, "rejected": 9}


def _renamed(state, to):
    """``state`` with every divisor id d renamed to[d], in its entries and
    its frame marks, entry and mark order kept."""
    frame = state.frame
    marks = tuple((to[d], i) for d, i in frame.exceptional)
    entries = tuple(ExcDivisor(to[e.divisor_id], e.d, e.birth_year) for e in state.exdata.entries)
    return PairWithHistory(state.pair, Frame(frame.variables, frame.u_indices, frame.y_indices,
                                             marks), ExceptionalData(entries))


def monomial_trace(seed):
    """z^b + x^a*y^c*w^e, b = 2 or 3, u = x, y, w and y = z, blown up at
    the origin in 2-4 charts x, y or w; None when a center is not
    permissible.  Up to three divisors meet at the point, so an E^r can
    hold two or more."""
    rng = random.Random(seed)
    b = rng.randint(2, 3)
    a, c, e = (rng.randint(0, b + 2) for _ in range(3))
    charts = [rng.choice("xyw") for _ in range(rng.randint(2, 4))]
    try:
        return hypersurface(f"z^{b} + x^{max(a, b - c - e)}*y^{c}*w^{e}", b, ["x", "y", "w"],
                            ["z"], charts, hs_cutoff=4)
    except PreconditionError:
        return None


def test_divisor_names_do_not_matter_along_a_trace():
    """The lsb corpus scripts and random traces, whose divisors are born
    in different years, with one id permutation (sorted ids reversed)
    applied to every year, to its entries and its frame marks: ``_drive``
    then adjoins each E^r in the reverse order, so the mu_H read sees the
    adjoined divisors in another order.  The vector, and the records with
    the ids mapped back, must be the same, or the rejection identical."""
    cases = []
    for _, problem in corpus_problems("lsb-hypersurface"):
        trace = run_lsb(problem.state, problem.script)
        cases.append((trace.final, trace, problem.options))
    cases += filter(None, map(random_trace, range(300)))
    cases += filter(None, map(monomial_trace, range(100)))
    tally = Counter()
    for state, trace, opts in cases:
        ids = sorted(e.divisor_id for e in state.exdata.entries)
        to, back = dict(zip(ids, reversed(ids))), dict(zip(reversed(ids), ids))
        years = tuple(rec._replace(state=_renamed(rec.state, to)) for rec in trace.years)
        renamed = Trace(years)
        first = _outcome(lazy_evaluate, state, trace, opts)
        second = _outcome(lazy_evaluate, renamed.final, renamed, opts)
        if isinstance(first, str):
            assert second == first, (state, trace)
            tally["rejected"] += 1
            continue
        vec, records = second
        mapped = [(s, tuple(back[d] for d in E), tuple(back[d] for d in rest))
                  for s, E, rest in records]
        assert (vec, mapped) == first, trace
        tally["equal"] += 1
        tally["two or more adjoined"] += any(s >= 2 for s, _, _ in records)
    assert tally["equal"] >= 150 and tally["rejected"] >= 10, tally
    assert tally["two or more adjoined"] >= 20, tally


# ---------------------------------------------------------------------------
# The paper's theorem as the oracle: when y spans the directrix, the
# descent's first nu after its dim(directrix) - 1 forced unit steps is delta
# of the prepared polyhedron (``delta_invariant``), or ``exceptional_nu``
# at a traced point whose s1 is 0.  Both sides are exact rationals or INF.
#
# The same runs check the reference equalities at every step (the
# ``checked_steps`` fixture): the order of the coefficient pair is delta of
# the projection along the contacts, and each mu_H is the least coordinate
# over the vertices of the coefficient pair's polyhedron (the library reads
# it off the raw points).  Both sides compute min |A|/(b - |B|) over the
# same terms, so they guard the projection and the bookkeeping, not the
# choice of contact; the oracle guards that.

@pytest.fixture
def checked_steps(monkeypatch):
    seen, frames, orders = Counter(), [], []
    pair_of, minima_of = invariant.coefficient_pair, invariant.pair_minima

    def coefficient_pair(pair, frame):
        # the frame's y-part is the consumed contacts, the newest last
        H = pair_of(pair, frame)
        mu = INF if H.is_empty() else min(
            Fraction(comp.ideal_order()) / comp.weight for comp in H.components)
        assert delta(polyhedron_of_pair(pair, frame)) == mu
        seen["order"] += 1
        frames.append(frame)
        orders.append(mu)
        return H

    def pair_minima(H, y, coord_sets):
        # H is the coefficient pair just built, in the frame it was built in:
        # mu over its u-part, then one divisor variable per set
        mu, *mus = minima_of(H, y, coord_sets)
        frame = frames[-1]
        assert mu == orders[-1] and list(coord_sets[0]) == list(frame.u_indices)
        PH = polyhedron_of_pair(H, frame)
        for (idx,), m in zip(coord_sets[1:], mus):
            pos = frame.u_indices.index(idx)
            assert coordinate_min(PH, (pos,)) == m, idx
            seen["divisor"] += 1
        return [mu, *mus]

    monkeypatch.setattr(invariant, "coefficient_pair", coefficient_pair)
    monkeypatch.setattr(invariant, "pair_minima", pair_minima)
    return seen


def descent_nu(vec, pair):
    """The first nu after the dim(directrix) - 1 forced unit steps, or the
    terminal when no entry is left."""
    dim = directrix(initial_ideal(pair)).dim
    units, rest = vec.entries[:dim - 1], vec.entries[dim - 1:]
    assert all((e.nu, e.s) == (1, 0) for e in units), vec
    return rest[0].nu if rest else vec.terminal


def test_pairs_local_first_nu_is_delta_of_prepared_polyhedron(checked_steps):
    sides = {}
    for pid, problem in corpus_problems("pairs-local"):
        vec = compute_invariant(problem.state, None, problem.options)
        polyhedral = delta_invariant(problem.pair, problem.frame)
        sides[pid] = (polyhedral, descent_nu(vec, problem.pair))
    assert len(sides) == 60
    assert {pid: pair for pid, pair in sides.items() if pair[0] != pair[1]} == {}
    assert checked_steps["order"] > 0


def test_lsb_first_nu_is_the_polyhedral_nu_before_and_after_the_script(checked_steps):
    checked = 0
    for pid, problem in corpus_problems("lsb-hypersurface"):
        opts = problem.options
        trace = run_lsb(problem.state, problem.script)
        for state, tr in ((problem.state, None), (trace.final, trace)):
            vec = compute_invariant(state, tr, opts)
            if tr is None:
                polyhedral_nu = partial(delta_invariant, state.pair, state.frame)
            else:
                assert vec.s1 == 0, pid
                polyhedral_nu = partial(exceptional_nu, state.pair, state.frame, state.exdata)
            if pid == "007":
                # y = (z) does not span the 2-dimensional directrix of z^3 + x2^3
                with pytest.raises(DirectrixNotSpanned):
                    polyhedral_nu()
                continue
            polyhedral = polyhedral_nu()
            assert polyhedral == descent_nu(vec, state.pair), (pid, tr is not None)
            checked += 1
    assert checked == 22
    assert checked_steps["divisor"] > 0


def test_random_first_nu_is_delta_of_prepared_polyhedron(checked_steps):
    # seeds 0-199 in 2 variables and 0-59 in 3; every accepted pair meets
    # the reference equalities, and those in contract (the directrix is
    # spanned by coordinates, taken as y, and preparation finishes) the
    # oracle
    opts = Options(hs_cutoff=4)
    agreed = 0
    for nvars, seeds in ((2, 200), (3, 60)):
        names = tuple(f"x{i}" for i in range(nvars))
        for seed in range(seeds):
            pair = random_singular_pair(random.Random(seed), nvars)
            state = PairWithHistory(pair, Frame(names, tuple(range(nvars)), ()),
                                    ExceptionalData(()))
            try:
                vec = compute_invariant(state, None, opts)
                basis = directrix(initial_ideal(pair))
            except PreconditionError:
                continue
            ys = next((y for y in combinations(range(nvars), basis.dim)
                       if basis.spans_within(y)), None)
            if ys is None:
                continue
            frame = Frame(names, tuple(i for i in range(nvars) if i not in ys), ys)
            try:
                polyhedral = delta_invariant(pair, frame)
            except PreconditionError:
                continue
            assert polyhedral == descent_nu(vec, pair), (nvars, seed)
            agreed += 1
    assert agreed >= 90
    assert checked_steps["order"] > 100


# ---------------------------------------------------------------------------
# The eager evaluation as the oracle of the lazy one: every earlier year is
# driven to its terminal, oldest first, before the final year starts.
# Where it accepts, reading the earlier years only as deep as s_r compares
# them must give the same vector and s-partition.


class DrivenYear:
    """An earlier year with every token known."""

    def __init__(self, tokens):
        self.tokens = tokens

    def token(self, i):
        return self.tokens[i] if i < len(self.tokens) else None


def eager_run(state, trace, opts):
    """Every earlier year driven to its end (``DrivenYear``, oldest first),
    then the final year: its tokens and ``_drive``'s result."""
    years = [rec.state for rec in trace.years] if trace is not None else [state]
    older = []
    for year in years[:-1]:
        singular = is_singular_at_origin(year.pair)
        steps = invariant._drive(year, tuple(older), opts) if singular else ()
        older.append(DrivenYear(tuple(steps)))
    if not is_singular_at_origin(state.pair):
        raise PreconditionError("point not in Sing")
    steps, tokens = invariant._drive(state, older, opts), []
    while True:
        try:
            tokens.append(next(steps))
        except StopIteration as done:
            return older, tuple(tokens), done.value


def eager_evaluate(state, trace, opts):
    """(vector, partition records) of the final year, every earlier year
    driven to its end first."""
    return eager_run(state, trace, opts)[2][:2]


def lazy_evaluate(state, trace, opts):
    records = s_partition(trace, opts) if trace is not None else None
    return compute_invariant(state, trace, opts), records


def test_lazy_reads_match_the_eager_oracle_on_the_corpus_and_the_pins():
    cases = [hypersurface(*PINNED[name][0]) for name in sorted(PINNED)]
    for _, problem in corpus_problems("lsb-hypersurface"):
        trace = run_lsb(problem.state, problem.script)
        cases.append((trace.final, trace, problem.options))
    assert len(cases) == 19
    for state, trace, opts in cases:
        vec, records = eager_evaluate(state, trace, opts)
        assert lazy_evaluate(state, trace, opts) == (vec, records if trace else None)
        assert projected_invariant(state, trace, opts) == vec


def random_trace(seed):
    """z^b + x^max(a, b - c)*y^c + extra, u = x, y and y = z, blown up at
    the origin in 1-4 charts; None when a center is not permissible."""
    rng = random.Random(seed)
    b = rng.randint(2, 4)
    a, c = rng.randint(0, b + 4), rng.randint(0, b + 4)
    extra = rng.choice((
        lambda: "",
        lambda: f" + x^{rng.randint(1, 6)}*y^{rng.randint(1, 6)}",
        lambda: f" + z*x^{rng.randint(2, 5)}",
    ))()
    f = f"z^{b} + x^{max(a, b - c)}*y^{c}{extra}"
    charts = [rng.choice("xyz") for _ in range(rng.randint(1, 4))]
    try:
        return hypersurface(f, b, ["x", "y"], ["z"], charts, hs_cutoff=4)
    except PreconditionError:
        return None


def test_records_built_by_make_pass_the_public_checks(monkeypatch):
    """The descent, the blow-ups and the parser build these records by the
    namedtuple's ``_make``, which skips ``__new__``.  Each such record must
    be the one the public constructor builds from the same fields: the
    constructor raises nothing, and every field is equal and of the same
    type, since ``Fraction(2) == 2``.  ``invariant``, ``run-lsb``,
    ``char-poly`` and ``coeff`` on every corpus problem, the random pairs
    and a fractional level, and the random traces."""
    made = Counter()

    def checked(cls, make):
        def _make(fields):
            record = make(fields)
            public = cls(*record)
            assert [(type(f), f) for f in public] == [(type(f), f) for f in record], record
            made[cls.__name__] += 1
            return record
        return staticmethod(_make)

    for cls in (Component, Pair, Frame, ExcDivisor, ExceptionalData, PairWithHistory):
        monkeypatch.setattr(cls, "_make", checked(cls, cls._make))
    problems = [problem for _, problem in corpus_problems()]
    problems.append(problem_from_data({  # a fractional level: the weight 5/2 - 1/2 is 2
        "variables": ["x", "y", "z"], "u": ["x", "y"], "y": ["z"],
        "exceptional": [{"id": "E1", "variable": "z"}],
        "pair": {"components": [{"b": "5/2", "gens": ["x^3 + z^(1/2)*x^2*y"]}]}}))
    problems += [cli.Problem(random_pair_state(seed, nvars), (), Options(hs_cutoff=4))
                 for seed in range(200) for nvars in (2, 3, 4)]
    for problem in problems:
        for command in ("invariant", "run-lsb", "char-poly", "coeff"):
            with suppress(PreconditionError):
                run(problem, command)
    for state, trace, opts in filter(None, map(random_trace, range(300))):
        with suppress(PreconditionError):
            compute_invariant(state, trace, opts)
        with suppress(PreconditionError):
            prepare_vertices(state.pair, state.frame)
    assert set(made) == {"Component", "Pair", "Frame", "ExcDivisor", "ExceptionalData",
                         "PairWithHistory"}, made


def test_the_year_of_birth_starts_the_final_block():
    """The s-partition from its definition (Bierstone-Milman).  At step r
    the years whose tokens start with the final year's (hs, s1, nu2, ...,
    nu_r) must form one block that ends at the final year, so the first of
    them, i_r, is where that block starts; and E^r must be the divisors in
    no earlier E^q born no later than that year.  The years' tokens are the
    eager oracle's, each year driven to its end; the block and every
    (s_r, E^r, remaining) are recomputed from them and the births alone.
    Every fully drivable trace of the lsb corpus, the pins, the random and
    the cusp traces."""
    cases = [hypersurface(*PINNED[name][0]) for name in sorted(PINNED)]
    for _, problem in corpus_problems("lsb-hypersurface"):
        trace = run_lsb(problem.state, problem.script)
        cases.append((trace.final, trace, problem.options))
    cases += filter(None, map(random_trace, range(300)))
    cases += filter(None, map(cusp_trace, range(60)))
    tally = Counter()
    for state, trace, opts in cases:
        try:
            older, tokens, (_, records, _) = eager_run(state, trace, opts)
        except PreconditionError:
            tally["not fully drivable"] += 1
            continue
        years = [tuple(year.tokens) for year in older] + [tokens]
        marks = dict(state.frame.exceptional)
        tracked = [e for e in state.exdata.entries if e.divisor_id in marks]
        for r, record in enumerate(records):
            prefix = tokens[:2 * r + 1]
            matching = [k for k, toks in enumerate(years) if toks[:len(prefix)] == prefix]
            start = len(years) - 1
            while start - 1 in matching:
                start -= 1
            assert matching[0] == start, (tokens, years)
            E = tuple(e.divisor_id for e in tracked if e.birth_year <= start)
            tracked = [e for e in tracked if e.birth_year > start]
            assert record == (len(E), E, tuple(e.divisor_id for e in tracked))
            tally["steps"] += 1
            tally["blocks of two or more years"] += start < len(years) - 1
            tally["steps with s_r > 0"] += bool(E)
        tally["traces"] += 1
    assert tally == {"traces": 112, "not fully drivable": 94, "steps": 209,
                     "blocks of two or more years": 155, "steps with s_r > 0": 25}, tally


def test_lazy_reads_match_the_eager_oracle_on_random_traces():
    # an earlier year's error past the compared depth is no longer raised:
    # where only the lazy reads accept, the first nu must still be the
    # polyhedral one wherever exceptional_nu applies (s1 = 0, z spans the
    # directrix, preparation finishes)
    tally = Counter()
    for seed in range(300):
        case = random_trace(seed)
        if case is None:
            continue
        state, trace, opts = case
        eager = _outcome(eager_evaluate, state, trace, opts)
        lazy = _outcome(lazy_evaluate, state, trace, opts)
        if not isinstance(eager, str):
            assert lazy == eager, seed
            tally["both accept"] += 1
        elif isinstance(lazy, str):
            tally["both reject"] += 1
        else:
            vec = lazy[0]
            try:
                polyhedral = exceptional_nu(state.pair, state.frame, state.exdata)
            except PreconditionError:
                polyhedral = None
            if vec.s1 != 0 or polyhedral is None:
                tally["newly accepted, out of contract"] += 1
            else:
                assert polyhedral == descent_nu(vec, state.pair), seed
                tally["newly accepted, oracle agrees"] += 1
    assert tally["both accept"] >= 40 and tally["both reject"] >= 60, tally
    assert tally["newly accepted, oracle agrees"] >= 15, tally


def test_a_long_trace_reads_without_recursion():
    charts = ["x"] * 400
    state, trace, opts = hypersurface("z^2 + x^3*y^2", 2, ["x", "y"], ["z"], charts, hs_cutoff=3)
    assert lazy_evaluate(state, trace, opts) == eager_evaluate(state, trace, opts)


def test_lsb_invariants_read_earlier_years_only_as_deep_as_compared(monkeypatch):
    # driving every earlier year to its terminal took 98 steps
    step_of = invariant.invariant_step
    calls = Counter()

    def invariant_step(state):
        calls["step"] += 1
        return step_of(state)

    monkeypatch.setattr(invariant, "invariant_step", invariant_step)
    problems = corpus_problems("lsb-hypersurface")
    for _, problem in problems:
        run(problem, "invariant")
    assert (len(problems), calls["step"]) == (12, 48)


def test_an_earlier_year_error_past_the_compared_depth_is_not_raised():
    # year 0 needs a completion-level contact only at its second step,
    # which no comparison reads
    problem = ("z^2 + x^2*y^5 + z*x^4", 2, ["x", "y"], ["z"], ["y"])
    state, trace, opts = hypersurface(*problem, hs_cutoff=4)
    with pytest.raises(PreconditionError, match="completion-level"):
        eager_evaluate(state, trace, opts)
    vec = compute_invariant(state, trace, opts)
    assert vec.nu1.dims == (1, 4, 9, 16)
    assert summary(vec) == (0, ((1, 1), (1, 0)), INF, ("z", "y", "x"), None)


def test_the_final_year_precondition_is_reported_first():
    problem = ("z^2 + x*y + x^3*y^6", 2, ["x", "y"], ["z"], ["z"])
    state, trace, opts = hypersurface(*problem, hs_cutoff=4)
    with pytest.raises(PreconditionError, match="completion-level"):
        eager_evaluate(state, trace, opts)
    for compute in (compute_invariant, projected_invariant):
        with pytest.raises(PreconditionError, match="^point not in Sing$"):
            compute(state, trace, opts)


# ---------------------------------------------------------------------------
# Properties the theory guarantees


def _reordered(data, order):
    """The invariant report of the problem ``data`` with its variables
    listed in ``order``, with ``center`` as a set and ``monomial`` as a set
    of factors (both are listed in the variable order); the message of a
    rejection."""
    try:
        vec = run(problem_from_data(dict(data, variables=order)), "invariant")["invariant"]
    except PreconditionError as exc:
        return str(exc)
    return dict(vec, center=vec["center"] and frozenset(vec["center"]),
                monomial=vec["monomial"] and frozenset(vec["monomial"].split("*")))


def _variable_order_tally(cases):
    """Each problem of ``cases`` against three seeded reorderings of its
    variables: equal reports, or both rejected, or an accept/reject flip at
    the completion-level ceiling, which depends on the coordinates."""
    tally = Counter()
    for seed, data in cases:
        rng = random.Random(seed)
        base = _reordered(data, data["variables"])
        for _ in range(3):
            other = _reordered(data, rng.sample(data["variables"], len(data["variables"])))
            if isinstance(base, str) and isinstance(other, str):
                tally["both rejected"] += 1
            elif isinstance(base, str) or isinstance(other, str):
                assert "completion-level" in (base if isinstance(base, str) else other), seed
                tally["flip"] += 1
            else:
                assert other == base, seed
                tally["equal"] += 1
    return tally


def test_the_invariant_does_not_depend_on_the_variable_order_on_the_corpus():
    paths = sorted(CORPUS.glob("*/problems/*.json"))
    tally = _variable_order_tally(
        (k, json.loads(path.read_text(encoding="utf-8"))) for k, path in enumerate(paths))
    assert tally["equal"] >= 200 and tally["flip"] == 0, tally


def test_the_invariant_does_not_depend_on_the_variable_order_on_random_pairs():
    def case(seed):
        rng = random.Random(seed)
        nvars = rng.randint(2, 4)
        names = [f"x{i}" for i in range(nvars)]
        pair = random_singular_pair(rng, nvars)
        return seed, {
            "variables": names,
            "pair": {"components": [
                {"gens": [format_polynomial(g, names) for g in comp.gens],
                 "b": format_rational(comp.weight)} for comp in pair.components]},
            "options": {"hs_cutoff": 4},
        }
    tally = _variable_order_tally(case(seed) for seed in range(200))
    assert tally["equal"] >= 150 and tally["both rejected"] >= 300, tally


def _hilbert_samuel_rises(trace, cutoff):
    """(year, k) wherever the Hilbert-Samuel dims of a year's pair exceed
    the previous year's at k < ``cutoff``, and the number of year pairs
    compared.  The comparison ends at the first year whose point is off X,
    where every dim is 0."""
    dims = []
    for rec in trace.years:
        gens = list(rec.state.pair.all_generators())
        if any(g.constant_term() for g in gens):
            break
        dims.append(hilbert_samuel_truncated(gens, cutoff))
    rises = [(year, k) for year, (old, new) in enumerate(zip(dims, dims[1:]), 1)
             for k, (a, b) in enumerate(zip(old, new)) if b > a]
    return rises, max(len(dims) - 1, 0)


def test_hilbert_samuel_never_rises_along_a_trace():
    """Bennett: a permissible blow-up does not raise the Hilbert-Samuel
    function at a point over the center.  Checked between consecutive
    years of the lsb traces (k < 12) and of the random traces (k < 8);
    a random trace whose script is not permissible is skipped."""
    year_pairs = Counter()
    for _, problem in corpus_problems("lsb-hypersurface"):
        rises, pairs = _hilbert_samuel_rises(run_lsb(problem.state, problem.script), 12)
        assert rises == [], problem.script
        year_pairs["lsb"] += pairs
    for seed in range(300):
        case = random_trace(seed)
        if case is not None:
            rises, pairs = _hilbert_samuel_rises(case[1], 8)
            assert rises == [], seed
            year_pairs["random"] += pairs
    assert year_pairs["lsb"] == 22 and year_pairs["random"] >= 190, year_pairs
