import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from hironaka import history
from hironaka.errors import InternalError, PreconditionError
from hironaka.frames import Frame
from hironaka.history import (
    ExcDivisor,
    ExceptionalData,
    PairWithHistory,
    blowup_chart,
    delta_center,
    exceptional_nu,
    is_permissible,
    run_lsb,
)
from hironaka.pairs import Component, Pair, is_singular_at_origin, pair_order
from hironaka.poly import INF, Polynomial, parse_polynomial
from hironaka.polyhedra import pair_minima

from conftest import (
    corpus_problems,
    merge_to_single,
    random_singular_pair,
    reference_chart_pair,
    scale_exponents,
)

NAMES2 = ["x", "y"]
NAMES4 = ["x", "y", "z", "t"]
FRAME_XY = Frame(("x", "y"), (0,), (1,))
FRAME_T = Frame(("x", "y", "z", "t"), (0, 1, 2), (3,))


def p(text, names=NAMES2):
    return parse_polynomial(text, names)


def state(text, b, names=NAMES2, frame=None):
    fr = frame or (FRAME_XY if len(names) == 2 else FRAME_T)
    return PairWithHistory(Pair.single([p(text, names)], b), fr)


# ---------------------------------------------------------------------------
# delta_center


def test_delta_center_threefold_origin():
    E = Pair.single([p("t^2 + x*y*z", NAMES4)], 2)
    assert delta_center(E, FRAME_T, [0, 1, 2, 3]) == Fraction(3, 2)


def test_delta_center_curve():
    E = Pair.single([p("y^2 - x^3")], 2)
    assert delta_center(E, FRAME_XY, [0, 1]) == Fraction(3, 2)


def test_delta_center_partial_u_subset():
    E = Pair.single([p("t^2 + x*y*z", NAMES4)], 2)
    assert delta_center(E, FRAME_T, [0, 1, 3]) == 1


def test_delta_center_requires_y_part():
    E = Pair.single([p("t^2 + x*y*z", NAMES4)], 2)
    with pytest.raises(PreconditionError, match="every y-variable"):
        delta_center(E, FRAME_T, [0, 1])


def test_delta_center_empty_polyhedron():
    E = Pair.single([p("y^2")], 2)
    assert delta_center(E, FRAME_XY, [0, 1]) == INF


# ---------------------------------------------------------------------------
# is_permissible


def test_origin_permissible():
    assert is_permissible(state("t^2 + x*y*z", 2, NAMES4), [0, 1, 2, 3])


def test_too_small_center_not_permissible():
    assert not is_permissible(state("t^2 + x*y*z", 2, NAMES4), [3, 0])


def test_curve_axis_not_permissible():
    # order along V(y) alone is 2 from y^2 but the x^3 term breaks it
    assert not is_permissible(state("y^2 - x^3", 2), [1])


def test_nonsingular_pair_never_permissible():
    assert not is_permissible(state("y - x^2", 2), [0, 1])


def test_non_coordinate_center_rejected():
    for center in ([], [True], [2], [-1]):
        with pytest.raises(PreconditionError, match="coordinate"):
            is_permissible(state("y^2 - x^3", 2), center)


def ord_along_center(g: Polynomial, center) -> Fraction:
    """The reference: the least center-variable degree over the terms of g."""
    return min(sum(exps[i] for i in center) for exps in g.terms)


def test_permissibility_is_the_term_wise_order_along_the_center():
    # every coordinate center of random pairs, some with a marked variable
    # carrying fractional exponents
    seen = Counter()
    for nvars in (2, 3, 4):
        names = tuple(f"x{i}" for i in range(nvars))
        for seed in range(25):
            rng = random.Random(seed)
            marked = rng.randrange(nvars)
            pair = scale_exponents(random_singular_pair(rng, nvars), marked,
                                   Fraction(1, rng.randint(1, 2)))
            st = PairWithHistory(pair, Frame(names, tuple(range(nvars)), (),
                                             (("E1", marked),)))
            for k in range(1, nvars + 1):
                for center in combinations(range(nvars), k):
                    want = all(ord_along_center(g, center) >= comp.weight
                               for comp in pair.components for g in comp.gens)
                    assert is_permissible(st, center) == want, (nvars, seed, center)
                    seen[want] += 1
    assert seen[True] >= 50 and seen[False] >= 50, seen


# ---------------------------------------------------------------------------
# blowup_chart


def test_blowup_threefold_x_chart():
    rep = blowup_chart(state("t^2 + x*y*z", 2, NAMES4), [0, 1, 2, 3], 0, year=1)
    assert rep.state.pair.all_generators() == (p("t^2 + x*y*z", NAMES4),)
    assert rep.new_divisor == "E1"
    assert rep.d_from_polyhedron == Fraction(1, 2)
    assert rep.d_from_center == Fraction(1, 2)
    assert rep.state.frame.exceptional == (("E1", 0),)


def test_blowup_curve_x_chart():
    rep = blowup_chart(state("y^2 - x^3", 2), [0, 1], 0, year=1)
    assert rep.state.pair.all_generators() == (p("-x + y^2"),)
    assert rep.d_from_polyhedron == Fraction(1, 2)


def test_blowup_resolves_ordinary_double_point():
    rep = blowup_chart(state("y^2 - x^2", 2), [0, 1], 0, year=1)
    assert rep.state.pair.all_generators() == (p("-1 + y^2"),)
    assert not is_singular_at_origin(rep.state.pair)


def test_blowup_strict_transform_keeps_other_divisors():
    frame = Frame(("x", "y"), (0,), (1,), (("H", 0),))
    old = ExceptionalData((ExcDivisor("H", Fraction(1, 2), 0),))
    st = PairWithHistory(Pair.single([p("y^2 - x^3")], 2), frame, old)
    rep = blowup_chart(st, [0, 1], 1, year=1)  # blow up in the y-chart
    # the x-divisor survives away from the y-chart
    assert rep.state.frame.exceptional == (("H", 0), ("E1", 1))
    placed = rep.state.exdata.placed(rep.state.frame)
    assert [(e.divisor_id, idx) for e, idx in placed] == [("H", 0), ("E1", 1)]


def test_blowup_old_divisor_on_chart_becomes_absent():
    frame = Frame(("x", "y"), (0,), (1,), (("H", 0),))
    old = ExceptionalData((ExcDivisor("H", Fraction(1, 2), 0),))
    st = PairWithHistory(Pair.single([p("y^2 - x^3")], 2), frame, old)
    rep = blowup_chart(st, [0, 1], 0, year=1)
    data = {e.divisor_id: e for e in rep.state.exdata.entries}
    assert rep.state.frame.variable_of("H") is None
    assert data["H"].d == 0
    assert rep.state.frame.exceptional == (("E1", 0),)
    assert [e.divisor_id for e, _ in rep.state.exdata.placed(rep.state.frame)] == ["E1"]


def test_blowup_requires_permissible_center():
    with pytest.raises(PreconditionError, match="permissible"):
        blowup_chart(state("y^2 - x^3", 2), [1], 1, year=1)


# ---------------------------------------------------------------------------
# the exponent map against substitution and exact division


def _terms(pair: Pair) -> str:
    """Every generator's terms in order, with the types of their numbers."""
    return repr([list(g.terms.items()) for g in pair.all_generators()])


NOT_PERMISSIBLE = "center not permissible (order along center below a weight)"


def _outcome(transform, E, center, chart):
    try:
        return _terms(transform(E, center, chart))
    except (InternalError, PreconditionError) as exc:
        return str(exc)


def _fractional_pair(rng: random.Random, nvars: int, marked: int) -> Pair:
    """A singular pair whose marked variable carries exponents scaled by
    1/2, 1 or 3/2, with each weight scaled by 1/3, 1/2, 2/3 or 1."""
    pair = scale_exponents(random_singular_pair(rng, nvars), marked,
                           Fraction(rng.randint(1, 3), 2))
    return Pair(tuple(
        Component(comp.gens, comp.weight * Fraction(rng.randint(1, 2), rng.randint(2, 3))
                  if rng.random() < 0.7 else comp.weight)
        for comp in pair.components))


def test_the_exponent_map_is_substitution_then_division(monkeypatch):
    """Every coordinate center and chart of random pairs in 2-4 variables,
    with Fraction weights and fractional exponents on a marked variable:
    the exponent map gives the pair of the route by substitution and exact
    division, in the same term order with the same number types, and the
    same ChartReport.  On an impermissible center the map raises the
    PreconditionError of ``blowup_chart``, where the division is inexact."""
    seen = Counter()
    for nvars in (2, 3, 4):
        names = tuple(NAMES4[:nvars])
        for seed in range(30):
            rng = random.Random(seed)
            marked = rng.randrange(nvars)
            pair = _fractional_pair(rng, nvars, marked)
            y = (nvars - 1,) if marked != nvars - 1 and rng.random() < 0.5 else ()
            frame = Frame(names, tuple(i for i in range(nvars) if i not in y), y,
                          (("H", marked),))
            st = PairWithHistory(pair, frame, ExceptionalData((ExcDivisor("H", Fraction(1, 2), 0),)))
            for k in range(1, nvars + 1):
                for center in combinations(range(nvars), k):
                    for chart in center:
                        got = _outcome(history._chart_pair, pair, list(center), chart)
                        want = _outcome(reference_chart_pair, pair, list(center), chart)
                        if not is_permissible(st, center):
                            assert (got, want) == (NOT_PERMISSIBLE, "inexact exceptional division")
                            with pytest.raises(PreconditionError) as exc:
                                blowup_chart(st, center, chart, year=1)
                            assert str(exc.value) == NOT_PERMISSIBLE
                            seen["refused"] += 1
                            continue
                        assert got == want
                        report = blowup_chart(st, center, chart, year=1)
                        with monkeypatch.context() as m:
                            m.setattr(history, "_chart_pair", reference_chart_pair)
                            assert report == blowup_chart(st, center, chart, year=1)
                        exps = [e[chart] for g in report.state.pair.all_generators() for e in g.terms]
                        seen["fractional chart exponent"] += Fraction in map(type, exps)
                        seen["fractional weight"] += any(
                            type(c.weight) is Fraction for c in pair.components)
                        seen["mapped"] += 1
    assert min(seen.values()) >= 50, seen


def test_the_lsb_scripts_map_exponents_as_substitution_and_division(monkeypatch):
    """Every scripted trace of the lsb-hypersurface corpus is the same,
    year by year and term by term, with the chart transform done by
    substitution and exact division."""
    problems = [(name, pb) for name, pb in corpus_problems("lsb-hypersurface") if pb.script]
    assert problems
    for name, problem in problems:
        trace = run_lsb(problem.state, problem.script)
        with monkeypatch.context() as m:
            m.setattr(history, "_chart_pair", reference_chart_pair)
            want = run_lsb(problem.state, problem.script)
        assert trace == want, name
        assert ([_terms(rec.state.pair) for rec in trace.years]
                == [_terms(rec.state.pair) for rec in want.years]), name


# ---------------------------------------------------------------------------
# the factoring law on a random corpus


def _random_permissible_case(rng: random.Random):
    """A singular pair plus a center containing all y-variables."""
    nvars = rng.randint(2, 3)
    names = tuple(NAMES4[:nvars])
    while True:
        E = random_singular_pair(rng, nvars)
        y_idx = (nvars - 1,)
        frame = Frame(names, tuple(range(nvars - 1)), y_idx)
        st = PairWithHistory(E, frame)
        # try centers from largest down: all variables, then all-minus-one u
        candidates = [list(range(nvars))]
        for drop in range(nvars - 1):
            candidates.append([i for i in range(nvars) if i != drop])
        rng.shuffle(candidates)
        for center in candidates:
            if set(y_idx) <= set(center) and is_permissible(st, center):
                chart = rng.choice(sorted(set(center) - set(y_idx)) or center)
                return st, center, chart


def test_factoring_law_on_corpus(rng):
    # after a permissible blow-up the new divisor's coordinate minimum is
    # delta_center - 1, exactly
    done = 0
    while done < 100:
        st, center, chart = _random_permissible_case(rng)
        dD = delta_center(st.pair, st.frame, center)
        if dD == INF:
            continue
        rep = blowup_chart(st, center, chart, year=1)
        assert rep.d_from_polyhedron == dD - 1
        done += 1


def test_transform_commutes_with_merge(rng):
    # blowing up a merged pair equals merging the blow-up, generator-wise
    done = 0
    while done < 25:
        st, center, chart = _random_permissible_case(rng)
        merged = merge_to_single(st.pair, 6)
        st_m = PairWithHistory(merged, st.frame)
        if not is_permissible(st_m, center):
            continue
        rep_m = blowup_chart(st_m, center, chart, year=1)
        rep = blowup_chart(st, center, chart, year=1)
        assert merge_to_single(rep.state.pair, 6) == rep_m.state.pair
        done += 1


def _standard_base_pair(rng: random.Random, nvars: int) -> Pair:
    """Components whose weight equals the generator order exactly, as in a
    normalized standard base; order monotonicity is only expected there."""
    comps = []
    for _ in range(rng.randint(1, 2)):
        b = rng.randint(1, 3)
        while True:
            g = random_singular_pair(rng, nvars).components[0].gens[0]
            exps = tuple(rng.randint(0, b) for _ in range(nvars))
            if sum(exps) != b:
                continue
            g = g * Polynomial.variable(nvars, rng.randrange(nvars)) ** max(
                0, b - min(sum(e) for e in g.terms)
            )
            candidate = g + Polynomial.monomial(nvars, exps, rng.randint(1, 3))
            if min(sum(e) for e in candidate.terms) == b:
                comps.append(Component((candidate,), Fraction(b)))
                break
    return Pair(tuple(comps))


def test_pair_order_never_increases_on_corpus(rng):
    done = 0
    while done < 40:
        nvars = rng.randint(2, 3)
        names = tuple(NAMES4[:nvars])
        E = _standard_base_pair(rng, nvars)
        frame = Frame(names, tuple(range(nvars - 1)), (nvars - 1,))
        st = PairWithHistory(E, frame)
        center = list(range(nvars))
        if not is_permissible(st, center):
            continue
        chart = rng.choice(sorted(set(center) - {nvars - 1}))
        before = pair_order(st.pair)
        rep = blowup_chart(st, center, chart, year=1)
        if rep.state.pair.is_empty():
            continue
        assert pair_order(rep.state.pair) <= before
        done += 1


# ---------------------------------------------------------------------------
# run_lsb


def test_empty_script_single_year():
    tr = run_lsb(state("y^2 - x^3", 2), [])
    assert len(tr.years) == 1
    assert tr.final.pair.all_generators() == (p("y^2 - x^3"),)


def test_one_blowup_trace():
    tr = run_lsb(state("t^2 + x*y*z", 2, NAMES4), [(NAMES4, "x")])
    assert len(tr.years) == 2
    entries = tr.final.exdata.entries
    assert [e.divisor_id for e in entries] == ["E1"]
    assert entries[0].birth_year == 1
    assert entries[0].d == Fraction(1, 2)


def test_three_charts_reproduce_the_shape():
    # the threefold returns to itself (up to renaming) in each chart
    for chart in ("x", "y", "z"):
        tr = run_lsb(state("t^2 + x*y*z", 2, NAMES4), [(NAMES4, chart)])
        gens = tr.final.pair.all_generators()
        assert len(gens) == 1
        assert sorted(sum(e) for e in gens[0].terms) == [2, 3]
        assert is_singular_at_origin(tr.final.pair)


def test_impermissible_step_names_year():
    with pytest.raises(PreconditionError) as exc:
        run_lsb(state("y^2 - x^3", 2), [(["y"], "y")])
    assert str(exc.value) == "year 1: center not permissible (order along center below a weight)"


def test_a_center_below_the_weight_is_refused_by_the_chart_map(monkeypatch):
    # y^2 - x^3 along V(y): the term x^3 has center sum 0 < b = 2; the
    # refusal comes from the map, with no separate pass over the minima
    calls = []
    monkeypatch.setattr(history, "pair_minima",
                        lambda *args: calls.append(args) or pair_minima(*args))
    with pytest.raises(PreconditionError) as exc:
        blowup_chart(state("y^2 - x^3", 2), [1], 1)
    assert str(exc.value) == NOT_PERMISSIBLE
    assert calls == []
    assert not is_permissible(state("y^2 - x^3", 2), [1])


def test_second_step_permissibility_checked():
    script = [(NAMES4, "x"), (["t", "x"], "x")]
    with pytest.raises(PreconditionError, match="year 2"):
        run_lsb(state("t^2 + x*y*z", 2, NAMES4), script)


# ---------------------------------------------------------------------------
# exceptional_nu


def test_exceptional_nu_family_case():
    frame = Frame(tuple(NAMES4), (0, 1), (2, 3), (("H", 0),))
    f = p("z^3 - x^2*y^2", NAMES4)
    E = Pair((Component((f,), Fraction(3)), Component((p("t", NAMES4),), Fraction(1))))
    exdata = ExceptionalData((ExcDivisor("H", Fraction(2, 3), 0),))
    assert exceptional_nu(E, frame, exdata) == Fraction(2, 3)


def test_exceptional_nu_without_divisors_is_delta():
    E = Pair.single([p("y^2 - x^3")], 2)
    assert exceptional_nu(E, FRAME_XY, ExceptionalData()) == Fraction(3, 2)


def test_exceptional_nu_after_blowup():
    tr = run_lsb(state("t^2 + x*y*z", 2, NAMES4), [(NAMES4, "x")])
    st = tr.final
    assert exceptional_nu(st.pair, st.frame, st.exdata) == 1


def test_an_entry_that_has_left_the_point_is_kept_as_it_is():
    """A divisor whose strict transform has left the tracked point keeps
    d = 0 and no mark, so ``blowup_chart`` reuses its entry instead of
    building it again: along 400 origin blow-ups of a cusp, each in chart
    x, every entry unmarked in two consecutive years is the same object in
    both."""
    names = ("x", "y", "z")
    start = PairWithHistory(Pair.single([p("z^2 + x^3*y^2", names)], 2),
                            Frame(names, (0, 1), (2,)))
    trace = run_lsb(start, [(names, "x")] * 400)
    kept = 0
    for before, after in zip(trace.years, trace.years[1:]):
        marked = {d for d, _ in before.state.frame.exceptional + after.state.frame.exceptional}
        entries = {e.divisor_id: e for e in before.state.exdata.entries}
        for e in after.state.exdata.entries:
            if e.divisor_id in entries and e.divisor_id not in marked:
                assert e is entries[e.divisor_id], (after.year, e)
                kept += 1
    assert kept == 399 * 398 // 2
