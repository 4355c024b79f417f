import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from hironaka import coeff
from hironaka.coeff import (
    MaximalContact,
    _direction_candidates,
    _evaluate,
    _shift_clears,
    _substitute_pair,
    coefficient_pair,
    delta_invariant,
    find_maximal_contact,
    prepare_vertices,
)
from hironaka.errors import DirectrixNotSpanned, PreconditionError
from hironaka.frames import Frame
from hironaka.pairs import Component, Pair, is_singular_at_origin
from hironaka.poly import (
    INF,
    Polynomial,
    hasse_derivative,
    ord_at_origin,
    parse_polynomial,
    substitute,
)
from hironaka.polyhedra import delta, polyhedron_of_pair

from conftest import corpus_problems, random_singular_pair, subset_of

NAMES2 = ["x", "y"]
NAMES4 = ["x", "y", "z", "t"]
FRAME_XY = Frame(("x", "y"), (0,), (1,))
FRAME_T = Frame(("x", "y", "z", "t"), (0, 1, 2), (3,))


def p(text, names=NAMES2):
    return parse_polynomial(text, names)


# ---------------------------------------------------------------------------
# coefficient_pair


def test_coefficient_pair_of_curve():
    C = coefficient_pair(Pair.single([p("y^2 - x^3")], 2), FRAME_XY, [1])
    assert len(C.components) == 1
    comp = C.components[0]
    assert comp.weight == 2
    assert comp.gens == (parse_polynomial("-x^3", ["x"]),)


def test_coefficient_pair_of_threefold():
    E = Pair.single([p("t^2 + x*y*z", NAMES4)], 2)
    C = coefficient_pair(E, FRAME_T, [3])
    assert len(C.components) == 1
    assert C.components[0].weight == 2
    assert C.components[0].gens == (parse_polynomial("x*y*z", ["x", "y", "z"]),)


def test_coefficient_pair_two_variable_restriction():
    E = Pair((
        Component((p("z^3 - x^2*y^2", NAMES4),), Fraction(3)),
        Component((p("t", NAMES4),), Fraction(1)),
    ))
    frame = Frame(tuple(NAMES4), (0, 1), (2, 3))
    C = coefficient_pair(E, frame, [2, 3])
    assert len(C.components) == 1
    assert C.components[0].weight == 3
    assert C.components[0].gens == (parse_polynomial("-x^2*y^2", ["x", "y"]),)


def test_coefficient_pair_levels_carry_weights():
    E = Pair.single([p("y^3 + y*x^3 + x^5")], 3)
    C = coefficient_pair(E, FRAME_XY, [1])
    data = {comp.weight: comp.gens for comp in C.components}
    assert set(data) == {Fraction(3), Fraction(2)}
    assert data[Fraction(3)] == (parse_polynomial("x^5", ["x"]),)
    assert data[Fraction(2)] == (parse_polynomial("x^3", ["x"]),)


def test_coefficient_pair_fractional_level_on_marked_variable():
    frame = Frame(("x", "y"), (0,), (1,), (("E1", 0),))
    D = Polynomial(2, {(Fraction(1, 2), Fraction(1, 2)): Fraction(1)})
    E = Pair((Component((D,), Fraction(1, 2)), Component((p("y"),), Fraction(1))))
    C = coefficient_pair(E, frame, [0])
    # the monomial sits exactly at its weight: nothing survives from it
    assert [comp.gens for comp in C.components] == [(parse_polynomial("y", ["y"]),)]


# ---------------------------------------------------------------------------
# find_maximal_contact


def test_contact_on_curve():
    mc = find_maximal_contact(Pair.single([p("y^2 - x^3")], 2), FRAME_XY)
    assert mc.witness == p("y")
    assert mc.contact_index == 1
    assert mc.pair.all_generators() == (p("y^2 - x^3"),)


def test_contact_on_threefold():
    E = Pair.single([p("t^2 + x*y*z", NAMES4)], 2)
    mc = find_maximal_contact(E, FRAME_T)
    assert mc.witness == p("t", NAMES4)
    assert mc.contact_index == 3


def test_contact_after_shift():
    E = Pair.single([p("(y+x)^2 - x^3")], 2)
    mc = find_maximal_contact(E, FRAME_XY)
    assert mc.witness == p("y + x")
    # in the adapted coordinates the pair is the plain cusp again
    assert mc.pair.all_generators() == (p("y^2 - x^3"),)


def test_contact_pair_is_rewritten_once():
    """The accepted direction mixes x and y and the witness keeps a
    nonlinear tail, so the pair is rewritten by the linear change composed
    with the tail shift.  It must equal the sequential rewrite: the change
    first, then each shift.

    No accepted witness needs two shifts.  A reduction that ends writes the
    witness as w = (x + phi) * U with U = 1 at the origin.  After shifts of
    total S_k, D_k = phi - S_k obeys D_(k+1) = D_k * (1 - U(-S_k)), whose
    factor is zero or of positive degree, so deg D_k grows.  Ending at shift
    m >= 2 needs U(-S_(m-1)) = 1, i.e. U - 1 = (x + S_(m-1)) * V; then
    D_(m-1) = D_(m-2) * (D_(m-1) - D_(m-2)) * V(-S_(m-2)) has a higher
    total degree on the right than on the left."""
    names = ["x", "y", "z"]
    gens = [p("-3*x^3*z - x*y*z^3", names), p("x*y^2 + 2*z^4 + 4*x*y*z^3", names)]
    mc = find_maximal_contact(Pair.single(gens, 3), Frame(tuple(names), (0, 1, 2), ()))
    assert (mc.direction, mc.contact_index) == ((1, -1, 0), 0)
    x = [Polynomial.variable(3, i) for i in range(3)]
    sequential = [substitute(g, {0: x[0], 1: x[1] - x[0]}) for g in gens]
    current, shifts = mc.witness, 0
    while not (tail := Polynomial(3, {e: c for e, c in current.terms.items() if e[0] == 0})).is_zero():
        shift = {0: x[0] - tail}
        current = substitute(current, shift)
        sequential = [substitute(g, shift) for g in sequential]
        shifts += 1
    assert shifts == 1 and mc.witness == p("x - 2/3*y - 4/3*z^3", names)
    assert mc.pair == Pair.single(sequential, 3)


def test_contact_prefers_given_variables():
    E = Pair((
        Component((p("y^2 - x^3"),), Fraction(2)),
        Component((p("x"),), Fraction(1)),
    ))
    mc = find_maximal_contact(E, FRAME_XY, preferred_variables=(0,))
    assert mc.contact_index == 0
    assert mc.witness == p("x")


def test_contact_requires_witness():
    # both generators have order strictly above their weight
    E = Pair.single([p("y^3")], 2)
    with pytest.raises(PreconditionError, match="no maximal contact witness"):
        find_maximal_contact(E, FRAME_XY)


def test_missing_witness_names_the_pair_order():
    E = Pair((Component((p("y^3"), p("x^4")), Fraction(2)), Component((p("x*y"),), Fraction(1))))
    with pytest.raises(PreconditionError) as err:
        find_maximal_contact(E, FRAME_XY)
    assert str(err.value) == (
        "no maximal contact witness: every generator's order exceeds its weight "
        "(pair order 3/2 > 1)")
    # order equal to the weight, but only on a fractional weight: no claim
    D = Polynomial(2, {(Fraction(1, 2), Fraction(1, 2)): Fraction(1)})
    with pytest.raises(PreconditionError) as err:
        find_maximal_contact(Pair((Component((D,), Fraction(1)),)), FRAME_XY)
    assert str(err.value) == "no maximal contact witness"


def test_contact_requires_singularity():
    with pytest.raises(PreconditionError, match="point not in Sing"):
        find_maximal_contact(Pair.single([p("y - x^2")], 2), FRAME_XY)


def test_contact_rejects_completion_level_input():
    # V(z) for z = y + y^2 + x^2 is a graph with an infinite expansion
    E = Pair.single([p("(y + y^2 + x^2)^2")], 2)
    with pytest.raises(PreconditionError, match="completion"):
        find_maximal_contact(E, FRAME_XY)


def test_contact_unit_tail_is_fine():
    # y(1+y) generates the same hypersurface germ as y
    E = Pair.single([p("(y + y^2)^2 - x^5")], 2)
    mc = find_maximal_contact(E, FRAME_XY)
    assert mc.contact_index == 1


def eager_direction_candidates(n: int, height: int):
    """The sweep as it was before it became lazy: every vector of max-norm
    h = 1 .. ``height`` with its first nonzero entry positive, built and
    sorted by sparsity, then lowest variable, then lex, per height."""
    for h in range(1, height + 1):
        batch = []
        for vec in product(range(-h, h + 1), repeat=n):
            if max((abs(x) for x in vec), default=0) != h:
                continue
            first = next((i for i, x in enumerate(vec) if x != 0), None)
            if first is None or vec[first] < 0:
                continue
            batch.append((sum(1 for x in vec if x), first, vec))
        for _, _, vec in sorted(batch):
            yield vec


def kept_directions(eager, marked, adjoined):
    """The eager vectors that ``find_maximal_contact`` kept before the sweep
    became lazy: those that leave the marked variables alone, and the unit
    vectors of adjoined marked variables."""
    for vec in eager:
        touched = {i for i, x in enumerate(vec) if x != 0}
        if not touched & marked or (len(touched) == 1 and touched <= set(adjoined)
                                    and vec[next(iter(touched))] == 1):
            yield vec


def test_the_lazy_sweep_is_the_filtered_eager_sweep():
    # n <= 4, h <= 3, every marked set and every adjoined subset of it
    cases = 0
    for n, height in product(range(5), range(1, 4)):
        eager = list(eager_direction_candidates(n, height))
        for marked in (frozenset(m) for r in range(n + 1) for m in combinations(range(n), r)):
            for adjoined in (a for r in range(len(marked) + 1)
                             for a in combinations(sorted(marked), r)):
                assert (list(_direction_candidates(n, height, marked, adjoined))
                        == list(kept_directions(eager, marked, adjoined))), (n, height, marked)
                cases += 1
    assert cases == 363


def test_no_witness_is_decided_before_the_sweep(monkeypatch):
    # top x^2: zero with the marked x at 0, and x^2 counts only once x is adjoined
    names = ["x", "y", "z"]
    frame = Frame(tuple(names), (0, 1, 2), (), (("E1", 0),))
    E = Pair.single([p("x^2 + y*z^2 + z^3", names)], 2)
    sweep = coeff._direction_candidates
    monkeypatch.setattr(coeff, "_direction_candidates", None)
    with pytest.raises(PreconditionError) as err:
        find_maximal_contact(E, frame)
    assert str(err.value) == "no maximal contact witness"
    monkeypatch.setattr(coeff, "_direction_candidates", sweep)
    mc = find_maximal_contact(E, frame, preferred_variables=(0,))
    assert (mc.contact_index, mc.direction) == (0, (1, 0, 0))


def test_no_witness_exactly_when_no_direction_reads_a_nonzero_top(monkeypatch):
    """With the height lowered to 2, every b <= 4 is below the grid size 5:
    on random pairs with every marked set and adjoined subset, the input is
    rejected with "no maximal contact witness" exactly when no direction of
    the eager sweep that the contact may take has a nonzero top form."""
    monkeypatch.setattr(coeff, "CONTACT_HEIGHT", 2)
    names = ("x", "y", "z")
    eager = list(eager_direction_candidates(3, 2))
    tally = Counter()
    for seed in range(30):
        E = random_singular_pair(random.Random(seed), 3)
        f, b = next(((g, comp.weight) for comp in E.components for g in comp.gens
                     if ord_at_origin(g) == comp.weight), (None, None))
        if f is None or any(comp.weight == 1 and len(g.terms) == 1 and sum(next(iter(g.terms))) == 1
                            for comp in E.components for g in comp.gens):
            continue  # no witness generator, or an adjoined variable might short-circuit
        top = Polynomial(3, {e: c for e, c in f.terms.items() if sum(e) == b})
        for marked in (m for r in range(4) for m in combinations(range(3), r)):
            frame = Frame(names, (0, 1, 2), (), tuple((f"E{i}", i) for i in marked))
            for adjoined in (a for r in range(len(marked) + 1) for a in combinations(marked, r)):
                hopeless = not any(_evaluate(top, v)
                                   for v in kept_directions(eager, set(marked), adjoined))
                outcome = _contact_outcome(find_maximal_contact, E, frame, adjoined)
                assert (outcome == "no maximal contact witness") == hopeless, (seed, marked, adjoined)
                tally[hopeless] += 1
    assert tally[True] >= 300 and tally[False] >= 200, tally


def contact_by_iteration_reference(E: Pair, frame: Frame, height: int, shift_cap: int = 2):
    """``find_maximal_contact`` as it was before the one-shift reduction, for
    frames without exceptional divisors: each direction's witness is shifted
    by its pivot-free part until none is left, at most ``shift_cap`` times
    (150-term cap checked before each shift, 12 failed directions at most),
    and the pair is rewritten once by the sum of the shifts."""
    if not is_singular_at_origin(E):
        raise PreconditionError("point not in Sing")
    n = E.nvars
    chosen = next(((g, int(comp.weight)) for comp in E.components if comp.weight.denominator == 1
                   for g in comp.gens
                   if ord_at_origin(g) == comp.weight and not g.has_fractional_exponent()), None)
    if chosen is None:
        raise PreconditionError("no maximal contact witness")
    f, b = chosen
    top = Polynomial(n, {e: c for e, c in f.terms.items() if sum(e) == b})
    x = [Polynomial.variable(n, i) for i in range(n)]
    saw_direction, failed_screens = False, 0
    for vec in eager_direction_candidates(n, height):
        if _evaluate(top, vec) == 0:
            continue
        saw_direction = True
        pivot = next(i for i, c in enumerate(vec) if c != 0)
        change = None
        if any(c != 0 and i != pivot for i, c in enumerate(vec)) or vec[pivot] != 1:
            change = {i: x[i] + x[pivot].scale(vec[i]) if i != pivot else x[pivot].scale(vec[i])
                      for i in range(n) if vec[i] != 0 or i == pivot}
        witness = hasse_derivative(substitute(f, change) if change else f,
                                   tuple(b - 1 if j == pivot else 0 for j in range(n)))
        witness = witness.scale(Fraction(1) / witness.terms[tuple(int(j == pivot) for j in range(n))])
        removed, current, ok = Polynomial.zero(n), witness, False
        for shifts in range(shift_cap + 1):
            tail = Polynomial(n, {e: c for e, c in current.terms.items() if e[pivot] == 0})
            if tail.is_zero():
                ok = True
                break
            if shifts >= shift_cap or len(current.terms) > 150:
                break
            removed = removed + tail
            current = substitute(current, {pivot: x[pivot] - tail})
        if not ok:
            failed_screens += 1
            if failed_screens >= 12:
                break
            continue
        assignment = change or {}
        if not removed.is_zero():
            shift = {pivot: x[pivot] - removed}
            assignment = {i: substitute(g, shift) for i, g in assignment.items()} or shift
        pair = _substitute_pair(E, assignment) if assignment else E
        return MaximalContact(pair, frame.move_to_y(pivot), pivot, witness, tuple(vec))
    if saw_direction:
        raise PreconditionError("maximal contact requires a completion-level coordinate change")
    raise PreconditionError("no maximal contact witness")


def _contact_outcome(find, *args):
    try:
        return find(*args)
    except PreconditionError as exc:
        # the missing-witness detail is not part of the reduction
        return str(exc).split(":")[0]


@pytest.mark.parametrize("height", [1, 2])
@pytest.mark.parametrize("nvars, seeds", [(2, 40), (3, 10)])
def test_one_shift_reduction_matches_iteration(monkeypatch, nvars, seeds, height):
    """The same contact, direction, witness and rewritten pair, or the same
    rejection, as the multi-shift loop.  A larger shift cap would agree too
    (a reduction that ends takes at most one shift) at a higher cost."""
    monkeypatch.setattr(coeff, "CONTACT_HEIGHT", height)
    frame = Frame(tuple(f"x{i}" for i in range(nvars)), tuple(range(nvars)), ())
    shifted = 0
    for seed in range(seeds):
        E = random_singular_pair(random.Random(seed), nvars)
        new = _contact_outcome(find_maximal_contact, E, frame)
        assert new == _contact_outcome(contact_by_iteration_reference, E, frame, height), seed
        if isinstance(new, MaximalContact):
            shifted += any(e[new.contact_index] == 0 for e in new.witness.terms)
    assert shifted >= 1


def test_the_recorded_change_gives_the_rewritten_pair():
    # MaximalContact.change is the substitution that turned the input into
    # the returned pair, and {} exactly when the pair was not rewritten
    changed = 0
    for nvars in (2, 3):
        frame = Frame(tuple(f"x{i}" for i in range(nvars)), tuple(range(nvars)), ())
        for seed in range(60):
            E = random_singular_pair(random.Random(seed), nvars)
            mc = _contact_outcome(find_maximal_contact, E, frame)
            if isinstance(mc, MaximalContact):
                assert (coeff._substitute_pair(E, mc.change) if mc.change else E) == mc.pair
                changed += bool(mc.change)
    assert changed >= 5, changed


def test_zero_probe_falls_back_to_the_substitution(monkeypatch):
    # pivot x, probe y = 3, t = y^2/lead: w(-t(3), 3) = 0 although
    # w(-t, y) = -y^3*(y - 3)/lead^2; with lead 2 the probe's x is -9/2, not an int
    for lead in (1, 2):
        w = p(f"{lead}*x + y^2 + x*y*(y - 3)")
        assert _evaluate(w.scale(Fraction(1, lead)), (Fraction(-9, lead), 3)) == 0
        assert not _shift_clears(w, 0)
        # (lead*x + y^2)(1 + x) becomes lead*x*(1 + x - y^2/lead) under x -> x - y^2/lead
        assert _shift_clears(p(f"({lead}*x + y^2)*(1 + x)"), 0)
        E = Pair.single([w], 1)
        for height in (1, 2):
            monkeypatch.setattr(coeff, "CONTACT_HEIGHT", height)
            assert (_contact_outcome(find_maximal_contact, E, FRAME_XY)
                    == _contact_outcome(contact_by_iteration_reference, E, FRAME_XY, height))


# ---------------------------------------------------------------------------
# prepare_vertices


def test_prepare_removes_solvable_vertex():
    res = prepare_vertices(Pair.single([p("(y + x^2)^2")], 2), FRAME_XY)
    assert res.prepared
    assert res.polyhedron.is_empty()
    assert res.translations == (((2,), (Fraction(-1),)),)


def test_prepare_keeps_unsolvable_vertex():
    res = prepare_vertices(Pair.single([p("y^2 - x^3")], 2), FRAME_XY)
    assert res.prepared
    assert res.polyhedron.vertices == ((Fraction(3, 2),),)
    assert res.translations == ()


def test_prepare_identity_when_already_prepared():
    E = Pair.single([p("y^2 - x^3")], 2)
    res = prepare_vertices(E, FRAME_XY)
    assert res.pair == E
    assert res.frame == FRAME_XY


def test_prepare_never_grows_polyhedron(monkeypatch, rng):
    """Preparation only shrinks the polyhedron, so delta can only rise; it
    rises strictly on (y + x^2)^2: 2 before y -> y - x^2, inf after.

    Why a translation y_j -> y_j + c_j*u^v, with v a vertex of P, never
    leaves P: a term u^A y^B of a component of weight b becomes a sum of
    terms u^(A + k*v) y^B' with |B'| = |B| - k, k = 0..|B|, some of which
    may cancel.  Such a term gives a point of the new polyhedron when
    |B| - k < b.
    - If |B| < b, the point (A + k*v)/(b - |B| + k) is the convex
      combination of A/(b - |B|), a point of P, and v with the weights
      (b - |B|)/(b - |B| + k) and k/(b - |B| + k).
    - If |B| >= b, then m = b - |B| + k satisfies 0 < m <= k, so the point
      A/m + (k/m)*v dominates v coordinatewise.
    Either way the point lies in P, which is convex and closed under adding
    the orthant, so the new polyhedron is a subset of P.  Vertex
    preparation commits such translations only, so this holds for its
    result; the test checks it on random pairs and on every pairs-local
    problem (up to three u-coordinates, two or three components).
    """
    monkeypatch.setattr(coeff, "MAX_PREP_ITERS", 8)
    pinned = Pair.single([p("(y + x^2)^2")], 2)
    cases = [(pinned, FRAME_XY)] + [(random_singular_pair(rng, 2), FRAME_XY) for _ in range(20)]
    cases += [(problem.pair, problem.frame) for _, problem in corpus_problems("pairs-local")]
    prepared = 0
    for E, frame in cases:
        try:
            before = polyhedron_of_pair(E, frame)
            res = prepare_vertices(E, frame)
        except PreconditionError:
            continue  # directrix not spanned by y: out of contract
        assert subset_of(res.polyhedron, before)
        assert delta(res.polyhedron) >= delta(before)
        prepared += 1
        if E is pinned:
            assert (delta(before), delta(res.polyhedron)) == (2, INF)
    assert prepared >= 60


def test_prepare_multi_step():
    # two separately solvable vertices
    E = Pair.single([p("(y + x^2 + x^3)^2")], 2)
    res = prepare_vertices(E, FRAME_XY)
    assert res.prepared
    assert res.polyhedron.is_empty()
    assert len(res.translations) >= 1


# ---------------------------------------------------------------------------
# delta_invariant


def test_delta_invariant_cusp():
    assert delta_invariant(Pair.single([p("y^2 - x^3")], 2), FRAME_XY) == Fraction(3, 2)


def test_delta_invariant_threefold():
    E = Pair.single([p("t^2 + x*y*z", NAMES4)], 2)
    assert delta_invariant(E, FRAME_T) == Fraction(3, 2)


def test_delta_invariant_of_equivalent_pairs_agrees():
    frame = Frame(tuple(NAMES4), (0, 1), (2, 3))
    f = p("z^3 - x^2*y^2", NAMES4)
    first = Pair((Component((f,), Fraction(3)), Component((p("t", NAMES4),), Fraction(1))))
    second = Pair((
        Component((f,), Fraction(3)),
        Component((p("t^2 - x*y^2", NAMES4),), Fraction(2)),
    ))
    assert delta_invariant(first, frame) == Fraction(4, 3)
    assert delta_invariant(second, frame) == Fraction(4, 3)


def test_delta_invariant_refuses_bad_split():
    # moving the contact variable into the u-part breaks the precondition
    frame = Frame(("x", "y"), (0, 1), ())
    with pytest.raises(PreconditionError, match="directrix") as err:
        delta_invariant(Pair.single([p("y^2 - x^3")], 2), frame)
    assert type(err.value) is DirectrixNotSpanned


def test_delta_one_degeneracy_when_y_misses_directrix():
    # with a directrix direction inside u the raw polyhedron has delta 1
    frame = Frame(("x", "y"), (0, 1), ())
    E = Pair.single([p("y^2 - x^3")], 2)
    assert delta(polyhedron_of_pair(E, frame)) == 1


# ---------------------------------------------------------------------------
# coefficient-pair delta identity


def test_coefficient_delta_identity_fixed_cases():
    cases = [
        (Pair.single([p("y^2 - x^3")], 2), FRAME_XY),
        (Pair.single([p("t^2 + x*y*z", NAMES4)], 2), FRAME_T),
        (Pair.single([p("y^2 - x^5")], 2), FRAME_XY),
    ]
    for E, frame in cases:
        C = coefficient_pair(E, frame, frame.y_indices)
        reduced = frame.drop_variables(frame.y_indices)
        inner = Frame(reduced.variables, tuple(range(reduced.nvars)), ())
        assert delta(polyhedron_of_pair(C, inner)) == delta(polyhedron_of_pair(E, frame))


def test_coefficient_delta_identity_random(rng):
    frame = Frame(("x", "y", "z"), (0, 1), (2,))
    inner = Frame(("x", "y"), (0, 1), ())
    tested = 0
    while tested < 25:
        E = random_singular_pair(rng, 3)
        C = coefficient_pair(E, frame, [2])
        lhs = delta(polyhedron_of_pair(C, inner)) if not C.is_empty() else None
        rhs = delta(polyhedron_of_pair(E, frame))
        if C.is_empty():
            from hironaka.poly import INF

            assert rhs == INF
        else:
            assert lhs == rhs
        tested += 1


def test_contact_choice_invariance_of_polyhedron():
    # two successful contact runs from different presentations give the same
    # projected polyhedron
    E1 = Pair.single([p("(y+x)^2 - x^3")], 2)
    mc1 = find_maximal_contact(E1, FRAME_XY)
    E2 = Pair.single([p("y^2 - x^3")], 2)
    mc2 = find_maximal_contact(E2, FRAME_XY)
    assert polyhedron_of_pair(mc1.pair, mc1.frame) == polyhedron_of_pair(mc2.pair, mc2.frame)
