import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, count, islice, product, takewhile

import pytest

from hironaka import coeff, invariant
from hironaka.cli import run
from hironaka.coeff import (
    MaximalContact,
    _direction_candidates,
    _evaluate,
    _line_value,
    coefficient_pair,
    delta_invariant,
    find_maximal_contact,
    prepare_vertices,
)
from hironaka.errors import DirectrixNotSpanned, InternalError, PreconditionError
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

from conftest import (
    corpus_problems, random_polynomial, random_singular_pair, reference_coefficient_pair,
    reference_find_maximal_contact, scale_exponents, subset_of,
)

NAMES2 = ["x", "y"]
NAMES4 = ["x", "y", "z", "t"]
FRAME_XY = Frame(("x", "y"), (0,), (1,))
FRAME_T = Frame(("x", "y", "z", "t"), (0, 1, 2), (3,))
# the contact search sweeps the u-part: these frames let it sweep everything
ALL_U_XY = Frame(("x", "y"), (0, 1), ())
ALL_U_T = Frame(("x", "y", "z", "t"), (0, 1, 2, 3), ())


def p(text, names=NAMES2):
    return parse_polynomial(text, names)


# ---------------------------------------------------------------------------
# coefficient_pair


def test_coefficient_pair_of_curve():
    C = coefficient_pair(Pair.single([p("y^2 - x^3")], 2), FRAME_XY)
    assert len(C.components) == 1
    comp = C.components[0]
    assert comp.weight == 2
    assert comp.gens == (p("-x^3"),)


def test_coefficient_pair_of_threefold():
    E = Pair.single([p("t^2 + x*y*z", NAMES4)], 2)
    C = coefficient_pair(E, FRAME_T)
    assert len(C.components) == 1
    assert C.components[0].weight == 2
    assert C.components[0].gens == (p("x*y*z", NAMES4),)


def test_coefficient_pair_two_variable_restriction():
    E = Pair((
        Component((p("z^3 - x^2*y^2", NAMES4),), Fraction(3)),
        Component((p("t", NAMES4),), Fraction(1)),
    ))
    frame = Frame(tuple(NAMES4), (0, 1), (2, 3))
    C = coefficient_pair(E, frame)
    assert len(C.components) == 1
    assert C.components[0].weight == 3
    assert C.components[0].gens == (p("-x^2*y^2", NAMES4),)


def test_coefficient_pair_levels_carry_weights():
    E = Pair.single([p("y^3 + y*x^3 + x^5")], 3)
    C = coefficient_pair(E, FRAME_XY)
    data = {comp.weight: comp.gens for comp in C.components}
    assert set(data) == {Fraction(3), Fraction(2)}
    assert data[Fraction(3)] == (p("x^5"),)
    assert data[Fraction(2)] == (p("x^3"),)


def test_coefficient_pair_fractional_level_on_marked_variable():
    frame = Frame(("x", "y"), (1,), (0,), (("E1", 0),))
    D = Polynomial(2, {(Fraction(1, 2), Fraction(1, 2)): Fraction(1)})
    E = Pair((Component((D,), Fraction(1, 2)), Component((p("y"),), Fraction(1))))
    C = coefficient_pair(E, frame)
    # the monomial sits exactly at its weight: nothing survives from it
    assert [comp.gens for comp in C.components] == [(p("y"),)]


def _pair_outcome(kernel, E, frame):
    """The components of ``kernel(E, frame)`` with their weights, generator
    order and the types of every number, or the PreconditionError's
    message."""
    try:
        return [(repr(comp.weight), [repr(list(g.terms.items())) for g in comp.gens])
                for comp in kernel(E, frame).components]
    except PreconditionError as exc:
        return str(exc)


def test_every_corpus_coefficient_pair_matches_the_reference(monkeypatch):
    """Every pair that the corpora's ``invariant`` and ``coeff`` runs pass
    to ``coefficient_pair``, rerun through the split-based reference: the
    same components, generator order and number types, or the same
    error."""
    from hironaka import cli, invariant

    calls = []

    def recording(E, frame):
        calls.append((E, frame))
        return coefficient_pair(E, frame)

    for module in (cli, invariant):
        monkeypatch.setattr(module, "coefficient_pair", recording)
    for _, problem in corpus_problems():
        for command in ("invariant", "coeff"):
            try:
                cli.run(problem, command)
            except PreconditionError:
                pass
    monkeypatch.undo()
    assert len(calls) > 250
    for E, frame in calls:
        assert (_pair_outcome(coefficient_pair, E, frame)
                == _pair_outcome(reference_coefficient_pair, E, frame))


def test_random_coefficient_pair_matches_the_reference():
    """Random singular pairs, one variable's exponents scaled by a
    non-integral q, on a random y-part: the scaled variable a marked y, an
    unmarked y (refused when a fractional exponent is left) or a u."""
    seen = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        ys = rng.sample(range(n), rng.randint(1, n - 1))
        j = rng.choice(ys) if seed % 3 else rng.choice([i for i in range(n) if i not in ys])
        E = scale_exponents(random_singular_pair(rng, n, 3), j, Fraction(rng.choice((1, 3)), 2))
        marks = (("E", j),) if seed % 3 == 1 else ()
        frame = Frame(tuple(f"x{i}" for i in range(n)),
                      tuple(i for i in range(n) if i not in ys), tuple(ys), marks)
        got = _pair_outcome(coefficient_pair, E, frame)
        assert got == _pair_outcome(reference_coefficient_pair, E, frame), seed
        if isinstance(got, str):
            seen["refused"] += 1
        else:
            seen["built"] += 1
            seen["fractional level"] += any("Fraction" in weight for weight, _ in got)
    assert min(seen.values()) >= 30, seen


# ---------------------------------------------------------------------------
# find_maximal_contact


def contact_witness(E: Pair, mc: MaximalContact, preferred=()) -> Polynomial:
    """The witness that ``find_maximal_contact`` built for ``mc``, which
    it does not return: x_p when an adjoined variable p is a weight-1
    generator (the preferred short cut); else the chosen generator f of
    order b under the linear change along ``mc.direction``, its Hasse
    derivative of order b - 1 along the pivot, over its pivot coefficient."""
    n = E.nvars
    x = [Polynomial.variable(n, i) for i in range(n)]
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    for idx in preferred:
        if any(comp.weight == 1 and any(set(g.terms) == {unit[idx]} for g in comp.gens)
               for comp in E.components):
            return x[idx]
    f, b = next((g, comp.weight) for comp in E.components if type(comp.weight) is int
                for g in comp.gens
                if ord_at_origin(g) == comp.weight and not g.has_fractional_exponent())
    pivot, vec = mc.contact_index, mc.direction
    change = {i: x[pivot].scale(v) if i == pivot else x[i] + x[pivot].scale(v)
              for i, v in enumerate(vec) if v}
    witness = hasse_derivative(substitute(f, change), tuple(b - 1 if j == pivot else 0 for j in range(n)))
    return witness.scale(Fraction(1) / witness.terms[unit[pivot]])


def test_contact_on_curve():
    E = Pair.single([p("y^2 - x^3")], 2)
    mc = find_maximal_contact(E, ALL_U_XY)
    assert contact_witness(E, mc) == p("y")
    assert mc.contact_index == 1
    assert mc.pair.all_generators() == (p("y^2 - x^3"),)


def test_contact_on_threefold():
    E = Pair.single([p("t^2 + x*y*z", NAMES4)], 2)
    mc = find_maximal_contact(E, ALL_U_T)
    assert contact_witness(E, mc) == p("t", NAMES4)
    assert mc.contact_index == 3


def test_contact_after_shift():
    E = Pair.single([p("(y+x)^2 - x^3")], 2)
    mc = find_maximal_contact(E, ALL_U_XY)
    assert contact_witness(E, mc) == p("y + x")
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
    E = Pair.single(gens, 3)
    mc = find_maximal_contact(E, Frame(tuple(names), (0, 1, 2), ()))
    assert (mc.direction, mc.contact_index) == ((1, -1, 0), 0)
    x = [Polynomial.variable(3, i) for i in range(3)]
    sequential = [substitute(g, {0: x[0], 1: x[1] - x[0]}) for g in gens]
    witness = contact_witness(E, mc)
    current, shifts = witness, 0
    while not (tail := Polynomial(3, {e: c for e, c in current.terms.items() if e[0] == 0})).is_zero():
        shift = {0: x[0] - tail}
        current = substitute(current, shift)
        sequential = [substitute(g, shift) for g in sequential]
        shifts += 1
    assert shifts == 1 and witness == p("x - 2/3*y - 4/3*z^3", names)
    # the tail's denominator L' = 3: the pair is L'^D * g o rho, rho the
    # sequential rewrite followed by x -> x/3, D = g's degree in x and y
    assert mc.pair == Pair.single([cleared(g, h, 0, {0, 1}, 3) for g, h in zip(gens, sequential)], 3)
    assert all(type(c) is int for g in mc.pair.all_generators() for c in g.terms.values())


def factor(g, mapped, L):
    """L^D, D the largest degree of a term of g in the variables ``mapped``."""
    return L ** max(sum(e[i] for i in mapped) for e in g.terms)


def cleared(g, rewritten, pivot, mapped, L):
    """The generator that the contract of ``MaximalContact.change`` gives
    from ``rewritten`` = g o (the linear change and the shift): the pivot
    scaled by 1/L, times ``factor(g, mapped, L)``."""
    pivot_over_L = Polynomial.variable(g.nvars, pivot).scale(Fraction(1, L))
    return substitute(rewritten, {pivot: pivot_over_L}).scale(factor(g, mapped, L))


def denominator(tail_coefficients):
    """L', the least common denominator of a contact's tail."""
    return math.lcm(*(c.denominator for c in tail_coefficients))


def test_contact_prefers_given_variables():
    E = Pair((
        Component((p("y^2 - x^3"),), Fraction(2)),
        Component((p("x"),), Fraction(1)),
    ))
    mc = find_maximal_contact(E, ALL_U_XY, preferred_variables=(0,))
    assert mc.contact_index == 0
    assert contact_witness(E, mc, (0,)) == p("x")


def test_contact_requires_witness():
    # both generators have order strictly above their weight
    E = Pair.single([p("y^3")], 2)
    with pytest.raises(PreconditionError, match="no maximal contact witness"):
        find_maximal_contact(E, ALL_U_XY)


def test_missing_witness_names_the_pair_order():
    E = Pair((Component((p("y^3"), p("x^4")), Fraction(2)), Component((p("x*y"),), Fraction(1))))
    with pytest.raises(PreconditionError) as err:
        find_maximal_contact(E, ALL_U_XY)
    assert str(err.value) == (
        "no maximal contact witness: every generator's order exceeds its weight "
        "(pair order 3/2 > 1)")
    # order equal to the weight, but only on a fractional weight: no claim
    D = Polynomial(2, {(Fraction(1, 2), Fraction(1, 2)): Fraction(1)})
    with pytest.raises(PreconditionError) as err:
        find_maximal_contact(Pair((Component((D,), Fraction(1)),)), ALL_U_XY)
    assert str(err.value) == "no maximal contact witness"


def test_contact_requires_singularity():
    with pytest.raises(PreconditionError, match="point not in Sing"):
        find_maximal_contact(Pair.single([p("y - x^2")], 2), ALL_U_XY)


def test_contact_rejects_completion_level_input():
    # V(z) for z = y + y^2 + x^2 is a graph with an infinite expansion
    E = Pair.single([p("(y + y^2 + x^2)^2")], 2)
    with pytest.raises(PreconditionError, match="completion"):
        find_maximal_contact(E, ALL_U_XY)


def test_contact_unit_tail_is_fine():
    # y(1+y) generates the same hypersurface germ as y
    E = Pair.single([p("(y + y^2)^2 - x^5")], 2)
    mc = find_maximal_contact(E, ALL_U_XY)
    assert mc.contact_index == 1


def eager_direction_candidates(n: int, height: int | None = None):
    """The sweep as it was before it became lazy: every vector of max-norm
    h = 1 .. ``height`` (every h when None) with its first nonzero entry
    positive, built and sorted by sparsity, then lowest variable, then lex,
    per height."""
    for h in range(1, height + 1) if height else count(1):
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


def up_to_height(directions, height: int):
    """The directions of max-norm at most ``height``, from a sweep in
    height order."""
    return takewhile(lambda vec: max(map(abs, vec), default=0) <= height, directions)


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
                lazy = up_to_height(_direction_candidates(n, marked, adjoined), height)
                assert list(lazy) == list(kept_directions(eager, marked, adjoined)), (n, height, marked)
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


def test_no_witness_exactly_when_no_direction_reads_a_nonzero_top():
    """Every b <= 4 is below the grid size 5 of height 2: on random pairs
    with every marked set and adjoined subset, the input is rejected with
    "no maximal contact witness" exactly when no direction of the eager
    sweep to height 2 that the contact may take has a nonzero top form."""
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


def test_the_sweep_leaves_the_y_part_alone():
    # along the descent the y-part holds the consumed contacts: y is never
    # swept, so a top form that needs y reads nothing, before any sweep
    E = Pair.single([p("y^2 - x^3")], 2)
    assert find_maximal_contact(E, ALL_U_XY).contact_index == 1
    with pytest.raises(PreconditionError) as err:
        find_maximal_contact(E, FRAME_XY)
    assert str(err.value) == "no maximal contact witness"
    mc = find_maximal_contact(Pair.single([p("x^2 + y^3")], 2), FRAME_XY)
    assert (mc.contact_index, mc.direction, mc.frame.y_indices) == (0, (1, 0), (1, 0))


def test_a_sweep_with_no_free_variable_stops():
    # every variable marked and x1 adjoined: the unit vector of x1, then nothing
    marked = frozenset(range(3))
    assert list(islice(_direction_candidates(3, marked, (1,)), 1000)) == [(0, 1, 0)]
    assert list(islice(_direction_candidates(3, marked), 1000)) == []


def test_one_free_variable_is_rejected_at_the_twelfth_screen(monkeypatch):
    # with x marked, y is the only free variable: the sweep meets (0, h) at
    # every height h, each with top(v) = h^2, and each screen fails; only
    # (0, 1) is primitive, so only it reaches the line screen
    frame = Frame(("x", "y"), (0, 1), (), (("E1", 0),))
    swept, screens = [], []
    sweep = coeff._direction_candidates
    monkeypatch.setattr(coeff, "_direction_candidates",
                        lambda *args: (swept.append(vec) or vec for vec in sweep(*args)))
    monkeypatch.setattr(coeff, "_line_value", lambda f, b, vec, *rest: screens.append(vec)
                        or _line_value(f, b, vec, *rest))
    with pytest.raises(PreconditionError, match="completion-level"):
        find_maximal_contact(Pair.single([p("(y + y^2 + x^2)^2")], 2), frame)
    assert swept == [(0, h) for h in range(1, 13)]
    assert screens == [(0, 1)]


def contact_by_iteration_reference(E: Pair, frame: Frame, shift_cap: int = 2):
    """``find_maximal_contact`` as it was before the one-shift reduction, for
    frames without exceptional divisors: each direction's witness is shifted
    by its pivot-free part until none is left, at most ``shift_cap`` times
    (150-term cap checked before each shift, 12 failed directions at most),
    and the pair is rewritten once by the sum of the shifts.  The eager
    sweep has no height limit: with no marked variable the top form is
    nonzero, so it meets a direction to screen at every height past b/2."""
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
    failed_screens = 0
    for vec in eager_direction_candidates(n):
        if _evaluate(top, vec) == 0:
            continue
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
        pair = Pair(tuple(Component(tuple(substitute(g, assignment) for g in comp.gens), comp.weight)
                          for comp in E.components)) if assignment else E
        # the documented integral form: pivot -> pivot/L', times L'^D
        L, mapped = denominator(removed.terms.values()), {i for i, c in enumerate(vec) if c}
        pair = Pair(tuple(
            Component(tuple(cleared(g, h, pivot, mapped, L) for g, h in zip(comp.gens, new.gens)),
                      comp.weight)
            for comp, new in zip(E.components, pair.components)))
        return MaximalContact(pair, frame.move_to_y(pivot), pivot, tuple(vec))
    raise PreconditionError("maximal contact requires a completion-level coordinate change")


def _contact_outcome(find, *args):
    try:
        return find(*args)
    except PreconditionError as exc:
        # the missing-witness detail is not part of the reduction
        return str(exc).split(":")[0]


@pytest.mark.parametrize("shift_cap", [1, 2])
@pytest.mark.parametrize("nvars, seeds", [(2, 40), (3, 10)])
def test_one_shift_reduction_matches_iteration(nvars, seeds, shift_cap):
    """The same contact, direction (so the same witness) and rewritten
    pair, or the same rejection, as the multi-shift loop with one or two shifts allowed: a
    reduction that ends takes at most one shift, so a larger cap agrees too."""
    frame = Frame(tuple(f"x{i}" for i in range(nvars)), tuple(range(nvars)), ())
    shifted = 0
    for seed in range(seeds):
        E = random_singular_pair(random.Random(seed), nvars)
        new = _contact_outcome(find_maximal_contact, E, frame)
        assert new == _contact_outcome(contact_by_iteration_reference, E, frame, shift_cap), seed
        if isinstance(new, MaximalContact):
            shifted += any(e[new.contact_index] == 0 for e in contact_witness(E, new).terms)
    assert shifted >= 1


def test_the_recorded_change_gives_the_rewritten_pair():
    # MaximalContact.change is the substitution rho that turned the input
    # into the returned pair up to the factor L'^D per generator, and {}
    # exactly when the pair was not rewritten
    changed = 0
    for nvars in (2, 3):
        frame = Frame(tuple(f"x{i}" for i in range(nvars)), tuple(range(nvars)), ())
        for seed in range(60):
            E = random_singular_pair(random.Random(seed), nvars)
            mc = _contact_outcome(find_maximal_contact, E, frame)
            if isinstance(mc, MaximalContact):
                # each generator is L'^D * substitute(g, change), integral
                y = mc.contact_index
                L = denominator(c for e, c in contact_witness(E, mc).terms.items() if e[y] == 0)
                assert (Pair(tuple(Component(tuple(
                    substitute(g, mc.change).scale(factor(g, mc.change, L)) for g in comp.gens),
                    comp.weight) for comp in E.components)) if mc.change else E) == mc.pair
                assert all(type(c) is int for g in mc.pair.all_generators() for c in g.terms.values())
                changed += bool(mc.change)
    assert changed >= 5, changed


def test_a_cleared_shift_of_a_fractional_variable_is_refused(monkeypatch):
    # the adjoined divisor x is the contact, with witness 8x + 4y, so
    # x -> x - y/2 and L' = 2; another generator has x^(1/2) and x: no float
    # 2^(1 - 1/2) is formed, and the substitution refuses the fractional
    # power of x - y as it refuses that of the rational shift x - y/2
    frame = Frame(("x", "y"), (0, 1), (), (("E1", 0),))
    root = Polynomial(2, {(Fraction(1, 2), 2): 1, (1, 2): 1})
    E = Pair((Component((p("(2*x + y)^2"),), 2), Component((root,), Fraction(1, 2))))
    kernel = coeff._substitute

    def exact(g, images, powers):
        assert all(type(c) in (int, Fraction) for c in g.terms.values())
        return kernel(g, images, powers)

    monkeypatch.setattr(coeff, "_substitute", exact)
    with pytest.raises(PreconditionError, match="^fractional power of a non-monomial substitution$"):
        find_maximal_contact(E, frame, preferred_variables=(0,))


def test_zero_probe_falls_back_to_the_substitution(monkeypatch):
    # b = 1, pivot x, probe y = 2, t = y^2/lead: the line value is 0 although
    # w(-t, y) = -y^3*(y - 2)/lead^2; with lead 3 the probe's x is -4/3, not an int
    rewrites = []
    rewrite = coeff._contact_rewrite

    def recorded(E, f, b, vec, *rest):
        rewrites.append((vec, rewrite(E, f, b, vec, *rest)))
        return rewrites[-1][1]

    monkeypatch.setattr(coeff, "_contact_rewrite", recorded)
    for lead in (1, 3):
        w = p(f"{lead}*x + y^2 + x*y*(y - 2)")
        assert _evaluate(w.scale(Fraction(1, lead)), (Fraction(-4, lead), 2)) == 0
        assert _line_value(w, 1, (1, 0), 0, lead) == 0
        rewrites.clear()
        E = Pair.single([w], 1)
        assert (_contact_outcome(find_maximal_contact, E, ALL_U_XY)
                == _contact_outcome(contact_by_iteration_reference, E, ALL_U_XY)
                == "maximal contact requires a completion-level coordinate change")
        # direction (1, 0) passed the probe and was refused by the rewritten w
        assert rewrites[0] == ((1, 0), None)
        # (lead*x + y^2)(1 + x) becomes lead*x*(1 + x - y^2/lead) under
        # x -> x - y^2/lead: L' = lead, rho is x -> (x - y^2)/lead, and the
        # pair lead^2 * g o rho, 2 the degree of g in x
        g = p(f"({lead}*x + y^2)*(1 + x)")
        mc = find_maximal_contact(Pair.single([g], 1), ALL_U_XY)
        rho = {0: p("x - y^2").scale(Fraction(1, lead))}
        assert (mc.direction, mc.change) == ((1, 0), rho)
        assert mc.pair.all_generators() == (substitute(g, rho).scale(lead ** 2),)


def _contact_fields(find, E, frame, preferred=()):
    """Every field of the contact, the terms of each polynomial in order,
    each coefficient with its type and the types of its exponents; the
    class and message of a refusal."""
    try:
        mc = find(E, frame, preferred)
    except (PreconditionError, InternalError) as exc:
        return type(exc), str(exc)

    def typed(g):
        return g.nvars, [(e, c, type(c), tuple(map(type, e))) for e, c in g.terms.items()]

    return ([([typed(g) for g in comp.gens], comp.weight, type(comp.weight))
             for comp in mc.pair.components],
            mc.frame, mc.contact_index, mc.direction,
            {i: typed(g) for i, g in mc.change.items()})


def random_contact_case(seed):
    """A random pair, frame and adjoined divisors with each kind of data
    the descent may hand the contact search: rational coefficients, a
    component of weight 5/2, fractional exponents on a marked y-variable,
    marked u-variables, adjoined or not, and an adjoined (x_i, 1)."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    names = tuple(f"x{i}" for i in range(n))
    comps = list(random_singular_pair(rng, n).components)
    if rng.random() < 0.5:
        comps = [Component(tuple(Polynomial(n, {e: Fraction(c, rng.randint(1, 3))
                                                for e, c in g.terms.items()})
                                 for g in comp.gens), comp.weight) for comp in comps]
    if rng.random() < 0.3:
        comps.append(Component((random_polynomial(rng, n, max_degree=5, min_order=3),),
                               Fraction(5, 2)))
    E = Pair(tuple(comps))
    y = (n - 1,) if rng.random() < 0.5 else ()
    marked = [i for i in range(n - len(y)) if rng.random() < 0.3]
    if y and rng.random() < 0.6:
        marked.append(y[0])
        g = random_polynomial(rng, n, max_degree=3, min_order=1)
        E = Pair(E.components + (Component((Polynomial(n, {
            (*e[:-1], e[-1] + Fraction(1, 2)): c for e, c in g.terms.items()}),), 1),))
    frame = Frame(names, tuple(range(n - len(y))), y, tuple((f"E{i}", i) for i in marked))
    adjoined = tuple(i for i in marked if i not in y and rng.random() < 0.6)
    if adjoined and rng.random() < 0.3:
        E = Pair(E.components + (Component((Polynomial.variable(n, adjoined[0]),), 1),))
    return E, frame, adjoined


def test_the_contact_route_matches_the_reference(monkeypatch):
    """Every contact of every descent of the corpora, and of random pairs
    with every kind of data, against the route that checked the shift on
    the witness and rewrote generator by generator: the same pair, frame,
    contact, direction and change, terms in the same order and of the same
    number types, or the same error class and message."""
    calls = []
    find = invariant.find_maximal_contact
    monkeypatch.setattr(invariant, "find_maximal_contact",
                        lambda *args: calls.append(args) or find(*args))
    for _, problem in corpus_problems():
        _contact_outcome(run, problem, "invariant")
    monkeypatch.undo()
    assert len(calls) >= 200
    w = p("3*x + y^2 + x*y*(y - 2)")  # the zero probe that the rewrite refuses
    calls += [(Pair.single([w], 1), ALL_U_XY, ())]
    calls += [random_contact_case(seed) for seed in range(600)]
    tally = Counter()
    for E, frame, preferred in calls:
        got = _contact_fields(find_maximal_contact, E, frame, preferred)
        assert got == _contact_fields(reference_find_maximal_contact, E, frame, preferred), (
            E, frame, preferred)
        if len(got) == 2:
            tally[got[1].split(":")[0]] += 1
            continue
        mc = find_maximal_contact(E, frame, preferred)
        tally["rewritten" if mc.change else "kept"] += 1
        data = [c for g in mc.change.values() for c in g.terms.values()]
        tally["L' > 1"] += any(type(c) is Fraction for c in data)
        rewritten = E.components if mc.change else ()
        tally["rational"] += any(type(c) is Fraction for comp in rewritten for g in comp.gens
                                 for c in g.terms.values())
        tally["weight 5/2"] += any(comp.weight == Fraction(5, 2) for comp in rewritten)
        tally["fractional exponent"] += any(g.has_fractional_exponent()
                                            for comp in rewritten for g in comp.gens)
        tally["adjoined"] += mc.contact_index in preferred
    completion = "maximal contact requires a completion-level coordinate change"
    assert min(tally.values()) >= 5 and tally[completion] >= 100, tally


def test_line_value_sees_only_primitive_directions(monkeypatch):
    """k*v (k >= 2) screens as v, which the sweep met before it and refused,
    so it counts as a failed screen without a line value: on the corpora
    and on random pairs no non-primitive direction reaches ``_line_value``,
    although the sweep yields many."""
    screened, swept = [], []
    line_value, sweep = coeff._line_value, coeff._direction_candidates
    monkeypatch.setattr(coeff, "_line_value",
                        lambda f, b, vec, *rest: screened.append(vec) or line_value(f, b, vec, *rest))
    monkeypatch.setattr(coeff, "_direction_candidates",
                        lambda *args: (swept.append(vec) or vec for vec in sweep(*args)))
    for _, problem in corpus_problems():
        _contact_outcome(run, problem, "invariant")
    for seed in range(100):
        _contact_outcome(find_maximal_contact, *random_contact_case(seed))
    assert screened and all(math.gcd(*vec) == 1 for vec in screened)
    assert sum(math.gcd(*vec) > 1 for vec in swept) >= 100


def witness_probe_reference(witness: Polynomial, pivot: int):
    """The probe the contact search ran on each expanded witness before the
    line screen: sum_k W_k(a') * (-T(a'))^k * L^(D-k), W_k the pivot
    coefficients, T = W_0, D the pivot degree and L the pivot coefficient of
    the witness, at a' = (2, 3, ...) on the variables other than the pivot."""
    n = witness.nvars
    point = [j + 2 if j < pivot else j + 1 for j in range(n)]
    point[pivot] = 1
    values = {}  # k -> W_k(a')
    for exps, c in witness.terms.items():
        for e, x in zip(exps, point):
            c *= x ** e
        values[exps[pivot]] = values.get(exps[pivot], 0) + c
    lead = witness.terms[tuple(1 if j == pivot else 0 for j in range(n))]
    top, x = max(values), -values.get(0, 0)
    return sum(v * x ** k * lead ** (top - k) for k, v in values.items())


def generator_with_contact(rng, n, b):
    """A random generator of order b; half the time one whose witness along
    some x_p becomes a coordinate by one shift: g(x_p + q) with
    g = x_p^b + sum_(0 < j < b-1) c_j*x_p^j + c_0, the c_j free of x_p and
    of order above b - j, and q free of x_p."""
    if rng.random() < 0.5:
        return random_polynomial(rng, n, max_degree=b + 2, min_order=b)
    p = rng.randrange(n)

    def free(g):
        return Polynomial(n, {e: c for e, c in g.terms.items() if not e[p]})

    x = Polynomial.variable(n, p)
    g = free(random_polynomial(rng, n, max_degree=b + 2, min_order=b + 1))
    for j in (*range(1, b - 1), b):
        c = Polynomial.constant(n, 1) if j == b else free(
            random_polynomial(rng, n, max_degree=b + 1 - j, min_order=b + 1 - j))
        for _ in range(j):
            c = c * x
        g = g + c
    return substitute(g, {p: x + free(random_polynomial(rng, n, max_degree=2, min_order=1))})


def test_line_value_vanishes_with_the_witness_probe():
    """Over every swept direction with top(v) != 0, marked variables and
    adjoined units included, the line value of f is 0 exactly when the
    probe of the expanded witness is."""
    rng = random.Random(19)
    zeros = checked = 0
    for n, count in ((2, 20), (3, 6), (4, 2)):
        for b in (2, 3, 4):
            for _ in range(count):
                f = generator_with_contact(rng, n, b)
                marked = frozenset(i for i in range(n) if rng.random() < 0.3)
                units = [i for i in sorted(marked) if rng.random() < 0.5]
                top = Polynomial(n, {e: c for e, c in f.terms.items() if sum(e) == b})
                for vec in up_to_height(_direction_candidates(n, marked, units), 4):
                    lead = b * _evaluate(top, vec)
                    if not lead:
                        continue
                    pivot = next(i for i, c in enumerate(vec) if c != 0)
                    x = [Polynomial.variable(n, i) for i in range(n)]
                    change = {i: x[i] + x[pivot].scale(c) if i != pivot else x[pivot].scale(c)
                              for i, c in enumerate(vec) if c}
                    witness = hasse_derivative(substitute(f, change),
                                               tuple(b - 1 if j == pivot else 0 for j in range(n)))
                    reference = witness_probe_reference(witness, pivot)
                    assert (_line_value(f, b, vec, pivot, lead) == 0) == (reference == 0), (f, vec)
                    checked += 1
                    zeros += reference == 0 and any(e[pivot] == 0 for e in witness.terms)
    # enough directions whose probe is 0 with a nonzero pivot-free part
    assert checked > 2000 and zeros > 300, (checked, zeros)


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


def test_the_preparation_bound_is_far_from_every_accepted_translation(monkeypatch, rng):
    """The term products of every translation that vertex preparation tries
    on the corpora and on random pairs, counted as ``_solve_vertex`` counts
    them: each at least ten times below ``MAX_PREP_PRODUCTS``."""
    works = []
    substitute_pair = coeff._substitute_pair

    def counted(E, assignment, *rest):
        if not rest:  # a translation; a contact rewrite passes its L'
            works.append(sum(math.prod(e[i] + 1 for i in assignment)
                             for g in E.all_generators() for e in g.terms))
        return substitute_pair(E, assignment, *rest)

    monkeypatch.setattr(coeff, "_substitute_pair", counted)
    frame = Frame(("x", "y", "z"), (0, 1), (2,))
    cases = [(problem.pair, problem.frame) for _, problem in corpus_problems()]
    cases += [(random_singular_pair(rng, 3), frame) for _ in range(200)]
    for E, f in cases:
        try:
            prepare_vertices(E, f)
        except PreconditionError:
            pass
    assert len(works) >= 20 and max(works) * 10 < coeff.MAX_PREP_PRODUCTS, works


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
        # C has exponent 0 on y: its polyhedron is that of its u-exponents
        C = coefficient_pair(E, frame)
        assert delta(polyhedron_of_pair(C, frame)) == delta(polyhedron_of_pair(E, frame))


def test_coefficient_delta_identity_random(rng):
    frame = Frame(("x", "y", "z"), (0, 1), (2,))
    tested = 0
    while tested < 25:
        E = random_singular_pair(rng, 3)
        C = coefficient_pair(E, frame)
        lhs = delta(polyhedron_of_pair(C, frame)) if not C.is_empty() else None
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
    mc1 = find_maximal_contact(E1, ALL_U_XY)
    E2 = Pair.single([p("y^2 - x^3")], 2)
    mc2 = find_maximal_contact(E2, ALL_U_XY)
    assert polyhedron_of_pair(mc1.pair, mc1.frame) == polyhedron_of_pair(mc2.pair, mc2.frame)
