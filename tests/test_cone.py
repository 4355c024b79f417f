import math
import random
import time
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from hironaka.errors import PreconditionError
from hironaka import cone, linalg
from hironaka.cone import (
    HomIdeal,
    directrix,
    graded_piece,
    hilbert_samuel_truncated,
    homogeneous_member,
    initial_ideal,
    monomials_of_degree,
)
from hironaka.linalg import eliminate, rref, sparse_rank
from hironaka.pairs import Component, Pair
from hironaka.poly import Polynomial, ord_at_origin, parse_polynomial, substitute

from conftest import (
    corpus_problems,
    hs_hypersurface_oracle,
    hs_monomial_oracle,
    random_polynomial,
    reference_directrix,
)

NAMES = ["x", "y", "z", "w"]


def hp(text, nvars):
    return parse_polynomial(text, NAMES[:nvars])


# ---------------------------------------------------------------------------
# translation-based directrix oracles (derivative-free)


def _graded_parts(f: Polynomial):
    parts = {}
    for exps, c in f.terms.items():
        parts.setdefault(sum(exps), {})[exps] = c
    return [Polynomial(f.nvars, t) for t in parts.values()]


def translation_invariant(I: HomIdeal, v) -> bool:
    """Whether the ideal is stable under x -> x + v, checked by membership
    of every graded part of every translated generator."""
    n = I.nvars
    shift = {
        i: Polynomial.variable(n, i) + Polynomial.constant(n, v[i]) for i in range(n)
    }
    for g in I.generators:
        for part in _graded_parts(substitute(g, shift)):
            if not homogeneous_member(I, part):
                return False
    return True


def oracle_direction_span(I: HomIdeal, radius: int = 2):
    """Span of all small integer directions that leave the ideal invariant."""
    n = I.nvars
    rows = []
    for v in product(range(-radius, radius + 1), repeat=n):
        if any(v) and translation_invariant(I, [Fraction(x) for x in v]):
            rows.append([Fraction(x) for x in v])
    red, pivots = rref(rows)
    return red, pivots


def _adapted_change(forms, n: int) -> list[list[Fraction]]:
    """Invertible matrix whose first rows are the given independent forms."""
    rows = [
        [Fraction(f.terms.get(tuple(1 if j == i else 0 for j in range(n)), 0)) for i in range(n)]
        for f in forms
    ]
    _, pivots = rref(rows)
    return rows + [[Fraction(int(j == i)) for j in range(n)] for i in range(n) if i not in pivots]


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    aug = [list(row) + [Fraction(int(j == i)) for j in range(n)] for i, row in enumerate(matrix)]
    red, pivots = rref(aug)
    assert pivots == list(range(n)), "adapted coordinate change is singular"
    return [row[n:] for row in red]


def slices_stay_inside(I: HomIdeal, forms) -> bool:
    """Derivative-free witness that the ideal is generated by polynomials in
    the given linear forms: in coordinates whose first ones are the forms,
    every slice of every generator along the remaining coordinates must lie
    in the ideal; that exhibits a generating set inside the subring the
    forms span."""
    n = I.nvars
    Q = _adapted_change(tuple(forms), n)
    Qinv = _invert(Q)
    change = {
        i: Polynomial(n, {
            tuple(1 if k == j else 0 for k in range(n)): Qinv[i][j]
            for j in range(n) if Qinv[i][j] != 0
        })
        for i in range(n)
    }
    back = {
        j: Polynomial(n, {
            tuple(1 if k == i else 0 for k in range(n)): Q[j][i]
            for i in range(n) if Q[j][i] != 0
        })
        for j in range(n)
    }
    r = len(forms)
    for g in I.generators:
        moved = substitute(g, change)
        slices = {}
        for exps, c in moved.terms.items():
            slices.setdefault(exps[r:], {})[exps[:r] + (0,) * (n - r)] = c
        for terms in slices.values():
            if not homogeneous_member(I, substitute(Polynomial(n, terms), back)):
                return False
    return True


def directrix_corpus():
    """Seeded homogeneous ideals with <= 4 variables, <= 3 generators,
    degree <= 4, built from unimodular changes of simple ideals so that the
    invariance space is spanned by small integer vectors."""
    base_cases = [
        (2, ["y^2"]),
        (2, ["x*y"]),
        (2, ["x^2 + y^2"]),
        (3, ["x^2 + y*z"]),
        (3, ["z^2", "x*z"]),
        (3, ["x*y*z"]),
        (3, ["x^2", "y^3"]),
        (4, ["x^2 + y*z"]),
        (4, ["w^2", "x*y"]),
        (4, ["x^3", "y^2*w", "z^4"]),
        (4, ["x*y + z*w"]),
        (3, ["x^2 + x*y"]),
        (3, ["x^2*y + y^3"]),
    ]
    rng = random.Random(90125)
    out = []
    for nvars, texts in base_cases:
        gens = tuple(hp(t, nvars) for t in texts)
        out.append(HomIdeal(nvars, gens))
        # one unimodular shear of each case
        i, j = rng.sample(range(nvars), 2)
        c = rng.choice([-1, 1])
        change = {j: Polynomial.variable(nvars, j) + Polynomial.variable(nvars, i).scale(c)}
        out.append(HomIdeal(nvars, tuple(substitute(g, change) for g in gens)))
    return out


# ---------------------------------------------------------------------------
# initial_ideal


def test_initial_ideal_of_curve():
    I = initial_ideal(Pair.single([hp("y^2 - x^3", 2)], 2))
    assert [g for g in I.generators] == [hp("y^2", 2)]


def test_initial_ideal_degree_two_part():
    I = initial_ideal(Pair.single([parse_polynomial("t^2 + x*y*z", ["x", "y", "z", "t"])], 2))
    assert I.generators == (parse_polynomial("t^2", ["x", "y", "z", "t"]),)


def test_initial_ideal_fractional_weight_contributes_nothing():
    E = Pair.single([hp("x^3", 2)], Fraction(3, 2))
    assert initial_ideal(E).is_zero()


# ---------------------------------------------------------------------------
# graded_piece


def test_graded_piece_principal_square():
    I = HomIdeal(2, (hp("x^2", 2),))
    piece = graded_piece(I, 3)
    assert sorted(tuple(sorted(p.terms)) for p in piece) == [((2, 1),), ((3, 0),)]


def test_graded_piece_mixed_monomial():
    I = HomIdeal(2, (hp("x*y", 2),))
    assert [sorted(p.terms) for p in graded_piece(I, 2)] == [[(1, 1)]]


def test_graded_piece_dim_matches_enumeration(rng):
    # monomial ideals: the dimension is the count of distinct divisible
    # monomials of that degree
    for _ in range(25):
        nvars = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(nvars))
            if sum(exps) == 0:
                exps = (1,) + exps[1:]
            gens.append(Polynomial.monomial(nvars, exps))
        I = HomIdeal(nvars, tuple(gens))
        d = rng.randint(1, 5)
        expected = sum(
            1
            for m in monomials_of_degree(nvars, d)
            if any(all(a >= b for a, b in zip(m, next(iter(g.terms)))) for g in gens)
        )
        assert len(graded_piece(I, d)) == expected


# ---------------------------------------------------------------------------
# directrix


def test_directrix_single_square():
    basis = directrix(HomIdeal(2, (hp("y^2", 2),)))
    assert [sorted(f.terms) for f in basis.forms] == [[(0, 1)]]


def test_directrix_product_needs_both():
    basis = directrix(HomIdeal(2, (hp("x*y", 2),)))
    assert basis.dim == 2


def test_directrix_quadric_needs_all_three():
    basis = directrix(HomIdeal(3, (hp("x^2 + y*z", 3),)))
    assert basis.dim == 3


@pytest.mark.parametrize("gens", [["1"], ["3", "x^2 + y*z"], ["x*y", "2"]])
def test_directrix_of_a_unit_ideal_is_the_origin(gens):
    # every direction leaves a unit ideal invariant, so no form cuts it out
    basis = directrix(HomIdeal(3, tuple(hp(g, 3) for g in gens)))
    assert basis.forms == ()
    assert basis.directions == tuple(tuple(Fraction(int(i == j)) for j in range(3))
                                     for i in range(3))


def test_directrix_zero_ideal_error():
    with pytest.raises(PreconditionError, match="directrix undefined"):
        directrix(HomIdeal(2, ()))


def test_directrix_matches_translation_grid_oracle():
    for I in directrix_corpus():
        basis = directrix(I)
        # every reported invariance direction truly fixes the ideal
        for v in basis.directions:
            assert translation_invariant(I, list(v))
        # the grid search spans exactly the same space
        red, pivots = oracle_direction_span(I)
        dir_red, dir_pivots = rref([list(v) for v in basis.directions])
        assert (red, pivots) == (dir_red, dir_pivots)


def test_directrix_slices_witness_generation():
    # the rewriting and invariance properties of the returned basis, on the
    # seeded ideals and on the initial ideal of every benchmark corpus problem
    corpus = [initial_ideal(problem.pair) for _, problem in corpus_problems()]
    assert len(corpus) == 82 and not any(I.is_zero() for I in corpus)
    for I in directrix_corpus() + corpus:
        basis = directrix(I)
        assert slices_stay_inside(I, basis.forms), I
        for v in basis.directions:
            assert translation_invariant(I, list(v)), (I, v)


def test_directrix_minimality_by_subspace_search():
    # brute force over coordinate subspaces, in the original system and after
    # random rational changes: no smaller subspace generates the ideal, and
    # the computed forms realize their own dimension
    rng = random.Random(777)
    for I in directrix_corpus():
        basis = directrix(I)
        n = I.nvars
        assert slices_stay_inside(I, basis.forms)  # dim is attained
        changes = [None]
        for _ in range(2):
            i, j = rng.sample(range(n), 2)
            changes.append(
                {j: Polynomial.variable(n, j)
                 + Polynomial.variable(n, i).scale(rng.choice([-1, 1]))}
            )
        for change in changes:
            J = I if change is None else HomIdeal(
                n, tuple(substitute(g, change) for g in I.generators)
            )
            smallest = next(
                size
                for size in range(n + 1)
                if any(
                    slices_stay_inside(
                        J, tuple(Polynomial.variable(n, i) for i in subset)
                    )
                    for subset in combinations(range(n), size)
                )
            )
            assert smallest >= basis.dim


def test_directrix_presentation_independence(rng):
    for I in directrix_corpus()[:8]:
        basis = directrix(I)
        gens = list(I.generators)
        if len(gens) == 1:
            g = gens[0]
            deg = sum(next(iter(g.terms)))
            extra = g * Polynomial.variable(I.nvars, rng.randrange(I.nvars))
            J = HomIdeal(I.nvars, (g, extra))
        else:
            J = HomIdeal(I.nvars, (gens[0], gens[1] + gens[0],) + tuple(gens[2:]))
        basis2 = directrix(J)
        assert rref([list(v) for v in basis.directions]) == rref(
            [list(v) for v in basis2.directions]
        )


def _typed(basis):
    """The forms' terms in order and the directions, with each number's type."""
    return ([[(e, c, type(c)) for e, c in f.terms.items()] for f in basis.forms],
            [[(x, type(x)) for x in v] for v in basis.directions])


def assert_directrix_matches_the_reference(I):
    got, want = directrix(I), reference_directrix(I)
    assert got == want and _typed(got) == _typed(want), I


def random_homogeneous_ideal(rng):
    """1-4 generators of degree 0-3 in 1-4 variables, some of them in fewer
    variables (a larger directrix), with int and Fraction coefficients; a
    generator may repeat an earlier one, and one of degree 0 makes the
    unit ideal."""
    n = rng.randint(1, 4)
    used = rng.sample(range(n), rng.randint(1, n))
    gens = []
    for _ in range(rng.randint(1, 4)):
        if gens and rng.random() < 0.15:
            gens.append(rng.choice(gens))
            continue
        d = rng.choice([0, 1, 2, 2, 3, 3] if rng.random() < 0.15 else [1, 2, 2, 3, 3])
        monomials = [m for m in monomials_of_degree(n, d) if all(m[i] == 0 for i in range(n) if i not in used)]
        terms = {m: Fraction(rng.choice([1, -1, 2, 3, -5]), rng.choice([1, 2, 3]))
                 for m in rng.sample(monomials, min(len(monomials), rng.randint(1, 4)))}
        gens.append(Polynomial(n, terms))
    return HomIdeal(n, tuple(gens))


def test_directrix_matches_the_reference_on_the_corpus():
    ideals = [initial_ideal(problem.pair) for _, problem in corpus_problems()]
    for I in directrix_corpus() + ideals:
        assert_directrix_matches_the_reference(I)


def test_directrix_matches_the_reference_on_random_ideals():
    """The tagged elimination against residues of derivatives modulo
    Fraction pieces: the same forms, directions and number types."""
    rng = random.Random(4321)
    seen = Counter()
    for _ in range(450):
        I = random_homogeneous_ideal(rng)
        assert_directrix_matches_the_reference(I)
        degrees = [sum(next(iter(g.terms))) for g in I.generators]
        seen.update(f"degree {d}" for d in set(degrees))
        seen[f"{I.nvars} variables"] += 1
        seen["unit"] += 0 in degrees
        seen["repeated"] += len(set(map(repr, I.generators))) < len(degrees)
        seen["fraction"] += any(type(c) is Fraction for g in I.generators for c in g.terms.values())
        seen[f"directrix of codimension {I.nvars - directrix(I).dim}"] += 1
    assert min(seen.values()) >= 5 and len(seen) == 16, seen


def test_degree_one_forms_inside_directrix_span(rng):
    # for singular pairs with integral weights, weight-1 components put their
    # generators' linear forms inside the directrix forms' span
    E = Pair((
        Component((hp("y^2 - x^3", 2),), Fraction(2)),
        Component((hp("x + y", 2),), Fraction(1)),
    ))
    basis = directrix(initial_ideal(E))
    form_rows = [
        [Fraction(f.terms.get(tuple(1 if k == i else 0 for k in range(2)), 0)) for i in range(2)]
        for f in basis.forms
    ]
    target = [Fraction(1), Fraction(1)]
    assert len(rref(form_rows + [target])[1]) == len(rref(form_rows)[1])


# ---------------------------------------------------------------------------
# Hilbert-Samuel


def test_hs_square_in_two_vars():
    assert hilbert_samuel_truncated([hp("x^2", 2)], 3) == [1, 3, 5]


def test_hs_line_in_two_vars():
    assert hilbert_samuel_truncated([hp("x", 2)], 4) == [1, 2, 3, 4]


def test_hs_maximal_ideal():
    assert hilbert_samuel_truncated([hp("x", 2), hp("y", 2)], 5) == [1] * 5


def test_hs_rejects_units():
    with pytest.raises(PreconditionError, match="point not on X"):
        hilbert_samuel_truncated([hp("1 + x", 2)], 3)


def test_hs_monomial_oracle(rng):
    for _ in range(20):
        nvars = rng.randint(1, 3)
        gens = []
        exps_list = []
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 3) for _ in range(nvars))
            if sum(exps) == 0:
                exps = (1,) + exps[1:]
            exps_list.append(exps)
            gens.append(Polynomial.monomial(nvars, exps))
        ks = 8
        got = hilbert_samuel_truncated(gens, ks)
        want = [hs_monomial_oracle(exps_list, nvars, k) for k in range(1, ks + 1)]
        assert got == want


def test_hs_hypersurface_closed_form(rng):
    for nvars, text, d in [
        (2, "y^2 - x^3", 2),
        (3, "z^3 - x^2*y^2", 3),
        (3, "x^2 + y*z", 2),
    ]:
        got = hilbert_samuel_truncated([hp(text, nvars)], 8)
        want = [hs_hypersurface_oracle(nvars, d, k) for k in range(1, 9)]
        assert got == want


def test_hs_nondecreasing(rng):
    for _ in range(10):
        nvars = rng.randint(2, 3)
        gens = [
            Polynomial.monomial(nvars, tuple(rng.randint(0, 2) for _ in range(nvars)))
            for _ in range(2)
        ]
        gens = [g if sum(next(iter(g.terms))) else g * Polynomial.variable(nvars, 0) for g in gens]
        dims = hilbert_samuel_truncated(gens, 7)
        assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_hs_zero_ideal_keeps_its_variables():
    assert hilbert_samuel_truncated([Polynomial.zero(2)], 3) == [1, 3, 6]
    assert hilbert_samuel_truncated([Polynomial.zero(2), hp("x", 2)], 3) == [1, 2, 3]


def test_hs_needs_a_generator():
    with pytest.raises(PreconditionError, match="at least one generator"):
        hilbert_samuel_truncated([], 3)


def test_hs_column_limit_counts_monomials_below_k_max(monkeypatch):
    monkeypatch.setattr(cone, "HS_MAX_COLUMNS", 10)
    assert hilbert_samuel_truncated([hp("x^2", 2)], 4) == [1, 3, 5, 7]  # C(5, 2) = 10
    with pytest.raises(PreconditionError, match="in 2 variables up to k_max = 5 needs 15 "):
        hilbert_samuel_truncated([hp("x^2", 2)], 5)


def test_hs_of_one_generator_is_counted_not_enumerated():
    # C(22, 6) = 74613 columns, under the limit: one generator's rows are
    # counted in closed form, whatever the number of columns
    names = [f"x{i}" for i in range(6)]
    g = parse_polynomial("x0^2 + x5^3", names)
    assert math.comb(22, 6) == 74613 <= cone.HS_MAX_COLUMNS
    start = time.perf_counter()
    dims = hilbert_samuel_truncated([g], 17)
    assert time.perf_counter() - start < 0.1
    assert dims == [hs_hypersurface_oracle(6, 2, k) for k in range(1, 18)]


def test_hs_past_the_column_limit_is_rejected_at_once():
    # unbounded, this one generator takes seconds: C(23, 8) = 490314 columns
    names = [f"x{i}" for i in range(8)]
    g = parse_polynomial("x0^2 + x7^3", names)
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="in 8 variables up to k_max = 16 needs 490314 "):
        hilbert_samuel_truncated([g], 16)
    assert time.perf_counter() - start < 0.5


def test_monomials_of_degree_ascend_in_lex_order():
    def enumerated(nvars, d):  # the former enumeration: deduplicated, then sorted
        if d < 0:
            return []
        if nvars == 0:
            return [()] if d == 0 else []
        out = []
        for combo in combinations_with_replacement(range(nvars), d):
            exps = [0] * nvars
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
        return sorted(set(out))

    for nvars in range(5):
        for d in range(-1, 13):
            assert monomials_of_degree(nvars, d) == enumerated(nvars, d), (nvars, d)


def test_sparse_rank_returns_pivot_columns():
    rows = [{1: Fraction(1), 2: Fraction(1)}, {1: Fraction(2), 2: Fraction(2)},
            {0: Fraction(3), 2: Fraction(1)}, {2: Fraction(5)}]
    assert sparse_rank(rows) == [0, 1, 2]
    assert sparse_rank([{3: 1}, {3: 2}]) == [3]
    assert sparse_rank([]) == []


def monomials_below_degree(nvars: int, k: int) -> list[tuple[int, ...]]:
    """Every monomial of degree below k, ascending by degree, then lex."""
    out = []
    for d in range(k):
        out.extend(monomials_of_degree(nvars, d))
    return out


def hs_dense_reference(generators, k_max):
    """The former kernel, kept as a reference: one elimination over the
    global column list (every monomial below degree k_max, ascending by
    degree, then lex) of every multiple g*m, truncated below degree k_max;
    HS(k) = #columns below k - #pivot columns below k."""
    nvars = generators[0].nvars

    def below(k):
        return math.comb(k - 1 + nvars, nvars) if k > 0 else 0

    columns = monomials_below_degree(nvars, k_max)
    index = {m: i for i, m in enumerate(columns)}
    rows = []
    for g in generators:
        if not g.is_zero():
            rows += cone._multiples(g.terms, columns[:below(k_max - ord_at_origin(g))], index)
    pivots = sparse_rank(rows)
    return [below(k) - bisect_left(pivots, below(k)) for k in range(1, k_max + 1)]


def colliding_ideal(rng, nvars):
    """2-5 generators.  Each one after the first is a fresh polynomial, or
    c*m times an earlier one plus a tail of higher order (possibly none), so
    that leading monomials coincide or divide one another; the list is
    shuffled, so a divisor may come after its multiples."""
    gens = [random_polynomial(rng, nvars, max_degree=3, max_terms=3, min_order=1)]
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.25:
            gens.append(random_polynomial(rng, nvars, max_degree=3, max_terms=3, min_order=1))
            continue
        g = rng.choice(gens)
        m = tuple(rng.randint(0, 1) for _ in range(nvars))
        multiple = g * Polynomial.monomial(nvars, m).scale(rng.choice([-2, 1, 3]))
        order = ord_at_origin(multiple)
        if rng.random() < 0.8:
            multiple = multiple + random_polynomial(
                rng, nvars, max_degree=order + 2, max_terms=2, min_order=order + 1)
        gens.append(multiple)
    rng.shuffle(gens)
    return gens


def test_hs_matches_the_dense_reference_where_rows_collide(monkeypatch):
    eliminated = []  # the lead each colliding row reduced to, or None

    def recording(row, pivot_of):
        eliminated.append(lead := eliminate(row, pivot_of))
        return lead

    monkeypatch.setattr(cone, "eliminate", recording)
    rng = random.Random(11)
    k_cap = {2: 9, 3: 7, 4: 5}
    for _ in range(40):
        nvars = rng.randint(2, 4)
        gens = colliding_ideal(rng, nvars)
        k_max = rng.randint(3, k_cap[nvars])
        assert hilbert_samuel_truncated(gens, k_max) == hs_dense_reference(gens, k_max), gens
    # rows were built and reduced: some to zero, some onto a new lead
    assert eliminated.count(None) > 50
    assert len(eliminated) - eliminated.count(None) > 50


@pytest.mark.parametrize("texts, k_max", [
    (["x^2 + y^70"], 4),         # a term past k_max with an exponent wider than a digit
    (["x^2 + y^70", "x*y + y^9"], 4),
    (["y^70", "x^2 + y^3"], 4),  # a first generator with no term below k_max
    (["y^70", "x^70"], 5),
    (["x^2 + y^3", "y^70*x"], 6),
    (["x^2 + y^3"], 1),
    (["x*y", "x^2 + y^5", "y^70"], 1),
    (["y^70"], 1),
], ids=["wide-tail", "wide-tail-two", "no-term-first", "no-term-any", "no-term-later",
        "k1", "k1-three", "k1-no-term"])
def test_hs_packed_keys_at_their_edges(texts, k_max):
    gens = [hp(text, 2) for text in texts]
    assert hilbert_samuel_truncated(gens, k_max) == hs_dense_reference(gens, k_max)


def test_hs_is_an_invariant_of_the_ideal():
    # the skipped rows depend on the order of the generators, the span
    # they leave does not: permuting, duplicating a generator or adding an
    # integer multiple of one to another keeps every value
    rng = random.Random(25)
    k_cap = {2: 9, 3: 7, 4: 5}
    for _ in range(40):
        nvars = rng.randint(2, 4)
        gens = colliding_ideal(rng, nvars) if rng.random() < 0.5 else random_ideal(rng, nvars)
        k_max = rng.randint(2, k_cap[nvars])
        want = hilbert_samuel_truncated(gens, k_max)
        assert want == hs_dense_reference(gens, k_max), gens
        permuted = rng.sample(gens, len(gens))
        duplicated = gens + [rng.choice(gens).scale(rng.choice([-3, 1, 2]))]
        rng.shuffle(duplicated)
        combined = list(gens)
        if len(gens) > 1:
            i, j = rng.sample(range(len(gens)), 2)
            combined[i] = gens[i] + gens[j].scale(rng.choice([-2, -1, 1, 3]))
        for other in (permuted, duplicated, combined):
            assert hilbert_samuel_truncated(other, k_max) == want, (gens, other)


def test_hs_skips_the_rows_that_koszul_syzygies_span(monkeypatch):
    # the 6-variable ideal of ROADMAP item 6: its leads x0^2, x1*x2 and
    # x3*x4 are coprime, so every row whose shift no earlier lead divides
    # has a lead of its own and the ceiling is 0 reduced rows.  Without the
    # skip, 6394 rows go through eliminate at k_max = 12 (4686 to zero).
    eliminated = []

    def recording(row, pivot_of):
        eliminated.append(lead := eliminate(row, pivot_of))
        return lead

    monkeypatch.setattr(cone, "eliminate", recording)
    names = [f"x{i}" for i in range(6)]
    gens = [parse_polynomial(text, names)
            for text in ["x0^2 + x5^3", "x1*x2 + x3^3", "x3*x4 + x0*x5^2"]]
    assert hilbert_samuel_truncated(gens, 12) == [
        1, 7, 25, 63, 129, 231, 377, 575, 833, 1159, 1561, 2047]
    assert eliminated == []


def test_hs_skips_every_shift_that_is_an_earlier_lead(monkeypatch):
    # a 4-variable pair of 3 components, found by fuzzing the problem files,
    # whose 5 leads collide at every degree.  Skipping the shifts that an
    # earlier lead divides (the Koszul syzygies) left 28025 row
    # cancellations at hs_cutoff 16; skipping every shift that is a lead of
    # the earlier rows' span (the F5 criterion) leaves 16159.  The ceiling
    # may only fall.
    cancels = []
    cancel = linalg._cancel

    def counting(work, c, pivot):
        cancels.append(c)
        return cancel(work, c, pivot)

    monkeypatch.setattr(linalg, "_cancel", counting)
    names = [f"x{i}" for i in range(4)]
    gens = [parse_polynomial(text, names) for text in [
        "7*x1*x3^4 + 25*x1*x2^27 + -3*x1^3 + 3*x0^2*x2^11*x3 - x2^3*x3^5*x1^2",
        "-3*x0*x2^4 + -4*x0*x1*x2 + -1*x0^2*x2^2 + 3*x0^4*x2^2",
        "-7*x0*x3 + -3*x0*x2*x3 + 2*x0*x1*x3^3 + -9*x0*x1^2*x3^2 + -2*x0^2*x1^2*x3",
        "2*x1^2",
        "-13*x2^2*x3 + 4*x1^3 + 3*x0*x2^2 + -3*x0*x1^2 + 3*x0^2 - x0^4*x3^3",
    ]]
    assert hilbert_samuel_truncated(gens, 16) == [
        1, 5, 12, 20, 29, 36, 42, 48, 53, 58, 62, 66, 70, 74, 78, 82]
    assert len(cancels) <= 20000


def test_hs_of_rational_generators_equals_hs_of_the_cleared_ones():
    rng = random.Random(12)
    k_cap = {2: 8, 3: 6}
    for _ in range(30):
        nvars = rng.randint(2, 3)
        gens = [Polynomial(nvars, {e: c * Fraction(rng.choice([-1, 1]), rng.randint(1, 6))
                                   for e, c in g.terms.items()})
                for g in colliding_ideal(rng, nvars)]
        cleared = [g.scale(math.lcm(*(c.denominator for c in g.terms.values()))) for g in gens]
        assert any(type(c) is Fraction for g in gens for c in g.terms.values())
        k_max = rng.randint(3, k_cap[nvars])
        got = hilbert_samuel_truncated(gens, k_max)
        assert got == hilbert_samuel_truncated(cleared, k_max) == hs_dense_reference(cleared, k_max)


def hs_per_k_reference(generators, k_max):
    """The former kernel, kept as a reference: a separate elimination for
    every k over the multiples g*m (deg m < k-1) truncated below degree k."""
    nvars = generators[0].nvars
    gens = [g for g in generators if not g.is_zero()]
    out = []
    for k in range(1, k_max + 1):
        basis = monomials_below_degree(nvars, k)
        index = {m: i for i, m in enumerate(basis)}
        rows = []
        for g in gens:
            for m in monomials_below_degree(nvars, max(k - 1, 0)):
                prod = g * Polynomial.monomial(nvars, m)
                row = {index[e]: c for e, c in prod.terms.items() if sum(e) < k}
                if row:
                    rows.append(row)
        out.append(len(basis) - len(sparse_rank(rows)))
    return out


def random_ideal(rng, nvars):
    return [random_polynomial(rng, nvars, max_degree=4, max_terms=4, min_order=1)
            for _ in range(rng.randint(1, 3))]


def test_hs_matches_per_k_elimination():
    rng = random.Random(4)
    k_cap = {2: 10, 3: 8, 4: 6}
    for _ in range(30):
        nvars = rng.randint(2, 4)
        gens = random_ideal(rng, nvars)
        k_max = rng.randint(3, k_cap[nvars])
        assert hilbert_samuel_truncated(gens, k_max) == hs_per_k_reference(gens, k_max), gens


def hs_groebner_oracle(sympy, generators, k_max):
    """dim k[x]/(I + M^k) for k = 1..k_max: the monomials of degree < k
    outside the leading-term ideal of a grevlex Groebner basis."""
    nvars = generators[0].nvars
    xs = sympy.symbols(f"x0:{nvars}")

    def expr(exps, c=Fraction(1)):
        return sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
            *(x ** e for x, e in zip(xs, exps)))

    ideal = [sympy.Add(*(expr(e, c) for e, c in g.terms.items())) for g in generators]
    out = []
    for k in range(1, k_max + 1):
        basis = sympy.groebner(ideal + [expr(m) for m in monomials_of_degree(nvars, k)],
                               *xs, order="grevlex")
        leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
        out.append(sum(
            1 for m in monomials_below_degree(nvars, k)
            if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)))
    return out


def test_hs_matches_groebner_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(25):
        nvars = rng.randint(2, 3)
        gens = random_ideal(rng, nvars)
        k_max = rng.randint(2, 6)
        assert hilbert_samuel_truncated(gens, k_max) == hs_groebner_oracle(sympy, gens, k_max), gens
