import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hironaka.errors import PreconditionError, ProblemParseError
from hironaka.poly import (
    INF,
    Polynomial,
    format_polynomial,
    hasse_derivative,
    initial_form,
    ord_at_origin,
    parse_polynomial,
    split_by_variables,
    substitute,
)

from conftest import random_polynomial

NAMES2 = ["x", "y"]
NAMES3 = ["x", "y", "z"]
NAMES4 = ["t", "x", "y", "z"]


def p2(text):
    return parse_polynomial(text, NAMES2)


# ---------------------------------------------------------------------------
# ord_at_origin


def test_ord_basic():
    assert ord_at_origin(p2("x^2 + y^3")) == 2


def test_ord_zero_polynomial_is_infinite():
    assert ord_at_origin(Polynomial.zero(2)) == INF


def test_ord_by_term_inspection():
    f = parse_polynomial("t^2 + x*y*z", NAMES4)
    assert ord_at_origin(f) == 2


@st.composite
def poly_pairs(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    f = random_polynomial(rng, 2, max_degree=4, max_terms=4)
    g = random_polynomial(rng, 2, max_degree=4, max_terms=4)
    return f, g


@given(poly_pairs())
@settings(max_examples=60, deadline=None)
def test_ord_multiplicative(fg):
    f, g = fg
    assert ord_at_origin(f * g) == ord_at_origin(f) + ord_at_origin(g)


# ---------------------------------------------------------------------------
# arithmetic keeps the normalization invariant


def assert_normalized(p: Polynomial):
    """Every coefficient a nonzero Fraction; every exponent an int when
    integral and a Fraction otherwise."""
    for exps, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert len(exps) == p.nvars
        for e in exps:
            assert type(e) is (int if Fraction(e).denominator == 1 else Fraction), exps


def raw_sum(nvars, terms):
    """The normalizing constructor applied to a raw dict that sums the
    coefficients of equal exponent tuples."""
    out = {}
    for exps, c in terms:
        out[exps] = out.get(exps, 0) + c
    return Polynomial(nvars, out)


def raw_product(a: Polynomial, b: Polynomial) -> Polynomial:
    return raw_sum(a.nvars, (
        (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        for ea, ca in a.terms.items() for eb, cb in b.terms.items()))


EXPONENTS = st.integers(0, 3) | st.fractions(0, 3, max_denominator=2)
COEFFICIENTS = st.fractions(-2, 2, max_denominator=3)


@st.composite
def raw_polynomials(draw, nvars=2):
    raw = draw(st.dictionaries(st.tuples(*[EXPONENTS] * nvars), COEFFICIENTS, max_size=5))
    return Polynomial(nvars, raw)


@given(raw_polynomials(), raw_polynomials(), COEFFICIENTS, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_the_normalizing_constructor(a, b, c, n):
    neg_b = raw_sum(2, ((e, -v) for e, v in b.terms.items()))
    power = Polynomial.constant(2, 1)
    for _ in range(n):
        power = raw_product(power, a)
    cases = [
        (a + b, raw_sum(2, [*a.terms.items(), *b.terms.items()])),
        (a - b, raw_sum(2, [*a.terms.items(), *neg_b.terms.items()])),
        (-b, neg_b),
        (a * b, raw_product(a, b)),
        (a.scale(c), raw_sum(2, ((e, c * v) for e, v in a.terms.items()))),
        (a ** n, power),
    ]
    for got, want in cases:
        assert_normalized(got)
        assert got.terms == want.terms


def test_product_of_half_powers_has_int_exponents():
    half = Polynomial.monomial(1, (Fraction(1, 2),))
    assert not (half * half).has_fractional_exponent()
    root = Polynomial(2, {(Fraction(1, 2), 0): Fraction(1), (0, 1): Fraction(1)})
    square = root * root
    assert square.terms == {(1, 0): 1, (Fraction(1, 2), 1): 2, (0, 2): 1}
    assert_normalized(square)


@given(st.integers(min_value=0, max_value=10**6), st.sets(st.integers(0, 2), max_size=3),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_substitute_matches_term_by_term_sum(seed, mapped, half):
    rng = random.Random(seed)
    f = random_polynomial(rng, 3, max_degree=4, max_terms=5)
    assignment = {i: random_polynomial(rng, 3, max_degree=2, max_terms=3) for i in mapped}
    if half and len(mapped) < 3:
        # half of the terms get a fractional exponent on an unassigned variable
        j = min(set(range(3)) - mapped)
        f = f + f * Polynomial.monomial(3, [Fraction(1, 2) if i == j else 0 for i in range(3)])
    want = Polynomial.zero(3)
    for exps, c in f.terms.items():
        term = Polynomial.constant(3, c)
        for i, e in enumerate(exps):
            unit = [e if k == i else 0 for k in range(3)]
            term = term * (assignment[i] ** e if i in mapped else Polynomial.monomial(3, unit))
        want = want + term
    got = substitute(f, assignment)
    assert_normalized(got)
    assert got.terms == want.terms


# ---------------------------------------------------------------------------
# Hasse derivatives


def test_hasse_first_derivative_of_square():
    assert hasse_derivative(p2("y^2"), (0, 1)) == p2("2*y")


def test_hasse_full_order():
    assert hasse_derivative(p2("y^2"), (0, 2)) == p2("1")


def test_hasse_binomial_weight():
    # C(3,2) x y = 3 x y, worked by the binomial formula
    assert hasse_derivative(p2("x^3*y"), (2, 0)) == p2("3*x*y")


def test_hasse_rejects_fractional_variable():
    f = Polynomial(2, {(Fraction(1, 2), 1): Fraction(1)})
    with pytest.raises(PreconditionError, match="fractional"):
        hasse_derivative(f, (1, 0))
    # untouched fractional variables are fine
    assert not hasse_derivative(f, (0, 1)).is_zero()


@given(
    st.integers(min_value=0, max_value=10**6),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
@settings(max_examples=60, deadline=None)
def test_hasse_composition_identity(seed, M, Mp):
    # D_Mp . D_M = C(M + Mp, M) * D_(M + Mp), exactly
    rng = random.Random(seed)
    f = random_polynomial(rng, 2, max_degree=5, max_terms=5)
    lhs = hasse_derivative(hasse_derivative(f, M), Mp)
    total = tuple(a + b for a, b in zip(M, Mp))
    factor = Fraction(math.prod(math.comb(a + b, a) for a, b in zip(M, Mp)))
    assert lhs == hasse_derivative(f, total).scale(factor)


# ---------------------------------------------------------------------------
# substitute


def test_substitute_chart_map():
    f = p2("y^2 - x^3")
    image = substitute(f, {1: Polynomial.variable(2, 0) * Polynomial.variable(2, 1)})
    assert image == p2("x^2*y^2 - x^3")


def test_substitute_identity():
    f = p2("y^2 - x^3")
    assert substitute(f, {}) == f


def test_substitute_full_chart():
    names = ["x", "y", "z", "t"]
    f = parse_polynomial("t^2 + x*y*z", names)
    x = Polynomial.variable(4, 0)
    image = substitute(
        f,
        {1: x * Polynomial.variable(4, 1), 2: x * Polynomial.variable(4, 2),
         3: x * Polynomial.variable(4, 3)},
    )
    assert image == parse_polynomial("x^2*t^2 + x^3*y*z", names)


def test_substitute_preserves_order_under_linear_change(rng):
    for _ in range(25):
        f = random_polynomial(rng, 3, max_degree=4, max_terms=5, min_order=1)
        change = {
            0: Polynomial.variable(3, 0),
            1: Polynomial.variable(3, 1) + Polynomial.variable(3, 0).scale(rng.randint(-2, 2)),
            2: Polynomial.variable(3, 2) + Polynomial.variable(3, 1).scale(rng.randint(-2, 2)),
        }
        assert ord_at_origin(substitute(f, change)) == ord_at_origin(f)


def test_substitute_fractional_monomial_power():
    f = Polynomial(2, {(Fraction(1, 2), 0): Fraction(1)})
    image = substitute(f, {0: Polynomial.variable(2, 0) * Polynomial.variable(2, 1)})
    assert image == Polynomial(2, {(Fraction(1, 2), Fraction(1, 2)): Fraction(1)})


def test_substitute_fractional_power_of_sum_rejected():
    f = Polynomial(2, {(Fraction(1, 2), 0): Fraction(1)})
    with pytest.raises(PreconditionError):
        substitute(f, {0: p2("x + y")})


# ---------------------------------------------------------------------------
# initial_form


def test_initial_form_unweighted():
    assert initial_form(p2("y^2 - x^3"), 2) == p2("y^2")


def test_initial_form_fractional_degree_is_zero():
    assert initial_form(p2("y^2 - x^3"), Fraction(3, 2)).is_zero()


def test_initial_form_at_ord_is_nonzero(rng):
    for _ in range(30):
        f = random_polynomial(rng, 2, max_degree=5)
        assert not initial_form(f, ord_at_origin(f)).is_zero()


# ---------------------------------------------------------------------------
# splitting


def test_split_by_variables_groups_levels():
    f = p2("y^2 - x^3 + 2*x*y")
    groups = split_by_variables(f, [1])
    assert groups[(2,)] == Polynomial.constant(1, 1)
    assert groups[(0,)] == parse_polynomial("-x^3", ["x"])
    assert groups[(1,)] == parse_polynomial("2*x", ["x"])


# ---------------------------------------------------------------------------
# text round-trips


@pytest.mark.parametrize(
    "text",
    ["3/2*x^2*y - x", "y^2 - x^3", "-x", "1 - x*y", "x^3*y + 2"],
)
def test_format_parse_round_trip(text):
    f = parse_polynomial(text, NAMES2)
    assert parse_polynomial(format_polynomial(f, NAMES2), NAMES2) == f


def test_parse_fractional_needs_permission():
    with pytest.raises(ProblemParseError):
        parse_polynomial("y^(5/2)", NAMES2)
    f = parse_polynomial("y^(5/2)", NAMES2, fractional_ok={1})
    assert f == Polynomial(2, {(0, Fraction(5, 2)): Fraction(1)})


def test_parse_rejects_unknown_variable():
    with pytest.raises(ProblemParseError):
        parse_polynomial("w^2", NAMES2)


def test_format_is_deterministic(rng):
    for _ in range(10):
        f = random_polynomial(rng, 3, max_degree=4, max_terms=6)
        assert format_polynomial(f, NAMES3) == format_polynomial(f, NAMES3)
