import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hironaka import cli
from hironaka.cli import parse_problem
from hironaka.coeff import coefficient_pair
from hironaka.cone import HomIdeal, graded_piece
from hironaka.frames import Frame
from hironaka.pairs import Pair
from hironaka.errors import PreconditionError, ProblemParseError
from hironaka.poly import (
    INF,
    Polynomial,
    _convolve,
    divide_by_monomial,
    format_polynomial,
    hasse_derivative,
    initial_form,
    ord_at_origin,
    parse_polynomial,
    substitute,
)

from conftest import CORPUS, random_polynomial, reference_parse, reference_split_by_variables

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
    """Every coefficient nonzero, and it and every exponent an int when
    integral and a Fraction otherwise."""
    for exps, c in p.terms.items():
        assert c != 0
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), c
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


def half_power(nvars, j):
    return Polynomial.monomial(nvars, [Fraction(1, 2) if i == j else 0 for i in range(nvars)])


def term_by_term(f, assignment):
    """substitute(f, assignment) as a sum of products of powers; a
    fractional power only of a unit monomial."""
    n = f.nvars
    want = Polynomial.zero(n)
    for exps, c in f.terms.items():
        term = Polynomial.constant(n, c)
        for i, e in enumerate(exps):
            if i not in assignment:
                term = term * Polynomial.monomial(n, [e if k == i else 0 for k in range(n)])
            elif type(e) is int:
                for _ in range(e):
                    term = term * assignment[i]
            else:
                (gexps, gc), = assignment[i].terms.items()
                assert gc == 1
                term = term * Polynomial.monomial(n, [ge * e for ge in gexps])
        want = want + term
    return want


# beyond a random f and map: "free" gives half of f's terms a fractional
# exponent on an unmapped variable; "unit" adds (f^2 + 1)*x0^(1/2), which
# never vanishes, and maps x0 to a unit monomial, and "non-unit" and
# "non-monomial" add the same and map x0 to 2 times a monomial or to a sum,
# both refused; "cancel" maps only x0, to a sum g, and adds x0^2 - g^2 to
# f, whose images cancel
SUBSTITUTE_CASES = ("", "free", "unit", "non-unit", "non-monomial", "cancel")
REFUSED = {
    "non-unit": "^fractional power of a non-unit monomial substitution$",
    "non-monomial": "^fractional power of a non-monomial substitution$",
}


@given(st.integers(min_value=0, max_value=10**6), st.sets(st.integers(0, 2), max_size=3),
       st.sampled_from(SUBSTITUTE_CASES))
@settings(max_examples=120, deadline=None)
@example(seed=127, mapped=set(), case="non-unit")  # f = -1: f + 1 would vanish
def test_substitute_matches_term_by_term_sum(seed, mapped, case):
    rng = random.Random(seed)
    f = random_polynomial(rng, 3, max_degree=4, max_terms=5)
    assignment = {i: random_polynomial(rng, 3, max_degree=2, max_terms=3) for i in mapped}
    if case == "free" and len(mapped) < 3:
        f = f + f * half_power(3, min(set(range(3)) - mapped))
    elif case in ("unit", "non-unit", "non-monomial"):
        f = f + (f * f + Polynomial.constant(3, 1)) * half_power(3, 0)
        exps = [rng.choice([0, 1, 2, Fraction(1, 2)]) for _ in range(3)]
        assignment[0] = {
            "unit": Polynomial.monomial(3, exps),
            "non-unit": Polynomial.monomial(3, exps, 2),
            "non-monomial": (Polynomial.monomial(3, exps)
                             + Polynomial.monomial(3, [e + 1 for e in exps])),
        }[case]
    elif case == "cancel":
        g = Polynomial(3, {(0, 1, 0): rng.choice([-2, 1, 3]), (0, 0, 1): rng.choice([-1, 2])})
        assignment = {0: g}
        f = f + Polynomial.variable(3, 0) ** 2 - g * g
    if case in REFUSED:
        with pytest.raises(PreconditionError, match=REFUSED[case]):
            substitute(f, assignment)
        return
    got = substitute(f, assignment)
    assert_normalized(got)
    assert got.terms == term_by_term(f, assignment).terms


@given(st.integers(min_value=0, max_value=10**6), st.sets(st.integers(0, 2), max_size=3),
       st.sets(st.integers(0, 2), max_size=3))
@settings(max_examples=60, deadline=None)
def test_substitution_composes(seed, first, second):
    # f(A)(B) = f(A o B): x_i -> A_i(B) for i in A, else B_i, else x_i
    rng = random.Random(seed)
    f = random_polynomial(rng, 3, max_degree=3, max_terms=4)
    A = {i: random_polynomial(rng, 3, max_degree=2, max_terms=3) for i in first}
    B = {i: random_polynomial(rng, 3, max_degree=2, max_terms=2) for i in second}
    composed = {**B, **{i: substitute(g, B) for i, g in A.items()}}
    got = substitute(substitute(f, A), B)
    assert_normalized(got)
    assert got == substitute(f, composed)


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


@given(st.integers(min_value=0, max_value=10**6), st.tuples(*[st.integers(0, 3)] * 3))
@settings(max_examples=80, deadline=None)
def test_hasse_derivative_maps_each_monomial_by_binomials(seed, M):
    # x^D -> C(D, M) x^(D - M) when D >= M, else 0; a variable of order 0
    # may carry fractional exponents
    rng = random.Random(seed)
    f = random_polynomial(rng, 3, max_degree=5, max_terms=6)
    if 0 in M:
        f = f + f * half_power(3, M.index(0))
    want = Polynomial.zero(3)
    for D, c in f.terms.items():
        if all(d >= m for d, m in zip(D, M)):
            weight = math.prod(math.comb(d, m) for d, m in zip(D, M) if m)
            want = want + Polynomial.monomial(3, [d - m for d, m in zip(D, M)], c * weight)
    got = hasse_derivative(f, M)
    assert_normalized(got)
    assert got.terms == want.terms


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
    # an exponent that becomes integral is stored as an int
    image = substitute(f * p2("y"), {0: p2("x^2*y")})
    assert image.terms == {(1, Fraction(3, 2)): 1}
    assert_normalized(image)
    with pytest.raises(PreconditionError,
                       match="^fractional power of a non-unit monomial substitution$"):
        substitute(f, {0: p2("2*x*y")})


def test_substitute_fractional_power_of_sum_rejected():
    f = Polynomial(2, {(Fraction(1, 2), 0): Fraction(1)})
    with pytest.raises(PreconditionError,
                       match="^fractional power of a non-monomial substitution$"):
        substitute(f, {0: p2("x + y")})


def test_blowup_of_a_high_monomial_power_takes_no_ladder():
    # z^2 + x^3*y^10000000 blown up at the origin in the x-chart: y -> x*y
    # needs (x*y)^10000000, which a multiplication ladder takes minutes for
    problem = parse_problem(json.dumps({
        "variables": ["x", "y", "z"], "u": ["x", "y"], "y": ["z"],
        "pair": {"components": [{"gens": ["z^2 + x^3*y^10000000"], "b": "2"}]},
        "script": {"steps": [{"center": ["x", "y", "z"], "chart": "x"}]},
    }))
    start = time.perf_counter()
    report = cli.run(problem, "run-lsb")
    assert time.perf_counter() - start < 0.5
    year = report["trace"]["years"][1]
    assert year["pair"]["components"][0]["gens"] == ["z^2 + x^10000001*y^10000000"]
    assert year["exceptional"] == [{"id": "E1", "variable": "x", "d": "10000001/2", "birth": 1}]


def test_invariant_of_a_high_binomial_power_takes_no_ladder():
    # after the blow-up, the contact search applies x1 -> x1 - x0 to y^400:
    # the binomial theorem builds (y - x)^400 in one step, where the
    # multiplication ladder needs O(e^2) term products (seconds)
    problem = parse_problem(json.dumps({
        "variables": ["x", "y", "z"], "u": ["x", "y"], "y": ["z"],
        "pair": {"components": [{"gens": ["z^2 + x^3*y^400"], "b": "2"}]},
        "script": {"steps": [{"center": ["x", "y", "z"], "chart": "x"}]},
    }))
    start = time.perf_counter()
    report = cli.run(problem, "invariant")
    assert time.perf_counter() - start < 0.5
    assert report["invariant"]["entries"] == [{"nu": "200", "s": 1}, {"nu": "1", "s": 0}]


def test_binomial_power_matches_repeated_multiplication():
    half = Fraction(1, 2)
    for g in (p2("x - y"), p2("2/3*x + 5"), Polynomial(2, {(half, 0): Fraction(-1, 2), (0, 1): 3})):
        f = Polynomial.constant(2, 1)
        for e in range(13):
            got = substitute(Polynomial.monomial(2, (0, e), Fraction(1, 3)), {1: g})
            assert_normalized(got)
            assert got == f.scale(Fraction(1, 3))
            f = f * g
    assert Polynomial.constant(0, Fraction(-2, 3)) ** 3 == Polynomial.constant(0, Fraction(-8, 27))


# the terms of g: exponents in x1, x2 only, so that x0 -> g leaves the
# other variables alone; a small range makes monomials collide in g^e
MULTINOMIAL_TERMS = st.dictionaries(
    st.tuples(st.just(0), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).filter(bool) | st.fractions(-2, 2, max_denominator=3).filter(bool),
    min_size=1, max_size=5)


@given(MULTINOMIAL_TERMS, st.integers(0, 8), raw_polynomials(2))
@settings(max_examples=150, deadline=None)
@example({(0, 1, 0): 1, (0, 0, 1): 1, (0, 1, 1): 1}, 4, Polynomial(2, {(1, 0): -1}))  # x + y + x*y
@example({(0, 0, 0): Fraction(-1, 2), (0, 1, 0): 2, (0, 0, 1): -3, (0, 2, 2): Fraction(2, 3)},
         8, Polynomial(2, {(0, 0): 1}))  # a constant term
def test_the_multinomial_power_matches_repeated_multiplication(terms, e, rest):
    g = Polynomial(3, terms)
    h = Polynomial(3, {(0, *exps): c for exps, c in rest.terms.items()})
    want = {(0, 0, 0): 1}
    for _ in range(e):
        want = _convolve(want, g.terms)
    x0e = Polynomial.monomial(3, (e, 0, 0))
    for got, product in ((g ** e, want), (substitute(x0e * h, {0: g}), _convolve(want, h.terms))):
        assert_normalized(got)
        assert got == Polynomial(3, product)


def test_float_and_bool_coefficients_are_refused():
    for make in (lambda: Polynomial(1, {(1,): 0.5}), lambda: p2("x").scale(0.5),
                 lambda: Polynomial.constant(1, 0.5), lambda: Polynomial.constant(1, True),
                 lambda: Polynomial(1, {(0.5,): 1}), lambda: Polynomial(1, {(True,): 1}),
                 lambda: divide_by_monomial(p2("x"), [(0, 0.1)]),
                 lambda: divide_by_monomial(p2("x"), [(0, True)])):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            make()
    for make in (lambda: Polynomial(1, {(-1,): 1}), lambda: Polynomial(1, {(Fraction(-1, 2),): 1}),
                 lambda: divide_by_monomial(p2("x"), [(0, -1)])):
        with pytest.raises(ValueError, match="negative exponent"):
            make()
    for order in ((True, False), (0.5, 0), (-1, 0)):
        with pytest.raises(ValueError, match="derivative orders must be nonnegative integers"):
            hasse_derivative(p2("x^2*y"), order)


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
    # the reference that the coefficient pair's tests compare with
    f = p2("y^2 - x^3 + 2*x*y")
    # the coefficients keep the arity, with exponent 0 on y
    groups = reference_split_by_variables(f, [1])
    assert groups[(2,)] == Polynomial.constant(2, 1)
    assert groups[(0,)] == p2("-x^3")
    assert groups[(1,)] == p2("2*x")


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


# ---------------------------------------------------------------------------
# the term-level parser against the Polynomial-arithmetic reference

PARSE_NAMES = ["x", "y", "z"]
PARSE_FRACTIONAL_OK = {2}  # z may carry fractional exponents


def parse_outcome(parse, text):
    try:
        return parse(text, PARSE_NAMES, PARSE_FRACTIONAL_OK)
    except (ProblemParseError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def assert_parses_like_the_reference(text):
    got = parse_outcome(parse_polynomial, text)
    want = parse_outcome(reference_parse, text)
    if isinstance(want, Polynomial):
        assert isinstance(got, Polynomial), (text, got)
        assert got.nvars == want.nvars
        assert got.terms == want.terms, text
        assert_normalized(got)
    else:
        assert got == want, text


SMALL = st.integers(0, 3)


@st.composite
def parse_factors(draw, depth):
    """(text, starts with a digit) of one factor with its power."""
    name = draw(st.sampled_from(PARSE_NAMES))
    kinds = ["number", "variable", "power", "half", "number power"]
    kind = draw(st.sampled_from(kinds + ["paren", "paren power", "paren root"] * (depth > 0)))
    if kind == "number":
        return str(draw(st.integers(0, 5))), True
    if kind == "variable":
        return name, False
    if kind == "power":
        k = draw(SMALL)
        return draw(st.sampled_from([f"{name}^{k}", f"{name}^({k})"])), False
    if kind == "half":
        return f"z^({draw(st.integers(0, 5))}/{draw(st.integers(1, 3))})", False
    if kind == "number power":
        return f"{draw(st.integers(0, 3))}^{draw(SMALL)}", True
    if kind == "paren":
        return f"({draw(parse_sums(depth - 1))})", False
    if kind == "paren power":
        return f"({draw(parse_sums(depth - 1))})^{draw(st.integers(0, 2))}", False
    base = draw(st.sampled_from(["z", "z^2", "z^(1/2)", "2", "z + 1", "z*y", "z^2*z"]))
    return f"({base})^({draw(st.integers(0, 4))}/{draw(st.integers(1, 3))})", False


@st.composite
def parse_products(draw, depth):
    text, _ = draw(parse_factors(depth))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            text += draw(st.sampled_from(["/2", " / 3", "/(1+1)", "/2^2", "/x^0"]))
        factor, digit = draw(parse_factors(depth))
        implicit = ["", " "] if factor[0] == "(" or not text[-1].isalpha() else [" "]
        text += draw(st.sampled_from(["*", " * "] + ([] if digit else implicit)))
        text += factor
    return text


@st.composite
def parse_sums(draw, depth=2):
    parts = []
    for k in range(draw(st.integers(1, 3))):
        signs = ["", "-", "--", "+-"] if k == 0 else ["+", "-", "--", "+ -", "- -"]
        product = draw(parse_products(depth))
        parts.append(f"{draw(st.sampled_from(signs))} {product}" if k else
                     draw(st.sampled_from(signs)) + product)
        if draw(st.booleans()):  # the same product again, cancelling or doubling it
            parts.append(f"{draw(st.sampled_from(['+', '-']))} {product}")
    return " ".join(parts)


@given(parse_sums())
@settings(max_examples=200, deadline=None)
def test_parser_matches_the_arithmetic_reference(text):
    assert_parses_like_the_reference(text)


@given(parse_sums(depth=0))
@settings(max_examples=300, deadline=None)
def test_flat_sums_parse_like_the_reference(text):
    # no parenthesis: every factor a number or a variable power, most of
    # them read inline by the product loop
    assert_parses_like_the_reference(text)


@pytest.mark.parametrize("text", [
    "3x", "x y", "2 3", "x^2 3", "x ^ 2", "--x", "x*", "-", "x^2x",
    pytest.param("7" * (sys.get_int_max_str_digits() + 1) + "*x", id="long-coefficient"),
    pytest.param("x^" + "7" * (sys.get_int_max_str_digits() + 1), id="long-exponent"),
])
def test_flat_edge_cases_parse_like_the_reference(text):
    assert_parses_like_the_reference(text)


# (input, error class, message), as both parsers report them
PARSE_ERRORS = [
    ("x^", ProblemParseError, "malformed exponent at None"),
    ("x +", ProblemParseError, "unexpected end of polynomial"),
    ("(x", ProblemParseError, "expected ')', got None"),
    ("x/y", ProblemParseError, "division only by nonzero constants"),
    ("x/0", ProblemParseError, "division only by nonzero constants"),
    ("2.5*x", ProblemParseError, "bad character in polynomial: '.5*x'"),
    # a number is ASCII digits: int() would read these Arabic-Indic ones
    ("x^\u0663 + \u0662*y", ProblemParseError, "bad character in polynomial: '\u0663 + \u0662*y'"),
    ("x^(1/2)", ProblemParseError, "fractional exponent on non-exceptional variable 'x'"),
    ("(x+y)^(1/2)", ProblemParseError, "fractional exponent on a compound expression"),
    ("w", ProblemParseError, "undeclared variable 'w'"),
    ("x^2^3", ProblemParseError, "trailing input at '^'"),
    ("", ProblemParseError, "unexpected end of polynomial"),
    ("x^-1", ProblemParseError, "malformed exponent at '-'"),
    ("z^(1/0)", ProblemParseError, "zero denominator in exponent"),
    # an operator where a factor belongs
    ("x**2", ProblemParseError, "expected a factor, got '*'"),
    ("x*+y", ProblemParseError, "expected a factor, got '+'"),
    ("()", ProblemParseError, "expected a factor, got ')'"),
    ("x + )", ProblemParseError, "expected a factor, got ')'"),
    ("x*^2", ProblemParseError, "expected a factor, got '^'"),
]


@pytest.mark.parametrize("text, error, message", PARSE_ERRORS)
def test_parse_errors_keep_their_class_and_message(text, error, message):
    assert parse_outcome(parse_polynomial, text) == (error, message)
    assert parse_outcome(reference_parse, text) == (error, message)


def test_fractional_power_of_a_monomial_is_permitted_on_every_variable():
    # x comes first and may carry fractional exponents; y may not
    for parse in (parse_polynomial, reference_parse):
        with pytest.raises(ProblemParseError, match="non-exceptional variable 'y'"):
            parse("(x*y)^(1/2)", ["x", "y"], {0})
        assert parse("(x*y^2)^(1/2)", ["x", "y"], {0, 1}).terms == {(Fraction(1, 2), 1): 1}


def test_corpus_generators_parse_like_the_reference():
    checked = 0
    for path in sorted(CORPUS.glob("*/problems/*.json")):
        text = path.read_text(encoding="utf-8")
        data, problem = json.loads(text), parse_problem(text)
        names = list(problem.frame.variables)
        ok = problem.frame.marked_indices()
        texts = [g for comp in data["pair"]["components"] for g in comp["gens"]]
        gens = [g for comp in problem.pair.components for g in comp.gens]
        assert len(texts) == len(gens)
        for gen, g in zip(texts, gens):
            assert g.terms == reference_parse(gen, names, ok).terms, (path, gen)
            assert_normalized(g)
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# every kernel returns normal form


@given(raw_polynomials(3), st.integers(0, 2), COEFFICIENTS, st.tuples(*[EXPONENTS] * 3))
@settings(max_examples=100, deadline=None)
def test_kernels_return_normal_form(f, i, c, exps):
    halves = {j for j in range(3) if f.has_fractional_exponent(j)}
    # f with its exponents rounded up: integer exponents for the graded
    # pieces and the coefficient expansion
    g = raw_sum(3, ((tuple(map(math.ceil, e)), v) for e, v in f.terms.items()))
    den = math.lcm(*(v.denominator for v in f.terms.values()))
    outputs = [
        # a Fraction that makes every coefficient integral
        f.scale(Fraction(den)), f.scale(c).scale(Fraction(1) / c) if c else f,
        Polynomial.variable(3, i), Polynomial.constant(3, c), Polynomial.monomial(3, exps, c),
        initial_form(f, ord_at_origin(f) if not f.is_zero() else 0),
        hasse_derivative(f, tuple(0 if j in halves else 1 + (j == i) for j in range(3))),
        *reference_split_by_variables(f, [i]).values(),
        # a variable with fractional exponents takes a unit monomial
        substitute(f, {j: (Polynomial.monomial(3, (1, 1, 0)) if j in halves
                           else Polynomial.variable(3, j) + Polynomial.constant(3, c))
                       for j in range(3)}),
    ]
    if not f.is_zero():
        low = min(e[i] for e in f.terms)
        outputs.append(divide_by_monomial(f, [(i, low)]))
        outputs.append(divide_by_monomial(f, [(i, Fraction(low))]))
        lows = [(j, min(e[j] for e in f.terms)) for j in range(3)]
        outputs.append(divide_by_monomial(f, lows))
        # y = x_i, marked, may carry fractional exponents: weight 7 keeps
        # every level, the fractional ones included
        marked = Frame(("x", "y", "z"), tuple(j for j in range(3) if j != i), (i,), (("E", i),))
        outputs += coefficient_pair(Pair.single([f], 7), marked).all_generators()
    if not g.is_zero():
        form = initial_form(g, ord_at_origin(g))
        outputs += graded_piece(HomIdeal(3, (form,)), ord_at_origin(g) + 1)
        frame = Frame(("x", "y", "z"), tuple(j for j in range(3) if j != i), (i,))
        outputs += coefficient_pair(Pair.single([g], 2), frame).all_generators()
    for p in outputs:
        assert_normalized(p)
