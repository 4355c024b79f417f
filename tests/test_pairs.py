from fractions import Fraction

import pytest

from hironaka.errors import PreconditionError
from hironaka.pairs import Component, Pair, is_singular_at_origin, pair_order
from hironaka.poly import Polynomial, parse_polynomial, substitute

from conftest import merge_to_single, random_singular_pair

NAMES2 = ["x", "y"]
NAMES4 = ["x", "y", "z", "t"]


def p(text, names=NAMES2):
    return parse_polynomial(text, names)


def single(text, b, names=NAMES2):
    return Pair.single([p(text, names)], b)


# ---------------------------------------------------------------------------
# pair_order / Sing


def test_pair_order_unit_weight_match():
    assert pair_order(single("x^2", 2)) == 1


def test_pair_order_clamps_to_zero_below_weight():
    assert pair_order(single("x^2", 3)) == 0


def test_pair_order_intersection_minimum():
    E = Pair((
        Component((p("t^2 + x*y*z", NAMES4),), Fraction(2)),
        Component((p("t", NAMES4),), Fraction(1)),
    ))
    assert pair_order(E) == 1


def test_singular_at_origin():
    assert is_singular_at_origin(single("y^2 - x^3", 2))
    assert not is_singular_at_origin(single("y - x^3", 2))


def test_singular_intersection_example():
    E = Pair((
        Component((p("z^3 - x^2*y^2", NAMES4),), Fraction(3)),
        Component((p("t", NAMES4),), Fraction(1)),
    ))
    assert is_singular_at_origin(E)


# ---------------------------------------------------------------------------
# merge_to_single, the test reference in conftest


def test_merge_two_linear_components():
    E = Pair((
        Component((p("x"),), Fraction(1)),
        Component((p("y"),), Fraction(1)),
    ))
    merged = merge_to_single(E, 1)
    assert len(merged.components) == 1
    assert merged.components[0].weight == 1
    assert set(
        tuple(sorted(g.terms)) for g in merged.components[0].gens
    ) == {(((1, 0),)), (((0, 1),))}


def test_merge_powers_each_side():
    E = Pair((
        Component((p("x^2"),), Fraction(2)),
        Component((p("y"),), Fraction(1)),
    ))
    merged = merge_to_single(E, 2)
    gens = sorted(sorted(g.terms) for g in merged.components[0].gens)
    assert gens == [[(0, 2)], [(2, 0)]]
    assert merged.components[0].weight == 2


def test_merge_rejects_non_divisor():
    E = Pair((Component((p("x^2"),), Fraction(2)),))
    with pytest.raises(PreconditionError, match="divide"):
        merge_to_single(E, 3)


def test_order_preserved_by_rewrites(rng):
    for _ in range(30):
        E = random_singular_pair(rng, 2)
        # weights are integers 1..3 here, so 6 is a common multiple
        merged = merge_to_single(E, 6)
        assert pair_order(merged) == min(
            pair_order(Pair((c,))) for c in E.components
        )


def test_order_preserved_at_sampled_points(rng):
    # shift the origin to a nearby rational point and compare there as well
    for _ in range(10):
        E = random_singular_pair(rng, 2)
        shift = {
            i: Polynomial.variable(2, i) + Polynomial.constant(2, Fraction(rng.randint(-2, 2), 3))
            for i in range(2)
        }
        moved = Pair(tuple(
            Component(tuple(substitute(g, shift) for g in c.gens), c.weight)
            for c in E.components
        ))
        assert pair_order(merge_to_single(moved, 6)) == min(
            pair_order(Pair((c,))) for c in moved.components
        )


# ---------------------------------------------------------------------------
# validation


def test_component_rejects_zero_generator():
    with pytest.raises(PreconditionError):
        Component((Polynomial.zero(2),), Fraction(1))


def test_component_rejects_nonpositive_weight():
    with pytest.raises(PreconditionError):
        Component((p("x"),), Fraction(0))


def test_weights_are_stored_in_normal_form():
    # an int when integral, a Fraction otherwise, like a coefficient
    for weight, stored in ((2, 2), (Fraction(4, 2), 2), (Fraction(3, 2), Fraction(3, 2))):
        for comp in (Component((p("x^2"),), weight), Pair.single([p("x^2")], weight).components[0]):
            assert comp.weight == stored and type(comp.weight) is type(stored)


def test_float_and_bool_weights_are_refused():
    # 0.1 is no binary fraction and True no weight 1
    for weight in (0.1, 2.0, True):
        for make in (lambda: Component((p("x^2"),), weight), lambda: Pair.single([p("x^2")], weight)):
            with pytest.raises(TypeError, match=f"^weight {weight!r} is not an int or a Fraction$"):
                make()
