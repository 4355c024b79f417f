import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from hironaka import polyhedra
from hironaka.errors import PreconditionError
from hironaka.frames import Frame
from hironaka.pairs import Component, Pair
from hironaka.poly import INF, Polynomial, parse_polynomial
from hironaka.polyhedra import (
    OrthantPolyhedron,
    delta,
    minimize_vertices,
    newton_polyhedron,
    pair_minima,
    polyhedron_of_pair,
)

from conftest import (
    basic_solution_oracle,
    contains,
    coordinate_min,
    random_singular_pair,
    scale_exponents,
    staircase_oracle,
)

NAMES4 = ["x", "y", "z", "t"]
FRAME22 = Frame(("x", "y", "z", "t"), (0, 1), (2, 3))


def equivalent_pairs(d: int):
    """The two equivalent weighted ideals whose polyhedra differ."""
    f = parse_polynomial(f"z^{d} - x^{d-1}*y^{d-1}", NAMES4)
    first = Pair((
        Component((f,), Fraction(d)),
        Component((parse_polynomial("t", NAMES4),), Fraction(1)),
    ))
    g = parse_polynomial(f"t^{d-1} - x^{d-2}*y^{d-1}", NAMES4)
    second = Pair((
        Component((f,), Fraction(d)),
        Component((g,), Fraction(d - 1)),
    ))
    return first, second


# ---------------------------------------------------------------------------
# polyhedron_of_pair


def test_vertex_family_first_pair():
    for d in (2, 3, 4, 5):
        first, _ = equivalent_pairs(d)
        P = polyhedron_of_pair(first, FRAME22)
        assert P.vertices == ((Fraction(d - 1, d), Fraction(d - 1, d)),)


def test_vertex_family_second_pair():
    for d in (3, 4, 5):
        _, second = equivalent_pairs(d)
        P = polyhedron_of_pair(second, FRAME22)
        assert set(P.vertices) == {
            (Fraction(d - 1, d), Fraction(d - 1, d)),
            (Fraction(d - 2, d - 1), Fraction(1)),
        }


def test_polyhedron_single_contributing_term():
    E = Pair.single([parse_polynomial("t^2 + x*y*z", NAMES4)], 2)
    frame = Frame(("x", "y", "z", "t"), (0, 1, 2), (3,))
    P = polyhedron_of_pair(E, frame)
    assert P.vertices == ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),)


def test_generator_independence(rng):
    # adding a polynomial multiple of another generator never moves the hull
    frame = Frame(("x", "y"), (0,), (1,))
    for _ in range(40):
        E = random_singular_pair(rng, 2)
        comp = E.components[0]
        if len(comp.gens) < 2:
            comp = Component(comp.gens + comp.gens, comp.weight)
        h = Polynomial.variable(2, rng.randrange(2)) * Polynomial.constant(
            2, rng.randint(1, 2)
        )
        changed = Component(
            (comp.gens[0] + h * comp.gens[1],) + comp.gens[1:], comp.weight
        )
        E2 = Pair((changed,) + E.components[1:])
        E1 = Pair((comp,) + E.components[1:])
        assert polyhedron_of_pair(E1, frame) == polyhedron_of_pair(E2, frame)


# ---------------------------------------------------------------------------
# newton_polyhedron and the projection identity


def test_newton_polyhedron_of_curve():
    E = Pair.single([parse_polynomial("y^2 - x^3", ["x", "y"])], 2)
    frame = Frame(("x", "y"), (0,), (1,))
    P = newton_polyhedron(E, frame)
    assert set(P.vertices) == {(0, 2), (3, 0)}


def test_newton_polyhedron_single_variable_component():
    E = Pair((Component((parse_polynomial("t", NAMES4),), Fraction(1)),))
    P = newton_polyhedron(E, FRAME22)
    assert P.vertices == ((0, 0, 0, 1),)


def test_projection_identity(rng):
    # mapping Newton points (A, B) with |B| < b through A/(b-|B|) and
    # re-hulling recovers the projected polyhedron
    for _ in range(30):
        E = random_singular_pair(rng, 3)
        frame = Frame(("x", "y", "z"), (0, 1), (2,))
        e = 2
        points = []
        for comp in E.components:
            for g in comp.gens:
                for exps in g.terms:
                    B = sum(exps[i] for i in frame.y_indices)
                    if B < comp.weight:
                        points.append(
                            tuple(
                                Fraction(exps[i]) / (comp.weight - B)
                                for i in frame.u_indices
                            )
                        )
        expected = OrthantPolyhedron.from_points(e, points)
        assert polyhedron_of_pair(E, frame) == expected


# ---------------------------------------------------------------------------
# minimize_vertices


def test_minimize_domination():
    assert minimize_vertices([(1, 0), (2, 0)]) == [(1, 0)]


def test_minimize_drops_dominated_corner():
    assert minimize_vertices([(0, 1), (1, 0), (1, 1)]) == [(0, 1), (1, 0)]


def test_minimize_on_a_segment_midpoint():
    # (1,1) is the midpoint of the other two, hence redundant in the hull
    assert minimize_vertices([(0, 2), (1, 1), (2, 0)]) == [(0, 2), (2, 0)]


def test_minimize_keeps_true_corners():
    pts = [(0, 2), (Fraction(1, 2), 1), (2, 0)]
    assert minimize_vertices(pts) == sorted(pts)


def test_minimize_matches_staircase_oracle(rng):
    for _ in range(40):
        pts = [
            (Fraction(rng.randint(0, 6), rng.randint(1, 3)),
             Fraction(rng.randint(0, 6), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 9))
        ]
        assert minimize_vertices(pts) == staircase_oracle(pts)


def outside_hull_orthant(p, others) -> bool:
    """p outside conv(others) + orthant: no weights lambda >= 0 with sum 1
    and slack s >= 0 give sum lambda_i q_i + s = p, by the oracle."""
    e = len(p)
    rows = [[q[j] for q in others] + [int(s == j) for s in range(e)] for j in range(e)]
    rows.append([1] * len(others) + [0] * e)
    return not basic_solution_oracle(rows, [*p, 1])


def test_minimize_matches_the_lp_oracle_in_3_and_4_dimensions(rng):
    for dim, most in [(3, 5)] * 15 + [(4, 4)] * 10:
        base = [tuple(Fraction(rng.randint(0, 6)) for _ in range(dim))
                for _ in range(rng.randint(2, most - 1))]
        # a convex combination of base points, maybe shifted up one axis:
        # mostly undominated, so the LP and not the dominance test drops it
        weights = [Fraction(rng.randint(1, 3)) for _ in base]
        mix = [sum(w * q[j] for w, q in zip(weights, base)) / sum(weights) for j in range(dim)]
        mix[rng.randrange(dim)] += Fraction(rng.randint(0, 1), 2)
        pts = sorted(set(base) | {tuple(mix)})
        kept = [p for p in pts if outside_hull_orthant(p, [q for q in pts if q != p])]
        assert minimize_vertices(pts) == kept, pts


def random_point_set(rng, dim):
    """Points with int and Fraction coordinates, some on the segment between
    two others, three on one line, and duplicates with every integral
    coordinate written as a Fraction, 1 against Fraction(2, 2)."""
    def coordinate():
        return rng.choice([rng.randint(0, 5), Fraction(rng.randint(0, 11), rng.randint(1, 3))])
    small = dim > 2  # the oracle of the LP route solves every column subset
    pts = [tuple(coordinate() for _ in range(dim)) for _ in range(rng.randint(1, 3 if small else 4))]
    for _ in range(rng.randint(0, 2 if small else 3)):
        p, q = rng.choice(pts), rng.choice(pts)
        kind = rng.randrange(3)
        if kind == 0:
            pts.append(tuple(Fraction(2 * c, 2) for c in p))
        elif kind == 1:
            t = Fraction(rng.randint(0, 4), 4)
            pts.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
        else:
            step = [rng.choice([-1, 1]) * coordinate() for _ in range(dim)]
            pts += [tuple(a + k * d for a, d in zip(p, step)) for k in (1, 2)]
    rng.shuffle(pts)
    return pts


def test_minimize_matches_the_oracles_in_1_to_4_dimensions(rng):
    assert minimize_vertices([]) == []
    assert minimize_vertices([(), ()]) == [()]
    assert minimize_vertices([(1,), (Fraction(2, 2),)]) == [(1,)]
    for dim, sets in [(1, 40), (2, 120), (3, 25), (4, 12)]:
        for _ in range(sets):
            pts = random_point_set(rng, dim)
            got = minimize_vertices(pts)
            assert all(type(c) is (int if c.denominator == 1 else Fraction)
                       for v in got for c in v), got
            if dim <= 2:
                padded = staircase_oracle([(*p, 0) if dim == 1 else p for p in pts])
                assert got == [v[:dim] for v in padded], pts
            else:
                distinct = sorted(set(pts))
                kept = [p for p in distinct
                        if outside_hull_orthant(p, [q for q in distinct if q != p])]
                assert got == kept, pts


def test_minimize_solves_no_lp_up_to_2_dimensions(monkeypatch, rng):
    calls = Counter()
    original = polyhedra.lp_feasible

    def counted(A, b):
        calls[len(A) - 1] += 1  # the dimension: e rows and the weight row
        return original(A, b)
    monkeypatch.setattr(polyhedra, "lp_feasible", counted)
    for dim in (0, 1, 2):
        for _ in range(40):
            minimize_vertices(random_point_set(rng, dim))
    assert calls == Counter()
    # the counter sees the LP: no point of these dominates another, so each
    # is tested by one, and the midpoint of the other two is dropped
    assert minimize_vertices([(0, 0, 2), (1, 1, 1), (2, 2, 0)]) == [(0, 0, 2), (2, 2, 0)]
    assert calls == Counter({3: 3})


@pytest.mark.parametrize("points", [[(0, 1), (1,)], [(0, 1, 2), (1, 1, 1), (1, 1)]])
def test_a_point_of_another_dimension_is_refused(points):
    with pytest.raises(PreconditionError, match="point dimension mismatch"):
        OrthantPolyhedron.from_points(len(points[0]), points)


@pytest.mark.parametrize("coordinate", [0.1, True, "1/2"], ids=["float", "bool", "str"])
def test_a_coordinate_that_is_not_exact_is_refused(coordinate):
    with pytest.raises(TypeError, match="coordinate .* is not an int or a Fraction"):
        minimize_vertices([(coordinate, 1), (1, 0)])


def test_minimize_idempotent_and_order_independent(rng):
    for _ in range(20):
        pts = [
            (Fraction(rng.randint(0, 5)), Fraction(rng.randint(0, 5)), Fraction(rng.randint(0, 5)))
            for _ in range(rng.randint(2, 8))
        ]
        out = minimize_vertices(pts)
        assert minimize_vertices(out) == out
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert minimize_vertices(shuffled) == out


# ---------------------------------------------------------------------------
# delta / pair_minima


def test_delta_of_family_vertex():
    first, _ = equivalent_pairs(3)
    assert delta(polyhedron_of_pair(first, FRAME22)) == Fraction(4, 3)


def test_delta_agrees_for_equivalent_pairs():
    for d in (2, 3, 4, 5):
        first, second = equivalent_pairs(d)
        assert delta(polyhedron_of_pair(first, FRAME22)) == delta(
            polyhedron_of_pair(second, FRAME22)
        )


def test_delta_empty_is_infinite():
    assert delta(OrthantPolyhedron(2, ())) == INF


def test_pair_minimum_distinguishes_equivalent_pairs():
    for d in (3, 4, 5):
        first, second = equivalent_pairs(d)
        assert pair_minima(first, FRAME22.y_indices, [(0,)]) == [Fraction(d - 1, d)]
        assert pair_minima(second, FRAME22.y_indices, [(0,)]) == [Fraction(d - 2, d - 1)]


def test_pair_minimum_single_point():
    # the one point (1/2, 1/2, 1/2) of t^2 + x*y*z along t
    E = Pair.single([parse_polynomial("t^2 + x*y*z", NAMES4)], 2)
    for i in range(3):
        assert pair_minima(E, (3,), [(i,)]) == [Fraction(1, 2)]
    assert pair_minima(E, (3,), [(0,), (1,), (0, 1, 2)]) == [Fraction(1, 2)] * 2 + [Fraction(3, 2)]


def test_pair_minimum_of_empty_polyhedron_is_inf():
    # every term of z^2 + t^3 sits at a level |B| >= 2 along (z, t)
    E = Pair.single([parse_polynomial("z^2 + t^3", NAMES4)], 2)
    assert polyhedron_of_pair(E, FRAME22).is_empty()
    for coords in ((), (0,), (0, 1)):
        assert pair_minima(E, FRAME22.y_indices, [coords]) == [INF]
    assert pair_minima(E, FRAME22.y_indices, [(), (0,), (0, 1)]) == [INF] * 3
    assert pair_minima(Pair(()), (), [(0,)]) == [INF]
    assert pair_minima(E, FRAME22.y_indices, []) == []


def test_pair_minimum_is_the_vertex_minimum():
    # random u/y splits, a marked variable with fractional exponents, and
    # every subset of the u-coordinates, the empty one included: one set
    # per walk, then every set in one walk.  With the empty y-part, each
    # singleton and the whole u-part in one walk
    seen = Counter()
    for nvars in (2, 3, 4):
        names = tuple(f"x{i}" for i in range(nvars))
        for seed in range(25):
            rng = random.Random(seed)
            marked = rng.randrange(nvars)
            E = scale_exponents(random_singular_pair(rng, nvars), marked,
                                Fraction(1, rng.randint(1, 3)))
            y = tuple(sorted(rng.sample(range(nvars), rng.randint(0, nvars))))
            u = tuple(i for i in range(nvars) if i not in y)
            P = polyhedron_of_pair(E, Frame(names, u, y, (("E1", marked),)))
            sets = [positions for k in range(len(u) + 1)
                    for positions in combinations(range(len(u)), k)]
            want = [coordinate_min(P, positions) for positions in sets]
            coords = [[u[p] for p in positions] for positions in sets]
            assert [pair_minima(E, y, [c])[0] for c in coords] == want, (nvars, seed)
            got = pair_minima(E, y, coords)
            assert got == want, (nvars, seed)
            assert all((m == INF) == P.is_empty() for m in got)
            seen["empty" if P.is_empty() else "point"] += len(sets)
            seen["sets per walk"] = max(seen["sets per walk"], len(sets))
            whole = [(i,) for i in range(nvars)] + [tuple(range(nvars))]
            P = polyhedron_of_pair(E, Frame(names, tuple(range(nvars)), (), (("E1", marked),)))
            assert pair_minima(E, (), whole) == [coordinate_min(P, s) for s in whole]
            seen["empty y-part"] += 1
            seen["fractional"] += any(g.has_fractional_exponent() for g in E.all_generators())
    assert min(seen.values()) >= 10, seen


def test_membership():
    P = OrthantPolyhedron.from_points(2, [(0, 2), (2, 0)])
    assert contains(P, (1, 1))
    assert contains(P, (3, 0))
    assert not contains(P, (Fraction(1, 2), Fraction(1, 2)))
