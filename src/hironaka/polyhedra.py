"""Rational orthant polyhedra: finite vertex sets generating
conv(V) + R^e_{>=0}, kept in minimal form, the projections that tie them
to pairs, and the numbers read off them.

Each number the pipeline reads off the polyhedron of a pair (mu, mu_H,
delta_center, d, the ``d-i`` table, permissibility) is the minimum of a
coordinate sum with nonnegative coefficients, which a generating point
reaches.  ``pair_minima`` is the one reader of them: it takes every sum a
caller needs in one walk over the raw points A/(b - |B|).
Vertices are built only where they are reported or prepared (``poly``,
``newton``, ``char-poly`` and vertex preparation).  In dimension at most 2
``minimize_vertices`` reads them off the sorted points in closed form, the
lower-left convex chain of the staircase (Andrew's monotone chain, IPL
1979); above it tests each point with an exact LP, ``lp_feasible``, whose
pivots stay in ints (Edmonds 1967; Bareiss 1968).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .frames import Frame
from .linalg import lp_feasible
from .pairs import Pair
from .poly import INF, _coeff
from .record import Record

Point = tuple  # tuple of Fraction | int, length = dimension


def _pt(coords) -> Point:
    """Coordinates in ``_coeff``'s normal form; a float or a bool is a TypeError."""
    return tuple([_coeff(c, "coordinate") for c in coords])


def dominates(p: Point, q: Point) -> bool:
    return all(a >= b for a, b in zip(p, q))


def point_in_hull_orthant(p: Point, points: list[Point]) -> bool:
    """Exact test for p in conv(points) + R^e_{>=0}: p dominates one of
    ``points``, or ``lp_feasible`` finds weights lambda_i >= 0 with sum 1
    and a slack s >= 0 with sum_i lambda_i q_i + s = p, e + 1 equality rows
    over the columns (lambda, s), pivoted in ints."""
    if not points:
        return False
    for q in points:
        if dominates(p, q):
            return True
    e = len(p)
    rows = [[q[j] for q in points] + [int(s == j) for s in range(e)] for j in range(e)]
    rows.append([1] * len(points) + [0] * e)
    return lp_feasible(rows, [*p, 1])


def minimize_vertices(points) -> list[Point]:
    """Minimal subset generating the same conv + orthant; canonically sorted.

    Up to dimension 2 no LP is solved: the sorted points whose last
    coordinate falls strictly are the undominated ones, and the vertices are
    their lower-left convex chain (Andrew's monotone chain, IPL 1979), with
    no point on a segment (exact cross product <= 0).  Above, each point in
    the hull of the others is dropped."""
    pts = sorted({_pt(p) for p in points})
    if pts and len(pts[0]) > 2:
        i = 0
        while i < len(pts):
            if point_in_hull_orthant(pts[i], pts[:i] + pts[i + 1:]):
                pts.pop(i)
            else:
                i += 1
        return pts
    chain: list[Point] = []
    for p in pts:
        if chain and p[-1] >= chain[-1][-1]:
            continue  # dominated by an earlier point
        while len(chain) > 1 and ((chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                                  <= (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])):
            chain.pop()
        chain.append(p)
    return chain


class OrthantPolyhedron(Record):
    dimension: int
    vertices: tuple[Point, ...]

    @staticmethod
    def from_points(dimension: int, points) -> "OrthantPolyhedron":
        points = list(points)
        for v in points:
            if len(v) != dimension:
                raise PreconditionError("point dimension mismatch")
            if any(c < 0 for c in v):
                raise PreconditionError("orthant polyhedron points must be nonnegative")
        return OrthantPolyhedron(dimension, tuple(minimize_vertices(points)))

    def is_empty(self) -> bool:
        return not self.vertices


# ---------------------------------------------------------------------------
# Polyhedra of pairs


def polyhedron_of_pair(E: Pair, frame: Frame) -> OrthantPolyhedron:
    """Vertices of the projected polyhedron generated by A/(b - |B|) over all
    terms with |B| < b, where A collects u-exponents and B y-exponents."""
    e = len(frame.u_indices)
    pts: list[Point] = []
    for comp in E.components:
        b = comp.weight
        for g in comp.gens:
            for exps in g.terms:
                B = sum(exps[i] for i in frame.y_indices)
                if B < b:
                    denom = b - B
                    pts.append(tuple(Fraction(exps[i]) / denom for i in frame.u_indices))
    return OrthantPolyhedron.from_points(e, pts)


def newton_polyhedron(E: Pair, frame: Frame) -> OrthantPolyhedron:
    """Exponent polyhedron in the (u, y)-ordered coordinates, all terms."""
    dim = len(frame.u_indices) + len(frame.y_indices)
    order = list(frame.u_indices) + list(frame.y_indices)
    pts = [
        tuple(exps[i] for i in order)
        for comp in E.components
        for g in comp.gens
        for exps in g.terms
    ]
    return OrthantPolyhedron.from_points(dim, pts)


# ---------------------------------------------------------------------------
# Numerical data


def delta(P: OrthantPolyhedron):
    """Minimal coordinate sum over the polyhedron; INF when empty."""
    if P.is_empty():
        return INF
    return _coeff(min(sum(v) for v in P.vertices))


def pair_minima(E: Pair, y_indices, coord_sets) -> list:
    """For each coordinate set of the list ``coord_sets`` (each a sequence
    of variable indices), the least coordinate sum over the generating
    points A/(b - |B|), |B| < b, of ``polyhedron_of_pair`` with y-part
    ``y_indices``; INF when there is no such point.  One walk over the
    terms reads every set.

    Each term's sums are compared with the least quotients so far by
    cross-multiplication, in ints on integral data, and each least quotient
    is divided out once, in ``_coeff``'s normal form.
    """
    best = [[INF, 1] for _ in coord_sets]  # the least quotient so far, num/den with den > 0
    for comp in E.components:
        b = comp.weight
        for g in comp.gens:
            for exps in g.terms:
                pick = exps.__getitem__
                d = b - sum(map(pick, y_indices)) if y_indices else b
                if d > 0:
                    for coords, q in zip(coord_sets, best):
                        s = sum(map(pick, coords))
                        if s * q[1] < q[0] * d:
                            q[:] = s, d
    return [INF if num == INF else num // den if not num % den else Fraction(num, den)
            for num, den in best]


def projected_steps(points, steps, n: int):
    """The nu of each step (contact y, adjoined, tracked), indices, read off
    successive projections of the point set N (n-tuples), and the last
    mu_H as an n-tuple.  N gains e_E for each adjoined E, then becomes
    pi_y(N) = {a'/(1 - t) : (a', t) in N, t < 1}, with 0 at y.  mu is its
    least coordinate sum (INF when it is empty), mu_H the least coordinate
    of each tracked divisor, nu = mu - sum mu_H.  The run stops at nu = INF
    or 0; else N becomes (pi_y(N) - mu_H)/nu, plus mu_H/(1 - nu) when
    nu < 1 and some mu_H != 0."""
    N, nus, mu_h = set(points), [], (0,) * n
    for y, adjoined, tracked in steps:
        N |= {tuple(Fraction(i == e) for i in range(n)) for e in adjoined}
        N = {tuple(0 if i == y else c / (1 - p[y]) for i, c in enumerate(p))
             for p in N if p[y] < 1}
        if not N:
            nus.append(INF)
            break
        mu_h = tuple(min(p[i] for p in N) if i in tracked else 0 for i in range(n))
        nu = min(sum(p) for p in N) - sum(mu_h)
        nus.append(nu)
        if nu == 0:
            break
        N = {tuple((c - m) / nu for c, m in zip(p, mu_h)) for p in N}
        if nu < 1 and any(mu_h):
            N.add(tuple(m / (1 - nu) for m in mu_h))
    return nus, mu_h
