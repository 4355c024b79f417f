"""Coefficient pairs, maximal-contact selection (characteristic zero), and
vertex preparation toward the minimal polyhedron.

Maximal contact follows the derivative recipe: pick a generator f whose
order b equals its weight, find a small-integer direction v where its top
form (degree-b part) is nonzero, apply the corresponding linear change, and
take the (b-1)-fold derivative as the new hypersurface.  The resulting
witness w is then made a coordinate by one shift x_p -> x_p - t, t the
pivot-free part of w: the shift works exactly when w(-t, x') = 0, and a
reduction that works never needs a second shift (proof in
``tests/test_coeff.py``, ``test_contact_pair_is_rewritten_once``).  Inputs
whose contact would need an infinite (completion-level) change are rejected
with a clear error.

Each direction is first probed on a line (``_line_value``): w(-t(a'), a') = 0
is an identity among the coefficients of f(a' + s*v), and a direction that
fails it never changes or differentiates f.

The rewrite stays integral: with L' the least common denominator of t and
T' = L'*t, one substitution x_i -> L'*x_i + v_i*(x_p - T') (i != p), x_p ->
v_p*(x_p - T') of g, each term pre-scaled by L'^(D - its degree in the
mapped variables), gives L'^D * g o rho, rho the rational rewrite composed
with x_p -> x_p/L' (``_cleared``).  Constants and a scaled coordinate change
no support, hence no polyhedron, level or later decision; L' = 1 gives the
rational rewrite itself.

The direction sweep is lazy.  It yields only the directions a contact may
take, supported on the unmarked u-variables or the unit vector of an
adjoined marked divisor, in a fixed order: max-norm h = 1, 2, ..., then
sparsity, then first nonzero index, then lex.  Every such direction reads
R, the top form with the marked and the y-variables at 0, or the x_i^b
coefficient of an adjoined marked x_i.  When both are zero no direction can
work, and "no maximal contact witness" is raised before any sweep.  Otherwise the sweep
ends by proof, with no height limit.  If R = 0, only the adjoined unit
vectors can read a nonzero top form, and only they are swept.  If R != 0,
R is nonzero somewhere on the grid {-h..h}^m once 2h + 1 > b (Alon,
Combinatorial Nullstellensatz, 1999), and R(k*v) = k^b * R(v), so such
directions recur at every larger height: the sweep ends by accepting one or
at the 12th failed screen.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from operator import itemgetter, mul

from .cone import directrix, initial_ideal
from .errors import DirectrixNotSpanned, InternalError, PreconditionError
from .frames import Frame
from .linalg import solve
from .pairs import Component, Pair, pair_order
from .poly import (
    Polynomial,
    _coeff,
    _ints,
    format_rational,
    hasse_derivative,
    initial_form,
    ord_at_origin,
    substitute,
)
from .polyhedra import OrthantPolyhedron, delta, polyhedron_of_pair
from .record import Record


def coefficient_pair(E: Pair, frame: Frame) -> Pair:
    """Expand the generators in powers of the frame's y-variables and
    collect, per component and per level l < b, the coefficient polynomials
    with weight b - l.  The result keeps the frame's variables, with
    exponent 0 on the y-part: along the descent, the consumed contacts.

    One pass per generator reads each term's y-exponents B once.  A term at
    a level |B| >= b is dropped before anything is built for it, but every
    B is checked: only exceptional-marked y-variables may carry fractional
    exponents, and the grouping is then by the exact rational level.  A
    level takes its coefficients generator by generator, in sorted B order.
    """
    zs = sorted(frame.y_indices)
    marked = frame.marked_indices()
    strict = [k for k, i in enumerate(zs) if i not in marked]  # int-only positions of B
    # B by one C call, a tuple also for one y-variable or none, by a slice
    pick = itemgetter(*zs) if len(zs) > 1 else itemgetter(slice(zs[0], zs[0] + 1) if zs else slice(0))
    out: list[Component] = []
    for comp in E.components:
        b, n = comp.weight, comp.nvars
        mask = [int(i not in zs) for i in range(n)]
        levels: dict = {}  # level |B|, an int or a Fraction -> coefficients
        for g in comp.gens:
            groups: dict = {}  # B -> its terms, or None at a level >= b
            for exps, c in g.terms.items():
                key = pick(exps)
                kept = groups.get(key, groups)
                if kept is groups:  # the first term with this B
                    level = sum(key)  # an int exactly when every entry is
                    if type(level) is not int and any(type(key[k]) is Fraction for k in strict):
                        raise PreconditionError(
                            "coefficient expansion needs integer exponents on the z-variables")
                    kept = groups[key] = {} if level < b else None
                if kept is not None:
                    kept[exps] = c
            for key in sorted(groups):
                if (kept := groups[key]) is not None:
                    level = sum(key)
                    if level:  # y-part to 0; no two terms meet, but 0 * a Fraction is no int
                        kept = {tuple(map(mul, e, mask)): c for e, c in kept.items()}
                    levels.setdefault(level, []).append(
                        Polynomial._wrap(n, kept) if type(level) is int else Polynomial(n, kept))
        out.extend(Component._make((tuple(levels[l]), _coeff(b - l))) for l in sorted(levels))
    return Pair._make((tuple(out),))


# ---------------------------------------------------------------------------
# Maximal contact

class MaximalContact(Record):
    pair: Pair                 # the pair rewritten in the adapted coordinates
    frame: Frame               # same variables, contact index moved to the y-part
    contact_index: int         # the variable that now cuts out the hypersurface
    direction: tuple
    # the substitution rho that gave ``pair``, {} if none: variable index ->
    # polynomial in ``frame``'s variables.  pair = L'^D_g * substitute(g,
    # change) per generator g, L' the tail's least common denominator and
    # D_g g's largest degree in the mapped variables.  Not compared or
    # hashed: equality is that of the other fields
    change: dict

    def __new__(cls, pair, frame, contact_index, direction, change=None):
        return super().__new__(cls, pair, frame, contact_index, direction,
                               {} if change is None else change)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self[:-1] == other[:-1]
        return super().__eq__(other)

    def __hash__(self):
        return hash(self[:-1])


def _direction_candidates(n: int, fixed=frozenset(), preferred=()):
    """The directions that a contact may take, in the sweep order of the
    module docstring, first nonzero entry positive: every max-norm h = 1,
    2, ... while some variable is not ``fixed``, else only the unit vectors
    of the ``preferred`` fixed ones.  A branch is cut once it cannot place
    its remaining nonzeros, so the cost follows the directions yielded, not
    (2h+1)^n."""
    free = [i for i in range(n) if i not in fixed]
    units = [i for i in range(n) if i in fixed and i in preferred]
    for h in count(1) if free else (1,):
        values = [*range(-h, 0), 0, *range(1, h + 1)]
        for s in range(1, max(len(free), 1) + 1):
            for first in sorted(free + units) if h == s == 1 else free:
                vec = [0] * n
                if first in fixed:
                    vec[first] = 1
                    yield tuple(vec)
                    continue
                rest = [i for i in free if i > first]
                if len(rest) < s - 1:
                    break
                for lead in range(1 if s > 1 else h, h + 1):
                    vec[first] = lead
                    yield from _fill(vec, rest, 0, s - 1, h, lead == h, values)


def _fill(vec, rest, pos, k, h, reached, values):
    """Every way to place ``k`` nonzeros of ``values`` at ``rest[pos:]`` in
    lex order, reaching max-norm ``h`` unless ``reached``."""
    if not k:
        yield tuple(vec)
        return
    i, room = rest[pos], len(rest) - pos - 1
    for v in values:
        if v == 0:
            if room < k:
                continue
        elif k == 1 and not reached and abs(v) != h:
            continue
        vec[i] = v
        yield from _fill(vec, rest, pos + 1, k - (v != 0), h, reached or abs(v) == h, values)
    vec[i] = 0


def _evaluate(f: Polynomial, point):
    """f at an int point, by int powers."""
    total = 0
    for exps, c in f.terms.items():
        for e, p in zip(exps, point):
            if e:
                c *= p ** e
        total += c
    return total


def _line_value(f: Polynomial, b: int, vec, pivot: int, lead) -> int | Fraction:
    """The witness probe at a', read off f on the line a' + s*v: zero
    exactly when w(-t(a'), a') is, for w = witness/lead, t = T/lead, T the
    witness's pivot-free part and ``lead`` = b*top(v) its pivot coefficient.

    a' is (2, 3, ...) off the pivot and 0 at it.  The change of direction v
    maps (a', s) to a' + s*v, so the witness's pivot coefficients at a' are
    W_k = C(k+b-1, b-1) * phi_(k+b-1), phi(s) = f(a' + s*v), and the value
    sum_k W_k * (-W_0)^k * lead^(D-k), D the largest k with a term, is
    lead^(D+1) * w(-t(a'), a'); 0 when no term of f reaches s^(b-1).  A
    nonzero value forces T != 0: ``_clearing_tail`` finds no shift."""
    if not any(e[pivot] < b <= sum(d for d, x in zip(e, vec) if x) + 1 for e in f.terms):
        return 0
    phi: dict = {}  # k -> the s^k coefficient of phi
    for exps, c in f.terms.items():
        # a'_pivot = 0: the pivot's factor is (v_pivot*s)^e
        line = [c * vec[pivot] ** exps[pivot]]
        for i, e in enumerate(exps):
            if not e or i == pivot:
                continue
            # the coefficients of (a'_i + v_i*s)^e
            a, x = i + 2 if i < pivot else i + 1, vec[i]
            if not x:
                line = [y * a ** e for y in line]
                continue
            # C(e, k) * a^(e-k) * x^k, each from the last: the division
            # is exact, as the quotient is the next coefficient
            p = [a ** e]
            for k in range(e):
                p.append(p[-1] * (e - k) * x // ((k + 1) * a))
            product = [0] * (len(line) + len(p) - 1)
            for j, y in enumerate(line):
                for k, z in enumerate(p):
                    product[j + k] += y * z
            line = product
        for k, y in enumerate(line, exps[pivot]):
            phi[k] = phi.get(k, 0) + y
    x, top = -phi.get(b - 1, 0), max(phi)  # x = -W_0
    return x and sum(math.comb(k, b - 1) * y * x ** (k - b + 1) * lead ** (top - k)
                     for k, y in phi.items() if k >= b - 1)


def _clearing_tail(witness: Polynomial, pivot: int) -> Polynomial | None:
    """The t that makes the witness a coordinate by one shift, or None:
    with L its pivot coefficient (nonzero), T its pivot-free part and
    w = witness/L, t = T/L when t = 0 or w(-t, x') = 0, the pivot-free part
    of w after pivot -> pivot - t.  Witnesses over 150 terms with t != 0
    get None.  The check is ``_line_value``'s: L^D * w(-T/L, x') = 0.

    Its caller builds a witness only when ``_line_value`` is 0; a nonzero
    line value forces t != 0, so the cap would reject that witness too."""
    n, terms = witness.nvars, witness.terms
    if all(e[pivot] for e in terms):
        return Polynomial.zero(n)
    if len(terms) > 150:
        return None
    lead = terms[tuple(1 if j == pivot else 0 for j in range(n))]
    tail = Polynomial._wrap(n, {e: c for e, c in terms.items() if e[pivot] == 0})
    if not _cleared(witness, {pivot: -tail}, lead).is_zero():
        return None
    return tail.scale(Fraction(1) / lead)


def _cleared(g: Polynomial, assignment, L) -> Polynomial:
    """L^D * g o (assignment/L), D the largest degree of a term of g in the
    mapped variables, by one ``substitute`` of g with each term pre-scaled
    by L^(D - its degree).  A fractional exponent on a mapped variable goes
    to ``substitute`` unscaled, which refuses it for L != 1."""
    # one pass: a degree is an int exactly when its exponents are
    degree = L != 1 and [sum([e[i] for i in assignment]) for e in g.terms]
    if not degree or Fraction in set(map(type, degree)):
        return substitute(g, assignment)
    top = max(degree)
    return substitute(Polynomial._wrap(g.nvars, _ints({
        e: c * L ** (top - d) for (e, c), d in zip(g.terms.items(), degree)})), assignment)


def find_maximal_contact(E: Pair, frame: Frame, preferred_variables=()) -> MaximalContact:
    """Select a maximal-contact hypersurface and normalize it to a coordinate.

    ``preferred_variables`` are the adjoined divisor variables.  They
    short-circuit the search: if one of them appears as a weight-1 component
    generator it is taken as the contact directly.  The direction sweep
    leaves every other marked variable untouched: the contact must stay
    transversal to the divisors that were not adjoined, and the y-part, the
    descent's consumed contacts.  It yields, in order, the small-integer
    directions on the unmarked u-variables and the unit vectors of the
    adjoined marked ones (``_direction_candidates``).  When the witness
    generator's top form vanishes with the marked and the y-variables at 0
    and has no x_i^b term for an adjoined marked i, no direction can work,
    and the input is rejected before the sweep; past that check the sweep
    ends by proof (see the module docstring).  Everything it returns is in
    the frame's variables, the contact appended to the y-part.

    A direction's witness w (pivot coefficient 1, pivot-free part t) is
    accepted when t = 0 or w(-t, x') = 0, and the pair is rewritten once by
    the linear change composed with pivot -> pivot - t, over the ints
    (module docstring).  A nonzero
    ``_line_value``, read off f before any expansion, rejects the direction;
    otherwise w is built for the exact check of ``_clearing_tail``.  After
    12 failed directions the input is rejected.
    """
    orders = [list(map(ord_at_origin, comp.gens)) for comp in E.components]  # read once
    if any(min(o) < comp.weight for o, comp in zip(orders, E.components)):
        raise PreconditionError("point not in Sing")
    n = E.nvars

    for idx in preferred_variables:
        unit_idx = tuple(1 if j == idx else 0 for j in range(n))
        for comp in E.components:
            if comp.weight == 1 and any(len(g.terms) == 1 and g.terms.get(unit_idx)
                                        for g in comp.gens):
                return MaximalContact(E, frame.move_to_y(idx), idx, unit_idx)

    # choose the witness generator: first component with integral weight whose
    # ideal order equals the weight, first generator attaining it
    chosen = next(((g, int(comp.weight)) for comp, o in zip(E.components, orders)
                   if comp.weight.denominator == 1 for g, order in zip(comp.gens, o)
                   if order == comp.weight and not g.has_fractional_exponent()), None)
    if chosen is None:
        order = pair_order(E)
        if order > 1:
            raise PreconditionError(
                "no maximal contact witness: every generator's order exceeds "
                f"its weight (pair order {format_rational(order)} > 1)"
            )
        raise PreconditionError("no maximal contact witness")
    f, b = chosen
    top = initial_form(f, b)
    marked = frame.marked_indices()
    units = [i for i in preferred_variables if i in marked]
    # every direction reads R, top with the marked and the y-variables at 0,
    # or top's x_i^b coefficient for an adjoined marked i
    fixed = marked.union(frame.y_indices)
    restricted = any(all(e[i] == 0 for i in fixed) for e in top.terms)  # R != 0
    if not restricted and not any(e[i] == b for e in top.terms for i in units):
        raise PreconditionError("no maximal contact witness")

    failed_screens = 0
    unit = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
    # with R = 0 only the adjoined unit vectors can work: sweep them alone
    for vec in _direction_candidates(n, fixed if restricted else range(n), units):
        lead = b * _evaluate(top, vec)
        if not lead:
            continue
        pivot = next(i for i, x in enumerate(vec) if x != 0)
        change = tail = None
        if not _line_value(f, b, vec, pivot, lead):
            if any(x != 0 and i != pivot for i, x in enumerate(vec)) or vec[pivot] != 1:
                # x_pivot -> v_pivot * x_pivot, x_i -> x_i + v_i * x_pivot
                change = {
                    i: Polynomial._wrap(n, {unit[i]: 1, unit[pivot]: x} if i != pivot
                                        else {unit[pivot]: x})
                    for i, x in enumerate(vec) if x
                }
            fvec = substitute(f, change) if change else f
            witness = hasse_derivative(fvec, tuple(b - 1 if j == pivot else 0 for j in range(n)))
            if ord_at_origin(witness) != 1:
                raise InternalError("contact derivative does not have order one")
            if not witness.terms.get(unit[pivot]):
                raise InternalError("contact derivative lost the pivot direction")
            tail = _clearing_tail(witness, pivot)
        if tail is None:
            failed_screens += 1
            if failed_screens == 12:
                break
            continue

        # the tail is free of the pivot: rewrite the pair once, over the ints
        pair, rho = E, {}
        if change or not tail.is_zero():
            L = math.lcm(*(c.denominator for c in tail.terms.values()))
            shift = Polynomial.variable(n, pivot) - tail.scale(L)
            assignment = {i: shift.scale(x) if i == pivot else
                          Polynomial._wrap(n, {unit[i]: L}) + shift.scale(x)
                          for i, x in enumerate(vec) if x}
            pair = _substitute_pair(E, assignment, L)
            rho = {i: g.scale(Fraction(1, L)) for i, g in assignment.items()} if L > 1 else assignment
        return MaximalContact(pair, frame.move_to_y(pivot), pivot, tuple(vec), rho)
    raise PreconditionError("maximal contact requires a completion-level coordinate change")


def _substitute_pair(E: Pair, assignment, L=1) -> Pair:
    return Pair._make((tuple(
        Component._make((tuple(_cleared(g, assignment, L) for g in comp.gens), comp.weight))
        for comp in E.components
    ),))


# ---------------------------------------------------------------------------
# Vertex preparation

# Most translations y -> y + c*u^v one preparation makes; a polyhedron still
# unprepared after them gives ``delta_invariant`` only a lower bound.
MAX_PREP_ITERS = 32
# Most term products one translation may form, counted before it is made: a
# term expands to prod (e_j + 1) terms, e_j its exponents on the translated
# y_j.  32 translations at it form about ``poly.MAX_PRODUCT_TERMS`` products.
MAX_PREP_PRODUCTS = 30_000


class PrepareResult(Record):
    pair: Pair
    frame: Frame
    polyhedron: OrthantPolyhedron
    translations: tuple
    solvable: tuple | None = None      # a vertex still solvable at the end

    @property
    def prepared(self) -> bool:
        return self.solvable is None


def _check_spanning(E: Pair, frame: Frame) -> None:
    I = initial_ideal(E)
    if not I.is_zero() and not directrix(I).spans_within(frame.y_indices):
        raise DirectrixNotSpanned("y does not span directrix")


def _solvability_system(E: Pair, frame: Frame, vertex):
    """Linear system on the translation coefficients removing the vertex.

    Returns (rows, rhs), or None when no face carries the vertex or a face
    has a non-integral weight or exponent.  A fractional exponent on a face
    makes its system inconsistent unless the face also holds a degree-b
    pure-y term with a fractional exponent, and past ``_check_spanning``
    only a generator of order below b carries one.
    """
    u_idx = list(frame.u_indices)
    y_idx = list(frame.y_indices)
    r = len(y_idx)
    rows: list[list] = []
    rhs: list = []
    for comp in E.components:
        b = comp.weight
        for g in comp.gens:
            face = {}
            for exps, c in g.terms.items():
                B = tuple(exps[i] for i in y_idx)
                lb = sum(B)
                if lb > b:
                    continue
                A = tuple(exps[i] for i in u_idx)
                if lb == b:
                    if any(a != 0 for a in A):
                        continue
                    tdeg = 0
                else:
                    scaled = tuple((b - lb) * v for v in vertex)
                    if A != scaled:
                        continue
                    tdeg = b - lb
                face[(tdeg,) + B] = c
            if not face:
                continue
            # the face polynomial Q(T, y); condition: d/dT Q + sum_j
            # lambda_j d/dy_j Q = 0, one row per monomial
            Q = Polynomial(r + 1, face)
            if b.denominator != 1 or Q.has_fractional_exponent():
                return None  # fractional ladder or exponent on the face: unsolvable
            dT, *dy = (hasse_derivative(Q, [int(j == k) for j in range(r + 1)]).terms
                       for k in range(r + 1))
            for mono in sorted(set(dT).union(*dy)):
                rows.append([d.get(mono, 0) for d in dy])
                rhs.append(-dT.get(mono, 0))
    if not rows:
        return None
    return rows, rhs


def _solve_vertex(pair: Pair, frame: Frame, P: OrthantPolyhedron):
    """First solvable vertex in lex order, as (vertex, translated pair, new
    polyhedron, coefficients); None when every vertex is prepared."""
    for vertex in P.vertices:
        if any(not isinstance(c, int) for c in vertex):
            continue
        system = _solvability_system(pair, frame, vertex)
        if system is None:
            continue
        lam = solve(*system)
        if lam is None or all(x == 0 for x in lam):
            continue
        n, at = pair.nvars, dict(zip(frame.u_indices, vertex))
        mono = tuple(at.get(i, 0) for i in range(n))
        assignment = {yi: Polynomial.variable(n, yi) + Polynomial.monomial(n, mono, lam[j])
                      for j, yi in enumerate(frame.y_indices) if lam[j] != 0}
        work = sum(math.prod([e[i] + 1 for i in assignment])
                   for g in pair.all_generators() for e in g.terms)
        if work > MAX_PREP_PRODUCTS:
            raise PreconditionError(
                f"the translation at vertex ({', '.join(map(format_rational, vertex))}) "
                f"would form {work} term products, past the limit of {MAX_PREP_PRODUCTS}")
        candidate = _substitute_pair(pair, assignment)
        P2 = polyhedron_of_pair(candidate, frame)
        if vertex in P2.vertices:
            continue
        return vertex, candidate, P2, tuple(lam)
    return None


def prepare_vertices(E: Pair, frame: Frame) -> PrepareResult:
    """Iteratively remove solvable vertices by translations y -> y + c*u^v,
    at most ``MAX_PREP_ITERS`` of them.

    Candidate coefficients come from an exact linear system on the vertex
    face; a candidate is committed when the recomputed polyhedron drops the
    vertex.  The polyhedron never grows under such a translation (proof in
    ``tests/test_coeff.py``, ``test_prepare_never_grows_polyhedron``).
    """
    _check_spanning(E, frame)
    pair = E
    translations: list[tuple] = []
    P = polyhedron_of_pair(pair, frame)
    for _ in range(MAX_PREP_ITERS):
        hit = _solve_vertex(pair, frame, P)
        if hit is None:
            return PrepareResult(pair, frame, P, tuple(translations))
        vertex, pair, P, lam = hit
        translations.append((vertex, lam))
    hit = _solve_vertex(pair, frame, P)
    return PrepareResult(pair, frame, P, tuple(translations), None if hit is None else hit[0])


def delta_invariant(E: Pair, frame: Frame):
    """The minimal coordinate sum of the prepared polyhedron on the u-part.

    Independent of the y-choice whenever the y-part spans the directrix.
    Preparation only shrinks the polyhedron, so it can raise the value:
    (y + x^2)^2 has 2 before y -> y - x^2 and an empty polyhedron after.
    A polyhedron still unprepared after ``MAX_PREP_ITERS`` translations
    would give only a lower bound, so it is rejected, naming a solvable
    vertex.
    """
    result = prepare_vertices(E, frame)
    if not result.prepared:
        raise PreconditionError(
            f"vertex ({', '.join(format_rational(c) for c in result.solvable)}) is still "
            f"solvable after {MAX_PREP_ITERS} preparation steps"
        )
    return delta(result.polyhedron)
