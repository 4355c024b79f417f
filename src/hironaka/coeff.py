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

The direction sweep is lazy.  It yields only the directions a contact may
take, supported on the unmarked variables or the unit vector of an adjoined
marked divisor, in a fixed order: max-norm h = 1, 2, ..., ``CONTACT_HEIGHT``,
then sparsity, then first nonzero index, then lex.  Every such direction
reads the top form with the marked variables at 0, or the x_i^b coefficient
of an adjoined marked x_i.  When both are zero no direction can work, and
"no maximal contact witness" is raised before any sweep.  Otherwise the
sweep finds a direction with a nonzero top form whenever b <= 2 *
``CONTACT_HEIGHT``: a nonzero form of degree b is nonzero somewhere on a grid
S^m with |S| > b (Alon, Combinatorial Nullstellensatz, 1999), and {-h..h}
has 2h + 1 points.  So "no maximal contact witness" is a proof for b <= 8
and a cap of the sweep above that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cone import DirectrixBasis, directrix, initial_ideal
from .errors import DirectrixNotSpanned, InternalError, PreconditionError
from .frames import Frame
from .linalg import solve
from .pairs import Component, Pair, is_singular_at_origin, pair_order
from .poly import (
    Polynomial,
    format_rational,
    hasse_derivative,
    initial_form,
    ord_at_origin,
    split_by_variables,
    substitute,
)
from .polyhedra import OrthantPolyhedron, delta, polyhedron_of_pair


def coefficient_pair(E: Pair, frame: Frame, z_indices) -> Pair:
    """Expand the generators in powers of the z-variables and collect, per
    component and per level l < b, the coefficient polynomials with weight
    b - l.  The result lives in the remaining variables.

    Exceptional-marked z-variables may carry fractional exponents; the
    grouping is then by the exact rational level.
    """
    zs = sorted(set(z_indices))
    marked = frame.marked_indices()
    for comp in E.components:
        for g in comp.gens:
            for i in zs:
                if i not in marked and g.has_fractional_exponent(i):
                    raise PreconditionError(
                        "coefficient expansion needs integer exponents on the z-variables"
                    )
    out: list[Component] = []
    for comp in E.components:
        levels: dict[Fraction, list[Polynomial]] = {}
        for g in comp.gens:
            for B, coeff in sorted(split_by_variables(g, zs).items()):
                l = Fraction(sum(B))
                if l < comp.weight and not coeff.is_zero():
                    levels.setdefault(l, []).append(coeff)
        for l in sorted(levels):
            out.append(Component(tuple(levels[l]), comp.weight - l))
    return Pair(tuple(out))


# ---------------------------------------------------------------------------
# Maximal contact

# Largest max-norm of a candidate contact direction: the sweep tries the
# small-integer vectors of max-norm 1, then 2, ..., up to this.  That finds
# a direction whenever one exists and b <= 2 * CONTACT_HEIGHT.
CONTACT_HEIGHT = 4


@dataclass(frozen=True)
class MaximalContact:
    pair: Pair                 # the pair rewritten in the adapted coordinates
    frame: Frame               # same variables, contact index moved to the y-part
    contact_index: int         # the variable that now cuts out the hypersurface
    witness: Polynomial        # degree-1 element in the pre-substitution coordinates
    direction: tuple
    # the substitution that gave ``pair``: variable index -> polynomial,
    # both in ``frame``'s variables; {} when the pair was not rewritten
    change: dict = field(default_factory=dict, compare=False)


def _direction_candidates(n: int, height: int, marked=frozenset(), preferred=()):
    """The directions up to max-norm ``height`` that a contact may take, in
    the sweep order of the module docstring, first nonzero entry positive.
    A branch is cut once it cannot place its remaining nonzeros, so the
    cost follows the directions yielded, not (2h+1)^n."""
    free = [i for i in range(n) if i not in marked]
    units = [i for i in range(n) if i in marked and i in preferred]
    for h in range(1, height + 1):
        values = [*range(-h, 0), 0, *range(1, h + 1)]
        for s in range(1, max(len(free), 1) + 1):
            for first in sorted(free + units) if h == s == 1 else free:
                vec = [0] * n
                if first in marked:
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


def _shift_clears(witness: Polynomial, pivot: int) -> bool:
    """Whether the witness becomes a coordinate by one shift: with L its
    pivot coefficient, T its pivot-free part and w = witness/L, t = T/L,
    whether t = 0 or w(-t, x') = 0, the pivot-free part of w after
    pivot -> pivot - t.  Witnesses over 150 terms with t != 0 fail.

    The screen stays in the witness's own (int) coefficients.  Write the
    witness as sum_k W_k(x') pivot^k, of pivot degree D.  Then

        L^(D+1) * w(-t, x') = sum_k W_k(x') * (-T(x'))^k * L^(D-k),

    so its value at a fixed int point a' is nonzero exactly when
    w(-t(a'), a') is: a nonzero value proves the shift fails, and only a
    zero value needs the substitution."""
    n = witness.nvars
    parts = split_by_variables(witness, [pivot])  # (k,) -> W_k
    if (0,) not in parts:
        return True
    if len(witness.terms) > 150:
        return False
    point = [i + 2 for i in range(n) if i != pivot]
    values = {k: _evaluate(part, point) for (k,), part in parts.items()}
    lead, top, x = parts[(1,)].constant_term(), max(values), -values[0]
    if sum(v * x ** k * lead ** (top - k) for k, v in values.items()):
        return False
    tail = Polynomial._wrap(n, {e: c for e, c in witness.terms.items() if e[pivot] == 0})
    return substitute(witness, {pivot: tail.scale(Fraction(-1) / lead)}).is_zero()


def find_maximal_contact(E: Pair, frame: Frame, preferred_variables=()) -> MaximalContact:
    """Select a maximal-contact hypersurface and normalize it to a coordinate.

    ``preferred_variables`` are the adjoined divisor variables.  They
    short-circuit the search: if one of them appears as a weight-1 component
    generator it is taken as the contact directly.  The direction sweep
    leaves every other marked variable untouched: the contact must stay
    transversal to the divisors that were not adjoined.  It yields, in
    order, the small-integer directions up to max-norm ``CONTACT_HEIGHT``
    on the unmarked variables and the unit vectors of the adjoined marked
    ones (``_direction_candidates``).  When the witness generator's top form
    vanishes with the marked variables at 0 and has no x_i^b term for an
    adjoined marked i, no direction can work, and the input is rejected
    before the sweep.  For b <= 2 * ``CONTACT_HEIGHT`` that is the only way
    to find no direction (see the module docstring); above it, a sweep that
    finds none ends in the same rejection, as a cap.

    A direction's witness w (pivot coefficient 1, pivot-free part t) is
    accepted when t = 0 or w(-t, x') = 0, and the pair is rewritten once by
    the linear change composed with pivot -> pivot - t.  ``_shift_clears``
    decides this on the unscaled witness, by an exact int probe before any
    expansion; only an accepted witness is divided by its pivot
    coefficient.  After 12 failed directions the input is rejected.
    """
    if not is_singular_at_origin(E):
        raise PreconditionError("point not in Sing")
    n = E.nvars

    for idx in preferred_variables:
        var = Polynomial.variable(n, idx)
        for comp in E.components:
            if comp.weight == 1 and any(
                len(g.terms) == 1 and g.terms.get(tuple(1 if j == idx else 0 for j in range(n)))
                for g in comp.gens
            ):
                return MaximalContact(E, frame.move_to_y(idx), idx, var, tuple(
                    1 if j == idx else 0 for j in range(n)))

    # choose the witness generator: first component with integral weight whose
    # ideal order equals the weight, first generator attaining it
    chosen = None
    for comp in E.components:
        if comp.weight.denominator != 1:
            continue
        for g in comp.gens:
            if ord_at_origin(g) == comp.weight and not g.has_fractional_exponent():
                chosen = (g, int(comp.weight))
                break
        if chosen:
            break
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
    # every direction reads top with the marked variables at 0, or top's
    # x_i^b coefficient for an adjoined marked i
    if not any(all(e[i] == 0 for i in marked) or any(e[i] == b for i in units)
               for e in top.terms):
        raise PreconditionError("no maximal contact witness")

    saw_direction = False
    failed_screens = 0
    for vec in _direction_candidates(n, CONTACT_HEIGHT, marked, units):
        if _evaluate(top, vec) == 0:
            continue
        saw_direction = True
        pivot = next(i for i, x in enumerate(vec) if x != 0)
        change = None
        if any(x != 0 and i != pivot for i, x in enumerate(vec)) or vec[pivot] != 1:
            change = {
                i: (Polynomial.variable(n, i) + Polynomial.variable(n, pivot).scale(vec[i])
                    if i != pivot else Polynomial.variable(n, pivot).scale(vec[pivot]))
                for i in range(n) if vec[i] != 0 or i == pivot
            }
        fvec = substitute(f, change) if change else f

        M = tuple(b - 1 if j == pivot else 0 for j in range(n))
        witness = hasse_derivative(fvec, M)
        if ord_at_origin(witness) != 1:
            raise InternalError("contact derivative does not have order one")
        lead = witness.terms.get(tuple(1 if j == pivot else 0 for j in range(n)))
        if not lead:
            raise InternalError("contact derivative lost the pivot direction")
        if not _shift_clears(witness, pivot):
            failed_screens += 1
            if failed_screens >= 12:
                raise PreconditionError(
                    "maximal contact requires a completion-level coordinate change"
                )
            continue

        # the tail is free of the pivot: compose the linear change with
        # pivot -> pivot - tail and rewrite the pair once
        witness = witness.scale(Fraction(1) / lead)
        tail = Polynomial._wrap(n, {e: c for e, c in witness.terms.items() if e[pivot] == 0})
        assignment = change or {}
        if not tail.is_zero():
            shift = {pivot: Polynomial.variable(n, pivot) - tail}
            assignment = {i: substitute(g, shift) for i, g in assignment.items()} or shift
        pair = _substitute_pair(E, assignment) if assignment else E
        return MaximalContact(pair, frame.move_to_y(pivot), pivot, witness, tuple(vec), assignment)

    if saw_direction:
        raise PreconditionError(
            "maximal contact requires a completion-level coordinate change"
        )
    raise PreconditionError("no maximal contact witness")


def _substitute_pair(E: Pair, assignment) -> Pair:
    return Pair(tuple(
        Component(tuple(substitute(g, assignment) for g in comp.gens), comp.weight)
        for comp in E.components
    ))


# ---------------------------------------------------------------------------
# Vertex preparation

# Most translations y -> y + c*u^v one preparation makes; a polyhedron still
# unprepared after them gives ``delta_invariant`` only a lower bound.
MAX_PREP_ITERS = 32


@dataclass(frozen=True)
class PrepareResult:
    pair: Pair
    frame: Frame
    polyhedron: OrthantPolyhedron
    translations: tuple
    solvable: tuple | None = None      # a vertex still solvable at the end

    @property
    def prepared(self) -> bool:
        return self.solvable is None


def _directrix_of_pair(E: Pair) -> DirectrixBasis | None:
    I = initial_ideal(E)
    if I.is_zero():
        return None
    return directrix(I)


def _check_spanning(E: Pair, frame: Frame) -> None:
    basis = _directrix_of_pair(E)
    if basis is not None and not basis.spans_within(frame.y_indices):
        raise DirectrixNotSpanned("y does not span directrix")


def _solvability_system(E: Pair, frame: Frame, vertex):
    """Linear system on the translation coefficients removing the vertex.

    Returns (rows, rhs, contributing) or None when the vertex face carries a
    component with non-integral weight (never solvable).
    """
    u_idx = list(frame.u_indices)
    y_idx = list(frame.y_indices)
    r = len(y_idx)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    contributing = False
    for comp in E.components:
        b = comp.weight
        for g in comp.gens:
            face: dict[tuple, Fraction] = {}
            for exps, c in g.terms.items():
                B = tuple(exps[i] for i in y_idx)
                lb = sum(B)
                if lb > b:
                    continue
                A = tuple(Fraction(exps[i]) for i in u_idx)
                if lb == b:
                    if any(a != 0 for a in A):
                        continue
                    tdeg = 0
                else:
                    scaled = tuple((b - lb) * Fraction(v) for v in vertex)
                    if A != scaled:
                        continue
                    tdeg = b - lb
                face[(tdeg,) + B] = c
            if not face:
                continue
            if b.denominator != 1:
                return None  # fractional ladder on the face: unsolvable
            contributing = True
            # condition: d/dT Q + sum_j lambda_j d/dy_j Q = 0
            eq: dict[tuple, list[Fraction]] = {}
            const: dict[tuple, Fraction] = {}
            for key, c in face.items():
                tdeg, B = key[0], key[1:]
                if tdeg > 0:
                    mono = (tdeg - 1,) + B
                    const[mono] = const.get(mono, Fraction(0)) + c * tdeg
                for j in range(r):
                    if B[j] > 0:
                        mono = (key[0],) + B[:j] + (B[j] - 1,) + B[j + 1:]
                        eq.setdefault(mono, [Fraction(0)] * r)[j] += c * B[j]
            for mono in sorted(set(eq) | set(const)):
                rows.append(eq.get(mono, [Fraction(0)] * r))
                rhs.append(-const.get(mono, Fraction(0)))
    if not contributing:
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
        n = pair.nvars
        mono_exps = [0] * n
        for pos, i in enumerate(frame.u_indices):
            mono_exps[i] = vertex[pos]
        assignment = {
            yi: Polynomial.variable(n, yi)
            + Polynomial.monomial(n, tuple(mono_exps), lam[j])
            for j, yi in enumerate(frame.y_indices)
            if lam[j] != 0
        }
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
