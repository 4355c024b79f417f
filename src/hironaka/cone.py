"""Initial ideals, graded pieces, the directrix of a homogeneous ideal
(characteristic zero), and truncated Hilbert-Samuel functions.

The directrix is computed through the translation-invariance direction
space W = {v : directional derivative of every generator lies in the
ideal}; its annihilator in the degree-1 dual is the returned basis.  A
rewriting check (every generator is a combination of ideal elements that
involve only the basis forms) runs on every call.

One row builder, ``_multiples`` (a generator times shift monomials), feeds
``linalg.sparse_rref`` for the graded pieces and ``linalg.sparse_rank`` for
Hilbert-Samuel.  Within one ``directrix`` call each degree's basis is built
once, for every generator's residues and every rewriting membership test.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations_with_replacement
from operator import add

from .errors import InternalError, PreconditionError
from .linalg import nullspace, reduce_against, rref, sparse_rank, sparse_rref
from .pairs import Pair
from .poly import Polynomial, hasse_derivative, initial_form, ord_at_origin, substitute


@dataclass(frozen=True)
class HomIdeal:
    nvars: int
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.is_zero():
                raise PreconditionError("homogeneous generators must be nonzero")
            degs = {sum(e) for e in g.terms}
            if len(degs) != 1:
                raise PreconditionError("generators must be homogeneous")
            if g.has_fractional_exponent():
                raise PreconditionError("homogeneous ideals use integer exponents")

    def is_zero(self) -> bool:
        return not self.generators

    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(next(iter(g.terms))) for g in self.generators)


def initial_ideal(E: Pair) -> HomIdeal:
    """Degree-b initial forms of the order-b generators, per component.

    Components whose weight is not a positive integer contribute nothing.
    """
    gens: list[Polynomial] = []
    for comp in E.components:
        b = comp.weight
        if b.denominator != 1:
            continue
        for g in comp.gens:
            if ord_at_origin(g) == b:
                form = initial_form(g, b)
                if not form.is_zero():
                    gens.append(form)
    return HomIdeal(E.nvars, tuple(gens))


# ---------------------------------------------------------------------------
# Monomial bookkeeping


def monomials_of_degree(nvars: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree d, in a fixed deterministic order."""
    if d < 0:
        return []
    if nvars == 0:
        return [()] if d == 0 else []
    out: list[tuple[int, ...]] = []
    for combo in combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return sorted(set(out))


def monomials_below_degree(nvars: int, k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for d in range(k):
        out.extend(monomials_of_degree(nvars, d))
    return out


def _multiples(g: Polynomial, shifts, index: dict[tuple, int]) -> list[dict[int, Fraction]]:
    """The rows g*m, one per shift m, over the monomial columns numbered by
    ``index``; terms outside the columns are dropped (truncation)."""
    terms = list(g.terms.items())
    rows = []
    for m in shifts:
        row = {}
        for exps, c in terms:
            col = index.get(tuple(map(add, exps, m)))
            if col is not None:
                row[col] = c
        rows.append(row)
    return rows


def _piece(I: HomIdeal, d: int):
    """Row-reduced basis of the degree-d slice of the ideal: the column
    index of the degree-d monomials, the sparse rref rows and their pivots."""
    index = {m: i for i, m in enumerate(monomials_of_degree(I.nvars, d))}
    rows = []
    for g in I.generators:
        rows += _multiples(g, monomials_of_degree(I.nvars, d - sum(next(iter(g.terms)))), index)
    return (index, *sparse_rref(rows))


def _residue(piece, f: Polynomial) -> dict[int, Fraction]:
    """Coordinates of f, homogeneous of the piece's degree, modulo the piece."""
    index, rows, pivots = piece
    return reduce_against(rows, pivots, {index[e]: c for e, c in f.terms.items()})


def graded_piece(I: HomIdeal, d: int) -> list[Polynomial]:
    """Row-reduced basis of the degree-d slice of the ideal."""
    index, rows, _ = _piece(I, d)
    monomials = list(index)
    return [Polynomial._wrap(I.nvars, {monomials[c]: row[c] for c in sorted(row)}) for row in rows]


def homogeneous_member(I: HomIdeal, f: Polynomial) -> bool:
    """Exact membership of a homogeneous polynomial in the ideal."""
    return _member(partial(_piece, I), f)


def _member(piece_of, f: Polynomial) -> bool:
    """Membership of f, with ``piece_of(d)`` the ``_piece`` of degree d."""
    if f.is_zero():
        return True
    degs = {sum(e) for e in f.terms}
    if len(degs) != 1:
        raise PreconditionError("membership test expects a homogeneous polynomial")
    return not _residue(piece_of(degs.pop()), f)


# ---------------------------------------------------------------------------
# Directrix


@dataclass(frozen=True)
class DirectrixBasis:
    forms: tuple[Polynomial, ...]       # independent degree-1 polynomials
    directions: tuple[tuple, ...]       # basis of the invariance space W

    @property
    def dim(self) -> int:
        return len(self.forms)

    def spans_within(self, coordinate_indices) -> bool:
        """True iff every basis form involves only the given coordinates."""
        allowed = set(coordinate_indices)
        return all(form.variables_used() <= allowed for form in self.forms)


def directrix(I: HomIdeal) -> DirectrixBasis:
    if I.is_zero():
        raise PreconditionError("directrix undefined")
    n = I.nvars
    if 0 in I.degrees():
        # a unit generator: the whole space is invariant, no forms needed
        dirs = tuple(tuple(Fraction(1) if j == i else Fraction(0) for j in range(n)) for i in range(n))
        return DirectrixBasis((), dirs)
    # rows of the linear system on a direction v: for each generator g and
    # each monomial coordinate, sum_i v_i * (residue of d_i g mod I) = 0
    piece_of = cache(partial(_piece, I))  # each degree's basis is built once
    sys_rows: list[list[Fraction]] = []
    for g in I.generators:
        piece = piece_of(sum(next(iter(g.terms))) - 1)
        residues = [
            _residue(piece, hasse_derivative(g, tuple(1 if j == i else 0 for j in range(n))))
            for i in range(n)
        ]
        for coord in sorted(set().union(*residues)):
            sys_rows.append([residues[i].get(coord, Fraction(0)) for i in range(n)])
    directions = nullspace(sys_rows, n)
    ann = nullspace(directions, n)
    forms = tuple(_linear_form(vec) for vec in ann)
    basis = DirectrixBasis(forms, tuple(tuple(v) for v in directions))
    _check_rewriting(I, basis, piece_of)
    return basis


def _linear_form(coeffs) -> Polynomial:
    """sum_i coeffs[i] * x_i in len(coeffs) variables."""
    n = len(coeffs)
    return Polynomial(n, {tuple(1 if k == i else 0 for k in range(n)): c
                          for i, c in enumerate(coeffs) if c != 0})


def _adapted_change(forms: tuple[Polynomial, ...], n: int) -> list[list[Fraction]]:
    """Invertible matrix whose first rows are the given independent forms."""
    rows = [
        [Fraction(f.terms.get(tuple(1 if j == i else 0 for j in range(n)), 0)) for i in range(n)]
        for f in forms
    ]
    red, pivots = rref(rows)
    full = [list(r) for r in rows]
    for i in range(n):
        if i not in pivots:
            full.append([Fraction(1) if j == i else Fraction(0) for j in range(n)])
    return full


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    aug = [list(row) + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
           for i, row in enumerate(matrix)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise InternalError("adapted coordinate change is singular")
    return [row[n:] for row in red]


def _check_rewriting(I: HomIdeal, basis: DirectrixBasis, piece_of) -> None:
    """Verify the ideal is generated by polynomials in the basis forms.

    In coordinates adapted to the invariance space, every slice of every
    generator along the complementary directions must itself belong to the
    ideal; that exhibits a generating set inside the subring the forms span.
    The membership tests take the slice bases from ``piece_of``.
    """
    n = I.nvars
    r = basis.dim
    if r == n or I.is_zero():
        return
    Q = _adapted_change(basis.forms, n)
    Qinv = _invert(Q)
    # old variable x_i = sum_j Qinv[i][j] * new_j, new_j = sum_i Q[j][i] * x_i
    change = {i: _linear_form(Qinv[i]) for i in range(n)}
    back = {j: _linear_form(Q[j]) for j in range(n)}
    for g in I.generators:
        moved = substitute(g, change)
        slices: dict[tuple, dict] = {}
        for exps, c in moved.terms.items():
            tail = exps[r:]
            key = exps[:r] + (0,) * (n - r)
            slices.setdefault(tail, {})[key] = c
        for tail, terms in slices.items():
            zpart = Polynomial(n, terms)
            original = substitute(zpart, back)
            if not _member(piece_of, original):
                raise InternalError("directrix rewriting check failed")


# ---------------------------------------------------------------------------
# Hilbert-Samuel

# Most monomial columns C(k_max - 1 + n, n) one Hilbert-Samuel elimination
# may have.  The cost grows about linearly with the count: one generator of
# order 2 in 6 variables at k_max = 18 (100947 columns) takes about 1.1 s
# on a 2-vCPU VM.  The benchmark corpora need at most 1365.
HS_MAX_COLUMNS = 100_000


def hilbert_samuel_truncated(generators, k_max: int) -> list[int]:
    """dim of the ambient power-series ring modulo (ideal + M^k), k = 1..k_max.

    One elimination serves every k.  The columns are the monomials of degree
    below k_max in the order of ``monomials_below_degree``, which ascends by
    degree, so the first C(k-1+n, n) columns are exactly the monomials of
    degree below k.  The rows are the multiples g*m of each generator,
    truncated below degree k_max; a shift m with deg m + ord g >= k_max
    gives an empty row and is skipped.  ``sparse_rank`` eliminates each row
    on its smallest column, so every reduced pivot row has no entry left of
    its pivot, and then

        HS(k) = #monomials of degree < k - #pivots of degree < k.

    Why: (ideal + M^k)/M^k is spanned by the multiples g*m with
    deg m < k-1, truncated below degree k (g*m lies in M^k once
    deg m >= k-1, because no generator has a constant term).  Truncating
    below k is linear and the elimination keeps the span of the rows, so the
    truncated pivot rows span the same space.  A pivot row whose pivot has
    degree >= k lies in M^k and truncates to zero; the pivot rows whose
    pivots have degree < k keep distinct leading columns below k, so their
    truncations stay independent.

    ``generators`` must be non-empty; zero polynomials are dropped after the
    number of variables is read off the first one.  More than
    ``HS_MAX_COLUMNS`` columns is a PreconditionError, raised before any row
    is built.
    """
    generators = list(generators)
    if not generators:
        raise PreconditionError("Hilbert-Samuel needs at least one generator")
    if k_max < 1:
        raise PreconditionError("k_max must be at least 1")
    nvars = generators[0].nvars

    def below(k: int) -> int:  # monomials of degree < k: a prefix of columns
        return math.comb(k - 1 + nvars, nvars) if k > 0 else 0

    count = below(k_max)
    if count > HS_MAX_COLUMNS:
        raise PreconditionError(
            f"Hilbert-Samuel in {nvars} variables up to k_max = {k_max} needs "
            f"{count} monomial columns, over the limit of {HS_MAX_COLUMNS}"
        )
    gens = [g for g in generators if not g.is_zero()]
    for g in gens:
        if g.nvars != nvars:
            raise ValueError("arity mismatch")
        if g.constant_term() != 0:
            raise PreconditionError("point not on X")
        if g.has_fractional_exponent():
            raise PreconditionError("Hilbert-Samuel needs integer exponents")
    columns = monomials_below_degree(nvars, k_max)
    index = {m: i for i, m in enumerate(columns)}
    rows: list[dict[int, Fraction]] = []
    for g in gens:
        rows += _multiples(g, columns[:below(k_max - ord_at_origin(g))], index)
    pivots = sparse_rank(rows)
    return [below(k) - bisect_left(pivots, below(k)) for k in range(1, k_max + 1)]
