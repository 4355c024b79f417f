"""Initial ideals, graded pieces, the directrix of a homogeneous ideal
(characteristic zero), and truncated Hilbert-Samuel functions.

The directrix is computed through the translation-invariance direction
space W = {v : directional derivative of every generator lies in the
ideal}, by one fraction-free elimination of int rows (``directrix``); its
annihilator in the degree-1 dual is the returned basis, and the two
``linalg.nullspace`` calls that return it make its only Fractions.
Nothing is re-checked at run time: that the ideal is generated by
polynomials in the basis forms (every slice of every generator along the
complementary coordinates lies in the ideal) and that every returned
direction leaves the ideal invariant are tier-1 properties
(``tests/test_cone.py``), asserted on every benchmark corpus problem.

The graded pieces are ``linalg.sparse_rref`` of the rows ``_multiples``
builds (a generator times the shift monomials, over the numbered monomials
of one degree): Fraction rows, which ``homogeneous_member`` reduces against.

Hilbert-Samuel numbers no columns: it counts the leading monomials of the
truncated multiples of the generators, each monomial packed into one int
whose order is the monomial order.  The first generator's leads are
counted in closed form, a row whose shift is a lead of the earlier rows'
span is skipped (the F5 criterion), and only the rows whose leads collide
are built and reduced with ``linalg.eliminate``, in ints.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache
from itertools import accumulate, combinations_with_replacement
from operator import add

from .errors import PreconditionError
from .linalg import _echelon, clear_denominators, eliminate, nullspace, reduce_against, sparse_rref
from .pairs import Pair
from .poly import Polynomial, _coeff, initial_form, ord_at_origin
from .record import Record


class HomIdeal(Record):
    nvars: int
    generators: tuple[Polynomial, ...]

    def __new__(cls, nvars, generators):
        for g in generators:
            if g.is_zero():
                raise PreconditionError("homogeneous generators must be nonzero")
            degs = {sum(e) for e in g.terms}
            if len(degs) != 1:
                raise PreconditionError("generators must be homogeneous")
            if g.has_fractional_exponent():
                raise PreconditionError("homogeneous ideals use integer exponents")
        return super().__new__(cls, nvars, generators)

    def is_zero(self) -> bool:
        return not self.generators


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
    """All exponent tuples of total degree d, ascending in lex order."""
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
    # the multisets come in ascending lex order, so their exponent tuples
    # descend: the first index where two multisets differ is counted more
    # often in the smaller one
    out.reverse()
    return out


def _multiples(terms: dict, shifts, index: dict[tuple, int], offset: int = 0) -> list[dict]:
    """The rows g*m of g's terms, one per shift m, over the columns that
    ``index`` numbers from ``offset``; other terms are dropped (truncation)."""
    terms = list(terms.items())
    rows = []
    for m in shifts:
        row = {}
        for exps, c in terms:
            col = index.get(tuple(map(add, exps, m)))
            if col is not None:
                row[offset + col] = c
        rows.append(row)
    return rows


def _piece(I: HomIdeal, d: int):
    """Row-reduced basis of the degree-d slice of the ideal: the column
    index of the degree-d monomials, the sparse rref rows and their pivots."""
    index = _index(I.nvars, d)
    rows = []
    for g in I.generators:
        rows += _multiples(g.terms, monomials_of_degree(I.nvars, d - sum(next(iter(g.terms)))), index)
    return (index, *sparse_rref(rows))


def graded_piece(I: HomIdeal, d: int) -> list[Polynomial]:
    """Row-reduced basis of the degree-d slice of the ideal."""
    index, rows, _ = _piece(I, d)
    monomials = list(index)
    # the rref rows hold Fractions; the constructor stores integral ones as ints
    return [Polynomial(I.nvars, {monomials[c]: row[c] for c in sorted(row)}) for row in rows]


def homogeneous_member(I: HomIdeal, f: Polynomial) -> bool:
    """Exact membership of a homogeneous polynomial in the ideal."""
    if f.is_zero():
        return True
    degs = {sum(e) for e in f.terms}
    if len(degs) != 1:
        raise PreconditionError("membership test expects a homogeneous polynomial")
    index, rows, pivots = _piece(I, degs.pop())
    return not reduce_against(rows, pivots, {index[e]: c for e, c in f.terms.items()})


# ---------------------------------------------------------------------------
# Directrix


class DirectrixBasis(Record):
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
    """W = {v : d_v f in I_(d-1) for each generator f of degree d} and the
    forms vanishing on it, by one fraction-free elimination.  Generator f_j
    of degree d_j, its denominators cleared (W stays), owns a block of
    columns, the monomials of degree d_j - 1, holding the rows m*f_k that
    span I_(d_j-1); a tag column per variable follows the blocks, and the
    row of x_i is (d_i f_1 | ... | d_i f_s | e_i).  So sum_i v_i*(row of
    x_i) + (block rows) has block parts d_v f_j + (an element of I_(d_j-1)):
    it is (0, v) iff v is in W.  It is a sum of echelon rows, none with a
    block pivot, as the least such pivot would survive; so the rows with a
    tag pivot are a basis of W.  ``linalg.nullspace`` depends only on the
    row space: the forms, nullspace(W), and directions, nullspace(forms)."""
    if I.is_zero():
        raise PreconditionError("directrix undefined")
    n = I.nvars
    gens = [(sum(next(iter(g.terms))), clear_denominators(g.terms)) for g in I.generators]
    rows, tags, offset = [], [{} for _ in range(n)], 0
    for d, terms in gens:
        index = _index(n, d - 1)
        for dk, fk in gens:
            rows += _multiples(fk, _index(n, d - 1 - dk), index, offset)
        for e, c in terms.items():
            for i, k in enumerate(e):
                if k:
                    tags[i][offset + index[e[:i] + (k - 1,) + e[i + 1:]]] = k * c
        offset += len(index)
    tags = [{**row, offset + i: 1} for i, row in enumerate(tags)]
    basis = [[row.get(offset + i, 0) for i in range(n)]
             for c, row in _echelon(rows + tags).items() if c >= offset]
    forms = nullspace(basis, n)
    return DirectrixBasis(tuple(map(_linear_form, forms)), tuple(map(tuple, nullspace(forms, n))))


@cache
def _index(nvars: int, d: int) -> dict[tuple, int]:
    """The degree-d monomials numbered in ``monomials_of_degree`` order."""
    return {m: i for i, m in enumerate(monomials_of_degree(nvars, d))}


def _linear_form(coeffs) -> Polynomial:
    """sum_i coeffs[i] * x_i in len(coeffs) variables (ints and Fractions)."""
    n = len(coeffs)
    return Polynomial._wrap(n, {tuple(1 if k == i else 0 for k in range(n)): _coeff(c)
                                for i, c in enumerate(coeffs) if c})


# ---------------------------------------------------------------------------
# Hilbert-Samuel

# Most monomial columns C(k_max - 1 + n, n) one Hilbert-Samuel call may
# cover; a larger input is refused before any work.  The first generator is
# counted in closed form, so alone it costs about 0.02 ms at any count
# (x0^2 + x5^3 in 6 variables at k_max = 17, 74613 columns).  Each later
# generator costs a packed int per shift and a row per shift that is not a
# lead of the earlier rows' span: adding x1*x2 + x3^3, then x3*x4 + x0*x5^2,
# takes about 3 and 4 ms at k_max = 12 and 24 and 33 ms at 17.  The limit
# does not bound the reductions of colliding leads: the ideal of
# ``test_hs_skips_every_shift_that_is_an_earlier_lead`` reduces 16159 rows
# in 0.05 s at k_max = 16 and 100800 in 0.66 s at 20 (CPython 3.11, 2-vCPU
# Intel Xeon VM).  The benchmark corpora need at most 1365 columns.
HS_MAX_COLUMNS = 100_000


def hilbert_samuel_truncated(generators, k_max: int) -> list[int]:
    """dim of the ambient power-series ring modulo (ideal + M^k), k = 1..k_max.

    Order the monomials by degree, then ascending lex exponents.  That is a
    monomial order, so the smallest monomial of g*m, its lead, is
    lead(g)*m, where lead(g) is the smallest monomial of g and has degree
    ord g.  The rows are the multiples g*m of each generator, truncated
    below degree k_max (deg m < k_max - ord g), and then

        HS(k) = #monomials of degree < k - #leads of degree < k,

    counting the leads of the nonzero elements of the row span.  Why:
    (ideal + M^k)/M^k is spanned by the multiples g*m with deg m < k-1,
    truncated below degree k (g*m lies in M^k once deg m >= k-1, because no
    generator has a constant term), so it is the truncation below k of the
    row span.  Take a basis of the row span with distinct leads.  A basis
    row whose lead has degree >= k lies in M^k and truncates to zero; the
    others keep their distinct leads below k, so their truncations stay
    independent.

    Each monomial of degree < k_max is one int, its key: the degree is the
    top digit and the exponents follow, the first variable's highest, each
    in a digit of ``k_max.bit_length() + 1`` bits whose top bit (the guard)
    is 0.  Int order is the monomial order, multiplying monomials adds
    keys, a product lies below degree k_max iff its key is below
    ``k_max << top``, and a key a divides a key b iff ``(b | guard) - a``
    keeps every guard bit: no digit borrows from the next, since a guarded
    digit exceeds every exponent.  Only the terms of degree < k_max are
    packed, so no sum that is kept overflows a digit, and a generator with
    no such term truncates to zero.

    Rows the earlier generators span are skipped (the F5 criterion:
    Faugere, ISSAC 2002).  Suppose the shift of a row g_j*m is the lead of
    some h in the span of the rows of g_1..g_{j-1}: h = c*m + tail_h, each
    term of tail_h larger than m.  Then

        c*g_j*m = g_j*h - g_j*tail_h.

    Truncation is linear.  A row g_i*m' drops only terms of degree >=
    k_max, so g_j times it truncates as g_i*(g_j*m') does: to a sum of rows
    of g_i.  g_j*tail_h truncates to a sum of rows of g_j whose shifts are
    larger than m.  By induction on j and then on the shift, descending,
    every skipped row lies in the span of the rows kept, so the span, its
    leads and every HS value are those of all the rows.  Before any row of
    g_j, the leads of the span of the earlier rows are the multiples of
    lead(g_1) and the keys of ``owners`` (the pivots below), and these are
    the shifts skipped.  They include every m = lead_i*m', the Koszul
    syzygies.

    The leads are found by an elimination that builds only the rows it
    needs (the symbolic preprocessing of F4: Faugere, J. Pure Appl. Algebra
    139, 1999):

    - The rows of the first generator g1 have distinct leads, the
      multiples of lead(g1); they are pivots as they stand.  Their
      C(d - ord g1 + n - 1, n - 1) leads of degree d are counted, not
      enumerated.
    - A kept row g*m of a later generator whose lead is not yet a pivot is
      a pivot as it stands and is only recorded as (g, m).  Only a row
      whose lead is already a pivot is built and reduced.
    - Reducing on a pivot builds that pivot's row on first use: g*m from
      its record, or g1*(lead / lead(g1)).  A reduced row whose lead is no
      pivot becomes one.

    The pivot rows have distinct leads and every kept row reduces to zero
    against them, so they are a basis of the row span, and their leads are
    its leads whatever the order of elimination.

    Each generator's denominators are cleared once, which leaves the ideal
    unchanged, so the rows hold ints and ``linalg.eliminate`` reduces them
    fraction-free.

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

    def below(k: int) -> int:  # monomials of degree < k
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
    width = k_max.bit_length() + 1
    top = width * nvars
    limit = k_max << top
    guard = sum(1 << (width * i + width - 1) for i in range(nvars))

    def pack(exps) -> int:
        key = sum(exps)
        for e in exps:
            key = key << width | e
        return key

    # each generator's terms below degree k_max, packed and ascending: its lead first
    packed = [sorted((pack(e), c) for e, c in clear_denominators(g.terms).items()
                     if sum(e) < k_max) for g in gens]
    packed = [terms for terms in packed if terms]
    leads = [0] * k_max  # pivots of each degree
    if packed:
        first, *rest = packed
        lead1 = first[0][0]
        for d in range(lead1 >> top, k_max):
            leads[d] = math.comb(d - (lead1 >> top) + nvars - 1, nvars - 1)
        owners: dict[int, object] = {}  # lead -> its pivot row, or (terms, shift)

        def multiple(terms, shift) -> dict[int, int]:
            return {key + shift: c for key, c in terms if key + shift < limit}

        def pivot_of(lead):
            owner = owners.get(lead)
            if owner is None and (lead | guard) - lead1 & guard == guard:
                owner = (first, lead - lead1)
            if type(owner) is tuple:
                owner = owners[lead] = multiple(*owner)
            return owner

        orders = [terms[0][0] >> top for terms in rest]
        shifts = _packed_monomials(nvars, width, top, k_max - min(orders, default=k_max))
        for terms in rest:
            lead_g = terms[0][0]
            # the F5 criterion: skip each shift that is a lead of the earlier rows' span
            kept = [m for m in shifts[:bisect_left(shifts, (k_max - (lead_g >> top)) << top)]
                    if m not in owners and (m | guard) - lead1 & guard != guard]
            for shift in kept:
                lead = lead_g + shift
                if pivot_of(lead) is None:
                    owners[lead] = (terms, shift)
                else:
                    row = multiple(terms, shift)
                    lead = eliminate(row, pivot_of)
                    if lead is None:
                        continue
                    owners[lead] = row
                leads[lead >> top] += 1
    return [below(k) - n for k, n in zip(range(1, k_max + 1), accumulate(leads))]


def _packed_monomials(nvars: int, width: int, top: int, d_max: int) -> list[int]:
    """The keys of ``hilbert_samuel_truncated`` of every monomial of degree
    < d_max, ascending.  Each monomial of degree d + 1 is made once, from a
    monomial of degree d times a variable no earlier than its last one."""
    units = [(1 << top) | (1 << width * (nvars - 1 - i)) for i in range(nvars)]
    layer = [(0, 0)]  # (key, index of the last variable multiplied in)
    out = [0] if d_max > 0 else []
    for _ in range(d_max - 1):
        layer = [(key + units[j], j) for key, last in layer for j in range(last, nvars)]
        out += [key for key, _ in layer]
    out.sort()
    return out
