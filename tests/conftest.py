"""Shared corpus builders and independent oracles for the test suite.

Oracles here avoid the code paths they check: Hilbert-Samuel dimensions come
from monomial counting or a closed form, directrix spaces from translation
tests and subspace search, 2-D vertex minimization from a staircase scan.
``merge_to_single`` is a reference rewrite of a pair that the library does
not need: order and blow-up properties are checked through it.  Likewise
``contains`` and ``subset_of`` decide membership and inclusion of orthant
polyhedra, which only the tests ask for.  ``reference_parse`` is the
polynomial parser the library had before it gathered terms directly: it
builds every factor as a Polynomial and combines them with Polynomial
arithmetic.
``coordinate_min`` is the vertex-side reference for
``polyhedra.pair_minima``, which the library reads off the raw points.
``basic_solution_oracle`` decides LP feasibility from basic solutions,
each solved by sympy, without a simplex.
``corpus_problems`` reads the benchmark's checked-in problem files.
``reference_substitute`` is the ``poly.substitute`` the library had before
its kernel worked on term dicts: it builds every term and every power as a
Polynomial and multiplies them with Polynomial arithmetic, a power of three
or more terms by repeated multiplication where the library uses the
multinomial theorem.
``reference_chart_pair`` is the chart transform ``history.blowup_chart``
had before it mapped exponents: it substitutes x_v -> x_chart*x_v and then
divides each component by x_chart^b.
``reference_sparse_rref`` is the ``linalg.sparse_rref`` that divided each
pivot row by its lead and back-substituted in Fractions;
``reference_rref``, ``reference_nullspace`` and ``reference_solve`` are the
dense wrappers over it.  ``reference_directrix`` is ``cone.directrix`` as it
was before one tagged elimination: a Fraction rref of each degree's slice
of the ideal, the residues of every first derivative of every generator
(``hasse_derivative``) modulo it, and two Fraction nullspaces.
``reference_coefficient_pair`` is ``coeff.coefficient_pair`` as it was
before its one pass per generator: a type scan of every generator for each
unmarked y-variable, then ``reference_split_by_variables`` (the removed
``poly.split_by_variables``) of every generator, the levels >= b dropped
after the split.  ``reference_companion_pair`` is
``invariant.companion_pair`` as it was before it divided by the whole
exceptional monomial at once: one ``divide_by_variable_power`` per divisor,
the exact division by one variable power that ``poly`` had before
``divide_by_monomial``.
"""

from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest

from hironaka.cli import parse_problem
from hironaka.cone import DirectrixBasis, _linear_form, _multiples, monomials_of_degree
from hironaka.errors import InternalError, PreconditionError, ProblemParseError
from hironaka.linalg import _echelon, _subtract, reduce_against
from hironaka.poly import (
    INF, Polynomial, _add_terms, _ints, _norm_exp, hasse_derivative,
    substitute,
)
from hironaka.pairs import Component, Pair
from hironaka.polyhedra import OrthantPolyhedron, point_in_hull_orthant


# ---------------------------------------------------------------------------
# Deterministic random polynomials and pairs


def random_polynomial(
    rng: random.Random,
    nvars: int,
    max_degree: int = 4,
    max_terms: int = 5,
    min_order: int = 0,
    coeff_bound: int = 4,
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exps = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            if min_order <= sum(exps) <= max_degree:
                break
        c = 0
        while c == 0:
            c = rng.randint(-coeff_bound, coeff_bound)
        terms[exps] = Fraction(c)
    poly = Polynomial(nvars, terms)
    if poly.is_zero():
        return random_polynomial(rng, nvars, max_degree, max_terms, min_order, coeff_bound)
    return poly


def random_singular_pair(rng: random.Random, nvars: int, max_components: int = 2) -> Pair:
    """A pair that is singular at the origin: each generator's order is
    forced up to the component weight by multiplying with variables."""
    comps = []
    for _ in range(rng.randint(1, max_components)):
        b = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = random_polynomial(rng, nvars, max_degree=b + 2, min_order=1)
            while min(sum(e) for e in g.terms) < b:
                g = g * Polynomial.variable(nvars, rng.randrange(nvars))
            gens.append(g)
        comps.append(Component(tuple(gens), Fraction(b)))
    return Pair(tuple(comps))


def scale_exponents(E: Pair, index: int, q: Fraction) -> Pair:
    """E with every exponent of the variable ``index`` multiplied by q: a
    marked variable with fractional exponents when q is not integral."""
    def scaled(g):
        return Polynomial(g.nvars, {
            exps[:index] + (exps[index] * q,) + exps[index + 1:]: c for exps, c in g.terms.items()
        })
    return Pair(tuple(
        Component(tuple(scaled(g) for g in comp.gens), comp.weight) for comp in E.components
    ))


def merge_to_single(E: Pair, m: int) -> Pair:
    """Collapse an intersection to (sum of J_i^(m/b_i), m); each b_i | m."""
    if not isinstance(m, int) or m <= 0:
        raise PreconditionError("m must be a positive integer")
    gens: list[Polynomial] = []
    for comp in E.components:
        ratio = Fraction(m) / comp.weight
        if ratio.denominator != 1:
            raise PreconditionError("weight does not divide m")
        for combo in combinations_with_replacement(comp.gens, int(ratio)):
            gens.append(math.prod(combo, start=Polynomial.constant(comp.nvars, 1)))
    return Pair.single(tuple(gens), m)


def contains(P: OrthantPolyhedron, p) -> bool:
    return point_in_hull_orthant(tuple(p), list(P.vertices))


def subset_of(P: OrthantPolyhedron, Q: OrthantPolyhedron) -> bool:
    return all(contains(Q, v) for v in P.vertices)


def coordinate_min(P: OrthantPolyhedron, positions):
    """The least sum of the coordinates at ``positions`` over the vertices
    of P; INF when P is empty."""
    return min((sum(Fraction(v[p]) for p in positions) for v in P.vertices), default=INF)


# ---------------------------------------------------------------------------
# Reference polynomial parser: Polynomial arithmetic on every factor

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9']*|[0-9]+|[()^*+-]|/)")


def _reference_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # past the interpreter's digit limit
        raise ProblemParseError(
            f"a number of {len(tok)} digits is past the limit of "
            f"{sys.get_int_max_str_digits()}") from None


class _ReferenceParser:
    def __init__(self, text: str, names: list[str], fractional_ok: set[int]):
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ProblemParseError(f"bad character in polynomial: {text[pos:]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.pos = 0
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.fractional_ok = fractional_ok

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ProblemParseError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> Polynomial:
        poly = self.parse_sum()
        if self.peek() is not None:
            raise ProblemParseError(f"trailing input at {self.peek()!r}")
        return poly

    def parse_sum(self) -> Polynomial:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        poly = self.parse_product().scale(sign)
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.next() == "-":
                    sign = -sign
            poly = poly + self.parse_product().scale(sign)
        return poly

    def parse_product(self) -> Polynomial:
        poly = self.parse_factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.next()
                poly = poly * self.parse_factor()
            elif tok == "/":
                self.next()
                den = self.parse_factor()
                if not den.is_constant() or den.constant_term() == 0:
                    raise ProblemParseError("division only by nonzero constants")
                poly = poly.scale(Fraction(1) / den.constant_term())
            elif tok is not None and (tok[0].isalpha() or tok[0] == "_" or tok == "("):
                poly = poly * self.parse_factor()
            else:
                return poly

    def parse_factor(self) -> Polynomial:
        tok = self.next()
        if tok is None:
            raise ProblemParseError("unexpected end of polynomial")
        n = len(self.names)
        if tok == "(":
            poly = self.parse_sum()
            self.expect(")")
        elif tok.isdigit():
            poly = Polynomial.constant(n, _reference_int(tok))
        elif not (tok[0].isalpha() or tok[0] == "_"):
            raise ProblemParseError(f"expected a factor, got {tok!r}")
        elif tok in self.index:
            poly = Polynomial.variable(n, self.index[tok])
        else:
            raise ProblemParseError(f"undeclared variable {tok!r}")
        if self.peek() == "^":
            self.next()
            q = self.parse_exponent()
            if len(poly.terms) == 1 and next(iter(poly.terms.values())) == 1 and not poly.is_constant():
                exps = next(iter(poly.terms))
                for idx, e in enumerate(exps):
                    if e and q.denominator != 1 and idx not in self.fractional_ok:
                        raise ProblemParseError(
                            f"fractional exponent on non-exceptional variable {self.names[idx]!r}"
                        )
                poly = Polynomial.monomial(n, tuple(e * q for e in exps))
            else:
                if q.denominator != 1:
                    raise ProblemParseError("fractional exponent on a compound expression")
                base, poly = poly, Polynomial.constant(n, 1)
                for _ in range(int(q)):
                    poly = poly * base
        return poly

    def parse_exponent(self) -> Fraction:
        tok = self.next()
        if tok == "(":
            num = self.next()
            if not (num and num.isdigit()):
                raise ProblemParseError("malformed exponent")
            q = Fraction(_reference_int(num))
            if self.peek() == "/":
                self.next()
                den = self.next()
                if not (den and den.isdigit()):
                    raise ProblemParseError("malformed exponent")
                if not _reference_int(den):
                    raise ProblemParseError("zero denominator in exponent")
                q /= _reference_int(den)
            self.expect(")")
            return q
        if tok and tok.isdigit():
            return Fraction(_reference_int(tok))
        raise ProblemParseError(f"malformed exponent at {tok!r}")


def reference_parse(text: str, names: list[str], fractional_ok=()) -> Polynomial:
    return _ReferenceParser(text, names, set(fractional_ok)).parse()


def reference_substitute(f: Polynomial, assignment) -> Polynomial:
    """``poly.substitute`` by Polynomial arithmetic, with the same results,
    errors and term order."""
    n = f.nvars
    mapped = [i for i in range(n) if i in assignment]
    for i in mapped:
        if assignment[i].nvars != n:
            raise ValueError("substitution must preserve the variable list")
    ladders = {i: [assignment[i]] for i in mapped}  # ladders[i][e - 1] = g_i^e

    @cache
    def power(i: int, e) -> Polynomial:
        g = assignment[i]
        integral = type(e) is int
        if len(g.terms) == 1:
            (gexps, gc), = g.terms.items()
            if not integral and gc != 1:
                raise PreconditionError(
                    "fractional power of a non-unit monomial substitution"
                )
            scaled = tuple([_norm_exp(ge * e) for ge in gexps])
            return Polynomial._wrap(n, {scaled: gc ** e if integral else gc})
        if not integral:
            raise PreconditionError(
                "fractional power of a non-monomial substitution"
            )
        if len(g.terms) == 2:
            (ea, ca), (eb, cb) = g.terms.items()
            terms, binom = {}, 1  # binom = C(e, k)
            for k in range(e + 1):
                key = tuple([_norm_exp(x * k + y * (e - k)) for x, y in zip(ea, eb)])
                terms[key] = binom * ca ** k * cb ** (e - k)
                binom = binom * (e - k) // (k + 1)
            return Polynomial._wrap(n, _ints(terms))
        ladder = ladders[i]
        while len(ladder) < e:
            ladder.append(ladder[-1] * g)
        return ladder[e - 1]

    out: dict = {}
    for exps, c in f.terms.items():
        fixed = tuple(0 if i in assignment else e for i, e in enumerate(exps))
        term = Polynomial._wrap(n, {fixed: c})
        for i in mapped:
            if exps[i]:
                term = term * power(i, exps[i])
        _add_terms(out, term.terms.items())
    return Polynomial._wrap(n, out)


def reference_split_by_variables(f: Polynomial, z_indices) -> dict[tuple, Polynomial]:
    """Group terms of f by their exponents on the z-variables.

    Returns a map from the z-exponent tuple B (in z_indices order) to the
    coefficient polynomial in f's variables: the terms with those
    exponents, their z-exponents set to 0.
    """
    zs = list(z_indices)
    keep = [i not in zs for i in range(f.nvars)]
    out: dict[tuple, dict] = {}
    for exps, c in f.terms.items():
        rest = tuple(e if k else 0 for e, k in zip(exps, keep))
        # terms with equal z-exponents differ in the rest: no two meet
        out.setdefault(tuple(exps[i] for i in zs), {})[rest] = c
    return {b: Polynomial._wrap(f.nvars, terms) for b, terms in out.items()}


def reference_coefficient_pair(E: Pair, frame) -> Pair:
    """``coeff.coefficient_pair`` by a fractional-exponent scan and a split
    of each whole generator, with the same components, generator order,
    number types and errors."""
    zs = sorted(frame.y_indices)
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
        levels: dict = {}  # level |B|, an int or a Fraction -> coefficients
        for g in comp.gens:
            for B, coeff in sorted(reference_split_by_variables(g, zs).items()):
                l = sum(B)
                if l < comp.weight and not coeff.is_zero():
                    levels.setdefault(l, []).append(coeff)
        for l in sorted(levels):
            out.append(Component(tuple(levels[l]), comp.weight - l))
    return Pair(tuple(out))


def divide_by_variable_power(f: Polynomial, index: int, power) -> Polynomial:
    """Exact division by a single variable power; raises if not exact."""
    p = _norm_exp(power)
    out: dict = {}
    for exps, c in f.terms.items():
        e = exps[index] - p
        if e < 0:
            raise ValueError("inexact monomial division")
        out[exps[:index] + (_norm_exp(e),) + exps[index + 1:]] = c
    return Polynomial._wrap(f.nvars, out)


def reference_companion_pair(H: Pair, mus, nu) -> Pair:
    """``invariant.companion_pair`` by one exact division per divisor, with
    the same components, term order, number types and errors."""
    if nu == INF or nu == 0:
        raise PreconditionError("terminal case, no companion pair")
    factors = [(idx, mu) for idx, mu in mus if mu != 0]
    comps: list[Component] = []
    for comp in H.components:
        gens = []
        for g in comp.gens:
            reduced = g
            for idx, mu in factors:
                try:
                    reduced = divide_by_variable_power(reduced, idx, mu * comp.weight)
                except ValueError as exc:
                    raise InternalError("inexact exceptional factoring") from exc
            gens.append(reduced)
        comps.append(Component(tuple(gens), comp.weight * nu))
    result = Pair(tuple(comps))
    if nu < 1 and factors:
        exps = [0] * H.nvars
        for idx, mu in mus:
            exps[idx] += mu
        D = Polynomial.monomial(H.nvars, tuple(exps))
        result = Pair(result.components + (Component((D,), 1 - nu),))
    return result


def reference_chart_pair(E: Pair, center, chart: int) -> Pair:
    """``history._chart_pair`` by substitution and exact division."""
    n = E.nvars
    assignment = {v: Polynomial.variable(n, chart) * Polynomial.variable(n, v)
                  for v in center if v != chart}
    comps = []
    for comp in E.components:
        gens = []
        for g in comp.gens:
            try:
                gens.append(divide_by_variable_power(substitute(g, assignment), chart, comp.weight))
            except ValueError as exc:
                raise InternalError("inexact exceptional division") from exc
        comps.append(Component(tuple(gens), comp.weight))
    return Pair(tuple(comps))


# ---------------------------------------------------------------------------
# Reference reduced forms and directrix: Fraction back-substitution


def reference_sparse_rref(rows):
    """``linalg.sparse_rref`` by Fraction back-substitution."""
    echelon = _echelon(rows)
    pivots = sorted(echelon)
    reduced = {}
    for pc in reversed(pivots):
        row = echelon[pc]
        for qc in [c for c in row if c in reduced]:
            _subtract(row, row[qc], reduced[qc])
        inv = Fraction(1) / row[pc]
        reduced[pc] = {c: v * inv for c, v in row.items()}
    return [reduced[pc] for pc in pivots], pivots


def reference_rref(rows):
    rows = list(rows)
    if not rows:
        return [], []
    red, pivots = reference_sparse_rref([dict(enumerate(row)) for row in rows])
    return [[row.get(c, Fraction(0)) for c in range(len(rows[0]))] for row in red], pivots


def reference_nullspace(rows, ncols):
    red, pivots = reference_sparse_rref([dict(enumerate(row)) for row in rows])
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row.get(fc, Fraction(0))
        basis.append(vec)
    return basis


def reference_solve(rows, rhs):
    rows = list(rows)
    if not rows:
        return [] if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    red, pivots = reference_sparse_rref([dict(enumerate([*row, bv])) for row, bv in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    sol = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        sol[pc] = row.get(ncols, Fraction(0))
    return sol


def reference_directrix(I) -> DirectrixBasis:
    """``cone.directrix`` by residues of derivatives modulo Fraction pieces."""
    if I.is_zero():
        raise PreconditionError("directrix undefined")
    n = I.nvars

    @cache
    def piece(d):
        index = {m: i for i, m in enumerate(monomials_of_degree(n, d))}
        rows = []
        for g in I.generators:
            rows += _multiples(g.terms, monomials_of_degree(n, d - sum(next(iter(g.terms)))), index)
        return (index, *reference_sparse_rref(rows))

    sys_rows = []
    for g in I.generators:
        index, red, pivots = piece(sum(next(iter(g.terms))) - 1)
        residues = [
            reduce_against(red, pivots, {index[e]: c for e, c in hasse_derivative(
                g, tuple(1 if j == i else 0 for j in range(n))).terms.items()})
            for i in range(n)
        ]
        for coord in sorted(set().union(*residues)):
            sys_rows.append([residues[i].get(coord, 0) for i in range(n)])
    directions = reference_nullspace(sys_rows, n)
    forms = tuple(_linear_form(vec) for vec in reference_nullspace(directions, n))
    return DirectrixBasis(forms, tuple(tuple(v) for v in directions))


# ---------------------------------------------------------------------------
# Hilbert-Samuel oracles


def monomials_below(nvars: int, k: int):
    if nvars == 0:
        return [()] if k > 0 else []
    out = []
    for d in range(k):
        out.extend(_exps_of_degree(nvars, d))
    return out


def _exps_of_degree(nvars: int, d: int):
    if nvars == 1:
        yield (d,)
        return
    for e in range(d + 1):
        for rest in _exps_of_degree(nvars - 1, d - e):
            yield (e,) + rest


def hs_monomial_oracle(gen_exponents, nvars: int, k: int) -> int:
    """dim of the quotient by a monomial ideal: count monomials of degree
    below k not divisible by any generator exponent."""
    count = 0
    for m in monomials_below(nvars, k):
        if not any(all(a >= b for a, b in zip(m, g)) for g in gen_exponents):
            count += 1
    return count


def hs_hypersurface_oracle(nvars: int, d: int, k: int) -> int:
    """Closed form for one generator of order d: multiplication by it is
    injective, so the rank of the truncated multiples is full."""
    total = math.comb(k - 1 + nvars, nvars)
    if k - 1 - d >= 0:
        total -= math.comb(k - 1 - d + nvars, nvars)
    return total


# ---------------------------------------------------------------------------
# 2-D staircase oracle for minimal vertex sets


def staircase_oracle(points):
    """Minimal generators of conv(points) + orthant in dimension 2:
    domination filter followed by a lower-convex-hull scan."""
    pts = sorted({(Fraction(a), Fraction(b)) for a, b in points})
    undominated = [
        p for p in pts
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
    ]
    undominated.sort()
    hull = []
    for p in undominated:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross <= 0:
                hull.pop()  # middle point on or above the chord: redundant
            else:
                break
        hull.append(p)
    return sorted(hull)


# ---------------------------------------------------------------------------
# LP feasibility from basic solutions


def basic_solution_oracle(A, b) -> bool:
    """Feasibility of {x >= 0 : A x = b}: b = 0, or some linearly
    independent columns S give A_S x = b with x >= 0.  Such an S extends to
    a basis of the column space, so only the column sets of size rank(A)
    are solved; a set with a free parameter is dependent."""
    if not any(b):
        return True
    sympy = pytest.importorskip("sympy")
    M = sympy.Matrix(A)
    rank = M.rank()
    if M.row_join(sympy.Matrix(b)).rank() > rank:
        return False
    for S in combinations(range(M.cols), rank):
        try:
            x, params = M.extract(list(range(M.rows)), list(S)).gauss_jordan_solve(sympy.Matrix(b))
        except ValueError:  # b is not in the span of these columns
            continue
        if not params and all(v >= 0 for v in x):
            return True
    return False


# ---------------------------------------------------------------------------
# The benchmark corpora

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def corpus_problems(workload="*"):
    """(id, problem) for every problem file of a benchmark corpus, or of
    every corpus by default."""
    paths = sorted(CORPUS.glob(f"{workload}/problems/*.json"))
    return [(path.stem, parse_problem(path.read_text(encoding="utf-8"))) for path in paths]


# ---------------------------------------------------------------------------
# Fixtures


@pytest.fixture
def rng():
    return random.Random(20240811)
