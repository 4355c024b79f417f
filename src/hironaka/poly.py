"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a dict mapping exponent tuples to rational coefficients.
Exponents are nonnegative rationals.  Fractional exponents are legal at
this layer (callers restrict them to exceptional-marked variables) but
derivative operators reject them.

The zero polynomial has no terms and order INF.

Normalization invariant: every stored coefficient is nonzero, an int when
it is integral and a Fraction otherwise; every exponent tuple has the
polynomial's arity with each entry a nonnegative int, or a Fraction when it
is not integral.  Integral data thus stays in Python ints, whose arithmetic
needs no gcd.  A coefficient or an exponent that is neither an int nor a
Fraction, such as a float or a bool, is a TypeError, never a silent binary
fraction.  The rule covers every stored exact rational, through
``_coeff``: weights (``pairs``), polyhedron coordinates and the minima read
off them (``polyhedra``), assigned multiplicities and chart numbers
(``history``), and each nu and terminal (``invariant``).  The contact
rewrite (``coeff``) stays integral, so the descent of integral input is.
Only two results that divide hold Fractions, as an int ``/`` would give a
float: the reduced rows that ``linalg`` returns and the point set that
``polyhedra.projected_steps`` divides.

Normalization happens once, where a polynomial is made from raw input: the
public constructor establishes the invariant from any mapping (it passes
int coefficients and nonnegative int exponents through as they are), and
so do ``constant``, ``monomial``, ``scale`` and the parser, which builds
each term in normal form.  Everything else builds its result through
``Polynomial._wrap``, which trusts the term dict as given: ``zero``,
``variable``, sums, negations, products of int exponents,
``initial_form`` (a subset of normalized terms), ``hasse_derivative``
(no two terms meet and none cancels), ``substitute`` when no exponent is
fractional, and ``divide_by_monomial``; so do the coefficient pairs
(``coeff``) and the companion pairs (``invariant``).  Zero
coefficients are dropped where they arise.  int*int and int+int are ints,
so only a Fraction result can need renormalizing, when its denominator is
1: sums check each coefficient that two terms add into, and products,
scalings, derivatives and substitutions check their term dict once
(``_ints``).  A product with a fractional exponent goes back through the
normalizing constructor, because x^(1/2)*x^(1/2) must store its exponent as
the int 1, and so does a substitution in which f or a substituted
polynomial has a fractional exponent; ``divide_by_monomial``
normalizes each exponent it changes.

The parser (``parse_polynomial``) walks the tokens of the text once, by
index: a product of numbers and variable powers goes straight into one
term's coefficient and exponent list, and only a parenthesized factor, or
a power of one, is built as a Polynomial, a power of a compound by
``substitute``'s power builder (the binomial theorem for two terms, one
multinomial kernel for more).
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter

from .errors import PreconditionError, ProblemParseError

INF = math.inf

Exponents = tuple  # length-nvars tuple of int | Fraction


def _norm_exp(e) -> int | Fraction:
    """An exponent in normal form, refused like a coefficient (``_coeff``)
    when it is not an int or a Fraction, and a ValueError when negative."""
    if type(e) is int and e >= 0:
        return e
    if type(e) is not int and type(e) is not Fraction:
        raise TypeError(f"exponent {e!r} is not an int or a Fraction")
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    return e.numerator if e.denominator == 1 else e


def _coeff(c, what: str = "coefficient") -> int | Fraction:
    """A coefficient (or the ``what`` named, such as a component weight) in
    normal form: an int when integral, else a Fraction.  Anything but an
    int or a Fraction is a TypeError: 1/2 is a float."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        raise TypeError(f"{what} {c!r} is not an int or a Fraction")
    return c.numerator if c.denominator == 1 else c


def _ints(terms: dict) -> dict:
    """``terms`` with each integral Fraction coefficient stored as an int,
    in place."""
    if Fraction in set(map(type, terms.values())):
        for exps, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[exps] = c.numerator
    return terms


def _add_terms(out: dict, terms) -> None:
    """Add (exponents, coefficient) pairs into the term dict ``out``,
    dropping the entries whose coefficients cancel."""
    for exps, c in terms:
        acc = out.get(exps)
        if acc is None:
            out[exps] = c
        else:
            acc += c
            if not acc:
                del out[exps]
            elif type(acc) is Fraction and acc.denominator == 1:
                out[exps] = acc.numerator
            else:
                out[exps] = acc


def _convolve(a: dict, b: dict) -> dict:
    """The term dict of the product of the term dicts ``a`` and ``b``, the
    entries whose coefficients cancel dropped; coefficients and exponents as
    the products and sums give them."""
    out: dict[Exponents, int | Fraction] = {}
    b_terms = b.items()
    for ea, ca in a.items():
        for eb, cb in b_terms:
            key = tuple(map(add, ea, eb))
            c = ca * cb
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc += c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return out


class Polynomial:
    """Immutable sparse polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int | Fraction] | None = None):
        clean: dict[Exponents, int | Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                c = _coeff(coeff)
                if not c:
                    continue
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong arity for {nvars} variables")
                key = tuple(_norm_exp(e) for e in exps)
                acc = clean.get(key)
                c = c if acc is None else _coeff(acc + c)
                if c == 0:
                    clean.pop(key, None)
                else:
                    clean[key] = c
        _set_nvars(self, nvars)
        _set_terms(self, clean)

    @classmethod
    def _wrap(cls, nvars: int, terms: dict[Exponents, int | Fraction]) -> "Polynomial":
        """A polynomial over ``terms`` as given, which must already satisfy
        the normalization invariant (see the module docstring)."""
        poly = _new(cls)
        _set_nvars(poly, nvars)
        _set_terms(poly, terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial._wrap(nvars, {})

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        c = _coeff(value)
        return Polynomial._wrap(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        exps = [0] * nvars
        exps[index] = 1
        return Polynomial._wrap(nvars, {tuple(exps): 1})

    @staticmethod
    def monomial(nvars: int, exps: Iterable, coeff=1) -> "Polynomial":
        return Polynomial(nvars, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * self.nvars, 0)

    def has_fractional_exponent(self, index: int | None = None) -> bool:
        """Whether some exponent (of the variable ``index``, if given) is
        a Fraction, by one flat pass over the exponents' types."""
        exps = (chain.from_iterable(self.terms) if index is None
                else map(itemgetter(index), self.terms))
        return Fraction in set(map(type, exps))

    def variables_used(self) -> set[int]:
        used: set[int] = set()
        for exps in self.terms:
            used.update(i for i, e in enumerate(exps) if e != 0)
        return used

    def sorted_terms(self) -> list[tuple[Exponents, int | Fraction]]:
        """Terms in graded-lex order (total degree, then exponent tuple)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        out = dict(self.terms)
        _add_terms(out, other.terms.items())
        return Polynomial._wrap(self.nvars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._wrap(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        out = _convolve(self.terms, other.terms)
        if self.has_fractional_exponent() or other.has_fractional_exponent():
            return Polynomial(self.nvars, out)
        return Polynomial._wrap(self.nvars, _ints(out))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = _coeff(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial._wrap(self.nvars, _ints({e: c * v for e, v in self.terms.items()}))

    def __pow__(self, n: int) -> "Polynomial":
        """self^n by ``substitute``'s power builder: the binomial theorem
        for two terms, the multinomial theorem for more."""
        if type(n) is not int or n < 0:
            raise ValueError("only nonnegative integer powers")
        if not self.nvars:
            return Polynomial.constant(0, self.constant_term() ** n)
        x0n = Polynomial._wrap(self.nvars, {(n,) + (0,) * (self.nvars - 1): 1})
        return substitute(x0n, {0: self})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-looking container semantics

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {format_polynomial(self)!r})"


# the slots' member descriptors set them past ``__setattr__``
_new, _set_nvars, _set_terms = object.__new__, Polynomial.nvars.__set__, Polynomial.terms.__set__


# ---------------------------------------------------------------------------
# Orders and initial forms


def ord_at_origin(f: Polynomial):
    """Minimal total degree among the terms of f; INF for the zero polynomial."""
    return min(map(sum, f.terms)) if f.terms else INF


def initial_form(f: Polynomial, b) -> Polynomial:
    """Sum of the terms of degree exactly b; the zero polynomial when b is
    negative or not an integer."""
    if type(b) is not int and Fraction(b).denominator != 1 or b < 0:
        return Polynomial.zero(f.nvars)
    return Polynomial._wrap(f.nvars, {e: c for e, c in f.terms.items() if sum(e) == b})


# ---------------------------------------------------------------------------
# Hasse derivatives


def hasse_derivative(f: Polynomial, order: Iterable[int]) -> Polynomial:
    """Binomial-weighted derivative: x^D maps to C(D, M) x^(D-M)."""
    M = tuple(order)
    if len(M) != f.nvars:
        raise ValueError("derivative order must cover all variables")
    if any(type(m) is not int or m < 0 for m in M):
        raise ValueError("derivative orders must be nonnegative integers")
    for i, m in enumerate(M):
        if m > 0 and f.has_fractional_exponent(i):
            raise PreconditionError("derivative undefined on fractional variable")
    # distinct exponents stay distinct after subtracting M, and C(D, M) >= 1,
    # so no two terms meet and none cancels
    active = [(i, m) for i, m in enumerate(M) if m]
    out: dict[Exponents, int | Fraction] = {}
    for exps, c in f.terms.items():
        key, w = list(exps), 1
        for i, m in active:
            e = exps[i]
            if e < m:
                break
            w *= math.comb(e, m)
            key[i] = e - m
        else:
            out[tuple(key)] = c * w
    return Polynomial._wrap(f.nvars, _ints(out))


# ---------------------------------------------------------------------------
# Substitution and monomial division


def substitute(f: Polynomial, assignment: Mapping[int, Polynomial]) -> Polynomial:
    """Exact composite polynomial; variables absent from the map stay fixed.

    The work is on term dicts (``_substitute``).  Each term of f has its
    mapped exponents zeroed; the power c^e * x^(e*E) of every single-term
    g_i is folded into the term's exponent tuple and coefficient, and only
    the powers of the multi-term g_i are convolved with it.  Each power is
    built once, in a table that a call makes and that a rewrite of many
    polynomials by one assignment shares.  That of a two-term g_i = a + b
    comes from the binomial theorem, sum_k C(e, k) a^k b^(e-k), and that of
    a g_i of three or more terms from the multinomial theorem, one term at a
    time (``_multinomial_power``), which merges the colliding monomials.

    A variable carrying fractional exponents may only be mapped to a
    single-term polynomial with coefficient 1 (a unit monomial), so that the
    fractional power stays exact.  When f or a g_i has a fractional
    exponent, the result goes through the normalizing constructor, since
    two fractional exponents may add up to an int.
    """
    images = {i: assignment[i].terms for i in range(f.nvars) if i in assignment}
    if any(assignment[i].nvars != f.nvars for i in images):
        raise ValueError("substitution must preserve the variable list")
    return _substitute(f, images, {})


def _substitute(f: Polynomial, images: dict, powers: dict) -> Polynomial:
    """``substitute`` by the term dicts g_i = images[i], keys increasing,
    with the power table (i, e) -> g_i^e that calls by the same images may
    share: ((index, exponent) pairs, coefficient) or a term dict."""

    def power(i: int, e):
        g = images[i]
        integral = type(e) is int
        if len(g) == 1:
            (gexps, gc), = g.items()
            if not integral and gc != 1:
                raise PreconditionError(
                    "fractional power of a non-unit monomial substitution"
                )
            return [(j, ge * e) for j, ge in enumerate(gexps) if ge], gc ** e if integral else gc
        if not integral:
            raise PreconditionError(
                "fractional power of a non-monomial substitution"
            )
        if len(g) == 2:
            # the terms' exponents differ, so distinct k give distinct keys
            (ea, ca), (eb, cb) = g.items()
            terms, binom = {}, 1  # binom = C(e, k)
            for k in range(e + 1):
                terms[tuple([x * k + y * (e - k) for x, y in zip(ea, eb)])] = (
                    binom * ca ** k * cb ** (e - k))
                binom = binom * (e - k) // (k + 1)
            return terms
        return g if e == 1 or not g else _multinomial_power(g, e)

    out: dict[Exponents, int | Fraction] = {}
    for exps, c in f.terms.items():
        key = list(exps)
        for i in images:
            key[i] = 0
        factors = []
        for i in images:
            e = exps[i]
            if not e:
                continue
            p = powers.get((i, e))
            if p is None:
                p = powers[i, e] = power(i, e)
            if type(p) is tuple:
                shifts, pc = p
                for j, x in shifts:
                    key[j] += x
                c *= pc
            else:
                factors.append(p)
        # one term times a power: no two products meet, none cancels
        term = ([(tuple(map(add, key, e)), c * pc) for e, pc in factors[0].items()]
                if factors else [(tuple(key), c)])
        for p in factors[1:]:
            term = _convolve(dict(term), p).items()
        _add_terms(out, term)
    if f.has_fractional_exponent() or Fraction in set(map(type, chain.from_iterable(
            chain.from_iterable(images.values())))):
        return Polynomial(f.nvars, out)
    return Polynomial._wrap(f.nvars, _ints(out))


def _multinomial_power(g: dict, e: int) -> dict:
    """The term dict of g^e for a term dict g of three or more terms, by the
    multinomial theorem.  A composition k of e is built one term u at a
    time, with a table of u's powers: with ``left`` of e still to give out,
    u takes k of it and the factor C(left, k) u^k, so a whole composition
    gets C(e; k) = e! / (k_1! ... k_m!).  The compositions that leave the
    same part of e and meet in one monomial add up before the next term, so
    colliding monomials, such as those of (x + y + x*y)^e, cost no more than
    distinct ones.  Each k runs down from ``left``, which meets the
    monomials in the order of repeated multiplication.  The work is in
    ints: g is scaled by the lcm D of its coefficients' denominators, and
    (D g)^e divided by D^e."""
    items, den = list(g.items()), 1
    if Fraction in set(map(type, g.values())):
        den = math.lcm(*[c.denominator for c in g.values()])
        items = [(exps, c.numerator * (den // c.denominator)) for exps, c in items]
    *head, (exps, c) = items
    # (*exponents, what is left of e) -> coefficient
    partial = {(0,) * len(exps) + (e,): 1}
    for hexps, hc in head:
        powers = _powers((*hexps, -1), hc, e)
        grown: dict = {}
        for key, v in partial.items():
            left = key[-1]
            binom = 1  # C(left, k)
            for k in range(left, -1, -1):
                kexps, kc = powers[k]
                new = tuple(map(add, key, kexps)) if k else key
                acc = grown.get(new, 0) + binom * v * kc
                if acc:
                    grown[new] = acc
                else:
                    del grown[new]
                binom = binom * k // (left - k + 1)
        partial = grown
    powers = _powers(exps, c, e)
    out: dict[Exponents, int | Fraction] = {}
    # the last term takes what is left; map drops the key's last entry
    _add_terms(out, ((tuple(map(add, key, powers[key[-1]][0])), v * powers[key[-1]][1])
                     for key, v in partial.items()))
    if den != 1:
        scale = den ** e
        for key, v in out.items():
            out[key] = _coeff(Fraction(v, scale))
    return out


def _powers(step: tuple, c: int, top: int) -> list:
    """[(k * step, c^k) for k = 0 ... top], each from the one before."""
    out = [((0,) * len(step), 1)]
    for _ in range(top):
        exps, ck = out[-1]
        out.append((tuple(map(add, exps, step)), ck * c))
    return out


def divide_by_monomial(f: Polynomial, powers) -> Polynomial:
    """Exact division by the monomial of the (index, power) pairs ``powers``,
    in one pass over the terms; a ValueError if not exact."""
    cuts = [(i, _norm_exp(p)) for i, p in powers]
    out: dict[Exponents, int | Fraction] = {}
    for exps, c in f.terms.items():
        for i, p in cuts:
            if exps[i] < p:
                raise ValueError("inexact monomial division")
            exps = exps[:i] + (_norm_exp(exps[i] - p),) + exps[i + 1:]
        out[exps] = c
    return Polynomial._wrap(f.nvars, out)


# ---------------------------------------------------------------------------
# Text I/O

# a variable name: exactly what the tokenizer reads as one identifier
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9']*")
_TOKEN = re.compile(rf"\s*({_NAME.pattern}|[0-9]+|[()^*+-]|/)")
# the digit tokens that the parser reads inline, without ``_number``
_SMALL_INTS = {str(i): i for i in range(100)}
# the tokens after a factor that end its product; a digit ends it too
_PRODUCT_ENDS = frozenset((None, ")", "^", "+", "-"))


def _number(tok: str) -> int:
    """The int a digit token spells; a ProblemParseError when it has more
    digits than the interpreter converts from a str."""
    try:
        return int(tok)
    except ValueError:
        raise ProblemParseError(
            f"a number of {len(tok)} digits is past the limit of "
            f"{sys.get_int_max_str_digits()}") from None


def _refuse_long_power(c: int | Fraction, q: int) -> None:
    """A ProblemParseError when the number c^q would have more digits than
    the interpreter converts to a str, told before c^q is computed: p^q has
    more than ``limit`` digits when q * log10(p) >= limit."""
    limit = sys.get_int_max_str_digits()
    for p in (abs(c.numerator), c.denominator):
        if limit and q and p > 1 and math.log10(p) >= limit / q:
            raise ProblemParseError(
                f"a numeric power has more digits than the limit of {limit}")


# Most terms a power of a compound may have, bounded before the power is
# built: a polynomial of m terms to the q has at most C(q + m - 1, m - 1)
# terms, the monomials of degree q in m unknowns.  (x + y)^3000 has 3001;
# (x + y + z + w)^5000 could have C(5003, 3) = 20845835001.
MAX_POWER_TERMS = 100_000


def _refuse_large_power(m: int, q: int) -> None:
    """A ProblemParseError naming the bound when a compound of m terms to
    the q may have more than ``MAX_POWER_TERMS`` terms."""
    bound = 1
    for i in range(1, m):  # bound = C(q + i, i), which grows with i
        bound = bound * (q + i) // i
        if bound > MAX_POWER_TERMS:
            raise ProblemParseError(
                f"a power of {m} terms to the {q} may have up to C({q} + {m - 1}, "
                f"{m - 1}) terms, past the limit of {MAX_POWER_TERMS}")


# Most term products a product of two compound factors may form, counted
# before it is formed: (x + y + z + w)^20 squared would form 1771 * 1771.
MAX_PRODUCT_TERMS = 1_000_000


def format_rational(q) -> str:
    """q as digits, "p/q" or "inf"; a PreconditionError naming the limit
    when a number has more digits than the interpreter converts to a str."""
    if type(q) is not int and type(q) is not Fraction:
        # only here: a Fraction compared with the float INF takes microseconds
        if q == INF:
            return "inf"
        q = Fraction(q)
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise PreconditionError(
            "a number has more digits than can be printed, the limit is "
            f"{sys.get_int_max_str_digits()}") from None


def format_polynomial(f: Polynomial, names: list[str] | None = None) -> str:
    if names is None:
        names = [f"x{i}" for i in range(f.nvars)]
    if f.is_zero():
        return "0"
    text = ""
    for exps, coeff in f.sorted_terms():
        factors = [names[i] if e == 1 else f"{names[i]}^{format_rational(e)}"
                   if isinstance(e, int) else f"{names[i]}^({format_rational(e)})"
                   for i, e in enumerate(exps) if e != 0]
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, format_rational(mag))
        text += (" - " if coeff < 0 else " + ") if text else ("-" if coeff < 0 else "")
        text += "*".join(factors)
    return text


class _Parser:
    """Recursive descent over the tokens of one polynomial, walked by index.

    The tokens are a list that ends in a ``None`` sentinel, read by a
    position.  A product gathers its numbers and variable powers straight
    into one term, a coefficient and an exponent list, and the terms of a
    sum go into one term dict that is wrapped once.  ``parse_product``
    reads a number, or a variable with a small ``^int`` power, inline in
    its loop; only a parenthesized factor (the one recursion), a ``(p/q)``
    exponent, a power of a number or of a compound, a division and the
    error cases go through ``parse_factor`` and its helpers, and only a
    parenthesized factor or a power of one through Polynomial arithmetic."""

    def __init__(self, text: str, names, index: dict[str, int], fractional_ok):
        tokens: list = _TOKEN.findall(text)
        # findall skips what no token matches: the tokens cover the text
        # exactly when they spell it without its whitespace
        if "".join(tokens) != "".join(text.split()):
            pos = 0
            while m := _TOKEN.match(text, pos):
                pos = m.end()
            raise ProblemParseError(f"bad character in polynomial: {text[pos:]!r}")
        tokens.append(None)  # read on the way, never consumed without an error
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.nvars = len(names)
        self.index = index
        self.fractional_ok = fractional_ok

    def take(self):
        """The token at the position, which moves past it."""
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ProblemParseError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> Polynomial:
        poly = self.parse_sum()
        if self.tokens[self.pos] is not None:
            raise ProblemParseError(f"trailing input at {self.tokens[self.pos]!r}")
        return poly

    def parse_sum(self) -> Polynomial:
        toks, pos = self.tokens, self.pos
        terms: dict[Exponents, int | Fraction] = {}
        while True:
            sign = 1
            tok = toks[pos]
            while tok == "+" or tok == "-":
                if tok == "-":
                    sign = -sign
                pos += 1
                tok = toks[pos]
            pos = self.parse_product(pos, sign, terms)
            tok = toks[pos]
            if tok != "+" and tok != "-":
                self.pos = pos
                return Polynomial._wrap(self.nvars, terms)

    def parse_product(self, pos: int, coeff: int, terms: dict[Exponents, int | Fraction]) -> int:
        """Add ``coeff`` times the product at ``pos`` into ``terms``; the
        position after it."""
        toks, index = self.tokens, self.index
        exps: list = [0] * self.nvars
        compound = None  # the product of the Polynomial factors, if any
        while True:
            # a token after a variable, or after "^", is at worst the sentinel
            tok = toks[pos]
            idx = index.get(tok)
            if idx is not None and toks[pos + 1] != "^":
                exps[idx] += 1
                pos += 1
            elif idx is not None and (q := _SMALL_INTS.get(toks[pos + 2])) is not None:
                exps[idx] += q
                pos += 3
            elif (c := _SMALL_INTS.get(tok)) is not None and toks[pos + 1] != "^":
                coeff *= c
                pos += 1
            else:
                self.pos = pos
                factor = self.parse_factor()
                pos = self.pos
                if type(factor) is tuple:
                    c, idx, q = factor
                    coeff *= c
                    if idx is not None:
                        exps[idx] = _norm_exp(exps[idx] + q)
                else:
                    m, k = 0 if compound is None else len(compound.terms), len(factor.terms)
                    if m * k > MAX_PRODUCT_TERMS:
                        raise ProblemParseError(
                            f"a product of {m} by {k} terms forms {m * k} term products, "
                            f"past the limit of {MAX_PRODUCT_TERMS}")
                    compound = factor if compound is None else compound * factor
            tok = toks[pos]
            while tok == "/":
                self.pos = pos + 1
                coeff = self.divide(coeff)
                pos = self.pos
                tok = toks[pos]
            if tok == "*":
                pos += 1
            elif tok in _PRODUCT_ENDS or tok.isdigit():
                break
            # else a variable or "(": implicit multiplication such as "3x"
        if not coeff:
            return pos
        key = tuple(exps)
        if type(coeff) is not int:
            coeff = _coeff(coeff)
        if compound is None and key not in terms:
            terms[key] = coeff
        else:
            term = {key: coeff} if compound is None else (
                compound * Polynomial._wrap(self.nvars, {key: coeff})).terms
            _add_terms(terms, term.items())
        return pos

    def parse_factor(self):
        """The next factor with its power: (coefficient, variable index or
        None, exponent) for a number or a variable power, else a Polynomial."""
        tok = self.take()
        if tok == "(":
            poly = self.parse_sum()
            self.expect(")")
            if self.tokens[self.pos] != "^":
                return poly
            self.pos += 1
            q = self.parse_exponent()
            if len(poly.terms) == 1 and next(iter(poly.terms.values())) == 1 and not poly.is_constant():
                exps = next(iter(poly.terms))
                for idx, e in enumerate(exps):
                    if e:
                        self.permit(idx, q)
                return Polynomial.monomial(self.nvars, tuple(e * q for e in exps))
            if q.denominator != 1:
                raise ProblemParseError("fractional exponent on a compound expression")
            if poly.is_constant():
                _refuse_long_power(poly.constant_term(), int(q))
            _refuse_large_power(len(poly.terms), int(q))
            return poly ** int(q)
        if tok is None:
            raise ProblemParseError("unexpected end of polynomial")
        if tok.isdigit():
            c = _number(tok)
            if self.tokens[self.pos] == "^":
                self.pos += 1
                q = self.parse_exponent()
                if q.denominator != 1:
                    raise ProblemParseError("fractional exponent on a compound expression")
                _refuse_long_power(c, int(q))
                c **= int(q)
            return c, None, 0
        idx = self.index.get(tok)
        if idx is None:
            if tok[0].isalpha() or tok[0] == "_":
                raise ProblemParseError(f"undeclared variable {tok!r}")
            raise ProblemParseError(f"expected a factor, got {tok!r}")
        q = 1
        if self.tokens[self.pos] == "^":
            self.pos += 1
            q = self.parse_exponent()
            self.permit(idx, q)
        return 1, idx, q

    def divide(self, coeff):
        """``coeff`` over the factor at the position, which must be a
        nonzero constant."""
        factor = self.parse_factor()
        if type(factor) is tuple:
            c, idx, q = factor
            den = c if idx is None or q == 0 else 0
        else:
            den = factor.constant_term() if factor.is_constant() else 0
        if not den:
            raise ProblemParseError("division only by nonzero constants")
        return Fraction(coeff) / den

    def permit(self, idx: int, q) -> None:
        """Reject a fractional power of a variable not allowed one."""
        if q.denominator != 1 and idx not in self.fractional_ok:
            raise ProblemParseError(
                f"fractional exponent on non-exceptional variable {self.names[idx]!r}"
            )

    def parse_exponent(self) -> int | Fraction:
        """The exponent after ``^``: an int, or a Fraction written ``(p/q)``."""
        tok = self.take()
        if tok == "(":
            num = self.take()
            if not (num and num.isdigit()):
                raise ProblemParseError("malformed exponent")
            q = _number(num)
            if self.tokens[self.pos] == "/":
                self.pos += 1
                den = self.take()
                if not (den and den.isdigit()):
                    raise ProblemParseError("malformed exponent")
                den = _number(den)
                if not den:
                    raise ProblemParseError("zero denominator in exponent")
                q = Fraction(q, den)
            self.expect(")")
            return q
        if tok and tok.isdigit():
            return _number(tok)
        raise ProblemParseError(f"malformed exponent at {tok!r}")


def variable_index(names: Iterable[str]) -> dict[str, int]:
    """The map from each of ``names`` to its position, but for a name that
    the tokenizer never reads as one identifier, such as ``2``, ``+`` or
    ``x y``: no polynomial can use it."""
    return {name: i for i, name in enumerate(names) if _NAME.fullmatch(name)}


def parse_polynomial(
    text: str, names, fractional_ok: Iterable[int] = (),
    index: dict[str, int] | None = None,
) -> Polynomial:
    """Parse terms like ``3/2*x^2*y - x + y^(5/2)`` over the declared
    ``names``.  ``index`` is ``variable_index(names)``, which a caller
    that parses many polynomials over the same names builds once."""
    if index is None:
        index = variable_index(names)
    try:
        return _Parser(text, names, index, frozenset(fractional_ok)).parse()
    except RecursionError:
        raise ProblemParseError("polynomial is nested too deeply") from None
