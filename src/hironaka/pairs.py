"""Pairs: finite intersections of (generator list, positive rational weight)
components, with their order and the singular-locus test at the origin.

A weight is stored like a coefficient (``poly._coeff``): an int when
integral, else a Fraction; a float or a bool weight is a TypeError.

Equivalence of pairs is never decided, and no rewrite of a pair lives
here.  Pairs change only in the modules that need it: coordinate changes
and coefficient pairs in ``coeff``, companion pairs in ``invariant``,
blow-ups in ``history``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .poly import INF, Polynomial, _coeff, ord_at_origin
from .record import Record


class Component(Record):
    gens: tuple[Polynomial, ...]
    weight: int | Fraction

    def __new__(cls, gens, weight):
        weight = _coeff(weight, "weight")
        gens = tuple(gens)
        if weight <= 0:
            raise PreconditionError("component weight must be positive")
        if not gens or any(g.is_zero() for g in gens):
            raise PreconditionError("every component needs at least one nonzero generator")
        return super().__new__(cls, gens, weight)

    @property
    def nvars(self) -> int:
        return self.gens[0].nvars

    def ideal_order(self):
        return min(ord_at_origin(g) for g in self.gens)


class Pair(Record):
    components: tuple[Component, ...]

    def __new__(cls, components):
        components = tuple(components)
        arities = {c.nvars for c in components}
        if len(arities) > 1:
            raise PreconditionError("components must share one variable list")
        return super().__new__(cls, components)

    @staticmethod
    def single(gens, weight) -> "Pair":
        return Pair((Component(tuple(gens), weight),))

    @property
    def nvars(self) -> int:
        if not self.components:
            raise PreconditionError("empty pair has no ambient arity")
        return self.components[0].nvars

    def is_empty(self) -> bool:
        return not self.components

    def all_generators(self) -> tuple[Polynomial, ...]:
        return tuple(g for c in self.components for g in c.gens)


def pair_order(E: Pair):
    """min over components of ord(J)/b clamped to 0 below the weight.

    The empty intersection has order INF.
    """
    if E.is_empty():
        return INF
    best = INF
    for comp in E.components:
        o = comp.ideal_order()
        val = INF if o == INF else (_coeff(Fraction(o, comp.weight)) if o >= comp.weight else 0)
        best = min(best, val)
    return best


def is_singular_at_origin(E: Pair) -> bool:
    """True iff every component has ideal order >= its weight at the origin."""
    return all(comp.ideal_order() >= comp.weight for comp in E.components)
