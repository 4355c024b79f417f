"""Pairs: finite intersections of (generator list, positive rational weight)
components, with order and singular-locus tests at the origin and the
order-preserving rewrite operations.

Equivalence of pairs is never decided; only the constructive rewrites are
exposed, each as a total function with an explicit contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement

from .errors import PreconditionError
from .poly import INF, Polynomial, log_diff, ord_at_origin


def _product(polys, nvars: int) -> Polynomial:
    return reduce(lambda a, b: a * b, polys, Polynomial.constant(nvars, 1))


@dataclass(frozen=True)
class Component:
    gens: tuple[Polynomial, ...]
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", Fraction(self.weight))
        object.__setattr__(self, "gens", tuple(self.gens))
        if self.weight <= 0:
            raise PreconditionError("component weight must be positive")
        if not self.gens or any(g.is_zero() for g in self.gens):
            raise PreconditionError("every component needs at least one nonzero generator")

    @property
    def nvars(self) -> int:
        return self.gens[0].nvars

    def ideal_order(self):
        return min(ord_at_origin(g) for g in self.gens)


@dataclass(frozen=True)
class Pair:
    components: tuple[Component, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        arities = {c.nvars for c in self.components}
        if len(arities) > 1:
            raise PreconditionError("components must share one variable list")

    @staticmethod
    def single(gens, weight) -> "Pair":
        return Pair((Component(tuple(gens), Fraction(weight)),))

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
        val = INF if o == INF else (Fraction(o) / comp.weight if o >= comp.weight else Fraction(0))
        best = min(best, val)
    return best


def is_singular_at_origin(E: Pair) -> bool:
    """True iff every component has ideal order >= its weight at the origin."""
    return all(comp.ideal_order() >= comp.weight for comp in E.components)


def power_rewrite(E: Pair, a: int) -> Pair:
    """(J, b) -> (J^a, a*b) on a single-component pair."""
    if len(E.components) != 1:
        raise PreconditionError("power_rewrite needs a single component")
    if not isinstance(a, int) or a <= 0:
        raise PreconditionError("power must be a positive integer")
    comp = E.components[0]
    gens = tuple(_product(c, comp.nvars)
                 for c in combinations_with_replacement(comp.gens, a))
    return Pair.single(gens, comp.weight * a)


def merge_to_single(E: Pair, m: int) -> Pair:
    """Collapse an intersection to (sum of J_i^(m/b_i), m); each b_i | m."""
    if not isinstance(m, int) or m <= 0:
        raise PreconditionError("m must be a positive integer")
    gens: list[Polynomial] = []
    for comp in E.components:
        ratio = Fraction(m) / comp.weight
        if ratio.denominator != 1:
            raise PreconditionError("weight does not divide m")
        k = int(ratio)
        for combo in combinations_with_replacement(comp.gens, k):
            gens.append(_product(combo, comp.nvars))
    return Pair.single(tuple(gens), m)


def apply_log_diff(E: Pair, order) -> Pair:
    """Adjoin the logarithmic-derivative component per component of E.

    Components with weight <= |order| are skipped; generators killed by the
    operator are dropped.  The polyhedron of the pair is unchanged.
    """
    M = tuple(order)
    total = sum(M)
    extra: list[Component] = []
    for comp in E.components:
        if comp.weight <= total:
            continue
        gens = tuple(g2 for g in comp.gens if not (g2 := log_diff(g, M)).is_zero())
        if gens:
            extra.append(Component(gens, comp.weight - total))
    return Pair(E.components + tuple(extra))
