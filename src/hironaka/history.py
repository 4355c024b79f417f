"""Pairs with history: exceptional data, permissible coordinate blow-ups,
chart transforms, and the multiplicity bookkeeping along a recorded local
sequence of blow-ups.

Centers and divisors are restricted to coordinate subspaces of the current
frame, and the tracked point is always the chart origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InternalError, PreconditionError
from .frames import Frame
from .pairs import Component, Pair
from .poly import INF, Polynomial, divide_by_variable_power, substitute
from .polyhedra import coordinate_min, polyhedron_of_pair


@dataclass(frozen=True)
class ExcDivisor:
    divisor_id: str
    variable: int | None        # frame index, or None when the divisor
                                # no longer passes through the tracked point
    d: Fraction                 # assigned multiplicity
    birth_year: int

    def __post_init__(self):
        object.__setattr__(self, "d", Fraction(self.d))
        if self.variable is None and self.d != 0:
            raise PreconditionError("absent divisors carry assigned number 0")
        if self.d < 0:
            raise PreconditionError("assigned numbers are nonnegative")

    @property
    def present(self) -> bool:
        return self.variable is not None


@dataclass(frozen=True)
class ExceptionalData:
    entries: tuple[ExcDivisor, ...] = ()

    def __post_init__(self):
        marked = [e.variable for e in self.entries if e.present]
        if len(marked) != len(set(marked)):
            raise PreconditionError("exceptional variables must be pairwise distinct")
        ids = [e.divisor_id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise PreconditionError("divisor ids must be distinct")

    def present_entries(self) -> tuple[ExcDivisor, ...]:
        return tuple(e for e in self.entries if e.present)

    def get(self, divisor_id: str) -> ExcDivisor | None:
        for e in self.entries:
            if e.divisor_id == divisor_id:
                return e
        return None


@dataclass(frozen=True)
class PairWithHistory:
    pair: Pair
    frame: Frame
    exdata: ExceptionalData = field(default_factory=ExceptionalData)

    def __post_init__(self):
        for e in self.exdata.present_entries():
            if self.frame.divisor_on(e.variable) != e.divisor_id:
                raise PreconditionError(
                    f"divisor {e.divisor_id!r} is not marked on its frame variable"
                )


# ---------------------------------------------------------------------------
# Permissibility


def delta_center(E: Pair, frame: Frame, center) -> Fraction | float:
    """Minimal sum of the selected u-coordinates over the polyhedron.

    The center is V(all y-variables, selected u-variables); only the
    u-coordinates enter the sum.  INF on an empty polyhedron.
    """
    center = set(center)
    missing_y = [i for i in frame.y_indices if i not in center]
    if missing_y:
        raise PreconditionError("center must contain every y-variable")
    P = polyhedron_of_pair(E, frame)
    if P.is_empty():
        return INF
    positions = [pos for pos, i in enumerate(frame.u_indices) if i in center]
    return min(sum(Fraction(v[p]) for p in positions) for v in P.vertices)


def ord_along_center(g: Polynomial, center) -> Fraction:
    """Minimal center-variable degree over the terms of g."""
    idx = sorted(center)
    return min(sum(exps[i] for i in idx) for exps in g.terms)


def is_permissible(H: PairWithHistory, center) -> bool:
    """Regular coordinate center inside the singular locus, normal crossings
    with the marked divisors (automatic for coordinate data)."""
    center = sorted(set(center))
    if not center:
        raise PreconditionError("only coordinate centers supported")
    n = H.pair.nvars if H.pair.components else H.frame.nvars
    if any((not isinstance(i, int)) or i < 0 or i >= n for i in center):
        raise PreconditionError("only coordinate centers supported")
    for comp in H.pair.components:
        for g in comp.gens:
            if ord_along_center(g, center) < comp.weight:
                return False
    return True


# ---------------------------------------------------------------------------
# Blow-up charts


@dataclass(frozen=True)
class ChartReport:
    state: PairWithHistory
    center: tuple[int, ...]
    chart: int
    delta_center_value: Fraction | float
    new_divisor: str
    d_from_center: Fraction          # delta_center - 1
    d_from_polyhedron: Fraction      # coordinate_min on the new chart variable
    assigned: tuple[tuple[str, Fraction], ...]


def blowup_chart(
    H: PairWithHistory, center, chart: int, year: int | None = None
) -> ChartReport:
    """Transform to the chart where `chart` spans the exceptional divisor.

    Every other center variable v is replaced by chart*v and each component
    is divided by chart^weight exactly; the new divisor is marked on the
    chart variable with its multiplicity re-derived from the polyhedron.
    """
    center = sorted(set(center))
    if chart not in center:
        raise PreconditionError("chart variable must belong to the center")
    if not is_permissible(H, center):
        raise PreconditionError("center not permissible (order along center below a weight)")

    frame = H.frame
    n = frame.nvars
    dD = delta_center(H.pair, frame, center) if set(frame.y_indices) <= set(center) else None

    assignment = {
        v: Polynomial.variable(n, chart) * Polynomial.variable(n, v)
        for v in center
        if v != chart
    }
    comps = []
    for comp in H.pair.components:
        gens = []
        for g in comp.gens:
            moved = substitute(g, assignment)
            try:
                gens.append(divide_by_variable_power(moved, chart, comp.weight))
            except ValueError as exc:
                raise InternalError("inexact exceptional division") from exc
        comps.append(Component(tuple(gens), comp.weight))
    pair = Pair(tuple(comps))

    if year is None:
        year = max((e.birth_year for e in H.exdata.entries), default=0) + 1
    new_id = f"E{year}"
    if H.exdata.get(new_id) is not None:
        suffix = 1
        while H.exdata.get(f"E{year}.{suffix}") is not None:
            suffix += 1
        new_id = f"E{year}.{suffix}"

    # the chart variable becomes exceptional; it joins the u-part
    new_frame = frame.move_to_u(chart)
    entries: list[ExcDivisor] = []
    for e in H.exdata.entries:
        if e.present and e.variable == chart:
            # the old divisor's strict transform misses the chart origin
            entries.append(ExcDivisor(e.divisor_id, None, Fraction(0), e.birth_year))
            new_frame = new_frame.without_mark(e.divisor_id)
        else:
            entries.append(e)
    new_frame = new_frame.with_mark(new_id, chart)

    P = polyhedron_of_pair(pair, new_frame)
    u_position = {i: pos for pos, i in enumerate(new_frame.u_indices)}

    def derived(var: int) -> Fraction:
        if var in u_position and not P.is_empty():
            return coordinate_min(P, u_position[var])
        return Fraction(0)

    refreshed: list[ExcDivisor] = []
    assigned: list[tuple[str, Fraction]] = []
    for e in entries:
        if e.present:
            d = derived(e.variable)
            refreshed.append(ExcDivisor(e.divisor_id, e.variable, d, e.birth_year))
            assigned.append((e.divisor_id, d))
        else:
            refreshed.append(e)
    d_new = derived(chart)
    refreshed.append(ExcDivisor(new_id, chart, d_new, year))
    assigned.append((new_id, d_new))

    state = PairWithHistory(pair, new_frame, ExceptionalData(tuple(refreshed)))
    return ChartReport(
        state=state,
        center=tuple(center),
        chart=chart,
        delta_center_value=dD if dD is not None else Fraction(0),
        new_divisor=new_id,
        d_from_center=(dD - 1) if isinstance(dD, Fraction) else Fraction(0),
        d_from_polyhedron=d_new,
        assigned=tuple(assigned),
    )


# ---------------------------------------------------------------------------
# Local sequences of blow-ups


@dataclass(frozen=True)
class YearRecord:
    year: int
    state: PairWithHistory
    step: ChartReport | None      # the step that produced this year (None at 0)


@dataclass(frozen=True)
class Trace:
    years: tuple[YearRecord, ...]

    @property
    def final(self) -> PairWithHistory:
        return self.years[-1].state

    def __len__(self) -> int:
        return len(self.years)


def run_lsb(H: PairWithHistory, script) -> Trace:
    """Run a scripted sequence of chart blow-ups from the given state.

    ``script`` is a list of (center variable names, chart variable name);
    the tracked point is always the chart origin.  A PreconditionError of
    year k, from the names or from ``blowup_chart``, is prefixed "year k: ".
    """
    years = [YearRecord(0, H, None)]
    state = H
    for k, (center_names, chart_name) in enumerate(script, start=1):
        frame = state.frame
        try:
            center = [frame.index_of(name) for name in center_names]
            report = blowup_chart(state, center, frame.index_of(chart_name), year=k)
        except PreconditionError as exc:
            raise PreconditionError(f"year {k}: {exc}") from None
        state = report.state
        years.append(YearRecord(k, state, report))
    return Trace(tuple(years))


# ---------------------------------------------------------------------------
# The residual order with respect to the exceptional data


def exceptional_nu(E: Pair, frame: Frame, exdata: ExceptionalData):
    """delta of the prepared polyhedron minus the assigned multiplicities of
    the present divisors sitting in the u-part."""
    from .coeff import delta_invariant

    d = delta_invariant(E, frame)
    u_set = set(frame.u_indices)
    total = sum(
        (e.d for e in exdata.present_entries() if e.variable in u_set),
        start=Fraction(0),
    )
    if d == INF:
        return INF
    return d - total
