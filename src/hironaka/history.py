"""Pairs with history: exceptional data, permissible coordinate blow-ups,
chart transforms, and the multiplicity bookkeeping along a recorded local
sequence of blow-ups.

Centers and divisors are restricted to coordinate subspaces of the current
frame, and the tracked point is always the chart origin.  The frame's marks
are the only record of where a divisor sits: an entry of the exceptional
data passes through the tracked point exactly when the frame marks its id.

Every number read off a polyhedron here (delta_center, the d of each
divisor, and ord_C >= b for ``is_permissible``) is read by
``pair_minima`` over the raw points of the pair: a blow-up builds no
vertex set, and reads every d of its chart in one walk.

A chart blow-up is a linear map on exponents, and so on the points exps/b,
shifted in the chart's coordinate (``blowup_chart``): it multiplies no
polynomials, and a negative shifted exponent refuses the center.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import delta_invariant
from .errors import PreconditionError
from .frames import Frame
from .pairs import Component, Pair
from .poly import INF, Polynomial, _coeff, _norm_exp
from .polyhedra import pair_minima
from .record import Record


class ExcDivisor(Record):
    divisor_id: str
    d: int | Fraction           # assigned multiplicity
    birth_year: int

    def __new__(cls, divisor_id, d, birth_year):
        d = _coeff(d, "assigned number")
        if d < 0:
            raise PreconditionError("assigned numbers are nonnegative")
        return super().__new__(cls, divisor_id, d, birth_year)


class ExceptionalData(Record):
    entries: tuple[ExcDivisor, ...]

    def __new__(cls, entries=()):
        ids = [e.divisor_id for e in entries]
        if len(ids) != len(set(ids)):
            raise PreconditionError("divisor ids must be distinct")
        return super().__new__(cls, entries)

    def placed(self, frame: Frame) -> tuple[tuple[ExcDivisor, int], ...]:
        """(entry, frame index) for each entry the frame marks, in entry order."""
        marks = dict(frame.exceptional)
        return tuple((e, marks[e.divisor_id]) for e in self.entries if e.divisor_id in marks)

    def get(self, divisor_id: str) -> ExcDivisor | None:
        for e in self.entries:
            if e.divisor_id == divisor_id:
                return e
        return None


class PairWithHistory(Record):
    pair: Pair
    frame: Frame
    exdata: ExceptionalData

    def __new__(cls, pair, frame, exdata=ExceptionalData()):
        if any(e.d != 0 and frame.variable_of(e.divisor_id) is None
               for e in exdata.entries):
            raise PreconditionError("absent divisors carry assigned number 0")
        return super().__new__(cls, pair, frame, exdata)


# ---------------------------------------------------------------------------
# Permissibility


def delta_center(E: Pair, frame: Frame, center) -> int | Fraction | float:
    """Minimal sum of the selected u-coordinates over the polyhedron.

    The center is V(all y-variables, selected u-variables); only the
    u-coordinates enter the sum.  INF on an empty polyhedron.
    """
    center = set(center)
    if not center.issuperset(frame.y_indices):
        raise PreconditionError("center must contain every y-variable")
    return pair_minima(E, frame.y_indices, [[i for i in frame.u_indices if i in center]])[0]


def _coordinate_center(H: PairWithHistory, center) -> list[int]:
    """The center sorted, if it is a nonempty set of variable indices."""
    center, n = sorted(set(center)), H.pair.nvars if H.pair.components else H.frame.nvars
    if not center or any(type(i) is not int or not 0 <= i < n for i in center):
        raise PreconditionError("only coordinate centers supported")
    return center


def is_permissible(H: PairWithHistory, center) -> bool:
    """Regular coordinate center inside the singular locus, normal crossings
    with the marked divisors (automatic for coordinate data): ord_C >= b on
    every term, that is, the center's coordinate sum is at least 1 on every
    point exps/b."""
    return pair_minima(H.pair, (), [_coordinate_center(H, center)])[0] >= 1


# ---------------------------------------------------------------------------
# Blow-up charts


class ChartReport(Record):
    state: PairWithHistory
    center: tuple[int, ...]
    chart: int
    delta_center_value: int | Fraction | float
    new_divisor: str
    d_from_center: int | Fraction    # delta_center - 1
    d_from_polyhedron: int | Fraction  # minimum of the new chart coordinate


def _chart_pair(E: Pair, center: list[int], chart: int) -> Pair:
    """E in the chart of ``chart``, by the exponent map of ``blowup_chart``,
    or a PreconditionError at the first term whose center sum is below b."""
    comps = []
    for comp in E.components:
        b = comp.weight
        gens = []
        for g in comp.gens:
            terms = {}
            for exps, c in g.terms.items():
                e = sum([exps[v] for v in center]) - b
                if e < 0:
                    raise PreconditionError(
                        "center not permissible (order along center below a weight)")
                if type(e) is not int:
                    e = _norm_exp(e)
                terms[exps[:chart] + (e,) + exps[chart + 1:]] = c
            gens.append(Polynomial._wrap(g.nvars, terms))
        comps.append(Component._make((tuple(gens), b)))
    return Pair._make((tuple(comps),))


def blowup_chart(
    H: PairWithHistory, center, chart: int, year: int | None = None
) -> ChartReport:
    """Transform to the chart where `chart` spans the exceptional divisor.

    x_v -> x_chart*x_v for every other center variable v, then the exact
    division of each component by x_chart^b, is one linear map on
    exponents shifted by -b in the chart's coordinate, and so on the
    points exps/b with a shift by -1: a term keeps its coefficient and
    every exponent but the chart's, which becomes the sum of its center
    exponents minus b.  The map is injective, so no two terms meet, and
    the center is permissible iff no such exponent is negative.
    The new divisor is marked on the chart variable with its multiplicity
    re-derived from the polyhedron.
    """
    center = sorted(set(center))
    if chart not in center:
        raise PreconditionError("chart variable must belong to the center")
    _coordinate_center(H, center)

    pair = _chart_pair(H.pair, center, chart)
    frame = H.frame
    dD = delta_center(H.pair, frame, center) if set(frame.y_indices) <= set(center) else None

    if year is None:
        year = max((e.birth_year for e in H.exdata.entries), default=0) + 1
    new_id = f"E{year}"
    if H.exdata.get(new_id) is not None:
        suffix = 1
        while H.exdata.get(f"E{year}.{suffix}") is not None:
            suffix += 1
        new_id = f"E{year}.{suffix}"

    # the chart variable becomes exceptional and joins the u-part; a divisor
    # marked on it loses its mark, since its strict transform misses the
    # chart origin
    new_frame = frame.move_to_u(chart).with_mark(new_id, chart)

    # each d is the least coordinate of its u-variable, in one walk; an
    # unmarked divisor misses the tracked point and carries 0, and so does
    # one on a y-variable or with no point.  An entry whose d does not change
    # is kept, so a divisor that has left is built once
    placed = [(e.divisor_id, idx) for e, idx in H.exdata.placed(new_frame)
              if idx in new_frame.u_indices]
    ds = [0 if d == INF else d for d in pair_minima(
        pair, new_frame.y_indices, [(idx,) for _, idx in placed] + [(chart,)])]
    d_of, d_new = dict(zip([div for div, _ in placed], ds)), ds[-1]
    entries = []
    for e in H.exdata.entries:
        d = d_of.get(e.divisor_id, 0)
        entries.append(e if d == e.d else ExcDivisor._make((e.divisor_id, d, e.birth_year)))
    entries.append(ExcDivisor._make((new_id, d_new, year)))

    state = PairWithHistory._make((pair, new_frame, ExceptionalData._make((tuple(entries),))))
    return ChartReport(
        state=state,
        center=tuple(center),
        chart=chart,
        delta_center_value=0 if dD is None else dD,
        new_divisor=new_id,
        d_from_center=0 if dD is None or dD == INF else dD - 1,
        d_from_polyhedron=d_new,
    )


# ---------------------------------------------------------------------------
# Local sequences of blow-ups


class YearRecord(Record):
    year: int
    state: PairWithHistory
    step: ChartReport | None      # the step that produced this year (None at 0)


class Trace(Record):
    years: tuple[YearRecord, ...]

    @property
    def final(self) -> PairWithHistory:
        return self.years[-1].state


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
    d = delta_invariant(E, frame)
    if d == INF:
        return INF
    u_set = set(frame.u_indices)
    return _coeff(d - sum(e.d for e, idx in exdata.placed(frame) if idx in u_set))
