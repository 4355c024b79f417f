"""The resolution-invariant pipeline at a point: partition of the
exceptional divisors into old and new, the descent
G -> F -> coefficient pair -> companion pair, and the termination cases.

The vector has the shape (nu1, s1; nu2, s2; ...; nu_t) where nu1 is a
truncated Hilbert-Samuel sequence, each further nu is a rational residual
order (INF and 0 terminate), and s_i counts old exceptional divisors.

Each step (``invariant_step``) finds a maximal contact, reads mu, mu_H and
nu off the coefficient pair along it (mu and every mu_H in one walk of
``polyhedra.pair_minima``), and returns one ``StepResult``: nu,
the contact, the coordinate change ``find_maximal_contact`` applied, each
mu_H and the next state (None once nu is INF or 0).  No step drops a
variable: the frame's y-part collects the consumed contacts in order, on
which the pair has exponent 0, so the descent works in the year's variable
indices (a divisor is its variable's index), and every change, Phi and
the INF center are in the year's coordinates.  Along a trace a divisor is
old at step r when it was born no later than the first earlier year whose
comparison tokens (hs, s1, nu2, s2, ...) start with the current ones, as in
Bierstone-Milman.  So an earlier year is read token by token, only to the
depth that s_r compares it (``_evaluate``), and an error it would meet past
that depth is not raised.

Nothing is cross-checked at run time.  The tests hold the independent
checks: the paper's theorem (the first nu after the forced unit steps is
delta of the prepared polyhedron), and ``projected_invariant``, which reads
every nu off projections of one point set, as the paper does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .coeff import coefficient_pair, find_maximal_contact
from .errors import InternalError, PreconditionError
from .frames import Frame
from .history import PairWithHistory, Trace
from .pairs import Component, Pair, is_singular_at_origin
from .poly import INF, Polynomial, _coeff, divide_by_monomial, format_polynomial, substitute
from .polyhedra import pair_minima, projected_steps
from .cone import hilbert_samuel_truncated
from .record import Record


class Options(Record):
    hs_cutoff: int = 12


class HilbertSamuel(Record):
    dims: tuple[int, ...]
    cutoff: int


class InvariantEntry(Record):
    nu: int | Fraction
    s: int


class InvariantVector(Record):
    nu1: HilbertSamuel
    s1: int
    entries: tuple[InvariantEntry, ...]
    terminal: object | None            # 0 or INF once the run ends
    center: tuple[str, ...] | None     # blow-up center for the INF case
    monomial: str | None               # exceptional monomial for the 0 case

    def tokens(self) -> tuple:
        """Flat comparison sequence: s1, nu2, s2, ..., terminal."""
        toks: list = [self.s1]
        for e in self.entries:
            toks.append(e.nu)
            toks.append(e.s)
        if self.terminal is not None:
            toks.append(self.terminal)
        return tuple(toks)


class PipelineState(Record):
    pair: Pair
    frame: Frame                       # the year's variables, y = consumed contacts
    tracked: tuple[int, ...]           # variables of the divisors in no E^r yet
    pending: tuple[int, ...] = ()      # adjoined divisor variables, unconsumed, sorted


class StepResult(Record):
    nu: object
    contact: int                       # the contact's variable index
    change: dict                       # MaximalContact.change
    mus: tuple                         # (variable index, mu_H) per tracked divisor
    state: PipelineState | None        # the next step; None when nu is INF or 0


# ---------------------------------------------------------------------------
# Companion pair


def _exceptional_monomial(n: int, mus) -> Polynomial:
    at = dict(mus)
    return Polynomial.monomial(n, [at.get(i, 0) for i in range(n)])


def companion_pair(H: Pair, mus, nu) -> Pair:
    """Factor the exceptional monomial D out of every generator, in one
    pass over its terms, reweight by nu, and adjoin (D, 1 - nu) exactly
    when nu < 1.  ``mus`` is the step's (variable index, mu_H) pairs of H."""
    if nu == INF or nu == 0:
        raise PreconditionError("terminal case, no companion pair")
    factors = [(idx, mu) for idx, mu in mus if mu != 0]
    comps: list[Component] = []
    for comp in H.components:
        gens = comp.gens
        if factors:
            powers = [(idx, mu * comp.weight) for idx, mu in factors]
            try:
                gens = tuple([divide_by_monomial(g, powers) for g in gens])
            except ValueError as exc:
                raise InternalError("inexact exceptional factoring") from exc
        weight = _coeff(comp.weight * nu, "weight")
        if weight <= 0:
            raise PreconditionError("component weight must be positive")
        comps.append(Component._make((gens, weight)))
    if nu < 1 and factors:
        comps.append(Component._make(((_exceptional_monomial(H.nvars, mus),), _coeff(1 - nu))))
    return Pair._make((tuple(comps),))


# ---------------------------------------------------------------------------
# One descent step


def invariant_step(state: PipelineState) -> StepResult:
    """G -> F -> coefficient pair -> (mu, mu_H, nu) -> companion pair.
    mu and each mu_H are read off the coefficient pair along the contact
    (one ``pair_minima`` walk).  Adjoined divisors get the int weight 1, and
    on integral input every pair of the step has int coefficients."""
    mc = find_maximal_contact(state.pair, state.frame, state.pending)
    y, frame = mc.contact_index, mc.frame
    if y in state.tracked:
        raise InternalError("tracked divisor variable was consumed")
    H = coefficient_pair(mc.pair, frame)

    mu, *lows = pair_minima(H, (), [frame.u_indices, *[(i,) for i in state.tracked]])
    mus = tuple(zip(state.tracked, lows)) if mu != INF else ()
    nu = mu if mu == INF else _coeff(mu - sum(m for _, m in mus))
    if nu == INF or nu == 0:
        return StepResult(nu, y, mc.change, mus, None)
    pending = tuple(i for i in state.pending if i != y)
    next_state = PipelineState(companion_pair(H, mus, nu), frame, state.tracked, pending)
    return StepResult(nu, y, mc.change, mus, next_state)


# ---------------------------------------------------------------------------
# Year-by-year evaluation of the truncated invariant


def _hs_of_pair(pair: Pair, cutoff: int) -> HilbertSamuel:
    dims = hilbert_samuel_truncated(list(pair.all_generators()), cutoff)
    return HilbertSamuel(tuple(dims), cutoff)


def _drive(state: PairWithHistory, older, opts: Options):
    """Evaluate one year, whose point is singular, against the earlier
    years ``older`` (``_Year`` objects, oldest first).

    A generator: it yields the year's comparison tokens (hs dims, s1, nu2,
    s2, ..., terminal) one by one, each as soon as it is known, and returns
    the vector, one partition record (s_r, E^r ids, remaining ids) per
    step and each step's ``StepResult``.  Before step r it adjoins
    (x_i, 1) for each divisor of E^r, in id order.
    """
    hs = _hs_of_pair(state.pair, opts.hs_cutoff)
    names, placed = state.frame.variables, state.exdata.placed(state.frame)
    # the working frame: everything in the u-part, markings preserved
    frame = Frame._make((names, tuple(range(len(names))), (), state.frame.exceptional))
    cur = PipelineState(state.pair, frame, tuple(idx for _, idx in placed))
    tokens: list = [hs.dims]
    yield hs.dims
    records, steps = [], []

    while cur is not None:
        i_r = _first_matching_year(tokens, older)
        live = [(e, idx) for e, idx in placed if idx in cur.tracked]
        Er = {e.divisor_id: idx for e, idx in live if e.birth_year <= i_r}
        remaining = tuple(e.divisor_id for e, _ in live if e.birth_year > i_r)
        records.append((len(Er), tuple(Er), remaining))
        tokens.append(len(Er))
        yield len(Er)
        adjoined = tuple(Er[d] for d in sorted(Er))
        units = (Component._make(((Polynomial.variable(frame.nvars, i),), 1)) for i in adjoined)
        step = invariant_step(PipelineState(
            Pair._make((cur.pair.components + tuple(units),)), cur.frame,
            tuple(i for i in cur.tracked if i not in adjoined),
            tuple(sorted(cur.pending + adjoined))))
        steps.append(step)
        tokens.append(step.nu)
        yield step.nu
        cur = step.state

    pairs = tokens[2:-1]  # nu2, s2, nu3, s3, ...
    entries = tuple(InvariantEntry(nu, s) for nu, s in zip(pairs[::2], pairs[1::2]))
    center = tuple(names[s.contact] for s in steps) if step.nu == INF else None
    monomial = (format_polynomial(_exceptional_monomial(len(names), step.mus), list(names))
                if step.nu == 0 else None)
    vec = InvariantVector(hs, tokens[1], entries, step.nu, center, monomial)
    return vec, records, steps


class _Year:
    """An earlier year of a trace, read lazily: its tokens are computed
    only as far as a comparison asks for them."""

    def __init__(self, state: PairWithHistory, older: tuple, opts: Options):
        self.tokens: list = []
        # a year whose point is no longer singular has no tokens
        self._steps = (_drive(state, older, opts)
                       if is_singular_at_origin(state.pair) else iter(()))

    def token(self, i: int):
        """Token i, computed now if it is not known yet; None past the end."""
        self.tokens.extend(islice(self._steps, max(0, i + 1 - len(self.tokens))))
        return self.tokens[i] if i < len(self.tokens) else None


def _first_matching_year(tokens: list, older) -> int:
    """The first earlier year whose tokens start with ``tokens``;
    len(older) when there is none.  A year is read token by token and only
    while it agrees, so token i is computed only after 0..i-1 matched.

    A read never nests more than one year deep, so a long trace needs no
    deep recursion: the scan that asks year k for token i has already read
    every year before k as far as year k's own scans will read them."""
    for k, year in enumerate(older):
        if all(year.token(i) == tok for i, tok in enumerate(tokens)):
            return k
    return len(older)


def _evaluate(state: PairWithHistory, trace: Trace | None, opts: Options | None):
    """``_drive``'s result for the final year.  The earlier years
    are created undriven and read only to the depth that s_r compares, as
    in Bierstone-Milman: an error of an earlier year past that depth is not
    raised.  Without a trace ``state`` is the only year."""
    opts = opts or Options()
    if trace is not None and state != trace.final:
        raise PreconditionError("the state must be the final year of the trace")
    years = [rec.state for rec in trace.years] if trace is not None else [state]
    if not is_singular_at_origin(state.pair):
        raise PreconditionError("point not in Sing")
    older: list[_Year] = []
    for year in years[:-1]:
        older.append(_Year(year, tuple(older), opts))
    steps = _drive(state, older, opts)
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


# ---------------------------------------------------------------------------
# Public entry points


def compute_invariant(
    state: PairWithHistory, trace: Trace | None = None, opts: Options | None = None
) -> InvariantVector:
    """The invariant at the origin of ``state``, by the step-by-step
    descent.  Nothing is cross-checked at run time.

    With a trace, ``state`` must equal ``trace.final``, otherwise
    PreconditionError.  Each s_r then counts the divisors born no later
    than the first year whose invariant agrees with the final one so far;
    an earlier year is evaluated only to the depth that this comparison
    reads, and an error past that depth is not raised.
    """
    return _evaluate(state, trace, opts)[0]


def projected_invariant(
    state: PairWithHistory, trace: Trace | None = None, opts: Options | None = None
) -> InvariantVector:
    """The reference for ``compute_invariant``, with its trace contract,
    by the paper's route through polyhedra and their projections.  The
    descent's contact changes, all in the year's coordinates, substituted
    as recorded and in step order, compose Phi; every nu, the terminal and
    its monomial are read off projections of the points exps/b of G o Phi
    (``polyhedra.projected_steps``).  nu1, each s_r and the center are the
    descent's: the route checks the numbers, not the s-partition."""
    vec, records, steps = _evaluate(state, trace, opts)
    names, at = state.frame.variables, dict(state.frame.exceptional)
    gens = [(g, comp.weight) for comp in state.pair.components for g in comp.gens]
    for step in steps:
        if step.change:
            gens = [(substitute(g, step.change), b) for g, b in gens]
    route = [(step.contact, [at[d] for d in adjoined], [at[d] for d in tracked])
             for step, (_, adjoined, tracked) in zip(steps, records)]
    # Fraction(e): e / b of two ints would be a float
    points = {tuple(Fraction(e) / b for e in exps) for g, b in gens for exps in g.terms}
    nus, mu_h = projected_steps(points, route, len(names))
    nus = [nu if nu == INF else _coeff(nu) for nu in nus]
    entries = tuple(InvariantEntry(nu, rec[0]) for nu, rec in zip(nus[:-1], records[1:]))
    monomial = format_polynomial(Polynomial.monomial(len(names), mu_h), list(names))
    return vec._replace(entries=entries, terminal=nus[-1],
                        monomial=monomial if nus[-1] == 0 else None)


def s_partition(trace: Trace, opts: Options | None = None):
    """The old/new split of the exceptional divisors at the final point:
    one (s_i, E^i ids, remaining ids) triple per pipeline step.  Earlier
    years are read as in ``compute_invariant``: only to the depth that s_i
    compares, so an error past that depth is not raised."""
    return _evaluate(trace.final, trace, opts)[1]


def compare_invariants(a: InvariantVector, b: InvariantVector) -> str:
    """Lexicographic comparison; 'incomparable-at-cutoff' when the truncated
    Hilbert-Samuel parts tie but were computed at different cutoffs."""
    common = min(a.nu1.cutoff, b.nu1.cutoff)
    da, db = a.nu1.dims[:common], b.nu1.dims[:common]
    if da != db:
        return "less" if da < db else "greater"
    if a.nu1.cutoff != b.nu1.cutoff:
        return "incomparable-at-cutoff"
    ta, tb = a.tokens(), b.tokens()
    for xa, xb in zip(ta, tb):
        if xa == xb:
            continue
        return "less" if xa < xb else "greater"
    if len(ta) != len(tb):
        return "less" if len(ta) < len(tb) else "greater"
    return "equal"
