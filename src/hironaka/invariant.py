"""The resolution-invariant pipeline at a point: partition of the
exceptional divisors into old and new, the descent
G -> F -> coefficient pair -> companion pair, and the termination cases.

The vector has the shape (nu1, s1; nu2, s2; ...; nu_t) where nu1 is a
truncated Hilbert-Samuel sequence, each further nu is a rational residual
order (INF and 0 terminate), and s_i counts old exceptional divisors.

Each step (``invariant_step``) finds a maximal contact, then reads mu,
mu_H and nu off the coefficient pair along it and ends in a terminal case
or the companion pair.  It records the contact's name and the coordinate
change that ``find_maximal_contact`` applied.  Along a trace a
divisor is old at step r when it was born no later than the first earlier
year whose comparison tokens (hs, s1, nu2, s2, ...) start with the current
ones, as in Bierstone-Milman.  So an earlier year is read token by token,
only to the depth that s_r compares it (``_evaluate``), and an error it
would meet past that depth is not raised.

Nothing is cross-checked at run time.  The tests hold the independent
checks: the paper's theorem (the first nu after the forced unit steps is
delta of the prepared polyhedron), and ``projected_invariant``, which reads
every nu off projections of one point set, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice

from .coeff import coefficient_pair, find_maximal_contact
from .errors import InternalError, PreconditionError
from .frames import Frame
from .history import ExceptionalData, PairWithHistory, Trace
from .pairs import Component, Pair, is_singular_at_origin
from .poly import INF, Polynomial, divide_by_variable_power, format_polynomial, substitute
from .polyhedra import pair_minimum, projected_steps
from .cone import hilbert_samuel_truncated


@dataclass(frozen=True)
class Options:
    hs_cutoff: int = 12


@dataclass(frozen=True)
class HilbertSamuel:
    dims: tuple[int, ...]
    cutoff: int


@dataclass(frozen=True)
class InvariantEntry:
    nu: Fraction
    s: int


@dataclass(frozen=True)
class InvariantVector:
    nu1: HilbertSamuel
    s1: int
    entries: tuple[InvariantEntry, ...]
    terminal: object | None            # Fraction(0) or INF once the run ends
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


@dataclass(frozen=True)
class PipelineState:
    pair: Pair
    frame: Frame
    exdata: ExceptionalData
    consumed: tuple[str, ...]
    pending: tuple[str, ...]           # adjoined divisor variables, unconsumed
    adjoin: tuple[str, ...]            # divisor variables adjoined this step


@dataclass(frozen=True)
class Terminal:
    nu: object                         # Fraction(0) or INF
    center: tuple[str, ...] | None
    monomial: str | None


@dataclass(frozen=True)
class StepResult:
    nu: object
    outcome: object                    # PipelineState | Terminal
    contact: tuple = ()                # (name, frame variables, MaximalContact.change)


# ---------------------------------------------------------------------------
# Companion pair


def _exceptional_monomial(frame: Frame, mu_by_divisor) -> Polynomial:
    n = frame.nvars
    exps = [Fraction(0)] * n
    for div_id, mu in mu_by_divisor:
        idx = frame.variable_of(div_id)
        if idx is None:
            raise InternalError("divisor without a frame variable")
        exps[idx] += mu
    return Polynomial.monomial(n, tuple(exps))


def divisor_multiplicities(H: Pair, frame: Frame, exdata: ExceptionalData):
    """mu_H = min over components of (multiplicity along H) / weight, for
    each placed divisor in the u-part of a nonempty H: the least coordinate
    of its variable over the points exps/b (``pair_minimum``, no y-part)."""
    u_set = set(frame.u_indices)
    return tuple(
        (e.divisor_id, pair_minimum(H, (), (idx,)))
        for e, idx in exdata.placed(frame) if idx in u_set
    )


def companion_pair(H: Pair, frame: Frame, mus, nu) -> Pair:
    """Factor the exceptional monomial D out of every generator, reweight by
    nu, and adjoin (D, 1 - nu) exactly when nu < 1.  ``mus`` is
    ``divisor_multiplicities`` of H: (divisor id, mu_H) pairs."""
    if nu == INF or nu == 0:
        raise PreconditionError("terminal case, no companion pair")
    nu = Fraction(nu)
    factors = [(frame.variable_of(d), mu) for d, mu in mus if mu != 0]
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
        D = _exceptional_monomial(frame, mus)
        result = Pair(result.components + (Component((D,), 1 - nu),))
    return result


# ---------------------------------------------------------------------------
# One descent step


def invariant_step(state: PipelineState) -> StepResult:
    """G -> F -> coefficient pair -> (mu, mu_H, nu) -> companion or terminal.
    mu and each mu_H are ``pair_minimum`` of the coefficient pair along the
    contact."""
    frame, exdata = state.frame, state.exdata

    # adjoin the old divisors chosen for this step
    pair = state.pair
    if state.adjoin:
        units = (Polynomial.variable(frame.nvars, frame.index_of(nm)) for nm in state.adjoin)
        pair = Pair(pair.components + tuple(Component((u,), Fraction(1)) for u in units))
    pending = tuple(sorted(set(state.pending) | set(state.adjoin), key=frame.index_of))

    mc = find_maximal_contact(pair, frame, tuple(map(frame.index_of, pending)))
    y = mc.contact_index
    contact = (frame.variables[y], frame.variables, mc.change)
    H = coefficient_pair(mc.pair, mc.frame, [y])
    if any(idx == y for _, idx in exdata.placed(frame)):
        raise InternalError("tracked divisor variable was consumed")
    new_frame = mc.frame.drop_variables([y])

    mu = pair_minimum(H, (), range(new_frame.nvars))
    mus = divisor_multiplicities(H, new_frame, exdata) if not H.is_empty() else ()
    nu = mu if mu == INF else mu - sum((m for _, m in mus), start=Fraction(0))

    consumed = state.consumed + (contact[0],)
    if nu == INF:
        return StepResult(nu, Terminal(INF, consumed, None), contact)
    if nu == 0:
        D = _exceptional_monomial(new_frame, mus)
        monomial = format_polynomial(D, list(new_frame.variables))
        return StepResult(nu, Terminal(Fraction(0), None, monomial), contact)

    next_state = PipelineState(
        pair=companion_pair(H, new_frame, mus, nu),
        frame=new_frame,
        exdata=exdata,
        consumed=consumed,
        pending=tuple(nm for nm in pending if nm != contact[0]),
        adjoin=(),
    )
    return StepResult(nu, next_state, contact)


# ---------------------------------------------------------------------------
# Year-by-year evaluation of the truncated invariant


def _hs_of_pair(pair: Pair, cutoff: int) -> HilbertSamuel:
    dims = hilbert_samuel_truncated(list(pair.all_generators()), cutoff)
    return HilbertSamuel(tuple(dims), cutoff)


def _pipeline_frame(state: PairWithHistory) -> Frame:
    """The working frame: everything in the u-part, markings preserved."""
    fr = state.frame
    return Frame(fr.variables, tuple(range(fr.nvars)), (), fr.exceptional)


def _drive(state: PairWithHistory, older, opts: Options):
    """Evaluate one year, whose point is singular, against the earlier
    years ``older`` (``_Year`` objects, oldest first).

    A generator: it yields the year's comparison tokens (hs dims, s1, nu2,
    s2, ..., terminal) one by one, each as soon as it is known, and returns
    the vector, one partition record (s_r, E^r ids, remaining ids) per
    step and each step's ``StepResult.contact``.
    """
    hs = _hs_of_pair(state.pair, opts.hs_cutoff)
    cur = PipelineState(
        pair=state.pair, frame=_pipeline_frame(state), exdata=state.exdata,
        consumed=(), pending=(), adjoin=(),
    )
    tokens: list = [hs.dims]
    yield hs.dims
    records: list = []
    contacts: list = []

    while True:
        i_r = _first_matching_year(tokens, older)
        placed = cur.exdata.placed(cur.frame)
        Er = {e.divisor_id: idx for e, idx in placed if e.birth_year <= i_r}
        remaining = tuple(e.divisor_id for e, _ in placed if e.birth_year > i_r)
        records.append((len(Er), tuple(Er), remaining))
        tokens.append(len(Er))
        yield len(Er)
        adjoin = tuple(cur.frame.variables[Er[div_id]] for div_id in sorted(Er))
        kept = ExceptionalData(tuple(e for e in cur.exdata.entries if e.divisor_id not in Er))
        step = invariant_step(replace(cur, exdata=kept, adjoin=adjoin))
        contacts.append(step.contact)
        if isinstance(step.outcome, Terminal):
            tokens.append(step.outcome.nu)
            yield step.outcome.nu
            break
        tokens.append(step.nu)
        yield step.nu
        cur = step.outcome

    steps = tokens[2:-1]  # nu2, s2, nu3, s3, ...
    entries = tuple(InvariantEntry(nu, s) for nu, s in zip(steps[::2], steps[1::2]))
    end = step.outcome
    vec = InvariantVector(hs, tokens[1], entries, end.nu, end.center, end.monomial)
    return vec, records, contacts


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


def _lifted(change: dict, variables: tuple, names: tuple) -> dict:
    """``change``, an index -> polynomial map over ``variables``, moved by
    variable name onto ``names``."""
    at = [names.index(v) for v in variables]

    def spread(exps):
        placed = dict(zip(at, exps))
        return tuple(placed.get(j, 0) for j in range(len(names)))

    return {at[i]: Polynomial._wrap(len(names), {spread(e): c for e, c in g.terms.items()})
            for i, g in change.items()}


def projected_invariant(
    state: PairWithHistory, trace: Trace | None = None, opts: Options | None = None
) -> InvariantVector:
    """The reference for ``compute_invariant``, with its trace contract,
    by the paper's route through polyhedra and their projections.  The
    descent's contact changes, lifted to the year's coordinates by name and
    substituted in step order, compose Phi; every nu, the terminal and its
    monomial are read off projections of the points exps/b of G o Phi
    (``polyhedra.projected_steps``).  nu1, each s_r and the center are the
    descent's: the route checks the numbers, not the s-partition."""
    vec, records, contacts = _evaluate(state, trace, opts)
    names, at = state.frame.variables, dict(state.frame.exceptional)
    gens = [(g, comp.weight) for comp in state.pair.components for g in comp.gens]
    for _, variables, change in contacts:
        if change:
            lifted = _lifted(change, variables, names)
            gens = [(substitute(g, lifted), b) for g, b in gens]
    steps = [(names.index(name), [at[d] for d in adjoined], [at[d] for d in tracked])
             for (name, _, _), (_, adjoined, tracked) in zip(contacts, records)]
    points = {tuple(e / b for e in exps) for g, b in gens for exps in g.terms}
    nus, mu_h = projected_steps(points, steps, len(names))
    entries = tuple(InvariantEntry(nu, rec[0]) for nu, rec in zip(nus[:-1], records[1:]))
    monomial = format_polynomial(Polynomial.monomial(len(names), mu_h), list(names))
    return replace(vec, entries=entries, terminal=nus[-1],
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
