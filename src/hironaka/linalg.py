"""Exact rational linear algebra on dict rows: one sparse elimination,
nullspaces and an LP feasibility test.

Every elimination, the LP included, reduces dict rows with ``_subtract``.
``eliminate`` reduces an int row on its smallest key, fraction-free: a
step (``_cancel``) replaces the row by (p/g)*row - (w/g)*pivot, with p the
pivot's lead, w the row's entry there and g = gcd(p, w), as in Bareiss
(Math. Comp. 22, 1968) with a gcd in place of his exact division, and a
row that is left is divided by the gcd of its entries.  Scaling a row
keeps its span and its lead, so the pivot columns are those of the
dividing elimination.  ``_echelon`` clears the denominators of each input
row and keeps each row that does not reduce to zero as the pivot row of
its smallest column: ``sparse_rank`` reads its pivots, and ``_reduced``
back-substitutes with the same step.  Fractions are made only for the
entries that ``sparse_rref`` and ``nullspace`` return, each an int over
its row's lead, and by ``reduce_against`` on such rows; ``rref`` and
``solve`` read ``sparse_rref``.  The reduced form is unique, so it does
not depend on the order of the input rows.  The simplex of
``lp_feasible`` keeps int rows too: a pivot with lead p > 0 replaces each
other row by p*row - w*pivot over its content.  ``cone`` eliminates rows
of its own: monomials packed into ints (Hilbert-Samuel) and tagged
derivative rows (the directrix).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = list[Fraction]
SparseRow = dict[int, int | Fraction]
ZERO, ONE = Fraction(0), Fraction(1)


def clear_denominators(row: dict) -> dict:
    """The nonzero entries of a row of ints and Fractions times the least
    common multiple of their denominators: an int row with the same span."""
    den = lcm(*[v.denominator for v in row.values()])
    return {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}


def _subtract(work: SparseRow, factor, row: SparseRow) -> None:
    """work -= factor * row, in place, dropping entries that cancel."""
    for k, v in row.items():
        nv = work.get(k, 0) - factor * v
        if nv:
            work[k] = nv
        else:
            work.pop(k, None)


def _divide_by_content(work: SparseRow) -> None:
    content = gcd(*work.values())
    if content > 1:
        for k in work:
            work[k] //= content


def _cancel(work: SparseRow, c: int, pivot: SparseRow) -> None:
    """Clear column c of the int row ``work`` by the int row ``pivot``."""
    p, w = pivot[c], work[c]
    factor, rest = divmod(w, p)
    if rest:
        g = gcd(p, w)
        for k in work:
            work[k] *= p // g
        factor = w // g
    _subtract(work, factor, pivot)


def eliminate(work: dict, pivot_of):
    """Reduce the int row ``work`` in place on its smallest key against
    ``pivot_of(key)``, an int pivot row whose smallest key is that key (or
    None when there is none), until it is empty or its smallest key has no
    pivot row.  Return that key, or None when the row reduced to zero.
    Each step is fraction-free (see the module docstring); dividing the row
    that is left by its content keeps the pivot rows from growing."""
    while work:
        c = min(work)
        pivot = pivot_of(c)
        if pivot is None:
            _divide_by_content(work)
            return c
        _cancel(work, c, pivot)
    return None


def _echelon(rows) -> dict[int, SparseRow]:
    """Pivot column -> int pivot row.  Each row, its denominators cleared,
    is eliminated against the pivot rows kept so far; if anything is left,
    its smallest column is new and the row is kept as that column's pivot
    row, with no entry left of its pivot column."""
    pivot_rows: dict[int, SparseRow] = {}
    for row in rows:
        work = clear_denominators(row)
        c = eliminate(work, pivot_rows.get)
        if c is not None:
            pivot_rows[c] = work
    return pivot_rows


def sparse_rank(rows: list[SparseRow]) -> list[int]:
    """Pivot columns of a sparse rational matrix (rows as {col: coeff}
    dicts of ints and Fractions), in ascending order; their count is the
    rank."""
    return sorted(_echelon(rows))


def _reduced(rows: list[SparseRow]) -> tuple[dict[int, SparseRow], list[int]]:
    """Pivot column -> int row of the reduced form times its lead, and the
    pivot columns; the rows already cleared vanish on the other pivots."""
    echelon = _echelon(rows)
    pivots = sorted(echelon)
    for pc in reversed(pivots):
        row = echelon[pc]
        for qc in [c for c in row if c > pc and c in echelon]:
            _cancel(row, qc, echelon[qc])
        _divide_by_content(row)
    return echelon, pivots


def sparse_rref(rows: list[SparseRow]) -> tuple[list[SparseRow], list[int]]:
    """Reduced row echelon form of sparse rows (ints and Fractions) and its
    pivot columns, both ascending by pivot: each row has a leading 1 and no
    entry in another row's pivot column, and holds Fractions."""
    reduced, pivots = _reduced(rows)
    return [{c: Fraction(v, reduced[pc][pc]) for c, v in reduced[pc].items()}
            for pc in pivots], pivots


def rref(rows) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form and pivot columns (deterministic)."""
    rows = list(rows)
    if not rows:
        return [], []
    red, pivots = sparse_rref([dict(enumerate(row)) for row in rows])
    return [[row.get(c, ZERO) for c in range(len(rows[0]))] for row in red], pivots


def nullspace(rows, ncols: int) -> list[Row]:
    """Basis of the right nullspace, in a canonical (rref-derived) form."""
    reduced, pivots = _reduced([dict(enumerate(row)) for row in rows])
    basis: list[Row] = []
    for fc in [c for c in range(ncols) if c not in reduced]:
        vec = [ONE if c == fc else ZERO for c in range(ncols)]
        for pc in pivots:
            if fc in (row := reduced[pc]):
                vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(vec)
    return basis


def reduce_against(red_rows: list[SparseRow], pivots: list[int], vec: SparseRow) -> SparseRow:
    """Residue of a sparse vector after elimination against sparse rref
    rows; it vanishes on every pivot column."""
    v = dict(vec)
    for row, pc in zip(red_rows, pivots):
        factor = v.get(pc)
        if factor:
            _subtract(v, factor, row)
    return v


def solve(rows, rhs) -> Row | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero (canonical particular solution).
    """
    rows = list(rows)
    if not rows:
        return [] if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    red, pivots = sparse_rref([dict(enumerate([*row, bv])) for row, bv in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None  # pivot in the constant column: inconsistent
    sol = [ZERO] * ncols
    for row, pc in zip(red, pivots):
        sol[pc] = row.get(ncols, ZERO)
    return sol


def lp_feasible(A: list[Row], b: Row) -> bool:
    """Exact feasibility of {x >= 0 : A x = b}: phase-1 simplex on int dict
    rows with Bland's rule.  Rows are negated where b < 0; keys 0..n-1 are
    the columns of A, n..n+m-1 the artificial variables, n+m the right-hand
    side.  The row ``cost`` holds the reduced costs of minimizing the sum of
    the artificials and, at n+m, minus that sum: feasible iff it ends at 0.
    Every row is an int positive multiple of its tableau row: a pivot on
    the lead p > 0 maps each other row to p*row - w*pivot over its content
    (Edmonds 1967; Bareiss 1968), and the ratio test cross-multiplies."""
    m = len(A)
    n = len(A[0]) if A else 0
    rhs = n + m
    rows: list[SparseRow] = []
    cost: SparseRow = {}
    for i, (row, bv) in enumerate(zip(A, b)):
        sign = -1 if bv < 0 else 1
        work = {j: sign * v for j, v in enumerate(row) if v}
        if bv:
            work[rhs] = sign * bv
        _subtract(cost, 1, work)
        work[n + i] = 1
        rows.append(clear_denominators(work))
    cost = clear_denominators(cost)
    basis = list(range(n, rhs))
    while True:
        entering = min((j for j, v in cost.items() if j < rhs and v < 0), default=None)
        if entering is None:
            return rhs not in cost
        # phase 1 is bounded below by 0, so some row has a positive entry in
        # the entering column; Bland breaks ties by the smallest basic column
        leaving = None
        for i, row in enumerate(rows):
            a = row.get(entering, 0)
            if a > 0:
                r = row.get(rhs, 0)
                if leaving is None or r * lead < least * a or (
                        r * lead == least * a and basis[i] < basis[leaving]):
                    leaving, least, lead = i, r, a
        pivot = rows[leaving]
        for row in (*rows, cost):
            if row is not pivot and entering in row:
                w = row[entering]
                row.update({k: v * lead for k, v in row.items()})
                _subtract(row, w, pivot)
                _divide_by_content(row)
        basis[leaving] = entering
