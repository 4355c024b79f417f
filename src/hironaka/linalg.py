"""Exact rational linear algebra: Gaussian elimination, nullspaces, a tiny
simplex-based LP feasibility test.  Dense matrices are lists of Fraction
rows; the sparse rank routine takes dict rows keyed by column index.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]


def _as_rows(rows) -> list[Row]:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form and pivot columns (deterministic)."""
    mat = _as_rows(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r]], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows, ncols: int) -> list[Row]:
    """Basis of the right nullspace, in a canonical (rref-derived) form."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Row] = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return basis


def reduce_against(red_rows: list[Row], pivots: list[int], vec) -> Row:
    """Residue of vec after elimination against an rref basis."""
    v = [Fraction(x) for x in vec]
    for row, pc in zip(red_rows, pivots):
        if v[pc] != 0:
            factor = v[pc]
            v = [a - factor * b for a, b in zip(v, row)]
    return v


def solve(rows, rhs) -> Row | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero (canonical particular solution).
    """
    mat = _as_rows(rows)
    b = [Fraction(x) for x in rhs]
    if not mat:
        return [] if all(x == 0 for x in b) else None
    ncols = len(mat[0])
    aug = [row + [bv] for row, bv in zip(mat, b)]
    red, pivots = rref(aug)
    sol = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None  # pivot in the constant column: inconsistent
        sol[pc] = row[ncols]
    return sol


def sparse_rank(rows: list[dict[int, Fraction]]) -> list[int]:
    """Pivot columns of a sparse rational matrix (rows as {col: coeff}
    dicts), in ascending order; their count is the rank.

    Each row is eliminated on its smallest column against the pivot rows
    kept so far until it is empty (dependent) or its smallest column is
    new.  A kept pivot row (stored unscaled) therefore has no entry left of
    its pivot column.
    """
    pivot_rows: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        work = {c: Fraction(v) for c, v in row.items() if v != 0}
        while work:
            c = min(work)
            pivot = pivot_rows.get(c)
            if pivot is None:
                pivot_rows[c] = work
                break
            factor = work[c] / pivot[c]
            for k, v in pivot.items():
                nv = work.get(k, Fraction(0)) - factor * v
                if nv == 0:
                    work.pop(k, None)
                else:
                    work[k] = nv
        # empty work: row was dependent
    return sorted(pivot_rows)


def lp_feasible(A: list[Row], b: Row) -> bool:
    """Exact feasibility of {x >= 0 : A x = b} via phase-1 simplex.

    Rows are first sign-normalized so b >= 0; Bland's rule guarantees
    termination.  Sizes here are tiny (tens of columns).
    """
    m = len(A)
    if m == 0:
        return True
    n = len(A[0])
    tab: list[Row] = []
    rhs: list[Fraction] = []
    for row, bv in zip(A, b):
        bv = Fraction(bv)
        r = [Fraction(x) for x in row]
        if bv < 0:
            r = [-x for x in r]
            bv = -bv
        tab.append(r)
        rhs.append(bv)
    # artificial variables occupy columns n .. n+m-1
    for i in range(m):
        tab[i] = tab[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
    basis = list(range(n, n + m))
    # objective: minimize the sum of artificial variables
    cost = [Fraction(0)] * n + [Fraction(1)] * m
    while True:
        # recompute reduced costs from scratch; instances are tiny
        z = [Fraction(0)] * (n + m)
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                for j in range(n + m):
                    if tab[i][j] != 0:
                        z[j] += cb * tab[i][j]
        entering = next(
            (j for j in range(n + m) if cost[j] - z[j] < 0), None
        )  # Bland: smallest index
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = rhs[i] / tab[i][entering]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            break  # defensive: phase 1 is always bounded
        piv = tab[leaving][entering]
        tab[leaving] = [x / piv for x in tab[leaving]]
        rhs[leaving] = rhs[leaving] / piv
        for i in range(m):
            if i != leaving and tab[i][entering] != 0:
                f = tab[i][entering]
                tab[i] = [a - f * c for a, c in zip(tab[i], tab[leaving])]
                rhs[i] = rhs[i] - f * rhs[leaving]
        basis[leaving] = entering
    obj = sum(rhs[i] for i in range(m) if basis[i] >= n)
    return obj == 0
