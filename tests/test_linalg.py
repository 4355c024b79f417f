"""The sparse elimination kernel against a dense Gauss-Jordan reference,
and the LP against basic solutions.

``dense_rref`` is the dense elimination the library used before it kept a
single sparse one; reduced row echelon form is unique, so both must agree
exactly on every matrix.  ``lp_feasible`` must agree with
``conftest.basic_solution_oracle``, which solves no LP.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from hironaka import linalg
from hironaka.linalg import (
    eliminate,
    lp_feasible,
    nullspace,
    reduce_against,
    rref,
    solve,
    sparse_rank,
    sparse_rref,
)

from conftest import (
    basic_solution_oracle,
    reference_nullspace,
    reference_rref,
    reference_solve,
    reference_sparse_rref,
)


def dense_rref(rows):
    """Gauss-Jordan over dense Fraction rows: reduced rows and pivots."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
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
    return mat[:r], pivots


def random_entry(rng, density):
    if rng.random() > density:
        return Fraction(0)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def random_matrix(rng, kind):
    """A seeded rational matrix of the given kind."""
    nrows, ncols = {
        "square": (4, 4), "wide": (3, 7), "tall": (7, 3),
        "zero-rows": (5, 4), "duplicates": (6, 5), "deficient": (6, 5),
    }[kind]
    density = rng.choice([0.3, 0.6, 1.0])
    rows = [[random_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "zero-rows":
        for i in rng.sample(range(nrows), 2):
            rows[i] = [Fraction(0)] * ncols
    elif kind == "duplicates":
        rows[3] = list(rows[0])
        rows[5] = [2 * x for x in rows[1]]
    elif kind == "deficient":
        # every row a combination of the first two: rank at most 2
        for i in range(2, nrows):
            a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)
            rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def times(rows, vec):
    return [sum(a * v for a, v in zip(row, vec)) for row in rows]


KINDS = ["square", "wide", "tall", "zero-rows", "duplicates", "deficient"]
CASES = [(kind, seed) for kind in KINDS for seed in range(5)]


@pytest.mark.parametrize("kind, seed", CASES)
def test_rref_matches_dense_gauss_jordan(kind, seed):
    rows = random_matrix(random.Random(seed), kind)
    red, pivots = rref(rows)
    assert (red, pivots) == dense_rref(rows)
    assert all(type(x) is Fraction for row in red for x in row)
    assert sparse_rank([dict(enumerate(row)) for row in rows]) == pivots
    shuffled = list(rows)
    random.Random(seed).shuffle(shuffled)
    assert rref(shuffled) == (red, pivots)


@pytest.mark.parametrize("kind, seed", CASES)
def test_solve_answers_exactly_when_the_reference_is_consistent(kind, seed):
    rng = random.Random(1000 + seed)
    rows = random_matrix(rng, kind)
    ncols = len(rows[0])
    reachable = times(rows, [random_entry(rng, 1.0) for _ in range(ncols)])
    arbitrary = [random_entry(rng, 1.0) for _ in rows]
    for rhs in (reachable, arbitrary):
        _, pivots = dense_rref([row + [b] for row, b in zip(rows, rhs)])
        consistent = ncols not in pivots
        x = solve(rows, rhs)
        assert (x is not None) == consistent
        if consistent:
            assert times(rows, x) == rhs


@pytest.mark.parametrize("kind, seed", CASES)
def test_nullspace_has_full_dimension(kind, seed):
    rows = random_matrix(random.Random(2000 + seed), kind)
    ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - len(dense_rref(rows)[1])
    for vec in basis:
        assert times(rows, vec) == [0] * len(rows)
    assert len(dense_rref(basis)[1]) == len(basis)


@pytest.mark.parametrize("kind, seed", CASES)
def test_reduce_against_leaves_the_canonical_residue(kind, seed):
    rng = random.Random(3000 + seed)
    rows = random_matrix(rng, kind)
    red, pivots = sparse_rref([dict(enumerate(row)) for row in rows])
    ncols = len(rows[0])
    vec = {c: x for c in range(ncols) if (x := random_entry(rng, 1.0))}
    residue = reduce_against(red, pivots, vec)
    assert not set(residue) & set(pivots)
    assert all(v != 0 for v in residue.values())
    # vec - residue lies in the row space: adding it does not raise the rank
    diff = [vec.get(c, 0) - residue.get(c, 0) for c in range(ncols)]
    assert len(dense_rref(rows + [diff])[1]) == len(pivots)
    in_space = times([[rows[i][c] for i in range(len(rows))] for c in range(ncols)],
                     [random_entry(rng, 1.0) for _ in rows])
    assert reduce_against(red, pivots, {c: x for c, x in enumerate(in_space) if x}) == {}


def test_empty_and_degenerate_shapes():
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([], [])
    assert solve([], []) == []
    assert solve([], [1]) is None
    assert solve([[0, 0]], [1]) is None
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert sparse_rref([]) == ([], [])


def test_dense_wrappers_turn_int_rows_into_fractions():
    rows = [[2, 4, 0, 1], [1, 3, 5, 0], [3, 7, 5, 1]]
    red, pivots = rref(rows)
    assert (red, pivots) == ([[1, 0, -10, Fraction(3, 2)], [0, 1, 5, Fraction(-1, 2)]], [0, 1])
    x = solve(rows, [1, 2, 3])
    assert x is not None and times(rows, x) == [1, 2, 3]
    basis = nullspace(rows, 4)
    for vec in basis:
        assert times(rows, vec) == [0, 0, 0]
    entries = [v for row in red for v in row] + x + [v for vec in basis for v in vec]
    assert entries and all(type(v) is Fraction for v in entries)


def all_fractions(rows) -> bool:
    """Every entry of the dense or sparse rows is a Fraction."""
    return all(type(x) is Fraction
               for row in rows for x in (row.values() if isinstance(row, dict) else row))


@pytest.mark.parametrize("kind", KINDS)
def test_reduced_forms_match_the_fraction_reference(kind):
    """rref, sparse_rref, nullspace and solve, which back-substitute in
    ints, give the Fractions of the reference that back-substitutes in
    Fractions: on int and Fraction matrices, with right-hand sides in the
    column space and arbitrary ones, which are often inconsistent."""
    seen = Counter()
    for seed in range(25):
        rng = random.Random(7000 + seed)
        rows = random_matrix(rng, kind)
        if seed % 2:
            rows = [[int(12 * x) for x in row] for row in rows]  # denominators divide 12
        ncols = len(rows[0])
        sparse = [dict(enumerate(row)) for row in rows]
        got = rref(rows)
        assert got == reference_rref(rows) and all_fractions(got[0])
        got = sparse_rref(sparse)
        assert got == reference_sparse_rref(sparse) and all_fractions(got[0])
        got = nullspace(rows, ncols)
        assert got == reference_nullspace(rows, ncols) and all_fractions(got)
        reachable = times(rows, [random_entry(rng, 1.0) for _ in range(ncols)])
        for rhs in (reachable, [random_entry(rng, 1.0) for _ in rows]):
            x = solve(rows, rhs)
            assert x == reference_solve(rows, rhs)
            assert x is None or all(type(v) is Fraction for v in x)
            seen["inconsistent" if x is None else "solved"] += 1
        seen["int" if seed % 2 else "fraction"] += 1
        seen["rank-deficient"] += len(rref(rows)[1]) < min(len(rows), ncols)
    assert seen["solved"] >= 25 and seen["int"] >= 12 and seen["fraction"] >= 12, seen
    if kind in ("zero-rows", "duplicates", "deficient"):
        assert seen["rank-deficient"] == 25 and seen["inconsistent"] >= 5, seen


def dividing_echelon(rows):
    """The elimination the library ran before it went fraction-free: each
    row, as Fractions, reduced on its smallest column by work -= (w/p)*pivot
    until that column has no pivot row; pivot column -> pivot row."""
    pivot_rows = {}
    for row in rows:
        work = {c: Fraction(v) for c, v in row.items() if v}
        while work:
            c = min(work)
            pivot = pivot_rows.get(c)
            if pivot is None:
                pivot_rows[c] = work
                break
            factor = work[c] / pivot[c]
            for k, v in pivot.items():
                if nv := work.get(k, 0) - factor * v:
                    work[k] = nv
                else:
                    work.pop(k, None)
    return pivot_rows


def random_int_rows(rng):
    """Sparse int rows with negative and non-unit entries; some rows are
    int combinations of earlier ones, so some reduce to zero."""
    ncols = rng.randint(3, 9)
    entries = [-6, -4, -3, -2, -1, 1, 2, 3, 5, 9]
    rows = []
    for _ in range(rng.randint(2, 12)):
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            s, t = rng.choice(entries), rng.choice(entries)
            row = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()}
            row = {c: v for c, v in row.items() if v}
        else:
            row = {c: rng.choice(entries) for c in rng.sample(range(ncols), rng.randint(1, ncols))}
        if row:
            rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_fraction_free_eliminate_keeps_the_dividing_pivots(seed):
    rows = random_int_rows(random.Random(5000 + seed))
    reference = dividing_echelon(rows)
    pivot_rows = {}
    for row in rows:
        work = dict(row)
        c = eliminate(work, pivot_rows.get)
        assert all(type(v) is int for v in work.values())
        if c is not None:
            assert gcd(*work.values()) == 1  # a kept row is divided by its content
            pivot_rows[c] = work
    assert sorted(pivot_rows) == sorted(reference) == sparse_rank(rows)
    # each kept row is a nonzero multiple of the dividing one
    for c, row in pivot_rows.items():
        ref = reference[c]
        assert row.keys() == ref.keys()
        assert all(v * ref[c] == ref[k] * row[c] for k, v in row.items())


def random_lp(rng):
    """A system A x = b (m <= 4, n <= 6, rational entries) of one of the
    shapes the LP must decide: as drawn (b of either sign), b = 0, a zero
    row, a redundant row, feasible by construction, or infeasible by a
    row with nonnegative entries and a negative b."""
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    A = [[random_entry(rng, 0.7) for _ in range(n)] for _ in range(m)]
    b = [random_entry(rng, 0.8) for _ in range(m)]
    kind = rng.randrange(6)
    if kind == 1:
        b = [0] * m
    elif kind == 2:
        A[rng.randrange(m)] = [0] * n
    elif kind == 3 and m >= 3:
        i, j, k = rng.sample(range(m), 3)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        A[k] = [x + c * y for x, y in zip(A[i], A[j])]
        b[k] = b[i] + c * b[j]
    elif kind == 4:
        x0 = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    elif kind == 5:
        A[0] = [abs(a) for a in A[0]]
        b[0] = -Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return A, b


def test_lp_feasible_matches_the_basic_solution_oracle():
    rng = random.Random(6000)
    answers = Counter()
    for _ in range(300):
        A, b = random_lp(rng)
        answer = lp_feasible(A, b)
        assert answer == basic_solution_oracle(A, b), (A, b)
        answers[answer] += 1
    assert min(answers.values()) >= 60, answers


def test_lp_feasible_pivots_in_ints(monkeypatch):
    # every row a pivot touches is divided by its content: each must hold
    # ints only, Fraction input included
    rng = random.Random(6001)
    rows = Counter()
    original = linalg._divide_by_content

    def checked(row):
        rows[all(type(v) is int for v in row.values())] += 1
        original(row)
    monkeypatch.setattr(linalg, "_divide_by_content", checked)
    for _ in range(100):
        lp_feasible(*random_lp(rng))
    assert rows[False] == 0 and rows[True] >= 100, rows
