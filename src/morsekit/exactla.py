"""Exact rational linear algebra, eliminated on Python ints.

Matrices come in as numpy object arrays of rationals (``Fraction`` or
int).  Each elimination first clears denominators: a whole symmetric
matrix is scaled by the positive LCM of its denominators, a row of a
linear system by the LCM of its own, which changes no sign, kernel or
solution.  All work then runs on lists of Python ints with fraction-free
steps in the manner of Bareiss (1968): a pivot d eliminates an entry a of
another row or column by the combination d * (that one) - a * (the
pivot's), and the content (gcd) of every combination is divided out
again to keep the integers small.  A ``Fraction`` is made only for a
value handed back to the caller; congruence columns and kernel bases are
returned as primitive integer vectors.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Integral
from operator import mul

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)


def _fraction(x) -> Fraction:
    """x as a Fraction of Python ints.  A Fraction of ints is immutable and
    shared, not rebuilt; numpy integers, and Fractions built on them,
    would eliminate in overflowing int64 arithmetic, so they become ints."""
    if type(x) is Fraction:
        if type(x.numerator) is int and type(x.denominator) is int:
            return x
        return Fraction(int(x.numerator), int(x.denominator))
    if type(x) is not int and isinstance(x, Integral):
        x = int(x)
    return Fraction(x)


_to_fraction = np.frompyfunc(_fraction, 1, 1)


def frac_matrix(rows) -> np.ndarray:
    """Copy a nested sequence (or array) into an object array of Fractions."""
    return np.asarray(_to_fraction(np.asarray(rows, dtype=object)), dtype=object)


def frac_vector(entries) -> np.ndarray:
    return frac_matrix(entries)


def identity(n: int) -> np.ndarray:
    out = np.full((n, n), ZERO, dtype=object)
    for i in range(n):
        out[i, i] = ONE
    return out


def _object_array(rows: list, shape: tuple) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = rows
    return out


def _rational_rows(matrix) -> list[list]:
    """The entries as nested lists of ints and Fractions."""
    arr = np.asarray(matrix)
    if arr.dtype.kind == "f":
        arr = frac_matrix(arr)
    return arr.tolist()


def _cleared(row: list, scale: int) -> list[int]:
    """scale * row as Python ints; scale must be a multiple of every
    denominator.  Numpy integers, and Fractions built on them, would
    eliminate in overflowing int64 arithmetic, so their parts become ints."""
    return [int(x.numerator) * (scale // int(x.denominator)) for x in row]


def _primitive(row: list[int]) -> tuple[list[int], int]:
    """row divided by its content, and the content (1 for a zero row)."""
    g = gcd(*row)
    if g > 1:
        return [x // g for x in row], g
    return row, 1


def _integer_matrix(matrix) -> tuple[list[list[int]], int]:
    """(M, s): M = s * matrix as lists of ints, s the positive LCM of the
    denominators."""
    rows = _rational_rows(matrix)
    # star-args from lists, never generators: a tuple built from a generator
    # grows by resizing, and those tuples pile up in the interpreter's free
    # lists (1.7 MiB more peak memory over an exact fuzz campaign)
    s = lcm(*[x.denominator for row in rows for x in row])
    return [_cleared(row, s) for row in rows], s


def _rows_cleared(matrix) -> tuple[list[list[int]], list[int]]:
    """Each row times the positive LCM of its own denominators, as int
    lists, and those LCMs."""
    rows = _rational_rows(matrix)
    scales = [lcm(*[x.denominator for x in row]) for row in rows]
    return [_cleared(row, s) for row, s in zip(rows, scales)], scales


def congruence(matrix, basis) -> np.ndarray:
    """B^T M B for rational M and basis B, one Fraction per entry.

    With M = M'/s and column j of B equal to b_j / t_j for integer M' and
    b_j, entry (j, k) is (b_j . M' b_k) / (s t_j t_k); every product is
    taken on ints.  M must be symmetric, and so is the result.
    """
    M, s = _integer_matrix(matrix)
    cols, scales = _rows_cleared(np.asarray(basis).T)
    images = [[sum(map(mul, row, b)) for row in M] for b in cols]
    m = len(cols)
    out = np.empty((m, m), dtype=object)
    for j in range(m):
        for k in range(j, m):
            out[j, k] = out[k, j] = Fraction(sum(map(mul, cols[j], images[k])),
                                             s * scales[j] * scales[k])
    return out


def congruence_diagonalize(matrix: np.ndarray) -> tuple[np.ndarray, list[Fraction]]:
    """Invertible integer C with C^T A C diagonal, for symmetric rational A.

    Returns (C, diag) where diag[i] is the diagonal value belonging to
    column i of C.  Pivoting is symmetric Gaussian elimination on the
    integer matrix s*A: the first nonzero diagonal entry d eliminates each
    other column j with A[j, piv] = a != 0 by c_j -> |d| c_j - sign(d) a c_piv,
    a positive multiple of the rational step c_j - (a/d) c_piv.  When no
    nonzero diagonal pivot remains, a hyperbolic pair A[i, j] != 0 is split
    with the substitution c_i -> c_i + c_j, c_j -> c_i - c_j, which always
    yields one positive and one negative pivot.  Every new column is divided
    by its content, so the columns of C are primitive integer vectors.
    """
    A, s = _integer_matrix(matrix)
    n = len(A)
    C = [[int(i == j) for i in range(n)] for j in range(n)]  # C[j] is column j
    active = list(range(n))

    def reduce_column(j: int) -> None:
        # divide column j of C by its content g, row and column j of A by g
        C[j], g = _primitive(C[j])
        if g > 1:
            for k in active:
                A[j][k] = A[k][j] = A[j][k] // g
            A[j][j] //= g

    while active:
        piv = next((i for i in active if A[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active if i < j and A[i][j]), None)
            if pair is None:
                break
            i, j = pair
            b = A[i][j]
            for k in active:
                if k != i and k != j:
                    ak, bk = A[i][k], A[j][k]
                    A[i][k] = A[k][i] = ak + bk
                    A[j][k] = A[k][j] = ak - bk
            A[i][i], A[j][j], A[i][j], A[j][i] = 2 * b, -2 * b, 0, 0
            ci, cj = C[i], C[j]
            C[i] = [x + y for x, y in zip(ci, cj)]
            C[j] = [x - y for x, y in zip(ci, cj)]
            reduce_column(i)
            reduce_column(j)
            continue
        active.remove(piv)
        d = A[piv][piv]
        ad, sd = abs(d), (1 if d > 0 else -1)
        a = {j: A[j][piv] for j in active if A[j][piv]}
        for j in active:
            aj = a.get(j)
            for k in active:
                if k < j:
                    continue
                ak = a.get(k)
                if aj and ak:
                    A[j][k] = A[k][j] = d * (d * A[j][k] - aj * ak)
                elif aj or ak:
                    A[j][k] = A[k][j] = ad * A[j][k]
        cp = C[piv]
        for j, aj in a.items():
            A[j][piv] = A[piv][j] = 0
            C[j] = [ad * x - sd * aj * y for x, y in zip(C[j], cp)]
        for j in a:
            reduce_column(j)
    diag = [Fraction(A[i][i], s) for i in range(n)]
    return _object_array(C, (n, n)).T, diag


def inertia_counts(matrix: np.ndarray) -> tuple[int, int, int]:
    """(negative, zero, positive) for a symmetric rational matrix."""
    _, diag = congruence_diagonalize(matrix)
    neg = sum(1 for d in diag if d.numerator < 0)
    zero = sum(1 for d in diag if not d)
    return neg, zero, len(diag) - neg - zero


def rref(matrix) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form and the list of pivot columns.

    Returns integer rows R: row r, divided by its positive pivot entry
    R[r][pivots[r]], is row r of the reduced row echelon form; every other
    entry of a pivot column is zero and every row is primitive.  Each row
    is first cleared of its own denominators, and Gauss-Jordan then runs
    with fraction-free row combinations.
    """
    cols = np.shape(matrix)[1]
    R = [_primitive(row)[0] for row in _rows_cleared(matrix)[0]]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == len(R):
            break
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        if R[r][c] < 0:
            R[r] = [-x for x in R[r]]
        prow = R[r]
        p = prow[c]
        for i in range(len(R)):
            a = R[i][c]
            if i != r and a:
                R[i] = _primitive([p * x - a * y for x, y in zip(R[i], prow)])[0]
        pivots.append(c)
        r += 1
    return R, pivots


def nullspace(matrix) -> list[np.ndarray]:
    """Basis of Ker(matrix), one primitive integer vector per free column,
    with a positive entry at its free column."""
    R, pivots = rref(matrix)
    cols = np.shape(matrix)[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for c in free:
        # the RREF vector has 1 at c and -R[row][c] / pivot at each pivot
        # column; scale it by the LCM of those pivots
        rows = [row for row in range(len(pivots)) if R[row][c]]
        m = lcm(*[R[row][pivots[row]] for row in rows])
        v = [0] * cols
        v[c] = m
        for row in rows:
            v[pivots[row]] = -R[row][c] * (m // R[row][pivots[row]])
        basis.append(_object_array(_primitive(v)[0], (cols,)))
    return basis


def pseudo_solve(basis, diag, rhs) -> np.ndarray:
    """C D^-1 C^T rhs for integer columns C and nonzero rationals D.

    With rhs = r / t and d_j = p_j / q_j, entry i is
    sum_j C[i, j] (c_j . r) q_j (P / p_j) / (P t), P the LCM of the p_j;
    every product is taken on ints and one Fraction is made per entry.
    """
    (r,), (t,) = _rows_cleared(np.asarray(rhs)[None, :])
    cols = np.asarray(basis).T.tolist()
    P = lcm(*[d.numerator for d in diag])
    weights = [sum(map(mul, c, r)) * d.denominator * (P // d.numerator)
               for c, d in zip(cols, diag)]
    n = len(r)
    return _object_array([Fraction(sum(c[i] * w for c, w in zip(cols, weights)), P * t)
                          for i in range(n)], (n,))


def solve_general(matrix, rhs) -> np.ndarray | None:
    """One solution of matrix @ x = rhs, or None when inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    cols = np.shape(matrix)[1]
    aug = np.column_stack([np.asarray(matrix, dtype=object),
                           np.asarray(rhs, dtype=object)])
    R, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for row, pc in enumerate(pivots):
        x[pc] = Fraction(R[row][cols], R[row][pc])
    return _object_array(x, (cols,))
