"""Exact rational linear algebra on numpy object arrays of Fractions.

Matrix products on object arrays must go through ``ndarray.dot``; the ``@``
operator does not support dtype=object.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)


def frac_matrix(rows) -> np.ndarray:
    """Copy a nested sequence (or array) into an object array of Fractions."""
    arr = np.asarray(rows, dtype=object)
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        out[idx] = Fraction(arr[idx])
    return out


def frac_vector(entries) -> np.ndarray:
    return frac_matrix(entries)


def identity(n: int) -> np.ndarray:
    out = np.full((n, n), ZERO, dtype=object)
    for i in range(n):
        out[i, i] = ONE
    return out


def congruence_diagonalize(matrix: np.ndarray) -> tuple[np.ndarray, list[Fraction]]:
    """Invertible C with C^T A C diagonal, for symmetric rational A.

    Returns (C, diag) where diag[i] is the diagonal value belonging to
    column i of C.  Pivoting is symmetric Gaussian elimination; when no
    nonzero diagonal pivot remains, a hyperbolic pair A[i, j] != 0 is
    split with the substitution e_i -> e_i + e_j, e_j -> e_i - e_j, which
    always yields one positive and one negative pivot.
    """
    A = matrix.copy()
    n = A.shape[0]
    C = identity(n)
    active = list(range(n))
    diag: list = [None] * n
    while active:
        piv = next((i for i in active if A[i, i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active if i < j and A[i, j] != 0), None)
            if pair is None:
                for i in active:
                    diag[i] = ZERO
                break
            i, j = pair
            ci, cj = A[:, i].copy(), A[:, j].copy()
            A[:, i] = ci + cj
            A[:, j] = ci - cj
            ri, rj = A[i, :].copy(), A[j, :].copy()
            A[i, :] = ri + rj
            A[j, :] = ri - rj
            ki, kj = C[:, i].copy(), C[:, j].copy()
            C[:, i] = ki + kj
            C[:, j] = ki - kj
            continue
        d = A[piv, piv]
        for j in active:
            if j == piv:
                continue
            f = A[j, piv] / d
            if f != 0:
                A[j, :] = A[j, :] - f * A[piv, :]
                A[:, j] = A[:, j] - f * A[:, piv]
                C[:, j] = C[:, j] - f * C[:, piv]
        diag[piv] = d
        active.remove(piv)
    return C, diag


def inertia_counts(matrix: np.ndarray) -> tuple[int, int, int]:
    """(negative, zero, positive) for a symmetric rational matrix."""
    _, diag = congruence_diagonalize(matrix)
    neg = sum(1 for d in diag if d < 0)
    zero = sum(1 for d in diag if d == 0)
    return neg, zero, len(diag) - neg - zero


def rref(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    R = frac_matrix(matrix) if matrix.dtype != object else matrix.copy()
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if R[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            R[[pr, r], :] = R[[r, pr], :]
        R[r, :] = R[r, :] / R[r, c]
        for i in range(rows):
            if i != r and R[i, c] != 0:
                R[i, :] = R[i, :] - R[i, c] * R[r, :]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(matrix: np.ndarray) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix: np.ndarray) -> list[np.ndarray]:
    """Basis of Ker(matrix), one vector per free column."""
    R, pivots = rref(matrix)
    cols = R.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for c in free:
        v = np.full(cols, ZERO, dtype=object)
        v[c] = ONE
        for row, pc in enumerate(pivots):
            v[pc] = -R[row, c]
        basis.append(v)
    return basis


def solve_general(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """One solution of matrix @ x = rhs, or None when inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    rows, cols = matrix.shape
    aug = np.empty((rows, cols + 1), dtype=object)
    aug[:, :cols] = matrix
    aug[:, cols] = rhs
    R, pivots = rref(aug)
    if cols in pivots:
        return None
    x = np.full(cols, ZERO, dtype=object)
    for row, pc in enumerate(pivots):
        x[pc] = R[row, cols]
    return x
