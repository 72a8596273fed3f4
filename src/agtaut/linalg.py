"""Exact linear algebra over the rationals.

Matrices are lists of lists of ints and Fractions.  Just enough Gaussian
elimination for the ring oracle, pairing matrices and the triangular
basis-change transforms; nothing here is numerical.  Integer matrices stay
on int until a pivot other than 1 forces a Fraction, so a unit-triangular
integer matrix inverts entirely on int.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

Matrix = List[List["int | Fraction"]]


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    inner, cols = len(b), len(b[0]) if b else 0
    if any(len(r) != inner for r in a) or any(len(r) != cols for r in b):
        raise ValueError("matrix shapes do not match")
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(len(a))
    ]


def rref(rows: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    m = [list(r) for r in rows]
    pivots: List[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        if m[r][c] != 1:
            inv = Fraction(1, m[r][c])
            m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def is_nonsingular(rows: Matrix) -> bool:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    return rank(rows) == n


def invert(rows: Matrix) -> Matrix:
    """Inverse of a nonsingular square matrix, by elimination on [A | I]."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    aug = [list(r) + ident_row for r, ident_row in zip(rows, identity(n))]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]
