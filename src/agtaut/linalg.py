"""Exact linear algebra over the rationals.

Matrices are lists of lists of ints and Fractions; nothing here is
numerical.  Just enough Gaussian elimination for verify's rank oracle,
which checks the ring's pairing certificate by a route that does not read
it, the matrix product that verify's basis-change suite checks, and
`invert` as public API and as the test oracle of the closed-form
basis-change transforms.  Integer matrices stay on int until a pivot other
than +-1 forces a Fraction, so an integer matrix with unit pivots, such as
a unit-triangular one, inverts entirely on int.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .arith import as_int

Matrix = List[List["int | Fraction"]]


def identity(n: int) -> Matrix:
    """The n x n identity; a non-int n (a bool) is a TypeError."""
    n = as_int(n)
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, row by row: row i is the sum of x * b[k] over the
    nonzero entries x = a[i][k], so zero entries of a cost nothing."""
    inner, cols = len(b), len(b[0]) if b else 0
    if any(len(r) != inner for r in a) or any(len(r) != cols for r in b):
        raise ValueError("matrix shapes do not match")
    product = []
    for row in a:
        total = [0] * cols
        for x, b_row in zip(row, b):
            if x:
                total = [t + x * y for t, y in zip(total, b_row)]
        product.append(total)
    return product


def rref(rows: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns).

    Each column takes as pivot its first entry equal to 1 or -1 at or below
    the current row, else its first nonzero one.  The reduced row echelon
    form is unique, so the result does not depend on that choice; unit
    pivots only spare the division.  Rows are updated over the pivot row's
    nonzero entries alone, and the caller's rows are left unchanged.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    if any(len(r) != ncols for r in m):
        raise ValueError("rows differ in length")
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pivot_row = None
        for i in range(r, len(m)):
            x = m[i][c]
            if x == 1 or x == -1:
                pivot_row = i
                break
            if x != 0 and pivot_row is None:
                pivot_row = i
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        p = m[r][c]
        if p != 1:
            scale = -1 if p == -1 else Fraction(1, p)
            m[r] = [x * scale for x in m[r]]
        nonzero = [(j, y) for j, y in enumerate(m[r]) if y != 0]
        for i, row in enumerate(m):
            factor = row[c]
            if factor != 0 and i != r:
                for j, y in nonzero:
                    row[j] -= factor * y
        pivots.append(c)
        r += 1
    return m, pivots


def is_nonsingular(rows: Matrix) -> bool:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    return len(rref(rows)[1]) == n


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
