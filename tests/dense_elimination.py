"""Dense Gaussian elimination, kept as the reference for linalg.rref.

This is the elimination the library used before it went sparse: the first
nonzero entry of each column is the pivot, and every row update runs over
the whole row.  The reduced row echelon form is unique, so the tests can
compare the two exactly.
"""

from fractions import Fraction
from typing import List, Tuple

from agtaut.linalg import Matrix


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
