"""Dense Gaussian elimination, kept as the reference for linalg.rref, and
the seeded matrices that linalg.rref is compared on.

This is the elimination the library used before it went sparse: the first
nonzero entry of each column is the pivot, and every row update runs over
the whole row.  The reduced row echelon form is unique, so the tests can
compare the two exactly.
"""

import random
from fractions import Fraction
from typing import List, Tuple

from agtaut.linalg import Matrix, identity
from agtaut.nl import tilde_to_plain


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


def _random_entry(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    numerator = rng.choice((0, 0, 0, 1, -1, 2, -3, 5))
    if kind == "int":
        return numerator
    return Fraction(numerator, rng.choice((1, 2, 3, 7)))


def _random_matrix(rng, kind, nrows, ncols):
    m = [[_random_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]
    shape = rng.choice(("plain", "singular", "zero row", "zero column"))
    if shape == "singular" and nrows >= 2:
        a, b = rng.sample(range(nrows), 2)
        m[a] = [x - 2 * y for x, y in zip(m[b], m[(b + 1) % nrows])]
    elif shape == "zero row":
        m[rng.randrange(nrows)] = [0] * ncols
    elif shape == "zero column":
        col = rng.randrange(ncols)
        for row in m:
            row[col] = 0
    return m


def seeded_matrices() -> List[Matrix]:
    """15 random matrices (seed 20241) of each entry kind (int, Fraction,
    mixed) and shape, some singular or with a zero row or column, then
    tilde_to_plain(100) augmented by the identity: 271 matrices."""
    rng = random.Random(20241)
    matrices = [
        _random_matrix(rng, kind, nrows, ncols)
        for kind in ("int", "fraction", "mixed")
        for nrows, ncols in ((7, 3), (3, 7), (5, 5), (1, 6), (6, 1), (9, 12))
        for _ in range(15)
    ]
    basis_change = tilde_to_plain(100)
    return matrices + [[row + ident for row, ident in zip(basis_change, identity(100))]]
