"""Ideal-slice elimination, kept as the reference for ring.oracle_reduce.

This is the oracle the library used before localization: it enumerates
every monomial of a weight, spans the weight's slice of the ideal by the
multiples of the relations and of lambda_g, row-reduces the slice over the
rationals and reads the input's remainder in the square-free basis.  It
shares no code with rewriting or with localization, and the normal form is
unique, so the tests compare all three exactly.  Dense enumeration makes it
slow beyond genus 6, which stays its cap.
"""

from functools import lru_cache
from operator import add

from agtaut.linalg import rref
from agtaut.ring import (
    ExponentVector,
    LambdaPolynomial,
    TautClass,
    _exponents,
    monomials_of_weight,
    relation,
    top_degree,
)

ORACLE_GENUS_CAP = 6


def _relation_terms(k: int, g: int) -> dict:
    """The terms of relation(k, g), on int: its coefficients are integers."""
    return {e: int(c) for e, c in relation(k, g).terms.items()}


def _is_basis_monomial(g: int, exps: ExponentVector) -> bool:
    return exps[g - 1] == 0 and all(e <= 1 for e in exps)


@lru_cache(maxsize=None)
def _ideal_slice_rref(g: int, w: int):
    """Row-reduced weight-w slice of the ideal, columns ordered with the
    square-free basis monomials last.  Returns (columns, column index, number
    of non-basis columns, pivot rows map); each pivot row is held as its
    nonzero (column, entry) pairs."""
    mons = monomials_of_weight(g, w)
    non_basis = [m for m in mons if not _is_basis_monomial(g, m)]
    basis = [m for m in mons if _is_basis_monomial(g, m)]
    columns = non_basis + basis
    col_index = {m: j for j, m in enumerate(columns)}

    # The ideal slice is spanned by the weight-w multiples of each relation
    # and of lambda_g: each generator times a monomial m, formed by adding m
    # to its exponent vectors (polynomial multiplication, no rewriting).
    # Every generator coefficient is an int, so the rows are too.
    ideal = [(_relation_terms(k, g), 2 * k) for k in range(1, g)]
    ideal.append(({_exponents(g, (g,)): 1}, g))
    rows = []
    for gen, weight in ideal:
        if weight > w:
            continue  # no multiple of this generator has weight w
        for m in monomials_of_weight(g, w - weight):
            row = [0] * len(columns)
            for e, c in gen.items():
                row[col_index[tuple(map(add, e, m))]] = c
            rows.append(row)
    reduced, pivots = rref(rows)
    n_non_basis = len(non_basis)
    for p in pivots:
        if p >= n_non_basis:
            raise RuntimeError(
                f"square-free monomials are linearly dependent modulo the ideal "
                f"slice at (g={g}, w={w}); the presentation would be inconsistent"
            )
    pivot_rows = {
        p: tuple((j, y) for j, y in enumerate(reduced[i]) if y != 0)
        for i, p in enumerate(pivots)
    }
    return columns, col_index, n_non_basis, pivot_rows


def oracle_reduce(p: LambdaPolynomial) -> TautClass:
    """Normal form via exact linear algebra in the graded slice.

    Independent of the rewriting path.  Requires a homogeneous input of
    weight at most g(g-1)/2 and genus at most ORACLE_GENUS_CAP.
    """
    g = p.g
    if g > ORACLE_GENUS_CAP:
        raise ValueError(f"oracle capped at genus {ORACLE_GENUS_CAP}, got {g}")
    if p.is_zero():
        return TautClass.zero(g)
    weights = p.weights()
    if len(weights) != 1:
        raise ValueError(f"oracle requires a homogeneous input, weights {weights}")
    w = weights[0]
    if w > top_degree(g):
        raise ValueError(f"weight {w} exceeds the socle degree {top_degree(g)}")

    columns, col_index, n_non_basis, pivot_rows = _ideal_slice_rref(g, w)
    vector = [0] * len(columns)
    for e, c in p.terms.items():
        vector[col_index[e]] = c
    for pivot, row in sorted(pivot_rows.items()):
        factor = vector[pivot]
        if factor != 0:
            for j, y in row:
                vector[j] -= factor * y
    for j in range(n_non_basis):
        if vector[j] != 0:
            raise RuntimeError(
                f"square-free monomials fail to span the quotient at "
                f"(g={g}, w={w}); the presentation would be inconsistent"
            )
    terms = {}
    for j in range(n_non_basis, len(columns)):
        if vector[j] != 0:
            exps = columns[j]
            indices = tuple(i + 1 for i in range(g - 1) if exps[i])
            terms[indices] = vector[j]
    return TautClass(g, terms)
