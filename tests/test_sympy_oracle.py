"""sympy as a third oracle, for the tests only: skipped when it is absent.

The ring's normal form is checked against a Groebner basis of the defining
ideal, built from total_chern and total_chern_dual rather than from
relation, so the rewrite rules are checked too.  The scalar functions of
arith are checked against sympy's own number theory, and linalg.rref
against sympy's.
"""

from fractions import Fraction
from math import prod

import pytest

sympy = pytest.importorskip("sympy")

import dense_elimination
from agtaut.arith import (
    bernoulli,
    jacobi_totient_table,
    mobius_table,
    sigma_table,
)
from agtaut.linalg import rref
from agtaut.ring import (
    LambdaPolynomial,
    graded_dimension,
    monomials_of_weight,
    reduce,
    top_degree,
    total_chern,
    total_chern_dual,
)

RING_GENUS_CAP = 5


def _expr(lam, poly):
    """A LambdaPolynomial as a sympy expression in the symbols lam."""
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*map(pow, lam, exps))
            for exps, c in poly.terms.items()
        )
    )


def _ideal_basis(g):
    """Grevlex Groebner basis of lambda_g and the homogeneous parts of
    c(E) c(E^v) - 1, lambda_i of weight i."""
    lam = sympy.symbols(f"l1:{g + 1}")
    product = total_chern(g) * total_chern_dual(g) - LambdaPolynomial.one(g)
    parts = {}
    for exps, c in product.terms.items():
        parts.setdefault(sum(i * e for i, e in enumerate(exps, 1)), {})[exps] = c
    generators = [lam[g - 1]] + [_expr(lam, LambdaPolynomial(g, parts[w])) for w in sorted(parts)]
    return lam, sympy.groebner(generators, *lam, order="grevlex")


@pytest.mark.parametrize("g", range(1, RING_GENUS_CAP + 1))
def test_reduce_agrees_with_groebner_basis(g):
    lam, basis = _ideal_basis(g)
    leading = [sympy.Poly(p, *lam).monoms(order="grevlex")[0] for p in basis.exprs]
    top = top_degree(g)
    for w in range(top + 2):
        mons = monomials_of_weight(g, w)
        for exps in mons:
            m = LambdaPolynomial(g, {exps: 1})
            normal = reduce(m)
            lifted = (LambdaPolynomial.monomial(g, s, c) for s, c in normal.terms.items())
            difference = m - sum(lifted, LambdaPolynomial.zero(g))
            assert basis.reduce(_expr(lam, difference))[1] == 0, (g, exps)
        # The monomials that no leading monomial divides are a basis of the
        # quotient in weight w: as many as the square-free basis monomials.
        standard = [m for m in mons if not any(all(map(int.__le__, lm, m)) for lm in leading)]
        assert len(standard) == (graded_dimension(g, w) if w <= top else 0), (g, w)


def test_bernoulli_matches_sympy():
    # sympy >= 1.12 takes B_1 = +1/2, so n = 1 is left out.
    for n in (0, *range(2, 201, 2)):
        b = bernoulli(n)
        assert sympy.bernoulli(n) == sympy.Rational(b.numerator, b.denominator), n


TABLE_RANGE = range(1, 501)


def _jacobi_totient_by_factorint(k, n):
    return n**k * prod(Fraction(p**k - 1, p**k) for p in sympy.factorint(n))


@pytest.mark.parametrize("k", range(6))
def test_sigma_table_matches_sympy(k):
    expected = [int(sympy.divisor_sigma(n, k)) for n in TABLE_RANGE]
    assert sigma_table(k, len(TABLE_RANGE)) == expected


def test_totient_and_mobius_tables_match_sympy():
    N = len(TABLE_RANGE)
    assert jacobi_totient_table(1, N) == [int(sympy.totient(n)) for n in TABLE_RANGE]
    assert mobius_table(N) == [int(sympy.mobius(n)) for n in TABLE_RANGE]


@pytest.mark.parametrize("k", range(1, 6))
def test_jacobi_totient_table_matches_factorint_product(k):
    expected = [_jacobi_totient_by_factorint(k, n) for n in TABLE_RANGE]
    assert jacobi_totient_table(k, len(TABLE_RANGE)) == expected


def test_rref_matches_sympy():
    for rows in dense_elimination.seeded_matrices():
        reduced, pivots = sympy.Matrix(rows).rref()
        expected = [[Fraction(int(x.p), int(x.q)) for x in reduced.row(i)] for i in range(len(rows))]
        assert rref(rows) == (expected, list(pivots)), rows
