"""Noether-Lefschetz projections and the Eisenstein package.

The projection of the type-delta NL cycle is a rational multiple of the
projection of the product cycle with the same number of factors.  Summing
the projected elliptic-homomorphism cycles against q^d reproduces, up to
the factor (-1)^g / 24, the q-expansion of the weight-2g Eisenstein series.
"""

from fractions import Fraction

from agtaut.nl import (
    eisenstein_series,
    nl_constant,
    taut_nl,
    taut_nl_tilde,
    taut_product_cycle,
    taut_projection,
)

print("=== projections of product cycles ===")
for g, u in ((2, 1), (6, 1), (4, 2), (8, 2)):
    print(f"  g={g}, u={u}: {taut_product_cycle(g, u)}")

print()
print("=== NL projections: constant times the product cycle ===")
for g, delta in ((2, (2,)), (3, (2,)), (3, (3,)), (4, (1, 2)), (5, (2, 2))):
    print(f"  g={g}, delta={delta}: constant {nl_constant(g, delta)}, "
          f"projection {taut_nl(g, delta)}")

print()
print("=== projected tilde cycles assemble the Eisenstein series ===")
g, order = 2, 8
series = eisenstein_series(g, order)
print(f"  E_{2 * g} up to q^{order}: {series}")
scale = Fraction((-1) ** g, 24)
for d in range(order + 1):
    tilde = taut_nl_tilde(g, d)
    assert scale * series.coefficient(d) == tilde.coefficient((g - 1,))
    print(f"  d={d}: tilde projection {tilde}")
print("  every coefficient matches (-1)^g/24 times the series.")

print()
print("=== the projection calculus on formal expressions ===")
for text in ("3 * NL(2) + NLt(2)", "NL(2) * NLt(3)", "L(1) * NL(2)"):
    value = taut_projection(2, text)
    print(f"  g=2: taut({text}) = {value}")
print("  products of NL-supported cycles always project to zero.")
