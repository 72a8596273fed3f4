"""A tour of the tautological ring in low genus.

The ring is generated by the Chern classes L1, ..., Lg of the Hodge bundle,
with Lg = 0 and one relation in each degree coming from the total Chern
class of the bundle plus its dual.  Square-free monomials in L1 ... L(g-1)
form an additive basis, the top degree is g(g-1)/2, and the socle pairing
against the complementary degree is perfect.
"""

from agtaut.ring import (
    LambdaPolynomial,
    TautClass,
    graded_dimension,
    multiply,
    oracle_reduce,
    pairing_matrix,
    reduce,
    relation,
    top_degree,
    total_chern,
    total_chern_dual,
)

g = 4
print(f"=== genus {g}: relations ===")
for k in range(1, g):
    print(f"  relation eliminating L{k}^2: {relation(k, g)!r}")

print()
print("=== normal forms ===")
for indices in ((1, 1), (1, 1, 2), (2, 2), (3, 3), (1, 1, 1, 1)):
    poly = LambdaPolynomial.monomial(g, indices)
    label = "*".join(f"L{i}" for i in indices)
    print(f"  {label:16s} -> {reduce(poly)}")

print()
print("=== the rewriting path agrees with the localization oracle ===")
for indices in ((1, 1, 2), (2, 2, 1), (1, 1, 1, 3)):
    poly = LambdaPolynomial.monomial(g, indices)
    assert reduce(poly) == oracle_reduce(poly)
    print(f"  checked {'*'.join(f'L{i}' for i in indices)}")

print()
print("=== the defining relation dies in the quotient ===")
product = total_chern(g) * total_chern_dual(g) - LambdaPolynomial.one(g)
print(f"  c(E) c(E^v) - 1 reduces to: {reduce(product)}")
top = TautClass.monomial(g, (g - 1,))
print(f"  L{g - 1} * L{g - 1} = {multiply(top, top)}")

print()
print(f"=== graded dimensions (top degree {top_degree(g)}) ===")
dims = [graded_dimension(g, k) for k in range(top_degree(g) + 1)]
print(f"  {dims}  (palindromic)")

print()
print("=== socle pairing matrices ===")
for k in range(top_degree(g) + 1):
    matrix = pairing_matrix(g, k)
    status = "nonsingular" if matrix.is_nonsingular() else "SINGULAR"
    print(f"  degree {k}: size {len(matrix.rows)}, {status}")
