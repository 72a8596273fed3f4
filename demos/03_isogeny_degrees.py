"""Degrees of the level-structure covers, three ways.

The closed form, the prime-by-prime stratified count and (in genus 1) a
brute-force enumeration over Z/d^2 all compute the same subgroup index.
The degree of the level-forgetting cover recovers symplectic group orders.
"""

from agtaut.degrees import (
    deg_phi,
    deg_phi_stratified,
    deg_pi,
    isotropic_tuple_count,
    nl_composition,
    oracle_index,
    sp_order,
    sp_order_prime,
    stratum_size,
)

print("=== closed form vs stratified count ===")
for g, delta, p in ((1, (2,), 2), (2, (1, 4), 2), (2, (2, 2), 2), (3, (1, 3, 9), 3)):
    closed = deg_phi(g, delta)
    stratified = deg_phi_stratified(g, delta, p)
    print(f"  g={g}, delta={delta}: closed {closed}, stratified {stratified}")
    assert closed == stratified

print()
print("=== the stratum bookkeeping behind the count ===")
exponents = (1, 2)
sizes = [stratum_size(exponents, i) for i in range(1, 5)]
print(f"  shape exponents {exponents}: N(i) = {sizes}, total {sum(sizes)} "
      f"= (2g+1) * sum(v)")

print()
print("=== genus-1 enumeration oracle over Z/d^2 ===")
for d in (2, 3, 4):
    print(f"  d={d}: enumerated index {oracle_index(d)}, "
          f"closed form {deg_phi(1, (d,))}")

print()
print("=== isotropic tuple counts (both printed expressions agree) ===")
for g, h, p in ((2, 1, 2), (2, 2, 2), (3, 2, 3)):
    print(f"  g={g}, h={h}, p={p}: {isotropic_tuple_count(g, h, p)}")

print()
print("=== forgetting the level structure: symplectic group orders ===")
for p in (2, 3, 5, 7):
    assert deg_pi(1, (p,)) == sp_order_prime(1, p)
    print(f"  deg_pi at genus 1, type ({p}): {deg_pi(1, (p,))} = |Sp_2(F_{p})|")
for d in (2, 3, 6):
    assert deg_pi(2, (d, d)) == sp_order(2, d)
    print(f"  deg_pi at genus 2, type ({d},{d}): {deg_pi(2, (d, d))} = |Sp_4(Z/{d})|")

print()
print("=== composing degrees does NOT reproduce the ring constant for u=2 ===")
for g, delta in ((3, (2,)), (4, (2, 2)), (4, (1, 2)), (6, (2, 4))):
    report = nl_composition(g, delta)
    verdict = "match" if report["match"] else "MISMATCH"
    print(f"  g={g}, delta={delta}: constant {report['constant']}, "
          f"composed {report['composed']} -> {verdict}")
print("  (diagnostic only: the ring-side constant is the validated one)")
