"""Exact-arithmetic intersection theory on the moduli of abelian varieties.

Computes in the tautological ring (square-free lambda-monomial basis),
projects Noether-Lefschetz and product cycles into it, packages the
elliptic-homomorphism cycles into Eisenstein q-expansions, evaluates the
closed-form degrees of the level-structure covers with brute-force
enumeration oracles, and runs the sigma-weighted Gromov-Witten predictor.
All arithmetic is exact rational; there is no floating point anywhere.

Each name is imported from its module; the package holds only clear_caches.
"""

from . import arith, nl, ring

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache of computed values: arith's, nl's and ring's."""
    arith.clear_caches()
    nl.clear_caches()
    ring.clear_caches()
