"""Exact-arithmetic intersection theory on the moduli of abelian varieties.

Computes in the tautological ring (square-free lambda-monomial basis),
projects Noether-Lefschetz and product cycles into it, packages the
elliptic-homomorphism cycles into Eisenstein q-expansions, evaluates the
closed-form degrees of the level-structure covers with brute-force
enumeration oracles, and runs the sigma-weighted Gromov-Witten predictor.
All arithmetic is exact rational; there is no floating point anywhere.
"""

from .arith import (
    abs_bernoulli,
    bernoulli,
    clear_caches as _clear_arith_caches,
    dirichlet_convolve,
    divisors,
    factorize,
    is_prime,
    jacobi_totient,
    jacobi_totient_table,
    mobius,
    mobius_table,
    sigma,
    sigma_table,
)
from .degrees import (
    PolarizationType,
    deg_phi,
    deg_phi_crt,
    deg_phi_special,
    deg_phi_stratified,
    deg_pi,
    isotropic_tuple_count,
    nl_composition,
    nl_constant,
    oracle_index,
    sp_order,
    sp_order_prime,
    stratum_size,
)
from .gw import conjecture_prediction, gw_tau1_lambda, triple_hodge_integral
from .nl import (
    QSeries,
    eisenstein_series,
    plain_to_tilde,
    taut_nl,
    taut_nl_d_special,
    taut_nl_pair_special,
    taut_nl_tilde,
    taut_product_cycle,
    taut_projection,
    tilde_to_plain,
)
from .ring import (
    LambdaPolynomial,
    TautClass,
    clear_caches as _clear_ring_caches,
    graded_dimension,
    multiply,
    oracle_reduce,
    pairing_matrix,
    reduce,
    relation,
    socle_pair,
    top_degree,
    total_chern,
    total_chern_dual,
)
from .verify import VerificationFailure, run_suites

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache of computed values: arith's and ring's."""
    _clear_arith_caches()
    _clear_ring_caches()
