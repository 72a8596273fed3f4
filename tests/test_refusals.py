"""Out-of-range arguments refused with a ValueError: one case for each
refusal that no other test reaches."""

import pytest

from agtaut import arith, degrees, gw, nl, ring

REFUSALS = [
    (arith.sigma, (1, 0)),
    (arith.jacobi_totient, (0, 5)),
    (arith.mobius, (0,)),
    (degrees.sp_order_prime, (0, 2)),
    (degrees.sp_order, (1, 0)),
    (degrees.isotropic_tuple_count, (2, 3, 2)),
    (degrees.isotropic_tuple_count, (2, 1, 4)),
    (gw.conjecture_prediction, (1, 1, 1, 1)),
    (nl.taut_nl_d_special, (1, 1)),
    (nl.taut_nl_pair_special, (3, 1, 1)),
    (nl.taut_nl_tilde, (2, -1)),
    (nl.eisenstein_series, (1, 5)),
    (nl.parse_expression, (4, "P(1,2)")),
    (nl.NLExpression, (1, [])),
    (nl.NLExpression, (4, [(1, (("Q", (1,)),))])),
    (ring.TautClass, (0, {})),
    (ring.LambdaPolynomial, (3, {(1, 0): 1})),
    (ring.graded_dimension, (3, -1)),
]


@pytest.mark.parametrize(
    "func,args", REFUSALS, ids=[f"{f.__name__}{args}" for f, args in REFUSALS]
)
def test_out_of_range_argument_is_refused(func, args):
    with pytest.raises(ValueError):
        func(*args)
