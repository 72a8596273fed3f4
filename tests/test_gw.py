from fractions import Fraction

import pytest

from agtaut.arith import sigma
from agtaut.gw import conjecture_prediction, gw_tau1_lambda, triple_hodge_integral


def test_gw_tau1_lambda_values():
    assert gw_tau1_lambda(2, 1) == Fraction(1, 288)
    assert gw_tau1_lambda(2, 2) == Fraction(1, 32)
    assert gw_tau1_lambda(3, 1) == Fraction(1, 17280)
    with pytest.raises(ValueError):
        gw_tau1_lambda(1, 1)


def test_triple_hodge_integral_values():
    assert triple_hodge_integral(2) == Fraction(1, 5760)
    assert triple_hodge_integral(3) == Fraction(1, 42) * Fraction(1, 30) / 1152
    with pytest.raises(ValueError):
        triple_hodge_integral(1)


def test_conjecture_prediction():
    assert conjecture_prediction(5, 3, 2, 0) == 0
    supplied = 2 * triple_hodge_integral(2)
    assert conjecture_prediction(2, 1, 1, supplied) == gw_tau1_lambda(2, 1)
    assert conjecture_prediction(3, 2, 1, 4 * triple_hodge_integral(3)) == gw_tau1_lambda(3, 2)
    with pytest.raises(TypeError):
        conjecture_prediction(2, 1, 1, 0.5)


@pytest.mark.parametrize(
    "fn, args",
    [
        (conjecture_prediction, (2, 1, 1.5, 1)),
        (conjecture_prediction, (2, 1, True, 1)),
        (conjecture_prediction, (2.0, 1, 1, 1)),
        (conjecture_prediction, (2, True, 1, 1)),
        (gw_tau1_lambda, (True, 1)),
        (gw_tau1_lambda, (2, 1.0)),
        (triple_hodge_integral, (True,)),
        (triple_hodge_integral, (2.0,)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_integer_arguments_reject_bool_and_float(fn, args):
    with pytest.raises(TypeError, match="expected an int"):
        fn(*args)


def test_consistency_chain():
    for g in range(2, 11):
        supplied = (2 * g - 2) * triple_hodge_integral(g)
        for d in (1, 2, 5, 12):
            assert conjecture_prediction(g, d, 1, supplied) == gw_tau1_lambda(g, d)


def test_ratio_independent_of_degree():
    for g in (2, 3, 4):
        base = gw_tau1_lambda(g, 1)
        for d in range(1, 30):
            assert gw_tau1_lambda(g, d) / sigma(2 * g - 1, d) == base
