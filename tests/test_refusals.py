"""Out-of-range arguments refused with a ValueError: one case for each
refusal that no other test reaches."""

import io

import pytest

from agtaut import arith, degrees, gw, nl, ring
from agtaut.cli import run

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


# Each cap on a value whose digits pass Python's 4300-digit limit for
# turning an int into text, with the commands that reach it: at the cap the
# value prints, one above it the command exits 1 naming the cap.
DIGIT_CAPS = [
    (nl.PRODUCT_U2_GENUS_CAP, 584, "u = 2 product cycle", ["taut-product", "--u", "2"]),
    (nl.PRODUCT_U2_GENUS_CAP, 584, "u = 2 product cycle", ["taut-nl", "--delta", "1,1"]),
    (gw.TAU1_LAMBDA_GENUS_CAP, 779, "psi-lambda invariant", ["gw-predict", "--d", "1"]),
]


@pytest.mark.parametrize("cap,value,name,argv", DIGIT_CAPS, ids=[c[3][0] for c in DIGIT_CAPS])
def test_digit_limit_cap_is_the_last_printable_genus(cap, value, name, argv):
    assert cap == value
    refusal = f"error: {name} genus {cap + 1} exceeds cap {cap}\n"
    for g, code, expected in ((cap, 0, ""), (cap + 1, 1, refusal)):
        out, err = io.StringIO(), io.StringIO()
        assert run(argv + ["--g", str(g)], out=out, err=err) == code, g
        assert err.getvalue() == expected and bool(out.getvalue()) == (code == 0), g


def test_digit_limit_caps_refuse_before_computing(monkeypatch):
    def no_bernoulli(n):
        raise AssertionError(f"B_{n} computed")

    monkeypatch.setattr(nl, "abs_bernoulli", no_bernoulli)
    monkeypatch.setattr(gw, "abs_bernoulli", no_bernoulli)
    for func, args in (
        (nl.taut_product_cycle, (585, 2)),
        (nl.parse_expression, (585, "P(2)")),
        (gw.gw_tau1_lambda, (780, 1)),
    ):
        with pytest.raises(ValueError, match="exceeds cap"):
            func(*args)
