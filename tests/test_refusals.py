"""Out-of-range arguments refused with a ValueError: one case for each
refusal that no other test reaches; and projection texts and ring product
operands of another type refused with a TypeError."""

import io
import json
import sys
from fractions import Fraction

import pytest

from agtaut import arith, degrees, gw, nl, ring
from agtaut.cli import run

REFUSALS = [
    (arith.sigma, (1, 0)),
    (arith.sigma, (-1, 6)),
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
    (nl.taut_projection, (4, "P(1,2)")),
    (nl.taut_projection, (1, "L()")),
    (ring.TautClass, (0, {})),
    (ring.LambdaPolynomial, (3, {(1, 0): 1})),
    (ring.graded_dimension, (3, -1)),
    (ring.graded_dimension, (-5, 0)),
    (ring.basis_sets, (-3, 0)),
    (ring.basis_sets, (3, -1)),
    (ring.monomials_of_weight, (-1, 0)),
    (ring.monomials_of_weight, (3, -1)),
]


@pytest.mark.parametrize(
    "func,args", REFUSALS, ids=[f"{f.__name__}{args}" for f, args in REFUSALS]
)
def test_out_of_range_argument_is_refused(func, args):
    with pytest.raises(ValueError):
        func(*args)


@pytest.mark.parametrize("text", [5, None, b"NL(2)"], ids=repr)
def test_projection_text_that_is_not_a_str_is_refused(text):
    with pytest.raises(TypeError, match=f"got {type(text).__name__}$"):
        nl.taut_projection(2, text)


NON_CLASS_OPERANDS = [
    (ring.multiply, (ring.TautClass.one(3), 3)),
    (ring.multiply, (3, ring.TautClass.one(3))),
    (ring.multiply, (ring.TautClass.one(3), ring.LambdaPolynomial.one(3))),
    (ring.socle_pair, (ring.TautClass.one(3), 3)),
    (ring.socle_pair, (3, ring.TautClass.one(3))),
]


@pytest.mark.parametrize(
    "func,args",
    NON_CLASS_OPERANDS,
    ids=[f"{f.__name__}({', '.join(type(a).__name__ for a in args)})" for f, args in NON_CLASS_OPERANDS],
)
def test_ring_product_of_a_non_class_is_refused(func, args):
    # multiply(TautClass.one(3), 3) used to raise AttributeError: 'int'
    # object has no attribute 'g'.
    name = next(type(a).__name__ for a in args if not isinstance(a, ring.TautClass))
    with pytest.raises(TypeError, match=f"got {name}$"):
        func(*args)


# Values whose text passes Python's limit on int digits: no cap of the
# program refuses them, so str() inside cli.run does, with Python's message
# and nothing on stdout.  With the limit lifted they print, and equal their
# second routes.
DIGIT_LIMIT_ARGVS = [
    ["taut-product", "--g", "585", "--u", "2"],
    ["taut-nl", "--g", "585", "--delta", "1,1"],
    ["taut-nl", "--g", "584", "--delta", "1000,1000000"],
    ["gw-predict", "--g", "780", "--d", "1"],
    ["gw-predict", "--g", "300", "--d", "1000000"],
]


def _run_json(argv):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv + ["--json"], out=out, err=err) == 0, err.getvalue()
    return json.loads(out.getvalue())


@pytest.mark.parametrize("argv", DIGIT_LIMIT_ARGVS, ids=" ".join)
def test_value_past_the_digit_limit_exits_with_pythons_message(argv):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out=out, err=err) == 1
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.getvalue().startswith("error: Exceeds the limit (4300 digits)")
    assert out.getvalue() == ""


def test_values_past_the_digit_limit_print_with_the_limit_lifted():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        pair = nl.taut_nl_pair_special(585, 1, 1)
        for argv in DIGIT_LIMIT_ARGVS[:2]:
            assert _run_json(argv) == pair.to_json_dict(), argv
        value = gw.gw_tau1_lambda(780, 1)
        assert value == gw.conjecture_prediction(780, 1, 1, 1558 * gw.triple_hodge_integral(780))
        assert Fraction(_run_json(DIGIT_LIMIT_ARGVS[3])["value"]) == value
    finally:
        sys.set_int_max_str_digits(limit)
