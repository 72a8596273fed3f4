"""Out-of-range arguments refused with a ValueError: one case for each
refusal that no other test reaches; projection texts, ring product
operands and normal-form inputs of another type refused with a TypeError;
and a wrong-type probe of every public module-level function."""

import inspect
import io
import json
import sys
from fractions import Fraction

import pytest

from agtaut import arith, degrees, gw, linalg, nl, ring
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


def test_lambda_genus_above_the_cap_is_refused(monkeypatch):
    # ring-reduce --g 1000000000 --indices 1 used to die with a MemoryError
    # building its exponent vector; now no g-long vector, and no rewrite
    # table, is built before the refusal
    cap = ring.LAMBDA_GENUS_CAP
    assert cap >= 100  # the largest genus the tests, demos, CI and benchmark ask for
    above = ring.TautClass.one(cap + 1)
    calls = [
        (ring.LambdaPolynomial, (cap + 1, {})),
        (ring.LambdaPolynomial.one, (cap + 1,)),
        (ring.LambdaPolynomial.monomial, (cap + 1, (1,))),
        (ring.relation, (1, cap + 1)),
        (ring.multiply, (above, above)),
    ]
    monkeypatch.setattr(ring, "_exponents", None)
    tables = ring._rewrite_table.cache_info().currsize
    for func, args in calls:
        with pytest.raises(ValueError, match=f"^lambda polynomial genus {cap + 1} exceeds cap {cap}$"):
            func(*args)
    assert ring._rewrite_table.cache_info().currsize == tables
    err = io.StringIO()
    assert run(["ring-reduce", "--g", "1000000000", "--indices", "1"], out=io.StringIO(), err=err) == 1
    assert err.getvalue() == f"error: lambda polynomial genus 1000000000 exceeds cap {cap}\n"
    monkeypatch.undo()
    assert ring.LambdaPolynomial.one(cap).g == cap


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


@pytest.mark.parametrize("func", [ring.reduce, ring.oracle_reduce], ids=lambda f: f.__name__)
@pytest.mark.parametrize("p", [3, None, ring.TautClass.one(3)], ids=lambda p: type(p).__name__)
def test_normal_form_of_a_non_polynomial_is_refused(func, p):
    # reduce(3) used to raise AttributeError: 'int' object has no attribute
    # 'g', and reduce(TautClass.one(3)) IndexError.
    with pytest.raises(TypeError, match=f"^expected a LambdaPolynomial, got {type(p).__name__}$"):
        func(p)


# The wrong-type probe: every public module-level function of the library
# modules gets, in each required position in turn, each of WRONG_VALUES
# while its other arguments stay valid.  A call may return (bernoulli(0) is
# B_0) or raise TypeError or ValueError, nothing else; at a parameter
# annotated int, every value that is not an int must be refused.
PROBED_MODULES = (arith, degrees, gw, linalg, nl, ring)
WRONG_VALUES = [None, 1.5, True, "x", b"x", [1], ring.TautClass.one(3), Fraction(1, 2), -1, 0]
VALID_BY_NAME = dict(
    value=2, text="1/2", k=2, n=6, N=6, g=3, p=2, h=1, d=2, d1=1, d2=2, D=4, u=1, i=1, w=2,
    delta=(2,), exponents=(0, 1), rows=[[1, 0], [0, 1]], psi_lambda_integral=Fraction(1, 2),
)
# Valid calls where a parameter's name does not fix a valid value.
VALID_CALLS = {
    arith.as_list: ([1],),
    arith.dirichlet_convolve: ([1, 1], [1, 1]),
    degrees.deg_phi_stratified: (2, (1, 2), 2),
    linalg.mat_mul: ([[1]], [[1]]),
    nl.taut_nl_pair_special: (4, 1, 2),
    nl.taut_projection: (3, "NL(2)"),
    ring.relation: (1, 3),
    ring.reduce: (ring.LambdaPolynomial.monomial(3, [1]),),
    ring.oracle_reduce: (ring.LambdaPolynomial.monomial(3, [1]),),
    ring.multiply: (ring.TautClass.one(3), ring.TautClass.one(3)),
    ring.socle_pair: (ring.TautClass.one(3), ring.TautClass.one(3)),
}
PROBED = [
    func
    for module in PROBED_MODULES
    for name, func in vars(module).items()
    if not name.startswith("_")
    and inspect.isfunction(inspect.unwrap(func))
    and func.__module__ == module.__name__
    and inspect.signature(func).parameters
]


@pytest.mark.parametrize("func", PROBED, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_wrong_type_argument_is_refused(func):
    params = inspect.signature(func).parameters.values()
    args = VALID_CALLS.get(func) or tuple(VALID_BY_NAME[p.name] for p in params)
    func(*args)
    leaks = []
    for position, param in enumerate(params):
        for value in WRONG_VALUES:
            call = args[:position] + (value,) + args[position + 1 :]
            try:
                func(*call)
            except (TypeError, ValueError):
                continue
            except Exception as exc:
                leaks.append(f"{func.__name__}{call!r} raised {exc!r}")
            else:
                if param.annotation == "int" and type(value) is not int:
                    leaks.append(f"{func.__name__}{call!r} returned")
    assert leaks == []


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
    ["eisenstein", "--g", "700", "--order", "1500"],
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
