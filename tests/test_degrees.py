import io
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import displayed_forms
import symplectic_enumeration
from agtaut import degrees
from agtaut.arith import jacobi_totient
from agtaut.cli import run
from agtaut.degrees import (
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


# -- group orders -------------------------------------------------------------


def test_sp_order_prime_values():
    assert sp_order_prime(1, 2) == 6
    assert sp_order_prime(1, 3) == 24
    assert sp_order_prime(1, 5) == 120
    assert sp_order_prime(2, 2) == 720
    assert sp_order_prime(2, 3) == 51840
    with pytest.raises(ValueError):
        sp_order_prime(1, 4)


def test_sp_order_prime_against_enumeration():
    for p in (2, 3, 5):
        assert sp_order_prime(1, p) == symplectic_enumeration.sl2_order_enumerated(p)
    assert sp_order_prime(2, 2) == symplectic_enumeration.sp4_f2_order_enumerated()


def test_sp_order_values():
    assert sp_order(3, 1) == 1
    assert sp_order(1, 4) == 48
    assert sp_order(1, 6) == 144


def test_sp_order_rejects_genus_below_one():
    for g in (0, -3):
        with pytest.raises(ValueError, match="g must be >= 1"):
            sp_order(g, 1)
        err = io.StringIO()
        assert run(["sp-order", "--g", str(g), "--n", "1"], out=io.StringIO(), err=err) == 1
        assert "g must be >= 1" in err.getvalue()


def test_sp_order_against_enumeration_all_small_moduli():
    for N in range(1, 17):
        assert sp_order(1, N) == symplectic_enumeration.sl2_order_enumerated(N), N


def test_isotropic_tuple_count_values():
    assert isotropic_tuple_count(1, 1, 2) == 3
    assert isotropic_tuple_count(2, 1, 2) == 15
    assert isotropic_tuple_count(2, 2, 2) == 90
    # both printed expressions are compared internally on every call
    for g in range(1, 6):
        for h in range(1, g + 1):
            for p in (2, 3, 5):
                assert isotropic_tuple_count(g, h, p) > 0


@pytest.mark.parametrize(
    "fn, args",
    [
        (sp_order_prime, (1, 2.0)),
        (sp_order_prime, (True, 2)),
        (sp_order, (True, 2)),
        (sp_order, (1, 4.0)),
        (isotropic_tuple_count, (2, True, 2)),
        (isotropic_tuple_count, (True, 1, 2)),
        (isotropic_tuple_count, (2, 1, 2.0)),
        (deg_phi_special, (2, 1, 2.0)),
        (deg_phi_special, (2, True, 2)),
        (deg_phi_special, (True, 1, 2)),
        (deg_phi, (True, (2,))),
        (deg_phi_stratified, (True, (2,), 2)),
        (deg_phi_stratified, (1, (2,), 2.0)),
        (deg_phi_crt, (True, (2,))),
        (deg_pi, (True, (2,))),
        (nl_constant, (True, (1,))),
        (oracle_index, (2.0,)),
        (oracle_index, (True,)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_integer_arguments_reject_bool_and_float(fn, args):
    with pytest.raises(TypeError, match="expected an int"):
        fn(*args)


# -- closed forms ----------------------------------------------------------------


def test_deg_phi_special_values():
    assert deg_phi_special(1, 1, 1) == 1
    assert deg_phi_special(1, 1, 2) == 6
    assert deg_phi_special(2, 1, 2) == 30
    with pytest.raises(ValueError, match="1 <= h <= g"):
        deg_phi_special(1, 2, 1)


def test_deg_phi_values():
    assert deg_phi(3, (1, 1, 1)) == 1
    assert deg_phi(2, (1, 2)) == 30
    assert deg_phi(2, (2, 2)) == 720
    # shorter chains are padded with leading 1 entries
    assert deg_phi(3, (2,)) == deg_phi(3, (1, 1, 2))
    # a longer chain is refused, printed as the type prints
    with pytest.raises(ValueError, match=r"^type \(1,2\) longer than 1$"):
        deg_phi(1, (1, 2))


def test_deg_phi_multiplies_only_the_chain_entries():
    # the padded product, g factors, on every chain with entries <= 12 that fits
    for chain in _chains(12, 8):
        for g in range(len(chain), 9):
            padded = (1,) * (g - len(chain)) + chain
            expected = 1
            for j, d_j in enumerate(padded, start=1):
                expected *= d_j ** (2 * g + 1 - 2 * j) * jacobi_totient(2 * j, d_j)
            assert deg_phi(g, chain) == expected, (g, chain)
    # padding to g = 10^9 used to take g loop steps and g cache entries
    entries = jacobi_totient.cache_info().currsize
    assert deg_phi(10**9, (1,)) == 1
    assert jacobi_totient.cache_info().currsize <= entries + 1


def test_deg_phi_special_equals_general():
    for g in range(1, 6):
        for d in range(1, 13):
            for h in range(1, g + 1):
                delta = (1,) * (g - h) + (d,) * h
                assert deg_phi_special(g, h, d) == deg_phi(g, delta)


def test_closed_forms_match_displayed_forms():
    rng = random.Random(7)
    for g in range(1, 8):
        for _ in range(60):
            chain = displayed_forms.random_chain(rng, rng.randint(1, g))
            padded = (1,) * (g - len(chain)) + chain
            phi = displayed_forms.deg_phi(g, padded)
            assert deg_phi(g, chain) == phi, (g, chain)
            pi = phi * displayed_forms.chain_correction(padded)
            assert deg_pi(g, chain) == pi, (g, chain)
        for h in range(1, g + 1):
            for d in range(1, 40):
                expected = displayed_forms.deg_phi_special(g, h, d)
                assert deg_phi_special(g, h, d) == expected, (g, h, d)


# -- stratified route --------------------------------------------------------------


def test_deg_phi_stratified_values():
    assert deg_phi_stratified(1, (2,), 2) == 6
    assert deg_phi_stratified(2, (1, 4), 2) == deg_phi(2, (1, 4)) == 960
    assert deg_phi_stratified(2, (2, 2), 2) == 720
    with pytest.raises(ValueError, match="mixes primes"):
        deg_phi_stratified(2, (1, 6), 2)
    with pytest.raises(ValueError):
        deg_phi_stratified(1, (2,), 4)  # not a prime


def test_deg_phi_crt_matches_closed_form():
    for g, delta in ((1, (6,)), (2, (1, 6)), (2, (2, 6)), (3, (1, 2, 12)), (2, (15, 15))):
        assert deg_phi_crt(g, delta) == deg_phi(g, delta)


def total_exponent(exps):
    """Sum of N(i) over every stratum i >= 1 of the shape."""
    return sum(stratum_size(exps, i) for i in range(1, 2 * max(exps, default=0) + 1))


def test_shape_bookkeeping():
    assert [stratum_size((1, 2), i) for i in range(1, 6)] == [7, 5, 2, 1, 0]
    # N(i) over all strata accounts for the full power of p
    assert total_exponent((1, 2)) == (2 * 2 + 1) * 3
    rng = random.Random(99)
    for _ in range(200):
        g = rng.randint(1, 6)
        exps = tuple(sorted(rng.randint(0, 4) for _ in range(g)))
        assert total_exponent(exps) == (2 * g + 1) * sum(exps)
    # first stratum on a (1^k, p^h) shape
    for g in range(1, 7):
        for h in range(1, g + 1):
            assert stratum_size((0,) * (g - h) + (1,) * h, 1) == 2 * g * h - h * (h - 1) // 2


def test_stratified_premise_on_every_shape():
    # N(1) = 2gh - h(h-1)/2 on every shape, so p^N(1) prod (1 - p^(-2i)) is
    # the isotropic tuple count that deg_phi_stratified multiplies by
    shapes = 0
    for g in range(1, 7):
        for exps in combinations_with_replacement(range(5), g):
            for p in (2, 3, 5):
                h = sum(v > 0 for v in exps)
                assert stratum_size(exps, 1) == 2 * g * h - h * (h - 1) // 2, (g, exps)
                reference = Fraction(p) ** total_exponent(exps)
                for i in range(g - h + 1, g + 1):
                    reference *= 1 - Fraction(p) ** (-2 * i)
                delta = tuple(p**v for v in exps)
                assert deg_phi_stratified(g, delta, p) == reference, (g, p, exps)
                shapes += 1
    assert shapes == 1383


def test_shape_validation():
    with pytest.raises(ValueError, match="non-decreasing"):
        stratum_size((2, 1), 1)
    with pytest.raises(ValueError, match="non-negative"):
        stratum_size((-1, 1), 1)
    for exps, i in (((0, True), 1), ((0, 1.0), 1), ((0, 1), 1.0), ((0, 1), True)):
        with pytest.raises(TypeError):
            stratum_size(exps, i)


# -- the level-forgetting cover ------------------------------------------------------


def test_deg_pi_values():
    assert deg_pi(4, (1, 1, 1, 1)) == 1
    assert deg_pi(1, (3,)) == 24
    assert deg_pi(2, (2, 2)) == 720
    for p in (2, 3, 5, 7):
        assert deg_pi(1, (p,)) == sp_order_prime(1, p)


def _chains(top, length):
    """Every divisibility chain of at most `length` entries, all <= top."""
    chains = [(d,) for d in range(1, top + 1)]
    for chain in chains:
        if len(chain) < length:
            chains += [chain + (m,) for m in range(chain[-1], top + 1, chain[-1])]
    return chains


def test_chain_correction_matches_displayed_form():
    # every chain with entries <= 60 and length <= 4
    chains = _chains(60, 4)
    assert len(chains) == 2739
    for chain in chains:
        num, den = degrees._chain_correction(PolarizationType(chain), len(chain))
        assert den > 0 and Fraction(num, den) == displayed_forms.chain_correction(chain), chain
    # padded to every length n <= 10: the telescoped padding pairs against
    # the walk over all n(n-1)/2 index pairs of the padded chain
    cases = 0
    for chain in _chains(12, 5):
        for n in range(len(chain) + 1, 11):
            padded = (1,) * (n - len(chain)) + chain
            num, den = degrees._chain_correction(PolarizationType(chain), n)
            assert den > 0 and Fraction(num, den) == displayed_forms.chain_correction(padded), (chain, n)
            cases += 1
    assert cases == 2784


def test_deg_pi_cost_follows_the_chain():
    # padding to g = 10^9 used to walk g^2 / 2 index pairs
    entries = jacobi_totient.cache_info().currsize
    assert deg_pi(10**9, (1,)) == 1
    assert jacobi_totient.cache_info().currsize <= entries + 1


def test_deg_pi_refuses_a_non_integral_value(monkeypatch):
    # C(1, 2) = 1/5, so a deg_phi of 1 leaves deg_pi a fraction
    monkeypatch.setattr(degrees, "deg_phi", lambda g, delta: 1)
    with pytest.raises(AssertionError, match=r"deg_pi\(2, \(1,2\)\) is not an integer: 1/5"):
        deg_pi(2, (1, 2))
    # a short chain is named padded to length g
    with pytest.raises(AssertionError, match=r"deg_pi\(5, \(1,1,1,1,2\)\) is not an integer: 1/341"):
        deg_pi(5, (1, 2))


def test_deg_pi_is_kernel_symplectic_order():
    # the fiber is the set of symplectic bases of (Z/d1 x Z/d2)^2; for a
    # constant chain (d, d) that group is Sp_4(Z/d)
    for d in (2, 3, 4, 6):
        assert deg_pi(2, (d, d)) == sp_order(2, d)


# -- enumeration oracle -----------------------------------------------------------


def test_oracle_index_values():
    for d, expected in ((2, 6), (3, 24), (4, 48)):
        assert oracle_index(d) == expected
    for d in range(2, 9):
        assert oracle_index(d) == deg_phi(1, (d,)), d


def test_oracle_index_cap():
    with pytest.raises(ValueError):
        oracle_index(1)
    with pytest.raises(ValueError):
        oracle_index(9)


def test_every_degree_route_returns_a_positive_int():
    # deg_pi multiplies deg_phi by a rational chain correction, so for
    # deg_pi this is also an integrality check
    chains = [(d1, d2) for d1 in range(1, 7) for d2 in range(d1, 25, d1)]
    values = [deg_pi(2, chain) for chain in chains]
    values += [deg_phi(g, chain) for g in (2, 3) for chain in chains]
    values += [deg_phi_crt(g, chain) for g in (2, 3) for chain in chains]
    values += [deg_phi_special(3, h, d) for h in (1, 2, 3) for d in range(1, 13)]
    values += [deg_phi_stratified(3, (1, p, p * p), p) for p in (2, 3, 5)]
    values += [oracle_index(d) for d in range(2, 9)]
    for value in values:
        assert type(value) is int and value > 0, value


# -- composition diagnostic ---------------------------------------------------------


def test_nl_composition_diagnostic():
    # for a single-entry type the composed degrees reproduce the constant
    for g, d in ((3, 2), (4, 3), (5, 6)):
        report = nl_composition(g, (d,))
        assert report["match"] is True
        assert report["constant"] == report["composed"]
    # for u = 2 with distinct entries the two differ by C(delta)^2 (here
    # 1/25); both values are reported, never reconciled
    report = nl_composition(4, (1, 2))
    assert report["constant"] == 6
    assert report["composed"] == 150
    assert report["match"] is False
    # equal entries dodge the discrepancy
    assert nl_composition(4, (2, 2))["match"] is True


def test_nl_composition_gap_is_chain_correction_squared():
    # constant = composed * C^2 with C = deg_pi_u / deg_phi_u: the composition
    # puts deg_phi_u and deg_pi_u on the wrong sides of the fraction
    chains = [(d,) for d in range(1, 25)]
    chains += [(d1, d2) for d2 in range(1, 25) for d1 in range(1, d2 + 1) if d2 % d1 == 0]
    for chain in chains:
        u = len(chain)
        c = Fraction(deg_pi(u, chain), deg_phi(u, chain))
        for g in range(2 * u, 11):
            report = nl_composition(g, chain)
            assert report["constant"] == report["composed"] * c * c, (g, chain)
            assert report["match"] is (c == 1), (g, chain)
    # at (1, 2) C = 1/5, the 5 coming from J_4(2) / J_2(2)
    assert Fraction(deg_pi(2, (1, 2)), deg_phi(2, (1, 2))) == Fraction(1, 5)
