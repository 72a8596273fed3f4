import io
import json
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

import agtaut
import displayed_forms
from agtaut import arith, degrees, nl
from agtaut.arith import bernoulli, factorize, sigma
from agtaut.cli import run
from agtaut.degrees import deg_phi
from agtaut.linalg import identity, invert, mat_mul
from agtaut.nl import (
    PolarizationType,
    QSeries,
    eisenstein_series,
    nl_constant,
    plain_to_tilde,
    taut_nl,
    taut_nl_d_special,
    taut_nl_pair_special,
    taut_nl_tilde,
    taut_product_cycle,
    taut_projection,
    tilde_to_plain,
)
from agtaut.ring import LambdaPolynomial, TautClass, multiply


def taut(g, indices, coeff=1):
    return TautClass.monomial(g, indices, coeff)


# -- polarization types ---------------------------------------------------


def test_polarization_type_validation():
    assert PolarizationType((1, 2, 4)).entries == (1, 2, 4)
    with pytest.raises(ValueError):
        PolarizationType(())
    with pytest.raises(ValueError):
        PolarizationType((2, 3))
    with pytest.raises(ValueError):
        PolarizationType((0, 2))


def test_polarization_type_refuses_inexact_entries():
    # an inexact entry is refused, never truncated to an int
    with pytest.raises(TypeError):
        taut_nl(4, (1.9, 2.2))
    with pytest.raises(TypeError):
        deg_phi(2, (2.7,))
    with pytest.raises(TypeError):
        PolarizationType(["3", 6])
    with pytest.raises(TypeError):
        PolarizationType("12")


def test_polarization_type_refuses_bool_entries():
    # bool is an int subclass, but True is no polarization entry
    for entries in ([True, 2], (1, False), True):
        with pytest.raises(TypeError):
            PolarizationType(entries)
    with pytest.raises(TypeError):
        deg_phi(2, (True,))


def test_polarization_type_from_type_int_or_sequence():
    delta = PolarizationType((2, 4))
    assert PolarizationType(delta) == delta
    assert PolarizationType(3).entries == (3,)
    assert PolarizationType([1, 2]).entries == PolarizationType(d for d in (1, 2)).entries
    assert PolarizationType is degrees.PolarizationType
    assert nl_constant is degrees.nl_constant


def test_polarization_type_derived():
    delta = PolarizationType((1, 2))
    assert delta.u == 2 and delta.product == 2
    assert delta.padded(4).entries == (1, 1, 1, 2)
    assert PolarizationType((2, 12)).p_part(2).entries == (2, 4)
    assert PolarizationType((2, 12)).p_part(3).entries == (1, 3)
    with pytest.raises(ValueError):
        delta.padded(1)  # u > length


# -- product cycles ---------------------------------------------------------


def test_taut_product_cycle_values():
    assert taut_product_cycle(2, 1) == taut(2, (1,), 10)
    assert taut_product_cycle(6, 1) == taut(6, (5,), Fraction(2730, 691))
    assert taut_product_cycle(4, 2) == taut(4, (1, 3), 42)


def test_taut_product_cycle_scope():
    with pytest.raises(ValueError, match="out of scope"):
        taut_product_cycle(6, 3)
    with pytest.raises(ValueError):
        taut_product_cycle(3, 2)  # 2u > g


# -- the projection constant -------------------------------------------------


def test_nl_constant_examples():
    assert nl_constant(5, (1,)) == 1
    assert nl_constant(6, (1, 1)) == 1
    assert nl_constant(8, (1, 1, 1)) == 1
    assert nl_constant(3, (2,)) == 30
    assert nl_constant(4, (1, 2)) == 6
    with pytest.raises(ValueError):
        nl_constant(3, (1, 2))  # u > g/2


def test_nl_constant_matches_displayed_form():
    rng = random.Random(2024)
    for _ in range(400):
        u = rng.randint(1, 4)
        g = rng.randint(2 * u, 2 * u + 6)
        chain = displayed_forms.random_chain(rng, u)
        assert nl_constant(g, chain) == displayed_forms.nl_constant(g, chain), (g, chain)


def test_specializations_match_displayed_forms():
    for g in range(2, 13):
        for d in range(1, 200):
            expected = displayed_forms.nl_d_special_coeff(g, d)
            assert taut_nl_d_special(g, d) == taut(g, (g - 1,), expected), (g, d)
    for g in range(4, 13):
        for d2 in range(1, 60):
            for d1 in (d for d in range(1, d2 + 1) if d2 % d == 0):
                expected = displayed_forms.nl_pair_special_coeff(g, d1, d2)
                assert taut_nl_pair_special(g, d1, d2) == taut(g, (g - 3, g - 1), expected)


def test_pair_special_rejects_nonpositive_d2():
    # d1 | d2 holds for d2 = 0 and d2 = -2, so d2 needs a check of its own.
    for d1, d2 in ((4, 0), (1, -2)):
        with pytest.raises(ValueError, match=r"d2 >= 1, got d2=" + str(d2)):
            taut_nl_pair_special(5, d1, d2)


def test_taut_nl_examples():
    assert taut_nl(2, (2,)) == taut(2, (1,), 60)
    assert taut_nl(3, (1,)) == taut_product_cycle(3, 1)
    assert taut_nl(4, (1, 2)) == taut(4, (1, 3), 252)


def test_taut_nl_d_special_values():
    for g in range(2, 7):
        assert taut_nl_d_special(g, 1) == taut_product_cycle(g, 1)
    assert taut_nl_d_special(2, 2) == taut(2, (1,), 60)
    assert taut_nl_d_special(3, 3) == taut(3, (2,), 5040)


def test_taut_nl_pair_special_values():
    assert taut_nl_pair_special(4, 1, 1) == taut_product_cycle(4, 2)
    assert taut_nl_pair_special(4, 1, 2) == taut_nl(4, (1, 2))
    assert taut_nl_pair_special(5, 2, 2) == taut_nl(5, (2, 2))
    with pytest.raises(ValueError):
        taut_nl_pair_special(5, 2, 3)


def test_specialization_cross_checks_small():
    for g in range(2, 6):
        for d in range(1, 13):
            assert taut_nl(g, (d,)) == taut_nl_d_special(g, d)
    for g in range(4, 6):
        for d1, d2 in ((1, 3), (2, 4), (3, 6), (2, 8)):
            assert taut_nl(g, (d1, d2)) == taut_nl_pair_special(g, d1, d2)


# -- tilde cycles ------------------------------------------------------------


def test_taut_nl_tilde_values():
    assert taut_nl_tilde(2, 0) == taut(2, (1,), Fraction(1, 24))
    assert taut_nl_tilde(3, 0) == taut(3, (2,), Fraction(-1, 24))
    assert taut_nl_tilde(2, 1) == taut(2, (1,), 10)
    assert taut_nl_tilde(2, 2) == taut(2, (1,), 90)


def test_taut_nl_tilde_two_routes_agree():
    # the call itself asserts divisor-sum route == closed form
    for g in range(2, 9):
        for d in range(1, 201):
            taut_nl_tilde(g, d)


def test_tilde_to_plain_entries():
    assert tilde_to_plain(1) == [[Fraction(1)]]
    m = tilde_to_plain(6)
    assert m[3][1] == 3  # entry (4, 2): sigma_1(2)
    assert m[5][0] == 12  # entry (6, 1): sigma_1(6)
    assert m[5][3] == 0  # 4 does not divide 6
    assert all(m[i][i] == 1 for i in range(6))


def test_basis_change_rejects_empty_range():
    for D in (0, -1):
        with pytest.raises(ValueError):
            tilde_to_plain(D)
        with pytest.raises(ValueError):
            plain_to_tilde(D)


def test_plain_to_tilde_inverse():
    assert plain_to_tilde(1) == [[Fraction(1)]]
    assert plain_to_tilde(2) == [[Fraction(1), Fraction(0)], [Fraction(-3), Fraction(1)]]
    forward = tilde_to_plain(6)
    backward = plain_to_tilde(6)
    assert mat_mul(backward, forward) == identity(6)
    # both kernels are integer-valued, so both transforms stay on int
    assert all(type(x) is int for row in forward + backward for x in row)


def test_plain_to_tilde_equals_elimination():
    # The leading blocks of a triangular inverse are the inverses of the
    # leading blocks, so D = 100 covers every D <= 100.
    backward = plain_to_tilde(100)
    assert backward == invert(tilde_to_plain(100))
    assert all(type(x) is int for row in backward for x in row)


def test_plain_to_tilde_kernel_at_prime_powers():
    # The Dirichlet inverse of sigma_1 is multiplicative, with value
    # -(1 + p) at p, p at p^2 and 0 at p^e for e >= 3.
    def at_prime_power(p, e):
        return {1: -(1 + p), 2: p}.get(e, 0)

    column = [row[0] for row in plain_to_tilde(100)]
    assert column[0] == 1
    for n in range(2, 101):
        expected = 1
        for p, e in factorize(n):
            expected *= at_prime_power(p, e)
        assert column[n - 1] == expected, n
    assert column[1] == -3 and column[3] == 2 and column[7] == 0 and column[8] == 3


def test_tilde_divisor_sum_is_checked(monkeypatch):
    # A wrong u = 1 coefficient must make the divisor-sum route disagree;
    # the route sums the u = 1 numerators g d J_{2g-2}(d) on int.
    monkeypatch.setattr(nl, "_d_special_numerator", lambda g, d: 1)
    with pytest.raises(AssertionError, match="tilde routes disagree"):
        taut_nl_tilde(3, 6)


# -- Eisenstein series ---------------------------------------------------------


def test_eisenstein_values():
    assert str(eisenstein_series(2, 2)) == "1 + 240 q + 2160 q^2"
    assert str(eisenstein_series(3, 1)) == "1 - 504 q"
    for g in range(2, 9):
        assert eisenstein_series(g, 0).coefficient(0) == 1
    series = eisenstein_series(4, 3)
    assert series.coefficient(1) == 480  # -16/B_8 with B_8 = -1/30
    # classical leading coefficients of the higher weights
    assert eisenstein_series(5, 1).coefficient(1) == -264
    assert eisenstein_series(6, 1).coefficient(1) == Fraction(65520, 691)
    assert eisenstein_series(7, 1).coefficient(1) == -24


def test_eisenstein_order_zero_is_the_series_one():
    for g in range(2, 17):
        assert eisenstein_series(g, 0) == QSeries([1])


def test_eisenstein_series_rejects_non_int_arguments():
    # eisenstein_series(2, True) used to return the order-1 series 1 + 240 q.
    for g, D in ((2, True), (True, 3), (2, 1.0), (2.0, 1)):
        with pytest.raises(TypeError):
            eisenstein_series(g, D)


def test_taut_nl_d_special_rejects_non_int_arguments():
    # taut_nl_d_special(2, True) used to return the d = 1 class 10 * L(1).
    for g, d in ((2, True), (True, 1), (3, 2.0)):
        with pytest.raises(TypeError):
            taut_nl_d_special(g, d)


def fraction_series_text(coeffs):
    """The text QSeries printed when it stored Fractions: str of each
    coefficient, the sign of a q-term read from that text."""
    bits = [str(coeffs[0])]
    for d, c in enumerate(coeffs[1:], 1):
        if c:
            power = "q" if d == 1 else f"q^{d}"
            text = str(c)
            bits.append(f"- {text[1:]} {power}" if text[0] == "-" else f"+ {text} {power}")
    return " ".join(bits)


def test_eisenstein_matches_fraction_multiply_route():
    # The route eisenstein_series replaced: one Fraction multiply per
    # coefficient, printed by str(Fraction).  g <= 5 and g = 7 have integral
    # leads; the others bring denominators (691, 3617, ...) and both signs.
    for g in range(2, 17):
        lead = Fraction(-4 * g) / bernoulli(2 * g)
        for order in (0, 1, 200):
            expected = [Fraction(1)] + [lead * sigma(2 * g - 1, d) for d in range(1, order + 1)]
            series = eisenstein_series(g, order)
            assert series.coeffs == tuple(expected), (g, order)
            assert str(series) == fraction_series_text(expected), (g, order)
            json_dict = {"order": order, "coeffs": [str(c) for c in expected]}
            assert series.to_json_dict() == json_dict, (g, order)
            assert QSeries(expected) == series, (g, order)


def test_eisenstein_prints_every_coefficient_in_lowest_terms():
    # only the coefficients flagged as reducible get a gcd when printed; an
    # unflagged one must already be in lowest terms
    cases = [(g, 2000) for g in range(2, 31)] + [(50, 300), (100, 300)]
    for g, order in cases:
        series = eisenstein_series(g, order)
        den, reducible = series.denominator, series._reducible
        texts = series.to_json_dict()["coeffs"]
        assert texts == [str(Fraction(n, den)) for n in series.numerators], g
        assert len(reducible) == order + 1, g
        unflagged = [n for n, flag in zip(series.numerators, reducible) if not flag]
        assert all(gcd(n, den) == 1 for n in unflagged), g


def test_eisenstein_flags_a_coefficient_that_reduces():
    # 691 divides both the lead's denominator at g = 6 and sigma_11(1381) =
    # 1381^11 + 1, so the q^1381 coefficient reduces, through the gcd branch
    assert sigma(11, 1381) % 691 == 0
    for order in (1381, 1500):
        series = eisenstein_series(6, order)
        assert series.denominator == 691
        assert series._reducible[1381]
        assert series.coefficient(1381).denominator == 1
        assert series.to_json_dict()["coeffs"][1381] == str(series.coefficient(1381))
    # below q^1500 no other prime power's sigma_11 meets 691
    flagged = [d for d, flag in enumerate(eisenstein_series(6, 1500)._reducible) if flag]
    assert flagged == [0, 1381]


def test_qseries_text_matches_fraction_text():
    # zero, negative and partly reducible coefficients at every position,
    # the q term (d = 1) included
    rng = random.Random(23)
    for order in (0, 1, 2, 3, 40):
        for _ in range(40):
            den = rng.choice((1, 2, 6, 12, 691))
            numerators = [rng.choice((0, rng.randint(-50, 50))) for _ in range(order + 1)]
            coeffs = [Fraction(n, den) for n in numerators]
            series = QSeries(coeffs)
            assert str(series) == fraction_series_text(coeffs), coeffs
            assert series.to_json_dict()["coeffs"] == [str(c) for c in coeffs], coeffs
            assert series.json_text() == json.dumps(series.to_json_dict(), sort_keys=True)
            # built from its coefficients, a series flags exactly those
            # that reduce over its denominator
            assert list(series._reducible) == [
                gcd(n, series.denominator) > 1 for n in series.numerators
            ], coeffs
    # zero, negative, integer and reducible Fraction coefficients, and a
    # series of one coefficient
    for coeffs in (
        [0],
        [-7],
        [Fraction(3, 6)],
        [1, 0, -2, 5],
        [Fraction(-4, 6), 0, 3, Fraction(9, 12), Fraction(-8, 4)],
    ):
        series = QSeries(coeffs)
        expected = {"order": len(coeffs) - 1, "coeffs": [str(Fraction(c)) for c in coeffs]}
        assert series.to_json_dict() == expected, coeffs
        assert series.json_text() == json.dumps(expected, sort_keys=True), coeffs


def test_eisenstein_order_cap():
    agtaut.clear_caches()
    eisenstein_series(3, 40)
    kept, sieve = dict(nl._kept_series), arith._sieve
    for order in (nl.EISENSTEIN_ORDER_CAP + 1, 99999999999):
        with pytest.raises(ValueError, match=f"exceeds cap {nl.EISENSTEIN_ORDER_CAP}"):
            eisenstein_series(2, order)
    # refused before the sigma table, or the sieve under it, is built, and
    # before a series is kept
    assert arith._sieve is sieve
    assert nl._kept_series == kept and nl._kept_series[3] is kept[3]
    series = eisenstein_series(2, nl.EISENSTEIN_ORDER_CAP)
    assert series.order == nl.EISENSTEIN_ORDER_CAP
    assert series.coefficient(nl.EISENSTEIN_ORDER_CAP) == 240 * sigma(3, nl.EISENSTEIN_ORDER_CAP)


def eisenstein_state(series):
    """Everything a series holds and prints; its JSON text must be the
    bytes json.dumps gives."""
    json_text = series.json_text()
    assert json_text == json.dumps(series.to_json_dict(), sort_keys=True)
    return series.numerators, series.denominator, bytes(series._reducible), str(series), json_text


def test_eisenstein_prefix_of_a_kept_series_equals_the_cold_series():
    # every genus up to 16 at several orders, and g = 6 where the gcd branch
    # flags q^1381; each asked cold, then after each other in increasing,
    # decreasing and shuffled order, so a series is read as a prefix of a
    # longer kept one or rebuilds it, and its texts are read from those
    # printed before or formatted past them; and g = 6 grown one order at
    # a time to 40 before 1500 and 1381
    requests = [(g, D) for g in range(2, 17) for D in (0, 1, 2, 5, 40, 200)]
    requests += [(6, 1381), (6, 1500)]
    growing = [(6, D) for D in range(1, 41)] + [(6, 1500), (6, 1381)]
    cold = {}
    for g, D in requests + growing:
        agtaut.clear_caches()
        cold[g, D] = eisenstein_state(eisenstein_series(g, D))
    shuffled = random.Random(38).sample(requests, len(requests))
    by_order = sorted(requests, key=lambda request: request[1])
    for ordering in (by_order, by_order[::-1], shuffled, growing):
        agtaut.clear_caches()
        returned = []
        for g, D in ordering:
            series = eisenstein_series(g, D)
            assert eisenstein_state(series) == cold[g, D], (g, D)
            returned.append((series, cold[g, D]))
        # a longer series asked later leaves those returned before unchanged
        assert all(eisenstein_state(series) == state for series, state in returned)
        # series built before any is printed, then printed last first: the
        # shorter ones read texts that a rebuilt record's series formatted
        agtaut.clear_caches()
        built = [(eisenstein_series(g, D), cold[g, D]) for g, D in ordering]
        assert all(eisenstein_state(series) == state for series, state in built[::-1])
    assert len(nl._kept_series[6][0]) == 1501
    # with series kept, the Bernoulli cap still refuses order 0
    with pytest.raises(ValueError, match="Bernoulli index 2064 exceeds cap 2062"):
        eisenstein_series(1032, 0)


def test_eisenstein_coefficient_is_formatted_once(monkeypatch):
    # after the longest series of a genus is printed, every shorter one
    # reads its text and JSON from the kept texts
    calls, format_texts = [], nl._coefficient_texts
    monkeypatch.setattr(
        nl, "_coefficient_texts", lambda *args: calls.append(args) or format_texts(*args)
    )
    agtaut.clear_caches()
    assert run(["eisenstein", "--g", "16", "--order", "1500"], out=io.StringIO()) == 0
    assert [len(numerators) for numerators, _, _ in calls] == [1501]
    for order in range(1, 1501):
        for as_json in ([], ["--json"]):
            argv = ["eisenstein", "--g", "16", "--order", str(order)] + as_json
            assert run(argv, out=io.StringIO()) == 0
    assert len(calls) == 1
    # a longer order formats only the coefficients past the kept texts
    cold = eisenstein_state(eisenstein_series(16, 1600))
    assert [len(numerators) for numerators, _, _ in calls[1:]] == [100]
    agtaut.clear_caches()
    assert eisenstein_state(eisenstein_series(16, 1600)) == cold


def test_eisenstein_kept_texts_past_the_digit_limit_are_not_read():
    # texts printed with the limit lifted hold ints of more than 640
    # digits, Python's least limit: under it, printing raises Python's
    # error as a cold series does, and a series whose own ints fit prints
    # the cold bytes
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        nl.clear_caches()
        short = eisenstein_state(eisenstein_series(200, 20))
        with pytest.raises(ValueError) as cold_error:
            str(eisenstein_series(200, 100))
        sys.set_int_max_str_digits(0)
        nl.clear_caches()
        lifted = eisenstein_state(eisenstein_series(200, 100))
        assert nl._kept_series[200][2].digits > 640
        sys.set_int_max_str_digits(640)
        for printing in (str, QSeries.json_text, QSeries.to_json_dict):
            with pytest.raises(ValueError) as error:
                printing(eisenstein_series(200, 100))
            assert str(error.value) == str(cold_error.value)
        assert eisenstein_state(eisenstein_series(200, 20)) == short
        sys.set_int_max_str_digits(0)
        assert eisenstein_state(eisenstein_series(200, 100)) == lifted
    finally:
        sys.set_int_max_str_digits(limit)


def test_qseries_keeps_the_least_common_denominator():
    series = QSeries([Fraction(1, 6), Fraction(-3, 4), 2, 0])
    assert (series.numerators, series.denominator) == ((2, -9, 24, 0), 12)
    assert QSeries([Fraction(2, 4), 1]) == QSeries([Fraction(1, 2), Fraction(4, 4)])
    assert QSeries([0, 0]).denominator == 1
    assert str(QSeries([Fraction(-6, 3), Fraction(2, 6), Fraction(-4, 2)])) == "-2 + 1/3 q - 2 q^2"
    assert str(QSeries([0, Fraction(1, 2)])) == "0 + 1/2 q"


def test_eisenstein_matches_tilde_projection():
    for g in (2, 3, 5):
        series = eisenstein_series(g, 12)
        for d in range(0, 13):
            lhs = Fraction((-1) ** g, 24) * series.coefficient(d)
            assert lhs == taut_nl_tilde(g, d).coefficient((g - 1,))


def test_qseries_interface():
    series = QSeries([1, Fraction(1, 2), 0, -2])
    assert series.order == 3
    assert str(series) == "1 + 1/2 q - 2 q^3"
    assert str(QSeries([1, Fraction(-1, 2), 0, 3])) == "1 - 1/2 q + 3 q^3"
    assert str(QSeries([-1, -1, Fraction(-7, 3)])) == "-1 - 1 q - 7/3 q^2"
    assert series.to_json_dict() == {"order": 3, "coeffs": ["1", "1/2", "0", "-2"]}
    assert QSeries([Fraction(2, 4), 3]).to_json_dict() == {"order": 1, "coeffs": ["1/2", "3"]}
    with pytest.raises(ValueError):
        series.coefficient(4)
    # coefficient(True) used to return the q^1 coefficient.
    for d in (True, 1.0):
        with pytest.raises(TypeError):
            series.coefficient(d)
    with pytest.raises(TypeError):
        eisenstein_series(2, 3).coefficient(True)
    with pytest.raises(ValueError):
        QSeries([])
    with pytest.raises(TypeError):
        QSeries([1, 0.1])
    with pytest.raises(TypeError):
        QSeries([1, True])


# -- ring-level vanishing -------------------------------------------------------


def test_top_lambda_kills_u1_projections():
    for g in range(2, 9):
        lam = taut(g, (g - 1,))
        for d in (1, 2, 6):
            assert multiply(taut_nl_d_special(g, d), lam).is_zero()


# -- expression grammar and projection calculus ---------------------------------


def test_taut_projection_forms():
    assert taut_projection(2, "3 * NL(2) + NLt(2)") == 3 * taut_nl(2, 2) + taut_nl_tilde(2, 2)
    assert taut_projection(4, "-1/2 * L(1,3)") == taut(4, (1, 3), Fraction(-1, 2))
    product = multiply(taut_nl(4, (1, 2)), taut_nl_tilde(4, 3))
    assert taut_projection(4, "NL(1,2) * NLt(3)") == product
    assert taut_projection(6, "P(2)") == taut_product_cycle(6, 2)


def test_taut_projection_errors():
    for text in ("NL(2) * NL(2) * NL(2)", "3 * NL(2) * NL(2) * NL(2)", "1/2"):
        with pytest.raises(ValueError, match="one or two symbols"):
            taut_projection(2, text)
    with pytest.raises(ValueError):
        taut_projection(2, "Q(2)")
    with pytest.raises(ValueError):
        taut_projection(2, "NL(2,3)")  # not a chain
    with pytest.raises(ValueError):
        taut_projection(2, "NL(1,1)")  # u > g/2
    with pytest.raises(ValueError):
        taut_projection(2, "P(2)")
    with pytest.raises(ValueError):
        taut_projection(2, "L(3)")  # lambda index beyond g
    with pytest.raises(ValueError):
        taut_projection(2, "")
    with pytest.raises(ValueError):
        taut_projection(2, "NLt(2) +")
    for text in ("L(1,,2)", "NL(,2)", "L(1,)", "NLt(,)"):  # an empty argument item
        with pytest.raises(ValueError, match="malformed argument list"):
            taut_projection(4, text)


def test_whole_text_is_parsed_before_any_term_is_projected():
    # NL(1,1,1) alone is out of scope, but the unparsable second term is
    # refused first.
    with pytest.raises(ValueError, match=r"^cannot parse symbol 'Q\(2\)'$"):
        taut_projection(6, "NL(1,1,1) + Q(2)")


def test_expression_rejects_triple_products():
    with pytest.raises(ValueError, match="three or more"):
        taut_projection(2, "NL(2) * NLt(1) * P(1)")


def test_expression_rejects_float_coefficients():
    with pytest.raises(ValueError, match="cannot parse symbol '0.5'"):
        taut_projection(2, "0.5 * NL(2)")


def test_taut_projection_examples():
    # product of two NL-supported symbols projects to zero
    assert taut_projection(2, "NL(2) * NLt(3)").is_zero()
    # a tautological factor multiplies through: L1 * NL_{2,(2)} -> 60 L1^2 = 0
    assert taut_projection(2, "L(1) * NL(2)").is_zero()
    # linearity
    assert taut_projection(2, "3 * NL(2) + NLt(2)") == taut(2, (1,), 270)


def test_taut_projection_more_cases():
    assert taut_projection(3, "NLt(0)") == taut(3, (2,), Fraction(-1, 24))
    assert taut_projection(3, "L(1) * L(2)") == taut(3, (1, 2))
    assert taut_projection(3, "L(1,1)") == taut(3, (2,), 2)
    assert taut_projection(4, "P(2)") == taut_product_cycle(4, 2)
    assert taut_projection(4, "L()") == TautClass.one(4)
    # lambda monomial times a u=2 cycle lands in the ring product
    lhs = taut_projection(4, "L(2) * NL(1,2)")
    assert lhs == multiply(taut(4, (2,)), taut_nl(4, (1, 2)))
    with pytest.raises(ValueError, match="out of scope"):
        taut_projection(6, "NL(1,1,1)")


def test_out_of_scope_symbol_is_refused_inside_an_nl_product():
    # the product would project to 0, but its factors are still projected
    for text in ("NL(1,1,1) * NLt(1)", "NLt(1) * NL(1,1,1)", "P(3) * NL(2)"):
        with pytest.raises(ValueError, match="out of scope"):
            taut_projection(6, text)


def test_library_entry_points_reject_bool_arguments():
    with pytest.raises(TypeError):
        taut_product_cycle(4, True)
    with pytest.raises(TypeError):
        taut_nl_tilde(4, True)
    with pytest.raises(TypeError):
        LambdaPolynomial.monomial(4, (True,))
    # taut_nl_pair_special(4, 1, 1.5) used to say "requires d1 | d2", and
    # the projection calculus once took an expression of genus 2.5.
    for args in ((True, 1, 1), (4, True, 1), (4, 1, 1.5), (4.0, 1, 1)):
        with pytest.raises(TypeError):
            taut_nl_pair_special(*args)
    for g in (2.5, True, 4.0):
        with pytest.raises(TypeError):
            taut_projection(g, "L()")
        with pytest.raises(TypeError):
            taut_projection(g, "NL(2)")
    # tilde_to_plain(0.5) used to compare before any int check and raise
    # ValueError; both directions leave the checks to their tables.
    for D in (0.5, 2.0, True):
        with pytest.raises(TypeError):
            tilde_to_plain(D)
        with pytest.raises(TypeError):
            plain_to_tilde(D)


def test_taut_projection_product_is_symmetric():
    lam_first = taut_projection(4, "L(1) * NL(2)")
    nl_first = taut_projection(4, "NL(2) * L(1)")
    assert not lam_first.is_zero()
    assert lam_first == nl_first == multiply(taut(4, (1,)), taut_nl(4, (2,)))


def test_product_projects_to_the_ring_product(monkeypatch):
    # With a tilde projection that is not NL-supported, the product's
    # projection is computed in the ring, not assumed 0: lambda_1^2 =
    # 2 lambda_2 at g = 4, so 2 L(1) times 3 L(1) is 12 L(2).
    monkeypatch.setattr(nl, "taut_nl_tilde", lambda g, d: TautClass.monomial(g, (1,), d))
    product = taut_projection(4, "NLt(2) * NLt(3)")
    assert product == multiply(taut(4, (1,), 2), taut(4, (1,), 3)) == taut(4, (2,), 12)


def test_homomorphism_property_on_nl_pairs():
    for g in (2, 4, 6):
        pairs = [("NL(2)", "NLt(4)"), ("P(1)", "NL(3)"), ("NLt(0)", "NLt(5)")]
        for a, b in pairs:
            product = taut_projection(g, f"{a} * {b}")
            separate = multiply(
                taut_projection(g, a),
                taut_projection(g, b),
            )
            assert product.is_zero() and separate.is_zero()
