import random
import tracemalloc
from fractions import Fraction
from math import comb, gcd, prod

import pytest

from agtaut import arith
from agtaut.arith import (
    FACTORIZATION_CAP,
    RATIONAL_PATTERN,
    abs_bernoulli,
    as_int,
    as_list,
    as_rational,
    bernoulli,
    dirichlet_convolve,
    divisors,
    factorize,
    is_prime,
    jacobi_totient,
    jacobi_totient_table,
    mobius,
    mobius_table,
    parse_rational,
    prime_powers,
    sigma,
    sigma_table,
)


# -- reference implementations the integer kernels replaced -------------------


def bernoulli_by_recurrence(limit):
    """B_0..B_limit from sum_{k=0}^{n} C(n+1, k) B_k = 0 on Fractions."""
    values = [Fraction(1)]
    for n in range(1, limit + 1):
        values.append(-sum(comb(n + 1, k) * values[k] for k in range(n)) / (n + 1))
    return values


def tangent_number(m):
    """T_m alone: a Brent-Harvey pass of length m, rerun for every m (the
    per-index form that the shared tangent table replaced)."""
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[m]


# Whole-range references by a sieve over the multiples of each d: neither
# factorize nor the sieve behind the *_table functions is used.


def sigma_over_multiples(k, N):
    """[sigma_k(n) for n = 1..N]: d^k is added to every multiple of d."""
    table = [0] * (N + 1)
    for d in range(1, N + 1):
        dk = d**k
        table[d::d] = [total + dk for total in table[d::d]]
    return table[1:]


def jacobi_totient_over_multiples(k, N):
    """[J_k(n) for n = 1..N] from sum_{d | n} J_k(d) = n^k: once J_k(d) is
    final it is taken off every proper multiple of d."""
    table = [n**k for n in range(N + 1)]
    for d in range(1, N + 1):
        table[2 * d :: d] = [total - table[d] for total in table[2 * d :: d]]
    return table[1:]


def mobius_over_multiples(N):
    """[mu(n) for n = 1..N] from sum_{d | n} mu(d) = [n = 1], the same way."""
    table = [0, 1] + [0] * (N - 1)
    for d in range(1, N + 1):
        table[2 * d :: d] = [total - table[d] for total in table[2 * d :: d]]
    return table[1:]


def dirichlet_convolve_by_divisors(f, g, n):
    """(f * g)(n) by walking the divisors of one n: the per-n form that the
    table replaced."""
    return sum(f(m) * g(n // m) for m in divisors(n))


def jacobi_totient_by_product(k, n):
    value = Fraction(n) ** k
    for p, _ in factorize(n):
        value *= 1 - Fraction(p) ** (-k)
    assert value.denominator == 1, (k, n, value)
    return value


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert abs_bernoulli(12) == Fraction(691, 2730)


def test_bernoulli_defining_recurrence():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 must hold exactly for n in [1, 30]
    for n in range(1, 31):
        total = sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert total == 0, n


def test_bernoulli_tangent_numbers_match_recurrence():
    for n, expected in enumerate(bernoulli_by_recurrence(160)):
        value = bernoulli(n)
        assert type(value) is Fraction and value == expected, n


def test_tangent_table_matches_per_index_pass():
    expected = tuple(tangent_number(m) for m in range(1, 201))
    assert arith._extend_tangents((), [], 200)[0] == expected
    # grown column by column from a shorter pass, the table is the same
    assert arith._extend_tangents(*arith._extend_tangents((), [], 120), 200)[0] == expected


def test_bernoulli_tangent_table_grows_without_a_new_pass():
    arith.clear_caches()
    bernoulli(400)
    table = arith._tangent_numbers
    bernoulli(404)
    # T_1..T_200 are the objects the first pass made, not a rerun's copies
    assert arith._tangent_numbers[199] is table[199]
    assert arith._tangent_numbers[:200] == table and len(arith._tangent_numbers) == 202
    assert len(arith._tangent_column) == 202


def test_bernoulli_tangent_table_regrowth():
    cold = arith.clear_caches
    cold()
    ascending = {n: bernoulli(n) for n in range(2, 401)}
    # the table holds exactly T_1..T_M for the largest m = n/2 asked
    assert len(arith._tangent_numbers) == 200
    for n, expected in enumerate(bernoulli_by_recurrence(160)[2:], 2):
        assert ascending[n] == expected, n
    descending = list(range(398, 1, -1))
    shuffled = descending[:]
    random.Random(1729).shuffle(shuffled)
    for order in (descending, shuffled):
        cold()
        assert bernoulli(400) == ascending[400]
        assert len(arith._tangent_numbers) == 200
        for n in order:
            assert bernoulli(n) == ascending[n], n


def test_bernoulli_sign_pattern():
    # sign(B_2g) = (-1)^(g+1)
    for g in range(1, 12):
        assert (bernoulli(2 * g) > 0) == (g % 2 == 1)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_index_cap():
    # B_6000 used to run a 26-s tangent pass and then fail on printing its
    # numerator; a refused index never reaches the table.
    assert arith.BERNOULLI_INDEX_CAP == 2062
    bernoulli(10)
    table = arith._tangent_numbers
    for n in (arith.BERNOULLI_INDEX_CAP + 2, 6000):
        with pytest.raises(ValueError, match=f"Bernoulli index {n} exceeds cap 2062"):
            bernoulli(n)
        assert arith._tangent_numbers is table


def test_bernoulli_rejects_non_int():
    arith.clear_caches()
    for n in (True, 3.0, 400.0, Fraction(4)):
        with pytest.raises(TypeError):
            bernoulli(n)
    assert arith._tangent_numbers == ()  # no float index reached the table


def test_sigma_values():
    assert sigma(1, 1) == 1
    assert sigma(3, 2) == 9
    assert sigma(0, 12) == 6


def test_sigma_matches_divisor_sum():
    for k in range(20):
        for n, expected in enumerate(sigma_over_multiples(k, 2000), 1):
            value = sigma(k, n)
            assert value == expected, (k, n)
            assert type(value) is int, (k, n)


def test_tables_match_sieve_over_multiples():
    # The range the eisenstein-identity suite read from the scalar functions:
    # sigma_1, sigma_{2g-1} and J_{2g-2} for g <= 10 and n <= 10^4; the
    # sigma_{2g-1} of eisenstein up to g = 16 and one large g = 30; the
    # smallest k each table takes, and mu.
    N = 10**4
    cases = [(sigma_table, sigma_over_multiples, k) for k in (0, 1, *range(3, 32, 2), 59)]
    cases += [(jacobi_totient_table, jacobi_totient_over_multiples, k) for k in (1, *range(2, 19, 2))]
    for table, reference, k in cases:
        values = table(k, N)
        assert values == reference(k, N), (table.__name__, k)
        assert all(type(v) is int for v in values), (table.__name__, k)
    assert mobius_table(N) == mobius_over_multiples(N)


def test_prime_powers_match_factorize():
    for N in (1, 2, 3, 4, 10, 97, 1000):
        expected = [n for n in range(2, N + 1) if len(factorize(n)) == 1]
        assert prime_powers(N) == expected, N
    # read from a kept sieve longer than N
    arith.clear_caches()
    sigma_table(1, 1000)
    sieve = arith._sieve
    assert prime_powers(16) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    assert arith._sieve is sieve
    for N in (0, -3):
        with pytest.raises(ValueError):
            prime_powers(N)
    for N in (True, 4.0, "4"):
        with pytest.raises(TypeError):
            prime_powers(N)


def test_tables_edges():
    assert sigma_table(0, 1) == sigma_table(5, 1) == jacobi_totient_table(3, 1) == mobius_table(1) == [1]
    for N in (0, -4):
        for call in (lambda: sigma_table(1, N), lambda: jacobi_totient_table(2, N), lambda: mobius_table(N)):
            with pytest.raises(ValueError):
                call()
    with pytest.raises(ValueError):
        sigma_table(-1, 10)
    with pytest.raises(ValueError):
        jacobi_totient_table(0, 10)
    for call in (
        lambda: sigma_table(1, True),
        lambda: sigma_table(True, 10),
        lambda: jacobi_totient_table(2, True),
        lambda: jacobi_totient_table(True, 10),
        lambda: mobius_table(True),
        lambda: sigma_table(1, 10.0),
    ):
        with pytest.raises(TypeError):
            call()


def test_tables_are_fresh_lists():
    # Callers may edit a table; the next call must not see the edit.
    table = sigma_table(1, 12)
    table[5] = 0
    assert sigma_table(1, 12)[5] == 12
    assert sigma_table(1, 6) == [1, 3, 4, 7, 6, 12]


def tables_match_scalars(N):
    return (
        sigma_table(1, N) == [sigma(1, n) for n in range(1, N + 1)]
        and jacobi_totient_table(2, N) == [jacobi_totient(2, n) for n in range(1, N + 1)]
        and mobius_table(N) == [mobius(n) for n in range(1, N + 1)]
    )


@pytest.mark.parametrize(
    "sizes",
    [(3000, 1, 2, 17, 1000, 2999, 3000), (1, 2, 17, 1000, 2999, 3000), (3000, 100, 4000, 3999)],
    ids=["largest-first", "ascending", "regrowth"],
)
def test_one_sieve_serves_every_smaller_range(monkeypatch, sizes):
    # One sieve is kept, over the largest N asked so far; a smaller N reads
    # its first entries and a larger one rebuilds it for exactly that N.
    monkeypatch.setattr(arith, "_sieve", ([0], [0], [0]))
    for i, N in enumerate(sizes):
        assert tables_match_scalars(N), N
        assert len(arith._sieve[0]) == max(sizes[: i + 1]) + 1, N


def test_jacobi_totient_values():
    assert jacobi_totient(2, 1) == 1
    assert jacobi_totient(2, 4) == 12
    assert jacobi_totient(2, 6) == 24
    assert jacobi_totient(1, 12) == 4  # k=1 is the classical totient


def test_jacobi_totient_is_moebius_convolution():
    mu = [mobius(m) for m in range(1, 1001)]
    for k in range(2, 9):
        table = dirichlet_convolve([m**k for m in range(1, 1001)], mu)
        for n, convolution in enumerate(table, 1):
            value = jacobi_totient(k, n)
            assert value.denominator == 1
            assert value == convolution, (k, n)


def test_jacobi_totient_matches_product_form():
    for k in range(1, 19):
        for n in range(1, 2001):
            value = jacobi_totient(k, n)
            assert type(value) is int and value == jacobi_totient_by_product(k, n), (k, n)


def test_eisenstein_convolution_integer_form():
    # the form the eisenstein-identity suite evaluates, against the original
    for g in range(2, 11):
        k = 2 * g - 2
        integer_table = dirichlet_convolve(
            [sigma(1, m) for m in range(1, 301)], [n * jacobi_totient(k, n) for n in range(1, 301)]
        )
        rational_table = dirichlet_convolve(
            [Fraction(sigma(1, m), m) for m in range(1, 301)], [jacobi_totient(k, n) for n in range(1, 301)]
        )
        for d in range(1, 301):
            integer_form = integer_table[d - 1]
            rational_form = d * rational_table[d - 1]
            assert type(integer_form) is int
            assert integer_form == rational_form == sigma(2 * g - 1, d), (g, d)


def test_mobius_rejects_non_int():
    for n in (True, 0.5, 6.0):
        with pytest.raises(TypeError):
            mobius(n)


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1
    assert mobius(2) == -1


def test_dirichlet_convolution_examples():
    # 1 * mu is the convolution identity: zero away from n = 1
    assert dirichlet_convolve([1] * 5, [mobius(m) for m in range(1, 6)])[4] == 0
    assert dirichlet_convolve([1], [mobius(1)]) == [1]
    table = dirichlet_convolve(
        [Fraction(sigma(1, m), m) for m in range(1, 5)], [jacobi_totient(2, m) for m in range(1, 5)]
    )
    assert table[0] == 1
    lhs = 4 * table[3]
    assert lhs == 73 == sigma(3, 4)


@pytest.mark.parametrize(
    "f,g,integral",
    [
        *((lambda m: 1, lambda m, k=k: m**k, True) for k in range(4)),
        (mobius, lambda m: m * mobius(m), True),
        (lambda m: Fraction(sigma(1, m), m), lambda m: jacobi_totient(2, m), False),
    ],
    ids=["one-id0", "one-id1", "one-id2", "one-id3", "mu-n-mu", "sigma-1-J2"],
)
def test_dirichlet_convolution_table_matches_divisor_walk(f, g, integral):
    span = range(1, 2001)
    table = dirichlet_convolve(list(map(f, span)), list(map(g, span)))
    assert len(table) == 2000
    for n, value in enumerate(table, 1):
        assert value == dirichlet_convolve_by_divisors(f, g, n), n
        if integral:
            assert type(value) is int, n


def test_dirichlet_convolution_rejects_empty_range():
    # the range is the lists' common length: empty or unequal is refused
    for f, g in (([], []), ([1], [1, -1]), ([1, 1, 1], [1, -1])):
        with pytest.raises(ValueError):
            dirichlet_convolve(f, g)


def test_dirichlet_convolution_rejects_non_list():
    # a callable, a tuple, a str or an int is not a value list
    for value in (mobius, (1, -1), "11", 2):
        for f, g in ((value, [1, -1]), ([1, -1], value)):
            with pytest.raises(TypeError):
                dirichlet_convolve(f, g)


def test_dirichlet_convolution_matches_divisor_walk_across_hyperbola_splits():
    # every N in 1..150 passes N = s^2 - 1, s^2 and s^2 + s for s = isqrt(N),
    # where the a- and b-ranges of the split meet differently
    rng = random.Random(2357)
    for N in range(1, 151):
        ints = [rng.randint(-50, 50) for _ in range(2 * N)]
        fracs = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(2 * N)]
        for f, g in ((ints[:N], ints[N:]), (fracs[:N], fracs[N:]), (ints[:N], fracs[N:])):
            table = dirichlet_convolve(f, g)
            assert len(table) == N
            for n, value in enumerate(table, 1):
                expected = dirichlet_convolve_by_divisors(lambda m: f[m - 1], lambda m: g[m - 1], n)
                assert value == expected, (N, n)
        assert all(type(value) is int for value in dirichlet_convolve(ints[:N], ints[N:])), N


def test_dirichlet_convolution_peak_memory_below_twice_the_result():
    # the b = 1 terms go into the first list, where the values are still
    # small; added by a full-length slice after the a-loop, the peak rises
    # to about 2.3 times the result on the suite's own lists
    N = 2000
    sigma_1 = sigma_table(1, N)
    weighted = [n * t for n, t in enumerate(jacobi_totient_table(18, N), 1)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = dirichlet_convolve(sigma_1, weighted)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table == sigma_table(19, N)
    assert peak - before < 2 * (after - before), (peak - before, after - before)


@pytest.mark.parametrize("text", ["1", "-3", "+7", "5/3", "-1/2", "0/4", "12/8"])
def test_parse_rational_accepts_the_grammar(text):
    assert RATIONAL_PATTERN.fullmatch(text)
    assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize(
    "text",
    ["0.5", "1e3", " 1/2 ", "1/2 ", "1/2\n", "1.0", "1 / 2", "/2", "1/", "1/-2", "", "0x10", "1_000"],
)
def test_parse_rational_rejects_other_text(text):
    with pytest.raises(ValueError, match="malformed rational"):
        parse_rational(text)


def test_parse_rational_errors():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
    for value in (1, 0.5, None, ["1"]):
        with pytest.raises(TypeError):
            parse_rational(value)


def test_coercions_accept_their_exact_types():
    assert as_int(3) == 3 and type(as_int(3)) is int
    assert as_rational(Fraction(5, 3)) == Fraction(5, 3)
    assert as_rational(-2) == Fraction(-2) and type(as_rational(-2)) is Fraction
    assert as_list([]) == [] and as_list(["1", 2]) == ["1", 2]


# The types a JSON value can take besides the one each helper accepts.
@pytest.mark.parametrize(
    "value",
    [3.0, 3.7, "3", True, None, Fraction(3), [3], {}],
    ids=["float-integral", "float", "str", "bool", "null", "Fraction", "list", "dict"],
)
def test_as_int_rejects_non_int(value):
    with pytest.raises(TypeError, match="expected an int"):
        as_int(value)


@pytest.mark.parametrize(
    "value",
    [0.1, 1.0, "5", "5/3", True, None],
    ids=["float", "float-integral", "str", "str-p/q", "bool", "null"],
)
def test_as_rational_rejects_inexact_and_non_numbers(value):
    with pytest.raises(TypeError, match="expected an exact rational"):
        as_rational(value)


@pytest.mark.parametrize(
    "value", ["12", "", {}, None, (1, 2)], ids=["str", "empty-str", "dict", "null", "tuple"]
)
def test_as_list_rejects_non_list(value):
    with pytest.raises(TypeError, match="expected a list"):
        as_list(value)


def test_factorize():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    f = factorize(360)
    assert f == ((2, 3), (3, 2), (5, 1))
    assert dict(f).get(2, 0) == 3 and dict(f).get(7, 0) == 0
    product = 1
    for p, e in f:
        product *= p**e
    assert product == 360


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-4)
    with pytest.raises(ValueError):
        factorize(FACTORIZATION_CAP + 1)


@pytest.mark.parametrize(
    "fn, inexact, exact",
    [
        (sigma, (1, 6.0), (1, 6)),
        (sigma, (3, 5.0), (3, 5)),
        (sigma, (1.0, 6), (1, 6)),
        (sigma, (1, True), (1, 1)),
        (jacobi_totient, (2, 7.0), (2, 7)),
        (jacobi_totient, (True, 7), (1, 7)),
        (factorize, (10.0,), (10,)),
        (factorize, (True,), (1,)),
    ],
)
def test_inexact_argument_does_not_poison_the_cache(fn, inexact, exact):
    # the float or bool call comes first, on an empty cache; the int call
    # after it must not be served the entry the float would have left, and
    # a float or bool call after the int one must not be served the int's
    fn.cache_clear()
    with pytest.raises(TypeError):
        fn(*inexact)
    value = fn(*exact)
    if fn is factorize:
        assert prod(p**e for p, e in value) == exact[0]
        assert all(type(p) is int for p, _ in value)
    else:
        assert type(value) is int
    with pytest.raises(TypeError):
        fn(*inexact)


def test_inexact_argument_does_not_poison_downstream_values():
    from agtaut.degrees import deg_phi
    from agtaut.gw import gw_tau1_lambda

    jacobi_totient.cache_clear()
    sigma.cache_clear()
    with pytest.raises(TypeError):
        jacobi_totient(2, 7.0)
    with pytest.raises(TypeError):
        sigma(3, 5.0)
    assert deg_phi(1, (7,)) == 336 and type(deg_phi(1, (7,))) is int
    assert gw_tau1_lambda(2, 5) == Fraction(7, 16)
    with pytest.raises(TypeError):
        divisors(6.0)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)


def test_is_prime_rejects_non_int():
    for n in (True, 1.0, 7.0):
        with pytest.raises(TypeError):
            is_prime(n)


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    for n in range(1, 2001):
        expected = tuple(d for d in range(1, n + 1) if n % d == 0)
        assert divisors(n) == expected, n
        assert divisors(n) == expected, n  # served from the cached factorization


def test_multiplicativity_on_coprime_pairs():
    rng = random.Random(271828)
    pairs = 0
    while pairs < 60:
        m = rng.randint(1, 400)
        n = rng.randint(1, 400)
        if gcd(m, n) != 1:
            continue
        pairs += 1
        for k in (1, 2, 3):
            assert sigma(k, m * n) == sigma(k, m) * sigma(k, n)
            assert jacobi_totient(k, m * n) == jacobi_totient(k, m) * jacobi_totient(k, n)
        assert mobius(m * n) == mobius(m) * mobius(n)
