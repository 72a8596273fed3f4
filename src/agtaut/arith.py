"""Exact rational arithmetic and multiplicative number theory.

Everything downstream consumes these scalars: Bernoulli numbers, divisor
power sums, Jacobi totients, the Moebius function and Dirichlet
convolution.  The multiplicative functions come one value at a time
(cached) or as a table over a whole range 1..N, and the convolution takes
two such tables and returns a third; clear_caches() empties every cache
and table the module keeps.  Integral quantities are Python ``int``s
(sigma_k for k >= 0, Jacobi totients, Moebius values); the Bernoulli
numbers are the module's only ``fractions.Fraction``s.  No floating point
is used anywhere in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod
from typing import Callable, List, Tuple

# Trial division only; inputs beyond this are rejected rather than risking
# a slow or probabilistic path.
FACTORIZATION_CAP = 10**12

# Bounds the O(n^2) tangent pass under bernoulli: B_2062 takes 0.7 s cold
# (Python 3.11, one Xeon core).
BERNOULLI_INDEX_CAP = 2062

RATIONAL_PATTERN = re.compile(r"[+-]?\d+(/\d+)?")


def as_rational(value) -> Fraction:
    """A Fraction as is, an int as a Fraction; a float, a bool or any other
    type is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def as_int(value) -> int:
    """An int as is; a float, a str, a bool or any other type is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an int, got {type(value).__name__}")
    return value


def as_list(value) -> list:
    """A list as is; a str, a dict or any other type is a TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def parse_rational(text: str) -> Fraction:
    """The Fraction that a "p/q" string (RATIONAL_PATTERN) names.  A non-str is
    a TypeError, never converted; any other str or a zero denominator is a ValueError."""
    if not isinstance(text, str):
        raise TypeError(f"expected a 'p/q' string, got {type(text).__name__}")
    if not RATIONAL_PATTERN.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}, expected 'p/q'")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in coefficient {text!r}") from exc


@lru_cache(maxsize=None, typed=True)
def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """The pairs (p, e) with p^e || n, p strictly increasing, by trial division.

    Rejects a non-int n (TypeError), n < 1 and n > FACTORIZATION_CAP.  The
    cache is typed, so a float or bool never reaches an int's entry.  Cache
    fills are idempotent, so concurrent use is safe.
    """
    if as_int(n) < 1:
        raise ValueError(f"factorize requires a positive integer, got {n}")
    if n > FACTORIZATION_CAP:
        raise ValueError(f"factorize input {n} exceeds cap {FACTORIZATION_CAP}")
    factors = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p = 3 if p == 2 else p + 2
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


def is_prime(n: int) -> bool:
    """Whether n is prime; a non-int n is a TypeError."""
    if as_int(n) < 2:
        return False
    f = factorize(n)
    return len(f) == 1 and f[0][1] == 1


def divisors(n: int) -> Tuple[int, ...]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


# T_1..T_M (T_m at index m - 1, M the largest m asked for) and the pass's
# column M.  The table is rebound, never edited, so a holder may index it.
_tangent_numbers: Tuple[int, ...] = ()
_tangent_column: List[int] = []


@lru_cache(maxsize=None, typed=True)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n.

    Convention fixed by the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 with
    B_0 = 1, which gives B_1 = -1/2.  Only even indices matter downstream,
    and those are convention independent.  Even indices come from the
    tangent numbers T_m (Brent and Harvey, "Fast computation of Bernoulli,
    Tangent and Secant numbers", 2011) as
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)), all on int until the last
    division.  A non-int n is a TypeError; the cache is typed, so a float or
    bool never reaches an int's entry or the tangent table.  An n above
    BERNOULLI_INDEX_CAP is a ValueError, raised before the tangent pass.
    """
    if as_int(n) < 0:
        raise ValueError(f"bernoulli requires n >= 0, got {n}")
    if n > BERNOULLI_INDEX_CAP:
        raise ValueError(f"Bernoulli index {n} exceeds cap {BERNOULLI_INDEX_CAP}")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    global _tangent_numbers, _tangent_column
    m = n // 2
    if m > len(_tangent_numbers):
        _tangent_numbers, _tangent_column = _extend_tangents(_tangent_numbers, _tangent_column, m)
    four_m = 4**m
    value = Fraction(n * _tangent_numbers[m - 1], four_m * (four_m - 1))
    return value if m % 2 else -value


def _extend_tangents(tangents: Tuple[int, ...], column: List[int], M: int) -> Tuple:
    """(T_1, ..., T_M), T_m the coefficient of x^(2m-1)/(2m-1)! in tan x, and
    column M of the Brent-Harvey in-place pass, from those of a shorter pass.

    Column j holds c_k = t[j] after outer step k <= j: c_1 = (j - 1) c'_1,
    c_k = (j - k) c'_k + (j - k + 2) c_{k-1} from column j - 1 (c'_j = 0),
    and T_j = c_j, so a new T_j costs O(j) int operations and no pass reruns.
    """
    table = list(tangents)
    for j in range(len(tangents) + 1, M + 1):
        c = (j - 1) * column[0] if column else 1
        next_column = [c]
        for k, previous in zip(range(2, j + 1), column[1:] + [0]):
            c = (j - k) * previous + (j - k + 2) * c
            next_column.append(c)
        column = next_column
        table.append(c)
    return tuple(table), column


def abs_bernoulli(n: int) -> Fraction:
    """|B_n|, the quantity every projection formula actually consumes."""
    return abs(bernoulli(n))


# -- multiplicative functions: one prime-power formula each -----------------
#
# A multiplicative f is fixed by its values f(p^e).  The scalar functions
# multiply them over the cached factorization of one n; the *_table
# functions fill all of 1..N from one smallest-prime sieve, for callers that
# sweep a whole range.


def _sigma_prime_power(k: int, p: int, e: int) -> int:
    """sigma_k(p^e) = (p^(k(e+1)) - 1) / (p^k - 1) for k >= 0 (e + 1 at k = 0),
    p^k + 1 at e = 1 without the division."""
    if k == 0:
        return e + 1
    pk = p**k
    if e == 1:
        return pk + 1
    return (pk ** (e + 1) - 1) // (pk - 1)


def _jacobi_totient_prime_power(k: int, p: int, e: int) -> int:
    """J_k(p^e) = p^(k(e-1)) (p^k - 1) for k >= 1."""
    return p ** (k * (e - 1)) * (p**k - 1)


def _mobius_prime_power(p: int, e: int) -> int:
    return -1 if e == 1 else 0


@lru_cache(maxsize=None, typed=True)
def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum_{m | n} m^k for k >= 0, as
    sigma_table gives it.

    An int, from the multiplicative closed form
    prod_{p^e || n} (p^(k(e+1)) - 1) / (p^k - 1).  A non-int k or n is a
    TypeError, and k < 0 or n < 1 a ValueError; the cache is typed, so a
    float or bool never reaches an int's entry.
    """
    k, n = as_int(k), as_int(n)
    if n < 1 or k < 0:
        raise ValueError(f"sigma requires n >= 1 and k >= 0, got ({k}, {n})")
    return prod(_sigma_prime_power(k, p, e) for p, e in factorize(n))


@lru_cache(maxsize=None, typed=True)
def jacobi_totient(k: int, n: int) -> int:
    """Jacobi totient J_k(n) = n^k prod_{p | n} (1 - p^{-k}).

    An int for k >= 1, computed as prod_{p^e || n} p^(k(e-1)) (p^k - 1).  A
    non-int k or n is a TypeError, with a typed cache as for sigma.
    """
    k, n = as_int(k), as_int(n)
    if n < 1 or k < 1:
        raise ValueError(f"jacobi_totient requires n >= 1 and k >= 1, got ({k}, {n})")
    return prod(_jacobi_totient_prime_power(k, p, e) for p, e in factorize(n))


def mobius(n: int) -> int:
    """Moebius function: 0 on non-square-free n, else (-1)^(number of primes).
    A non-int n is a TypeError."""
    if as_int(n) < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    return prod(_mobius_prime_power(p, e) for p, e in factorize(n))


# (prime, exponent, cofactor) over 0..M, M the largest N asked for.  A table
# over 1..N reads only indices <= N, so one sieve serves every N <= M.  It is
# rebound, never edited, so a caller that holds it may index it safely.
_sieve: Tuple[List[int], List[int], List[int]] = ([0], [0], [0])


def _prime_power_sieve(N: int) -> Tuple[List[int], List[int], List[int]]:
    """(prime, exponent, cofactor) over 0..M for some M >= N: for n >= 2,
    p = prime[n] is the smallest prime dividing n, p^e || n with e =
    exponent[n], and cofactor[n] = n / p^e.  A larger N than the kept sieve
    covers rebuilds it for exactly N."""
    global _sieve
    if N < len(_sieve[0]):
        return _sieve
    prime = list(range(N + 1))
    # Largest p first, so prime[n] ends as the smallest divisor p > 1 of n
    # with p^2 <= n, which is prime; a prime n has none and keeps n.
    for p in range(isqrt(N), 1, -1):
        prime[p * p :: p] = [p] * len(range(p * p, N + 1, p))
    exponent = [0] * (N + 1)
    cofactor = [0, 1] + [0] * (N - 1)
    for n in range(2, N + 1):
        p = prime[n]
        m = n // p
        if prime[m] == p:
            exponent[n], cofactor[n] = exponent[m] + 1, cofactor[m]
        else:
            exponent[n], cofactor[n] = 1, m
    _sieve = prime, exponent, cofactor
    return _sieve


def _multiplicative_table(prime_power: Callable[[int, int], int], N: int) -> List[int]:
    """[f(n) for n = 1..N] for the multiplicative f with f(p^e) =
    prime_power(p, e): f(n) = f(p^e) f(n / p^e) over the sieve, so
    prime_power runs once per prime power and every other n is one product."""
    N = as_int(N)
    if N < 1:
        raise ValueError(f"a table over 1..N requires N >= 1, got {N}")
    prime, exponent, cofactor = _prime_power_sieve(N)
    values = [0, 1] + [0] * (N - 1)
    for n in range(2, N + 1):
        m = cofactor[n]
        values[n] = values[n // m] * values[m] if m > 1 else prime_power(prime[n], exponent[n])
    return values[1:]


def sigma_table(k: int, N: int) -> List[int]:
    """[sigma_k(n) for n = 1..N] for k >= 0, all int."""
    if as_int(k) < 0:
        raise ValueError(f"sigma_table requires k >= 0, got {k}")
    return _multiplicative_table(lambda p, e: _sigma_prime_power(k, p, e), N)


def jacobi_totient_table(k: int, N: int) -> List[int]:
    """[J_k(n) for n = 1..N] for k >= 1, all int."""
    if as_int(k) < 1:
        raise ValueError(f"jacobi_totient_table requires k >= 1, got {k}")
    return _multiplicative_table(lambda p, e: _jacobi_totient_prime_power(k, p, e), N)


def mobius_table(N: int) -> List[int]:
    """[mu(n) for n = 1..N]."""
    return _multiplicative_table(_mobius_prime_power, N)


def prime_powers(N: int) -> List[int]:
    """The prime powers p^e <= N (e >= 1) in increasing order, read from the
    kept sieve: the n >= 2 whose cofactor is 1."""
    N = as_int(N)
    if N < 1:
        raise ValueError(f"prime_powers requires N >= 1, got {N}")
    cofactor = _prime_power_sieve(N)[2]
    return [n for n in range(2, N + 1) if cofactor[n] == 1]


def clear_caches() -> None:
    """Empty every cache of this module: bernoulli's with its tangent table
    and column, sigma's, jacobi_totient's, factorize's and the kept sieve."""
    global _tangent_numbers, _tangent_column, _sieve
    for cached in (bernoulli, sigma, jacobi_totient, factorize):
        cached.cache_clear()
    _tangent_numbers, _tangent_column = (), []
    _sieve = ([0], [0], [0])


def dirichlet_convolve(f: List, g: List) -> List:
    """[(f * g)(n) for n = 1..N] from the value lists f and g of one length
    N (f[n - 1] = f(n)).

    Dirichlet's hyperbola split with s = isqrt(N) pushes each pair ab <= N
    once, in about 2 sqrt(N) slice updates: the terms with a = 1, and those
    with b = 1 and a > s, build out in one pass; each a = 2..s adds f(a) g(b)
    along out[a - 1 :: a]; each b = 2..N // (s + 1) adds f(a) g(b) for a > s
    along out[(s + 1) b - 1 :: b].  The b = 1 terms join the first pass,
    while the values are still small: as a full-length slice after the
    a-loop they raise the peak memory by a third.  Values of any exact
    type; on int the result is int.  An empty list, or lists of unequal
    length, is a ValueError; a non-list is a TypeError.
    """
    N, M = len(as_list(f)), len(as_list(g))
    if N == 0 or M != N:
        raise ValueError(f"dirichlet_convolve requires lists of one length >= 1, got {N} and {M}")
    s = isqrt(N)
    f1, g1 = f[0], g[0]
    out = [f1 * gn + fn * g1 if n > s else f1 * gn for n, fn, gn in zip(range(1, N + 1), f, g)]
    for a in range(2, s + 1):
        fa = f[a - 1]
        out[a - 1 :: a] = [total + fa * gb for total, gb in zip(out[a - 1 :: a], g)]
    for b in range(2, N // (s + 1) + 1):
        gb = g[b - 1]
        start = (s + 1) * b - 1
        out[start::b] = [total + fa * gb for total, fa in zip(out[start::b], f[s : N // b])]
    return out
