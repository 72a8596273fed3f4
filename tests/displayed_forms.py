"""The displayed prime-product forms, written out prime by prime.

The library evaluates every prod_{p | n} (1 - p^(-s)) as the Jacobi totient
ratio J_s(n) / n^s.  These helpers keep the formulas as displayed, one
Fraction factor per prime, so the tests can compare the two exactly.
"""

import math
from fractions import Fraction

from agtaut.arith import abs_bernoulli, factorize


def chain_correction(entries):
    """prod_k d_k^(2n - 4k + 2) * prod_{1 <= i < j <= n} prod_{p | d_j / d_i}
    (1 - p^(-2(j-i))) / (1 - p^(-2(j-i+1))), with n the chain length."""
    n = len(entries)
    c = Fraction(1)
    for k, d_k in enumerate(entries, start=1):
        c *= Fraction(d_k) ** (2 * n - 4 * k + 2)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ratio = entries[j - 1] // entries[i - 1]
            for p, _ in factorize(ratio):
                c *= (1 - Fraction(p) ** (-2 * (j - i))) / (1 - Fraction(p) ** (-2 * (j - i + 1)))
    return c


def nl_constant(g, entries):
    """chain_correction * d^(2(g-u)+1) * prod_j prod_{p | d_j} (1 - p^(-2(j+g-2u)))."""
    u = len(entries)
    c = chain_correction(entries)
    c *= Fraction(math.prod(entries)) ** (2 * (g - u) + 1)
    for j in range(1, u + 1):
        for p, _ in factorize(entries[j - 1]):
            c *= 1 - Fraction(p) ** (-2 * (j + g - 2 * u))
    return c


def nl_d_special_coeff(g, d):
    """(g d^(2g-1) / (6 |B_2g|)) prod_{p | d} (1 - p^(2-2g))."""
    coeff = Fraction(g) * Fraction(d) ** (2 * g - 1) / (6 * abs_bernoulli(2 * g))
    for p, _ in factorize(d):
        coeff *= 1 - Fraction(p) ** (2 - 2 * g)
    return coeff


def nl_pair_special_coeff(g, d1, d2):
    """(g (g-1) d1^(2g-1) d2^(2g-5) / (360 |B_2g B_{2g-2}|)) prod_{p | d1} (1 - p^(6-2g))
    * prod_{p | d2} (1 - p^(4-2g)) * prod_{p | d2/d1} (1 - p^(-2)) / (1 - p^(-4))."""
    coeff = (
        Fraction(g * (g - 1))
        * Fraction(d1) ** (2 * g - 1)
        * Fraction(d2) ** (2 * g - 5)
        / (360 * abs_bernoulli(2 * g) * abs_bernoulli(2 * g - 2))
    )
    for p, _ in factorize(d1):
        coeff *= 1 - Fraction(p) ** (6 - 2 * g)
    for p, _ in factorize(d2):
        coeff *= 1 - Fraction(p) ** (4 - 2 * g)
    for p, _ in factorize(d2 // d1):
        coeff *= (1 - Fraction(p) ** (-2)) / (1 - Fraction(p) ** (-4))
    return coeff


def deg_phi(g, entries):
    """d^(2g+1) prod_j prod_{p | d_j} (1 - p^(-2j)) for a chain of length g."""
    value = Fraction(math.prod(entries)) ** (2 * g + 1)
    for j, d_j in enumerate(entries, start=1):
        for p, _ in factorize(d_j):
            value *= 1 - Fraction(p) ** (-2 * j)
    return value


def deg_phi_special(g, h, d):
    """d^(h(2g+1)) prod_{p | d} prod_{i=g-h+1}^{g} (1 - p^(-2i))."""
    value = Fraction(d) ** (h * (2 * g + 1))
    for p, _ in factorize(d):
        for i in range(g - h + 1, g + 1):
            value *= 1 - Fraction(p) ** (-2 * i)
    return value


def random_chain(rng, length, first=12, step=6):
    """A divisibility chain: d_1 <= first, each next entry a multiple <= step times."""
    chain = [rng.randint(1, first)]
    while len(chain) < length:
        chain.append(chain[-1] * rng.randint(1, step))
    return tuple(chain)
