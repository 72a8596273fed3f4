"""Degrees of the level-structure covers, with an enumeration oracle.

For a polarization type delta = (d_1 | ... | d_g) of full length g, the
cover that quotients out half of the polarization kernel has degree

    deg_phi = d^(2g+1) prod_{j=1}^{g} prod_{p | d_j} (1 - p^(-2j)),
    d = d_1 ... d_g,

computable in three independent ways:

* closed form (above);
* stratified: working one prime at a time, the degree is
  p^(sum_{i>=2} N(i)) times the number of isotropic h-tuples mod p, where
  N(i) counts the free matrix positions of the congruence pattern forced
  to be divisible by p^i and h counts the entries divisible by p; the
  count comes from the transitive action on those tuples, and since N(1)
  is exactly its p-power part, p^N(1) prod_{i=g-h+1}^{g} (1 - p^(-2i)) is
  that count;
* enumeration (genus 1): count SL_2(Z/d^2) as sum_s P(s) P(s - 1), with
  P(s) the number of pairs (x, y) mod d^2 with x*y = s, count the matrices
  of the pattern inside it and divide the order by that count.

The forgetful cover that drops the level structure has degree

    deg_pi = deg_phi * prod_k d_k^(2g - 4k + 2)
             * prod_{1 <= i < j <= g} prod_{p | d_j / d_i}
                   (1 - p^(-2(j-i))) / (1 - p^(-2(j-i+1))),

which for delta = (p) is the order of SL_2(F_p), the group of symplectic
automorphisms of the kernel.

The closed forms evaluate each prime product as J_s(n) / n^s (Jacobi
totient), except deg_phi_special, which evaluates its displayed product
over the primes of d on int and so is a second route to deg_phi on the
chains (1^(g-h), d^h); the stratified route counts on int, and the
isotropic tuple count keeps the prime product as its second printed
form.  Every degree is returned as a plain int; deg_pi passes through the
rational chain correction and refuses a non-integral result.

The NL locus is reached through these covers, so the polarization types
and the NL constant C(delta) * deg_phi_{g-u}(delta) live here too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, Tuple, Union

from .arith import as_int, factorize, is_prime, jacobi_totient

# Enumeration cap of the genus-1 index oracle.
ORACLE_INDEX_HARD_CAP = 8

# Largest genus of sp_order and sp_order_prime: the order has about
# (2g^2 + g) log2(N) bits, and at g = 100 the slowest N <= 10^12 measured,
# 2 * 3 * ... * 31, takes 0.04 s (Python 3.11, one AMD EPYC core).
SP_ORDER_GENUS_CAP = 100


class PolarizationType:
    """Divisibility chain (d_1 | d_2 | ... | d_u) of positive integers.

    Built from another PolarizationType, a single int or a sequence of
    ints; an entry whose type is not exactly int (a bool, a float) is a
    TypeError, never truncated.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Union["PolarizationType", int, Iterable[int]]):
        if isinstance(entries, PolarizationType):
            self.entries = entries.entries  # already checked
            return
        entries = tuple(map(as_int, (entries,) if isinstance(entries, int) else entries))
        if not entries:
            raise ValueError("polarization type must have at least one entry")
        self.entries = entries  # so that the refusals below print the type
        if any(d < 1 for d in entries):
            raise ValueError(f"entries must be positive, got {self}")
        for a, b in zip(entries, entries[1:]):
            if b % a != 0:
                raise ValueError(
                    f"invalid polarization type {self}: each entry must "
                    f"divide the next ({a} does not divide {b})"
                )

    @property
    def u(self) -> int:
        return len(self.entries)

    @property
    def product(self) -> int:
        return math.prod(self.entries)

    def padding(self, length: int) -> int:
        """The number of leading 1 entries that pad the chain to the given
        length; a chain longer than that is a ValueError."""
        if self.u > length:
            raise ValueError(f"type {self} longer than {length}")
        return length - self.u

    def padded(self, length: int) -> "PolarizationType":
        """Left-pad with 1 entries up to the given length."""
        return PolarizationType((1,) * self.padding(length) + self.entries)

    def p_part(self, p: int) -> "PolarizationType":
        """Entrywise p-power part; again a divisibility chain."""
        return PolarizationType(p ** dict(factorize(d)).get(p, 0) for d in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolarizationType) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"PolarizationType({list(self.entries)})"

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.entries)) + ")"


# -- symplectic group orders ----------------------------------------------


def _check_symplectic_genus(g: int) -> None:
    """Refuse a genus below 1 or above SP_ORDER_GENUS_CAP."""
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    if g > SP_ORDER_GENUS_CAP:
        raise ValueError(f"symplectic group genus {g} exceeds cap {SP_ORDER_GENUS_CAP}")


def sp_order_prime(g: int, p: int) -> int:
    """|Sp_2g(F_p)| = p^(g^2) prod_{i=1}^{g} (p^(2i) - 1), for 1 <= g <=
    SP_ORDER_GENUS_CAP."""
    g, p = as_int(g), as_int(p)
    _check_symplectic_genus(g)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


def sp_order(g: int, N: int) -> int:
    """|Sp_2g(Z/N)|, multiplicative over prime powers.

    For a prime power p^k the order is p^((2g^2+g)(k-1)) |Sp_2g(F_p)|.  A g
    above SP_ORDER_GENUS_CAP is refused before any power is built.
    """
    g, N = as_int(g), as_int(N)
    _check_symplectic_genus(g)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    order = 1
    for p, k in factorize(N):
        order *= p ** ((2 * g * g + g) * (k - 1)) * sp_order_prime(g, p)
    return order


def isotropic_tuple_count(g: int, h: int, p: int) -> int:
    """Number of h-tuples spanning an h-dimensional isotropic subspace of F_p^2g.

    Evaluates both printed expressions,

        (p^2g - 1)(p^(2g-1) - p) ... (p^(2g-(h-1)) - p^(h-1))
        = p^(2gh - h(h-1)/2) prod_{i=g-h+1}^{g} (1 - p^(-2i)),

    and asserts their equality before returning.
    """
    g, h, p = as_int(g), as_int(h), as_int(p)
    if not 1 <= h <= g:
        raise ValueError(f"requires 1 <= h <= g, got h={h}, g={g}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    product_form = 1
    for i in range(h):
        product_form *= p ** (2 * g - i) - p**i
    closed_form = Fraction(p) ** (2 * g * h - h * (h - 1) // 2)
    for i in range(g - h + 1, g + 1):
        closed_form *= 1 - Fraction(p) ** (-2 * i)
    if closed_form != product_form:
        raise AssertionError(
            f"isotropic count expressions disagree at (g={g}, h={h}, p={p}): "
            f"{product_form} vs {closed_form}"
        )
    return product_form


# -- closed-form degrees ----------------------------------------------------


def deg_phi_special(g: int, h: int, d: int) -> int:
    """Degree for delta = (1^(g-h), d^h), evaluated in its displayed form
    d^(h(2g+1)) prod_{p|d} prod_{i=g-h+1}^{g} (1 - p^(-2i)) from the primes
    of d: d^(h(2g+1)) prod (p^(2i) - 1), divided exactly by prod p^(2i)."""
    g, h, d = as_int(g), as_int(h), as_int(d)
    if not 1 <= h <= g or d < 1:
        raise ValueError(f"requires 1 <= h <= g and d >= 1, got g={g}, h={h}, d={d}")
    numerator, denominator = d ** (h * (2 * g + 1)), 1
    for p, _ in factorize(d):
        for i in range(g - h + 1, g + 1):
            numerator *= p ** (2 * i) - 1
            denominator *= p ** (2 * i)
    return numerator // denominator


def deg_phi(g: int, delta) -> int:
    """Closed-form degree for an arbitrary chain (shorter chains are padded
    with leading 1 entries up to length g): prod_j d_j^(2g+1-2j) J_2j(d_j).
    A padding entry contributes 1, so only the chain's own u entries, at
    positions j = g-u+1..g, are multiplied: the cost follows u, not g."""
    g = as_int(g)
    delta = PolarizationType(delta)
    return math.prod(
        d_j ** (2 * g + 1 - 2 * j) * jacobi_totient(2 * j, d_j)
        for j, d_j in enumerate(delta.entries, start=delta.padding(g) + 1)
    )


# -- stratified route -------------------------------------------------------


def stratum_size(exponents, i: int) -> int:
    """N(i) for the congruence pattern of a p-power chain with exponents
    v_1 <= ... <= v_g (v_j = v_p(d_j)): the number of free matrix positions
    forced divisible by p^i, so the step-i stratum contributes p^N(i).

    In the block decomposition [[A, B], [C, E]], entry (r, c) is forced
    divisible by p^v_r in A, p^(v_r + v_c) in B, p^v_c in E, and
    unconstrained in C; the free positions are A anywhere and B on r <= c,
    so N(i) = g #{r : v_r >= i} + #{r <= c : v_r + v_c >= i}.
    """
    v, i = tuple(map(as_int, exponents)), as_int(i)
    if any(e < 0 for e in v):
        raise ValueError(f"exponents must be non-negative, got {v}")
    if sorted(v) != list(v):
        raise ValueError(f"exponents must be non-decreasing, got {v}")
    free_a = len([e for e in v if e >= i])
    free_b = len([1 for r, a in enumerate(v) for b in v[r:] if a + b >= i])
    return len(v) * free_a + free_b


def deg_phi_stratified(g: int, delta, p: int) -> int:
    """Degree via the stratified p-adic count, for a chain of p-powers.

    The exponent of p is accumulated combinatorially from the strata, not
    taken from the closed form.  Mixed-prime chains are rejected; split
    them by prime and multiply (the congruence group is the intersection
    of its prime parts).
    """
    g, p = as_int(g), as_int(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    delta = PolarizationType(delta).padded(g)
    exponents = tuple(dict(factorize(d)).get(p, 0) for d in delta.entries)
    if delta.product != p ** sum(exponents):
        raise ValueError(
            f"chain {delta} mixes primes; stratify one prime at a time "
            f"and combine multiplicatively"
        )
    h = sum(v > 0 for v in exponents)
    if not h:
        return 1
    # p^N(1) prod_{i=g-h+1}^{g} (1 - p^(-2i)) is the isotropic tuple count
    higher = sum(stratum_size(exponents, i) for i in range(2, 2 * exponents[-1] + 1))
    return p**higher * isotropic_tuple_count(g, h, p)


def deg_phi_crt(g: int, delta) -> int:
    """Stratified degree for an arbitrary chain: product over its prime parts."""
    g = as_int(g)
    delta = PolarizationType(delta).padded(g)
    return math.prod(
        deg_phi_stratified(g, delta.p_part(p), p) for p, _ in factorize(delta.product)
    )


# -- degree of the level-forgetting cover -----------------------------------


def _chain_correction(delta: PolarizationType, n: int) -> Tuple[int, int]:
    """prod_k d_k^(2n - 4k + 2) * prod_{1 <= i < j <= n} prod_{p | d_j / d_i}
    (1 - p^(-2(j-i))) / (1 - p^(-2(j-i+1))) for delta padded with leading 1
    entries to length n, as an int numerator and a positive int
    denominator: a negative d_k exponent goes to the denominator, and the
    pair factor is r^2 J_{2(j-i)}(r) / J_{2(j-i+1)}(r) with r = d_j / d_i (1
    when r = 1).  The padding is never built: a padding entry's own power is
    1, and over the padding positions i = 1..P the pair factors of a chain
    entry at j telescope to r^(2P) J_{2(j-P)}(r) / J_{2j}(r) with r = d_j,
    so the cost follows the chain, not n."""
    P = delta.padding(n)
    num = den = 1
    for k, d_k in enumerate(delta.entries, start=P + 1):
        e = 2 * n - 4 * k + 2
        if e >= 0:
            num *= d_k**e
        else:
            den *= d_k**-e
        if P and d_k > 1:
            num *= d_k ** (2 * P) * jacobi_totient(2 * (k - P), d_k)
            den *= jacobi_totient(2 * k, d_k)
    for (i, d_i), (j, d_j) in combinations(enumerate(delta.entries), 2):
        r = d_j // d_i
        if r > 1:
            s = 2 * (j - i)
            num *= r * r * jacobi_totient(s, r)
            den *= jacobi_totient(s + 2, r)
    return num, den


def deg_pi(g: int, delta) -> int:
    """deg_pi = deg_phi times the correction with d_k exponent 2g - 4k + 2,
    delta padded with leading 1 entries to length g."""
    g = as_int(g)
    delta = PolarizationType(delta)
    num, den = _chain_correction(delta, g)
    num *= deg_phi(g, delta)
    if num % den:
        raise AssertionError(
            f"deg_pi({g}, {delta.padded(g)}) is not an integer: {Fraction(num, den)}"
        )
    return num // den


# -- enumeration oracle (genus 1) -------------------------------------------


def oracle_index(d: int) -> int:
    """Genus-1 index oracle: enumerate SL_2(Z/N), N = d^2, and the matrices
    of the congruence pattern inside it (upper-left = 1 mod d, upper-right
    = 0 mod d^2, lower-right = 1 mod d), and return order / count.

    The order counts the solutions of a*w - b*c = 1 as
    sum_s P(s) P(s - 1), where P(s) = #{(x, y) in (Z/N)^2 : x*y = s} is
    tabulated over all N^2 pairs; no group-order formula is used."""
    d = as_int(d)
    if not 2 <= d <= ORACLE_INDEX_HARD_CAP:
        raise ValueError(f"enumeration oracle requires 2 <= d <= {ORACLE_INDEX_HARD_CAP}, got {d}")
    N = d * d
    products = [0] * N
    for x in range(N):
        for y in range(N):
            products[x * y % N] += 1
    order = sum(products[s] * products[s - 1] for s in range(N))
    pattern = 0
    for x in range(1, N, d):
        for w in range(1, N, d):
            if (x * w) % N == 1 % N:
                pattern += N  # lower-left entry is unconstrained
    if order % pattern != 0:
        raise AssertionError(f"pattern count {pattern} does not divide order {order}")
    return order // pattern


# -- the NL constant and the composition diagnostic --------------------------


def nl_constant(g: int, delta) -> Fraction:
    """Multiplier from the product-cycle projection to the NL projection of
    type delta (length u, 2u <= g): C(delta) * deg_phi_{g-u}(delta), where
    C(delta) = deg_pi_u(delta) / deg_phi_u(delta) is the chain correction
    and deg_phi_{g-u} pads delta with leading 1 entries."""
    g = as_int(g)
    delta = PolarizationType(delta)
    u = delta.u
    if 2 * u > g:
        raise ValueError(f"type {delta} too long for genus {g}")
    num, den = _chain_correction(delta, u)
    return Fraction(num * deg_phi(g - u, delta), den)


def nl_composition(g: int, delta) -> Dict[str, object]:
    """Compare the ring-side NL constant with the composition of degrees.

    The degree composition deg_phi(delta at genus u) * deg_phi(complement
    at genus g-u) / deg_pi(delta at genus u) puts deg_phi_u and deg_pi_u on
    the wrong sides of the fraction: with C(delta) = deg_pi_u / deg_phi_u,
    constant = composed * C(delta)^2, so the two agree exactly when
    C(delta) = 1 (single entries, equal-entry pairs).  This reports both
    values and never asserts equality.
    """
    delta = PolarizationType(delta)
    u = delta.u
    constant = nl_constant(g, delta)  # rejects 2u > g
    composed = Fraction(deg_phi(u, delta) * deg_phi(g - u, delta), deg_pi(u, delta))
    return {"constant": constant, "composed": composed, "match": constant == composed}
