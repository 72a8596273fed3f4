"""Degrees of the level-structure covers, with a brute-force oracle.

For a polarization type delta = (d_1 | ... | d_g) of full length g, the
cover that quotients out half of the polarization kernel has degree

    deg_phi = d^(2g+1) prod_{j=1}^{g} prod_{p | d_j} (1 - p^(-2j)),
    d = d_1 ... d_g,

computable in three independent ways:

* closed form (above);
* stratified: working one prime at a time, the degree is
  p^(sum_{i>=1} N(i)) * prod_{i=g-h+1}^{g} (1 - p^(-2i)), where N(i)
  counts the free matrix positions of the congruence pattern forced to be
  divisible by p^i, and the fractional product comes from the transitive
  action on isotropic h-tuples mod p (N(1) is exactly the p-power part of
  that tuple count);
* enumeration (genus 1): count matrices of the pattern inside SL_2(Z/d^2)
  and divide the group order by the count.

The forgetful cover that drops the level structure has degree

    deg_pi = deg_phi * prod_k d_k^(2g - 4k + 2)
             * prod_{1 <= i < j <= g} prod_{p | d_j / d_i}
                   (1 - p^(-2(j-i))) / (1 - p^(-2(j-i+1))),

which for delta = (p) is the order of SL_2(F_p), the group of symplectic
automorphisms of the kernel.

The closed forms evaluate each prime product as J_s(n) / n^s (Jacobi
totient); the stratified route and the isotropic tuple count keep their own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .arith import factorize, is_prime, jacobi_totient
from .nl import _as_type, _chain_correction, nl_constant

# Enumeration caps.  AGTAUT_ORACLE_CAP may lower (or restore) them, but
# never exceeds them.
ORACLE_INDEX_HARD_CAP = 8
SL2_ENUMERATION_HARD_CAP = 16

ROUTE_CLOSED = "closed_form"
ROUTE_STRATIFIED = "stratified"
ROUTE_ENUMERATION = "enumeration"


def _env_cap(hard: int) -> int:
    raw = os.environ.get("AGTAUT_ORACLE_CAP")
    if raw is None:
        return hard
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"AGTAUT_ORACLE_CAP must be an integer, got {raw!r}") from exc
    return min(value, hard)


@dataclass(frozen=True)
class DegreeResult:
    value: Fraction
    route: str

    def __post_init__(self):
        if self.value.denominator != 1 or self.value <= 0:
            raise ValueError(f"degree must be a positive integer, got {self.value}")

    def __int__(self) -> int:
        return int(self.value)

    def __str__(self) -> str:
        return str(int(self.value))

    def to_json_dict(self) -> dict:
        return {"degree": str(int(self.value)), "route": self.route}


# -- symplectic group orders ----------------------------------------------


def sp_order_prime(g: int, p: int) -> int:
    """|Sp_2g(F_p)| = p^(g^2) prod_{i=1}^{g} (p^(2i) - 1)."""
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


def sp_order(g: int, N: int) -> int:
    """|Sp_2g(Z/N)|, multiplicative over prime powers.

    For a prime power p^k the order is p^((2g^2+g)(k-1)) |Sp_2g(F_p)|.
    """
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    order = 1
    for p, k in factorize(N).factors:
        order *= p ** ((2 * g * g + g) * (k - 1)) * sp_order_prime(g, p)
    return order


def isotropic_tuple_count(g: int, h: int, p: int) -> int:
    """Number of h-tuples spanning an h-dimensional isotropic subspace of F_p^2g.

    Evaluates both printed expressions,

        (p^2g - 1)(p^(2g-1) - p) ... (p^(2g-(h-1)) - p^(h-1))
        = p^(2gh - h(h-1)/2) prod_{i=g-h+1}^{g} (1 - p^(-2i)),

    and asserts their equality before returning.
    """
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


def deg_phi_special(g: int, k: int, h: int, d: int) -> DegreeResult:
    """Degree for delta = (1^k, d^h): d^(h(2g+1)) prod_{p|d} prod_{i=g-h+1}^{g} (1 - p^(-2i))
    = prod_{i=g-h+1}^{g} d^(2g+1-2i) J_2i(d)."""
    if k + h != g:
        raise ValueError(f"k + h must equal g, got {k} + {h} != {g}")
    if k < 0 or h < 1 or d < 1:
        raise ValueError(f"requires k >= 0, h >= 1 and d >= 1, got k={k}, h={h}, d={d}")
    value = math.prod(
        d ** (2 * g + 1 - 2 * i) * jacobi_totient(2 * i, d) for i in range(g - h + 1, g + 1)
    )
    return DegreeResult(Fraction(value), ROUTE_CLOSED)


def deg_phi(g: int, delta) -> DegreeResult:
    """Closed-form degree for an arbitrary chain (shorter chains are padded
    with leading 1 entries up to length g): prod_j d_j^(2g+1-2j) J_2j(d_j)."""
    delta = _as_type(delta).padded(g)
    value = math.prod(
        d_j ** (2 * g + 1 - 2 * j) * jacobi_totient(2 * j, d_j)
        for j, d_j in enumerate(delta.entries, start=1)
    )
    return DegreeResult(Fraction(value), ROUTE_CLOSED)


# -- stratified route -------------------------------------------------------


@dataclass(frozen=True)
class ScaledMatrixShape:
    """Divisibility pattern of the congruence subgroup for a p-power chain.

    Exponents v_j = v_p(d_j) per row/column of the g-blocks.  In the block
    decomposition [[A, B], [C, E]], entry (r, c) is forced divisible by
    p^v_r in A, p^(v_r + v_c) in B, p^v_c in E, and unconstrained in C.
    """

    g: int
    p: int
    exponents: Tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != self.g:
            raise ValueError("one exponent per chain entry is required")
        if any(v < 0 for v in self.exponents):
            raise ValueError("exponents must be non-negative")
        if sorted(self.exponents) != list(self.exponents):
            raise ValueError("exponents must be non-decreasing")

    @property
    def k(self) -> int:
        return sum(1 for v in self.exponents if v == 0)

    @property
    def h(self) -> int:
        return self.g - self.k

    def a_valuation(self, r: int, c: int) -> int:
        return self.exponents[r - 1]

    def b_valuation(self, r: int, c: int) -> int:
        return self.exponents[r - 1] + self.exponents[c - 1]

    def e_valuation(self, r: int, c: int) -> int:
        return self.exponents[c - 1]

    def n_count(self, i: int) -> int:
        """Number of free positions (a anywhere, b on r <= c) forced
        divisible by p^i; the step-i stratum contributes p^N(i)."""
        v = self.exponents
        count = 0
        for r in range(1, self.g + 1):
            for c in range(1, self.g + 1):
                if v[r - 1] >= i:
                    count += 1
                if r <= c and v[r - 1] + v[c - 1] >= i:
                    count += 1
        return count

    def total_exponent(self) -> int:
        if not any(self.exponents):
            return 0
        top = 2 * max(self.exponents)
        return sum(self.n_count(i) for i in range(1, top + 1))


def deg_phi_stratified(g: int, delta, p: int) -> DegreeResult:
    """Degree via the stratified p-adic count, for a chain of p-powers.

    The exponent of p is accumulated combinatorially from the shape, not
    taken from the closed form.  Mixed-prime chains are rejected; split
    them by prime and multiply (the congruence group is the intersection
    of its prime parts).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    delta = _as_type(delta).padded(g)
    exponents = tuple(factorize(d).v(p) for d in delta.entries)
    if delta.product != p ** sum(exponents):
        raise ValueError(
            f"chain {delta} mixes primes; stratify one prime at a time "
            f"and combine multiplicatively"
        )
    shape = ScaledMatrixShape(g, p, exponents)
    value = Fraction(p) ** shape.total_exponent()
    for i in range(g - shape.h + 1, g + 1):
        value *= 1 - Fraction(p) ** (-2 * i)
    return DegreeResult(value, ROUTE_STRATIFIED)


def deg_phi_crt(g: int, delta) -> DegreeResult:
    """Stratified degree for an arbitrary chain: product over its prime parts."""
    delta = _as_type(delta).padded(g)
    value = Fraction(1)
    for p in factorize(delta.product).primes():
        value *= deg_phi_stratified(g, delta.p_part(p), p).value
    return DegreeResult(value, ROUTE_STRATIFIED)


# -- degree of the level-forgetting cover -----------------------------------


def deg_pi(g: int, delta) -> DegreeResult:
    """deg_pi = deg_phi times the correction with d_k exponent 2g - 4k + 2."""
    delta = _as_type(delta).padded(g)
    value = deg_phi(g, delta).value * _chain_correction(delta)
    if value.denominator != 1:
        raise AssertionError(f"deg_pi({g}, {delta}) is not an integer: {value}")
    return DegreeResult(value, ROUTE_CLOSED)


# -- enumeration oracle (genus 1) -------------------------------------------


def _sl2_count(N: int) -> int:
    """|SL_2(Z/N)| by exhausting 4-tuples: for each (a, b, c) the entries
    with a*w - b*c = 1 are counted off a tabulation of a*w mod N.  Uncapped."""
    count = 0
    for a in range(N):
        # tabulate how often a*w hits each residue as w runs over Z/N
        hits = [0] * N
        for w in range(N):
            hits[(a * w) % N] += 1
        for b in range(N):
            for c in range(N):
                count += hits[(1 + b * c) % N]
    return count


def sl2_order_enumerated(N: int) -> int:
    """|SL_2(Z/N)| by enumeration, within the SL_2 enumeration cap."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    cap = _env_cap(SL2_ENUMERATION_HARD_CAP)
    if N > cap:
        raise ValueError(f"SL_2 enumeration capped at N <= {cap}, got {N}")
    return _sl2_count(N)


def sp4_f2_order_enumerated() -> int:
    """|Sp_4(F_2)| by enumerating matrices preserving the symplectic form.

    Columns are chosen left to right over F_2^4, pruning as soon as a Gram
    condition fails; the standard form pairs coordinates (1,3) and (2,4).
    """

    def pairing(x: Tuple[int, ...], y: Tuple[int, ...]) -> int:
        return (x[0] * y[2] + x[1] * y[3] + x[2] * y[0] + x[3] * y[1]) % 2

    vectors = [tuple((n >> s) & 1 for s in range(4)) for n in range(16)]
    gram = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    count = 0
    stack: List[tuple] = [()]
    while stack:
        chosen = stack.pop()
        j = len(chosen)
        if j == 4:
            count += 1
            continue
        for v in vectors:
            if all(pairing(u, v) == gram[i][j] for i, u in enumerate(chosen)):
                stack.append(chosen + (v,))
    return count


def oracle_index(d: int) -> DegreeResult:
    """Genus-1 index oracle: exhaust SL_2(Z/d^2) as 4-tuples (tabulating the
    determinant condition in the last coordinate), count matrices of the
    congruence pattern (upper-left = 1 mod d, upper-right = 0 mod d^2,
    lower-right = 1 mod d) and return order / count."""
    cap = _env_cap(ORACLE_INDEX_HARD_CAP)
    if not 2 <= d <= cap:
        raise ValueError(f"enumeration oracle requires 2 <= d <= {cap}, got {d}")
    N = d * d
    order = _sl2_count(N)
    pattern = 0
    for x in range(1, N, d):
        for w in range(1, N, d):
            if (x * w) % N == 1 % N:
                pattern += N  # lower-left entry is unconstrained
    if order % pattern != 0:
        raise AssertionError(f"pattern count {pattern} does not divide order {order}")
    return DegreeResult(Fraction(order // pattern), ROUTE_ENUMERATION)


# -- composition diagnostic --------------------------------------------------


def nl_composition(g: int, delta) -> Dict[str, object]:
    """Compare the ring-side NL constant with the composition of degrees.

    The degree composition deg_phi(delta at genus u) * deg_phi(complement
    at genus g-u) / deg_pi(delta at genus u) need not reproduce the ring
    constant (the pure d-power factor can land on the other side of the
    fraction); this reports both values and never asserts equality.
    """
    delta = _as_type(delta)
    u = delta.u
    if 2 * u > g:
        raise ValueError(f"type {delta} too long for genus {g}")
    constant = nl_constant(g, delta)
    composed = (
        deg_phi(u, delta).value
        * deg_phi(g - u, delta.padded(g - u)).value
        / deg_pi(u, delta).value
    )
    return {"constant": constant, "composed": composed, "match": constant == composed}
