"""Tautological projections of Noether-Lefschetz and product cycles.

The projection of the locus of abelian varieties with a u-dimensional
abelian subvariety of induced polarization type delta = (d_1 | ... | d_u)
is a rational multiple of the projection of the plain product locus.  The
multiplier is degrees.nl_constant, C(delta) * deg_phi_{g-u}(delta), built
from the level-cover degrees.  The two displayed specializations (u = 1
and u = 2) are implemented as separate code paths purely to cross-check
this constant.  Each prime product is evaluated as a Jacobi totient ratio,
prod_{p | n} (1 - p^(-s)) = J_s(n) / n^s.

The elliptic-homomorphism ("tilde") cycles are divisor sums of the plain
ones with kernel sigma_1; the inverse transform has kernel mu * (n mu(n)),
the Dirichlet inverse of sigma_1 = 1 * id.  Packaging the tilde projections
into a q-series yields the weight-2g Eisenstein series, normalized here with
constant term 1 and q-coefficients -(4g / B_2g) sigma_{2g-1}(d).

Only u = 1 and u = 2 product-cycle projections are supported; larger u is
out of scope and rejected.

Convention at u = g/2: the product and NL cycles are the plain pushforward
of the fundamental class, with no division by the automorphism swapping
the two equal-dimensional factors; no coefficient adjustment is applied
anywhere in this module.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import gcd, lcm, prod
from typing import List, Sequence, Tuple

from .arith import (
    RATIONAL_PATTERN,
    abs_bernoulli,
    as_int,
    as_rational,
    bernoulli,
    dirichlet_convolve,
    divisors,
    jacobi_totient,
    mobius_table,
    parse_rational,
    prime_powers,
    sigma,
    sigma_table,
)
from .degrees import PolarizationType, nl_constant
from .ring import LambdaPolynomial, TautClass, reduce

# Largest truncation order of eisenstein_series: its sigma table, and the
# prime-power sieve under it, hold a list of order + 1 ints each.
EISENSTEIN_ORDER_CAP = 10**5


class QSeries:
    """Truncated power series in q with exact rational coefficients.

    Stored as one int numerator per coefficient over a single positive
    common denominator, the least one: gcd(denominator, *numerators) == 1.
    So two series are equal exactly when their ints are, whichever
    constructor built them.  coeffs and coefficient(d) give Fractions;
    str() and to_json_dict() format straight from the ints, with a gcd only
    for the coefficients flagged as maybe reducible.
    """

    __slots__ = ("numerators", "denominator", "_reducible")

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise ValueError("a q-series stores at least the constant term")
        values = [as_rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in values))
        self.numerators = tuple(c.numerator * (den // c.denominator) for c in values)
        self.denominator = den
        # each c is in lowest terms, so n / den reduces exactly when c's
        # denominator is less than den
        self._reducible = bytes(c.denominator != den for c in values)

    @classmethod
    def _lowest(cls, numerators: List[int], den: int, reducible: bytes) -> "QSeries":
        """The series numerators[d] / den, den > 0 and gcd(den, *numerators)
        == 1, where reducible[d] is 0 only if gcd(numerators[d], den) == 1."""
        series = cls.__new__(cls)
        series.numerators = tuple(numerators)
        series.denominator = den
        series._reducible = reducible
        return series

    @property
    def order(self) -> int:
        return len(self.numerators) - 1

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    def coefficient(self, d: int) -> Fraction:
        if not 0 <= as_int(d) <= self.order:
            raise ValueError(f"coefficient index {d} outside [0, {self.order}]")
        return Fraction(self.numerators[d], self.denominator)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSeries)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def _texts(self) -> List[str]:
        """[str(Fraction(n, denominator)) for each numerator n]: a gcd for
        each coefficient that may reduce, none for the others or when the
        denominator is 1."""
        numerators, den = self.numerators, self.denominator
        if den == 1:
            return list(map(str, numerators))
        tail = f"/{den}"
        texts = [f"{n}{tail}" for n in numerators]
        for d in compress(range(len(texts)), self._reducible):
            texts[d] = _fraction_text(numerators[d], den)
        return texts

    def __str__(self) -> str:
        numerators, texts = self.numerators, iter(self._texts())
        bits = [next(texts)]
        if len(numerators) > 1:
            n, text = numerators[1], next(texts)
            if n:
                bits.append(f"- {text[1:]} q" if n < 0 else f"+ {text} q")
            bits += [
                f"- {text[1:]} q^{d}" if n < 0 else f"+ {text} q^{d}"
                for d, n, text in zip(range(2, len(numerators)), numerators[2:], texts)
                if n
            ]
        return " ".join(bits)

    def __repr__(self) -> str:
        return f"QSeries(order={self.order}, {self})"

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": self._texts()}


def _fraction_text(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0."""
    common = gcd(n, den)
    return str(n // den) if common == den else f"{n // common}/{den // common}"


# -- product cycles and NL projections ------------------------------------


def taut_product_cycle(g: int, u: int) -> TautClass:
    """Projection of the product locus of u- and (g-u)-dimensional factors.

    Only u = 1 and u = 2 carry closed formulas; anything else is out of
    scope and rejected.  g and u must be ints (a bool is a TypeError).
    """
    g, u = as_int(g), as_int(u)
    if u < 1 or 2 * u > g:
        raise ValueError(f"product cycle requires 1 <= u <= g/2, got u={u}, g={g}")
    if u == 1:
        coeff = Fraction(g) / (6 * abs_bernoulli(2 * g))
        return TautClass.monomial(g, (g - 1,), coeff)
    if u == 2:
        coeff = Fraction(g * (g - 1)) / (
            360 * abs_bernoulli(2 * g) * abs_bernoulli(2 * g - 2)
        )
        return TautClass.monomial(g, (g - 3, g - 1), coeff)
    raise ValueError(f"product cycle with u={u} is out of scope (u <= 2 only)")


def taut_nl(g: int, delta) -> TautClass:
    """Projection of the NL cycle of type delta: constant times product cycle."""
    delta = PolarizationType(delta)
    return nl_constant(g, delta) * taut_product_cycle(g, delta.u)


def taut_nl_d_special(g: int, d: int) -> TautClass:
    """The displayed u = 1 projection, computed without nl_constant:

    (g d^(2g-1) / (6 |B_2g|)) prod_{p | d} (1 - p^(2-2g)) lambda_{g-1}
    = (g d J_{2g-2}(d) / (6 |B_2g|)) lambda_{g-1}.  g and d must be ints
    (a bool is a TypeError).
    """
    g, d = as_int(g), as_int(d)
    if g < 2 or d < 1:
        raise ValueError(f"requires g >= 2 and d >= 1, got ({g}, {d})")
    coeff = Fraction(_d_special_numerator(g, d)) / (6 * abs_bernoulli(2 * g))
    return TautClass.monomial(g, (g - 1,), coeff)


def _d_special_numerator(g: int, d: int) -> int:
    """g d J_{2g-2}(d): taut_nl_d_special's coefficient times 6 |B_2g|."""
    return g * d * jacobi_totient(2 * g - 2, d)


def taut_nl_pair_special(g: int, d1: int, d2: int) -> TautClass:
    """The displayed u = 2 projection, computed without nl_constant:

    (g (g-1) d1^(2g-1) d2^(2g-5) / (360 |B_2g B_{2g-2}|))
        * prod_{p | d1} (1 - p^(6-2g)) * prod_{p | d2} (1 - p^(4-2g))
        * prod_{p | r} (1 - p^(-2)) / (1 - p^(-4))      (r = d2 / d1)
    = g (g-1) d1^3 d2 J_{2g-6}(d1) J_{2g-4}(d2) J_2(r)
        / (360 |B_2g B_{2g-2}| J_4(r))  times lambda_{g-3} lambda_{g-1}.
    g, d1 and d2 must be ints (a bool is a TypeError).
    """
    g, d1, d2 = as_int(g), as_int(d1), as_int(d2)
    if g < 4:
        raise ValueError(f"pair projection requires g >= 4, got {g}")
    if d2 < 1:
        raise ValueError(f"requires d2 >= 1, got d2={d2}")
    if d1 < 1 or d2 % d1 != 0:
        raise ValueError(f"requires d1 | d2, got ({d1}, {d2})")
    r = d2 // d1
    totients = jacobi_totient(2 * g - 6, d1) * jacobi_totient(2 * g - 4, d2) * jacobi_totient(2, r)
    coeff = Fraction(g * (g - 1) * d1**3 * d2 * totients, jacobi_totient(4, r)) / (
        360 * abs_bernoulli(2 * g) * abs_bernoulli(2 * g - 2)
    )
    return TautClass.monomial(g, (g - 3, g - 1), coeff)


# -- tilde cycles and the Eisenstein identity ------------------------------


def _divisor_matrix(kernel: List[int]) -> List[List[int]]:
    """The divisor-sum transform on d, dhat in [1, D], from the kernel's
    values at 1..D: M[d, dhat] = kernel(d / dhat) when dhat | d, else 0."""
    span = range(1, len(kernel) + 1)
    return [[kernel[d // dhat - 1] if d % dhat == 0 else 0 for dhat in span] for d in span]


def tilde_to_plain(D: int) -> List[List[int]]:
    """Each tilde cycle as a divisor sum of plain cycles, d in [1, D]:
    kernel sigma_1.  Unit diagonal, lower triangular, int entries."""
    return _divisor_matrix(sigma_table(1, D))


def plain_to_tilde(D: int) -> List[List[int]]:
    """Inverse of tilde_to_plain: kernel mu * (n mu(n)), the Dirichlet
    inverse of sigma_1 = 1 * id.  Int entries."""
    mu = mobius_table(D)
    return _divisor_matrix(dirichlet_convolve(mu, [n * m for n, m in enumerate(mu, 1)]))


def taut_nl_tilde(g: int, d: int) -> TautClass:
    """Projection of the degree-d elliptic-homomorphism cycle.

    For d >= 1 the lambda_{g-1} coefficient is computed along two
    independent routes, the divisor sum over the plain cycles of
    taut_nl_d_special and the closed form g sigma_{2g-1}(d) / (6 |B_2g|);
    their equality is asserted on every call.  Both routes share the
    denominator 6 |B_2g|, so their numerators are summed and compared on
    int.  The d = 0 class is the convention ((-1)^g / 24) lambda_{g-1}.  g
    and d must be ints (a bool is a TypeError).
    """
    g, d = as_int(g), as_int(d)
    if g < 2 or d < 0:
        raise ValueError(f"requires g >= 2 and d >= 0, got ({g}, {d})")
    if d == 0:
        return TautClass.monomial(g, (g - 1,), Fraction((-1) ** g, 24))
    scale = 6 * abs_bernoulli(2 * g)
    total = sum(sigma(1, d // dhat) * _d_special_numerator(g, dhat) for dhat in divisors(d))
    closed = g * sigma(2 * g - 1, d)
    if total != closed:
        raise AssertionError(
            f"tilde routes disagree at (g={g}, d={d}): divisor sum {Fraction(total) / scale}"
            f" vs closed form {Fraction(closed) / scale}"
        )
    return TautClass.monomial(g, (g - 1,), Fraction(closed) / scale)


def eisenstein_series(g: int, D: int) -> QSeries:
    """Weight-2g Eisenstein series, truncated at q^D.

    Normalized with constant term 1; the q^d coefficient is
    -(4g / B_2g) sigma_{2g-1}(d).  With sign(B_2g) = (-1)^(g+1) this is
    exactly 24 (-1)^g times the lambda_{g-1} coefficient of the projected
    degree-d tilde cycle.  With the lead -4g / B_2g = p/q in lowest terms,
    the series is [q] + [p sigma_{2g-1}(d)] over q, all on int, and already
    in lowest terms for D >= 1: q and p sigma_{2g-1}(1) = p are coprime.

    A coefficient p sigma(d) / q reduces exactly when gcd(sigma(d), q) > 1.
    As sigma is multiplicative, some p'^e || d then has gcd(sigma(p'^e), q)
    > 1, so one gcd per prime power r <= D finds every coefficient that may
    reduce: the multiples of each such r.  Only those get a gcd when the
    series is printed.  D above EISENSTEIN_ORDER_CAP is refused before any
    table is built.
    """
    g, D = as_int(g), as_int(D)
    if g < 2 or D < 0:
        raise ValueError(f"requires g >= 2 and D >= 0, got ({g}, {D})")
    if D > EISENSTEIN_ORDER_CAP:
        raise ValueError(f"Eisenstein order {D} exceeds cap {EISENSTEIN_ORDER_CAP}")
    lead = Fraction(-4 * g) / bernoulli(2 * g)
    if not D:
        return QSeries([1])
    p, q = lead.numerator, lead.denominator
    sigmas = sigma_table(2 * g - 1, D)
    reducible = bytearray(D + 1)
    reducible[0] = 1
    if q > 1:
        for r in prime_powers(D):
            if gcd(sigmas[r - 1], q) > 1:
                reducible[r::r] = b"\x01" * (D // r)
    return QSeries._lowest([q] + [p * s for s in sigmas], q, reducible)


# -- the projection calculus --------------------------------------------------

_TOKEN_SYMBOL = re.compile(r"^(NL|NLt|P|L)\(([0-9,\s]*)\)$")


def _project(g: int, kind: str, args: tuple) -> TautClass:
    """A symbol's projection.  The function that owns the kind makes every
    check: PolarizationType and taut_nl for NL, taut_nl_tilde for NLt,
    taut_product_cycle for P and LambdaPolynomial.monomial for L."""
    if kind == "NL":
        return taut_nl(g, args)
    if kind == "L":
        return reduce(LambdaPolynomial.monomial(g, sorted(args)))
    if len(args) != 1:
        raise ValueError(f"{kind} takes a single argument, got {args}")
    return (taut_nl_tilde if kind == "NLt" else taut_product_cycle)(g, args[0])


def taut_projection(g: int, text: str) -> TautClass:
    """Projection of a Q-linear combination of cycle symbols, read from text.

    Terms are joined by '+'; each term is an optional rational coefficient
    'a/b *' followed by a symbol, with at most a single '*' between two
    symbols.  Symbols: NL(d1,d2,...), NLt(d), P(u), L(i,j,...); L() is the
    monomial 1, and an empty item in a nonempty argument list is an error.

    The whole text is parsed first, and then projected term by term: a
    term's class is its coefficient times the product of its symbols'
    projections.  A product of two symbols is their ring product (the
    projection is a homomorphism, and the ring computes an NL x NL
    product's 0: lambda_{g-1}^2 = relation(g-1, g)), so an invalid or
    out-of-scope symbol is refused even as a factor of a product that
    projects to 0.  A term with no symbol or with three or more is
    rejected: only pairwise vanishing of NL-supported cycles is proved,
    and the API stays honest about it.  g must be an int >= 2, and a text
    that is not a str is a TypeError, raised before parsing.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected an expression string, got {type(text).__name__}")
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty term in expression")
        pieces = [piece.strip() for piece in chunk.split("*")]
        coeff = Fraction(1)
        if RATIONAL_PATTERN.fullmatch(pieces[0]):
            coeff = parse_rational(pieces[0])
            pieces = pieces[1:]
        symbols = []
        for piece in pieces:
            match = _TOKEN_SYMBOL.match(piece)
            if not match:
                raise ValueError(f"cannot parse symbol {piece!r}")
            kind, argtext = match.groups()
            try:
                args = tuple(map(int, argtext.split(","))) if argtext.strip() else ()
            except ValueError as exc:
                raise ValueError(f"malformed argument list in symbol {piece!r}: {exc}") from exc
            symbols.append((kind, args))
        terms.append((coeff, symbols))
    g = as_int(g)
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    total = TautClass.zero(g)
    for coeff, symbols in terms:
        if not 1 <= len(symbols) <= 2:
            raise ValueError(
                f"terms must have one or two symbols, got {len(symbols)} "
                f"(products of three or more symbols are rejected)"
            )
        total += prod((_project(g, kind, args) for kind, args in symbols), start=coeff)
    return total
