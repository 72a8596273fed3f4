"""The tautological ring of the moduli of principally polarized abelian varieties.

The ring in genus g is Q[lambda_1, ..., lambda_g] modulo the ideal generated
by lambda_g and the homogeneous parts of c(E) c(E^v) - 1, where
c(E) = 1 + lambda_1 + ... + lambda_g.  Additively it has the square-free
monomials lambda_S, S a subset of {1, ..., g-1}, as a basis; the top graded
piece sits in degree g(g-1)/2 and is spanned by lambda_1 ... lambda_{g-1}.

Two independent implementations of the normal form live here:

* ``reduce``: rewriting.  Each ``relation(k, g)`` rewrites lambda_k^2 as a
  sum of products lambda_{k-m} lambda_{k+m} (lambda_0 = 1).  The ring
  vanishes above the socle degree g(g-1)/2 (van der Geer 1999), so a
  monomial of larger weight is zero before any sweep.  Squares are
  eliminated largest square index first.  A rewrite raises q = sum of
  squared indices by 2m^2, and q is bounded at fixed weight, so one
  forward sweep in increasing q expands every reachable monomial once,
  after all of its parents, and terminates.  The sweep runs on packed
  monomials, in one layout per genus: one int holds every exponent in a
  digit wide enough for g(g-1)/2, a rewrite adds a constant to it, and
  the bit length of the masked squares indexes a list of the largest
  square's rewrites.  Pending monomials wait in a list indexed by level
  (q - q_0)/2, q_0 the input's q, grown as rewrites reach deeper levels;
  q <= (g-1) * weight bounds its length.  Every rewrite coefficient is
  +-2, so each square's rewrites are split into a plus and a minus list
  and a monomial hands +-2 * coeff to its children.
  A monomial that holds lambda_{g-1} skips the rewrites with
  k + m = g - 1: their child holds lambda_{g-1}^2, and relation(g-1, g) is
  lambda_{g-1}^2 alone, so that child is 0.  Pairing matrices read socle
  values from one table per genus, filled by a post-order walk over the
  same pruned rewrites, so a state that many entries reach is valued
  once; their entries are the int socle values themselves.

* ``oracle_reduce``: localization and duality.  A socle integral is an
  Atiyah-Bott sum over the torus-fixed points of LG_{g-1} (see below and
  Pragacz 1996); a monomial's pairings with the complementary basis,
  solved against the localized pairing, give its normal form.
  Deliberately shares no code with the rewriting path.

The socle pairing implemented here is normalized so that the socle monomial
lambda_1 ... lambda_{g-1} pairs with 1 to 1.  This is proportional to the
geometric integral pairing, which is all that perfection checks require;
no absolute normalization is supplied.

Perfection is proved by a certificate on the pairing matrix's own entries,
with no elimination.  Let q(S) = sum_{i in S} i^2 and let S^c be the
complement of S in {1, ..., g-1}.  Under van der Geer's identification of
the ring with H*(LG_{g-1}) (1999), lambda_S is the Schubert class sigma_S
plus classes sigma_mu with q(mu) > q(S), and sigma_S pairs with sigma_T to
1 when T = S^c and to 0 otherwise.  Hence <lambda_S, lambda_{S^c}> = 1, and
<lambda_S, lambda_T> = 0 for every other T with q(T) >= q(S^c).  A matrix
with that zero pattern, its columns re-indexed by complement and ordered by
q, is unitriangular, so its determinant is +-1.  PairingMatrix checks the
pattern entry by entry, so the proof does not rest on the identification.
Every pairing_matrix carries it, so it is the whole nonsingularity test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import lcm, prod
from operator import add
from typing import Iterable, List, Tuple

from .arith import as_int, as_rational

# The oracle sums over 2^(g-1) fixed points for every pairing it solves.
ORACLE_GENUS_CAP = 8

# The middle-degree pairing matrix takes 1.0-1.5 s and 48 MB at genus 15,
# and 3.9-4.6 s and 135 MB at genus 16 (Python 3.11, one Xeon core).
PAIRING_GENUS_CAP = 15

ExponentVector = Tuple[int, ...]
IndexTuple = Tuple[int, ...]


def _collect(pairs: Iterable[tuple]) -> dict:
    """Sum (key, coeff) pairs per key, each sum starting from int 0.

    Integer coefficients stay int; zero sums are kept, the constructors
    drop them.
    """
    total: dict = {}
    get = total.get
    for key, coeff in pairs:
        total[key] = get(key, 0) + coeff
    return total


class _SparseTerms:
    """Sparse map from keys to nonzero Fraction coefficients, in genus g.

    Subclasses fix what a key is (_check_key) and how two elements
    multiply (_multiply); the zero, cleaning, addition, scaling and
    equality shared by both ring representations live here.  The
    constructor is the one place a ring coefficient becomes a Fraction;
    below it, normal forms and products are computed on int wherever the
    inputs are int.
    """

    __slots__ = ("g", "terms")

    def __init__(self, g: int, terms: dict):
        g = as_int(g)
        if g < 1:
            raise ValueError(f"genus must be >= 1, got {g}")
        self.g = g
        check_key = self._check_key
        clean: dict = {}
        for key, coeff in terms.items():
            key = tuple(key)
            check_key(key)
            coeff = as_rational(coeff)
            if coeff:
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, g: int):
        return cls(g, {})

    def _check_genus(self, other: "_SparseTerms") -> None:
        if self.g != other.g:
            raise ValueError(f"genus mismatch: {self.g} vs {other.g}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_genus(other)
        return type(self)(self.g, _collect(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._multiply(other)
        coeff = as_rational(other)
        return type(self)(self.g, {k: c * coeff for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.g == other.g
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms


class LambdaPolynomial(_SparseTerms):
    """Element of Q[lambda_1, ..., lambda_g], sparse over exponent vectors.

    Exponent vectors have length g; entry i-1 is the exponent of lambda_i.
    Generators with index > g do not exist and are rejected at construction.
    """

    __slots__ = ()

    def _check_key(self, exps: ExponentVector) -> None:
        if len(exps) != self.g:
            raise ValueError(f"exponent vector {exps} has length != g = {self.g}")
        if any(type(e) is not int or e < 0 for e in exps):
            for e in exps:
                as_int(e)  # a bool or a float exponent is a TypeError
            raise ValueError(f"negative exponent in {exps}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, g: int) -> "LambdaPolynomial":
        return cls(g, {(0,) * g: 1})

    @classmethod
    def monomial(cls, g: int, indices: Iterable[int], coeff=1) -> "LambdaPolynomial":
        """Product of lambda_i over an index multiset (repeats allowed); an
        index that is not an int (a bool, a float) is a TypeError."""
        indices = tuple(map(as_int, indices))
        for i in indices:
            if not 1 <= i <= g:
                raise ValueError(f"lambda_{i} does not exist in genus {g}")
        return cls(g, {_exponents(g, indices): coeff})

    # -- arithmetic -----------------------------------------------------

    def _multiply(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        self._check_genus(other)
        return LambdaPolynomial(
            self.g,
            _collect(
                (tuple(map(add, e1, e2)), c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            ),
        )

    def weights(self) -> Tuple[int, ...]:
        return tuple(sorted({_weight(e) for e in self.terms}))

    def __repr__(self) -> str:
        if not self.terms:
            return f"LambdaPolynomial(g={self.g}, 0)"
        bits = []
        for exps in sorted(self.terms):
            mono = "*".join(
                f"L{i + 1}^{e}" if e > 1 else f"L{i + 1}"
                for i, e in enumerate(exps)
                if e
            )
            bits.append(f"{self.terms[exps]}*{mono or '1'}")
        return f"LambdaPolynomial(g={self.g}, {' + '.join(bits)})"


def _weight(exps: ExponentVector) -> int:
    return sum((i + 1) * e for i, e in enumerate(exps))


def total_chern(g: int) -> LambdaPolynomial:
    """1 + lambda_1 + ... + lambda_g."""
    generators = (LambdaPolynomial.monomial(g, (i,)) for i in range(1, g + 1))
    return sum(generators, LambdaPolynomial.one(g))


def total_chern_dual(g: int) -> LambdaPolynomial:
    """1 - lambda_1 + lambda_2 - ... + (-1)^g lambda_g: total_chern(g) with
    lambda_i scaled by (-1)^i."""
    return LambdaPolynomial(g, {exps: (-1) ** _weight(exps) for exps in total_chern(g).terms})


def relation(k: int, g: int) -> LambdaPolynomial:
    """Ideal generator eliminating lambda_k^2 in genus g.

    The degree-2k homogeneous part of c(E) c(E^v) - 1, reduced modulo the
    generators lambda_i with i >= g, equals (up to sign)

        lambda_k^2 - 2 sum_{m=1}^{min(k, g-1-k)} (-1)^(m+1)
                         lambda_{k-m} lambda_{k+m}.

    k and g must be ints (a bool is a TypeError).
    """
    k, g = as_int(k), as_int(g)
    if not 1 <= k <= g - 1:
        raise ValueError(f"relation index k={k} out of range [1, {g - 1}]")
    terms = {_exponents(g, (k, k)): 1}
    for m in range(1, min(k, g - 1 - k) + 1):
        pair = (k - m, k + m) if k > m else (k + m,)
        terms[_exponents(g, pair)] = -2 * (-1) ** (m + 1)
    return LambdaPolynomial(g, terms)


def _q(exps: Iterable[int]) -> int:
    """q = sum of i^2 e_i, the order in which the sweep expands monomials."""
    return sum(i * i * e for i, e in enumerate(exps, 1))


def _pack(w: int, exps: Iterable[int]) -> int:
    """Monomial as one int: the exponent of lambda_i in digit i-1, w bits each."""
    return sum(e << (w * i) for i, e in enumerate(exps))


def _read_rewrites(g: int, w: int, rules: list, squares: int) -> tuple:
    """Rewrites of the largest square lambda_k^2 in squares (see
    _rewrite_table), read from relation(k, g) and stored in rules at every
    bit length that square's digit can give, so it is read once.

    Adding a term's delta to a monomial with lambda_k^2 replaces that
    square by the term's lambda_{k-m} lambda_{k+m}, which raises q by 2m^2,
    so the level (see _reduce_monomial) by step = m^2.  The coefficient is
    +2 for odd m and -2 for even m.  The entry holds two triples (plus,
    minus, reach): the (delta, step) pairs of each sign and the largest
    step.  The first triple has every term, the second drops the terms
    with k + m = g - 1, for monomials that already hold lambda_{g-1}.
    Those terms' children hold lambda_{g-1}^2, which is relation(g-1, g)
    and so 0; equivalently, lambda_{g-1} relation(k, g) = lambda_{g-1}
    relation(k, g-1).
    """
    i = (squares.bit_length() - 1) // w
    square = _exponents(g, (i + 1, i + 1))
    every, pruned = ([], []), ([], [])
    for exps, coeff in relation(i + 1, g).terms.items():
        if exps == square:
            continue
        move = (_pack(w, exps) - _pack(w, square), (_q(exps) - _q(square)) // 2)
        minus = coeff > 0  # lambda_k^2 is rewritten to -coeff times the term
        every[minus].append(move)
        if not exps[g - 2]:
            pruned[minus].append(move)
    entry = tuple(
        (tuple(plus), tuple(minus), max((step for _, step in plus + minus), default=0))
        for plus, minus in (every, pruned)
    )
    # Digit i's bits above its lowest are bits w*i + 1 .. w*i + w - 1.
    rules[w * i + 2 : w * i + w + 1] = [entry] * (w - 1)
    return entry


@lru_cache(maxsize=None)
def _rewrite_table(g: int):
    """The packed layout of genus g: the digit width w, the rewrites, the
    mask of every digit bit but the lowest, the packed lambda_{g-1}, and
    the int socle values of the top-weight monomials that pairing entries
    reach, filled by _pairing_values and shared by every degree.

    A swept monomial has weight at most g(g-1)/2, so no exponent exceeds
    that and w bits hold each; at least 2, so an exponent of 2 shows
    outside the lowest bit.  A monomial is square-free when it has no bit
    under the mask, and otherwise its largest squared index is that of the
    highest digit there, so the bit length of the masked monomial names
    it.  The rewrites are a list indexed by that bit length, None until
    _read_rewrites fills the square's entry the first time a sweep meets
    it.  Without lambda_g, a monomial holds lambda_{g-1} exactly when it
    is at least the packed lambda_{g-1}.
    """
    w = max(2, top_degree(g).bit_length())
    rules = [None] * (w * (g - 1) + 1)
    return w, rules, _pack(w, [(1 << w) - 2] * (g - 1)), 1 << w * max(g - 2, 0), {}


@lru_cache(maxsize=None)
def _reduce_monomial(g: int, exps: ExponentVector) -> Tuple[Tuple[IndexTuple, int], ...]:
    """Normal form of a single monomial, as ((indices, int coeff), ...).

    A monomial with lambda_g, or of weight above g(g-1)/2, is zero.  Any
    other is packed (see _rewrite_table) and swept forward in q (see _q).
    Pending monomials wait in a list of dicts indexed by level (q - q_0)/2,
    q_0 the input's q, expanded in order.  The list grows to the deepest
    level a rewrite reaches; every index is at most g-1, so q <= (g-1) *
    weight and it never passes ((g-1) * weight - q_0)/2 + 1 levels.  It is
    not sized to that bound up front: a monomial with few or no rewrites,
    such as the square-free lambda_1 ... lambda_{g-1}, would pay for
    O(g^3) empty levels.  A monomial with a squared factor is rewritten
    largest square index first, its rewrites found at the bit length of
    its masked squares, each rewrite one int addition that hands
    +2 * coeff (plus list) or -2 * coeff (minus list) to the child;
    rewriting lambda_k^2 to lambda_{k-m} lambda_{k+m} raises the level by
    m^2, so every parent of a monomial is expanded before it.  A monomial
    that holds lambda_{g-1} skips the rewrites with k + m = g - 1, whose
    children hold lambda_{g-1}^2 = relation(g-1, g) and are 0 (see
    _read_rewrites).  Each monomial is thus expanded once, with its
    coefficient final, and only the input is cached.  The square-free
    survivors are the normal form.

    _pairing_values walks the same rewrites depth first into a table kept
    per genus: a table pays for every state, and this sweep only for the
    pending levels.  lambda_1^top for every g <= 14 takes the sweep 0.19 s
    at 16 MB and the table 0.65-0.90 s at 36 MB; the g <= 11 pairing
    matrices, which share most states, take the table 0.03-0.05 s and a
    sweep per entry 0.16-0.30 s (Python 3.11, one Xeon core).
    """
    if exps[g - 1] > 0 or _weight(exps) > top_degree(g):
        return ()
    w, rules, high, last, _ = _rewrite_table(g)
    levels = [{_pack(w, exps): 1}]
    survivors = []
    for level, pending in enumerate(levels):
        levels[level] = None  # expanded: its states are needed no more
        for mono, coeff in pending.items():
            if not coeff:
                continue
            squares = mono & high
            if not squares:
                indices = tuple(i + 1 for i in range(g - 1) if mono >> (w * i) & 1)
                survivors.append((indices, coeff))
                continue
            rule = rules[squares.bit_length()] or _read_rewrites(g, w, rules, squares)
            plus, minus, reach = rule[mono >= last]
            if level + reach >= len(levels):
                levels += [{} for _ in range(level + reach + 1 - len(levels))]
            twice = 2 * coeff
            for delta, step in plus:
                children = levels[level + step]
                child = mono + delta
                children[child] = children.get(child, 0) + twice
            for delta, step in minus:
                children = levels[level + step]
                child = mono + delta
                children[child] = children.get(child, 0) - twice
    return tuple(sorted(survivors))


class TautClass(_SparseTerms):
    """Ring element in the square-free basis: index sets S in {1, ..., g-1}."""

    __slots__ = ()

    def _check_key(self, indices: IndexTuple) -> None:
        if any(type(i) is not int or not 1 <= i <= self.g - 1 for i in indices):
            for i in indices:
                as_int(i)  # a bool or a float index is a TypeError
            raise ValueError(f"indices {indices} not within [1, {self.g - 1}]")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise ValueError(f"indices {indices} not strictly increasing")

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, g: int) -> "TautClass":
        return cls(g, {(): 1})

    @classmethod
    def monomial(cls, g: int, indices: Iterable[int], coeff=1) -> "TautClass":
        return cls(g, {tuple(sorted(indices)): coeff})

    # -- arithmetic -----------------------------------------------------

    def _multiply(self, other: "TautClass") -> "TautClass":
        return multiply(self, other)

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        """Coefficient of lambda_S, S the sorted indices, checked as a
        constructor key is (a TypeError or a ValueError)."""
        key = tuple(sorted(indices))
        self._check_key(key)
        return self.terms.get(key, Fraction(0))

    def _sorted_terms(self) -> List[Tuple[IndexTuple, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for indices, coeff in self._sorted_terms():
            if indices:
                bits.append(f"{coeff} * L({','.join(map(str, indices))})")
            else:
                bits.append(str(coeff))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"TautClass(g={self.g}, {self})"

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "terms": [
                {"indices": list(indices), "coeff": str(coeff)}
                for indices, coeff in self._sorted_terms()
            ],
        }


def _extend(g: int, terms: Iterable[tuple], normal_form) -> TautClass:
    """A normal form of monomials extended linearly over (exps, coeff) pairs."""
    return TautClass(
        g,
        _collect(
            (indices, coeff * c)
            for exps, coeff in terms
            for indices, c in normal_form(g, exps)
        ),
    )


def _expect(cls: type, value):
    """value itself; a TypeError naming its type when it is not a cls."""
    if not isinstance(value, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(value).__name__}")
    return value


def reduce(p: LambdaPolynomial) -> TautClass:
    """Normal form of a polynomial in the square-free basis.  A p that is
    not a LambdaPolynomial is a TypeError."""
    p = _expect(LambdaPolynomial, p)
    return _extend(p.g, p.terms.items(), _reduce_monomial)


def _exponents(g: int, indices: Iterable[int]) -> ExponentVector:
    """Exponent vector of the product of lambda_i over an index multiset."""
    exps = [0] * g
    for i in indices:
        exps[i - 1] += 1
    return tuple(exps)


def multiply(a: TautClass, b: TautClass) -> TautClass:
    """Ring product: multiply the polynomial lifts, then reduce.  An operand
    that is not a TautClass is a TypeError."""
    _expect(TautClass, a)._check_genus(_expect(TautClass, b))
    g = a.g
    lifts = (
        (_exponents(g, s + t), cs * ct)
        for s, cs in a.terms.items()
        for t, ct in b.terms.items()
    )
    return _extend(g, lifts, _reduce_monomial)


def top_degree(g: int) -> int:
    """The socle degree g(g-1)/2; a non-int g is a TypeError."""
    g = as_int(g)
    return g * (g - 1) // 2


def _genus_and_degree(g: int, k: int) -> Tuple[int, int]:
    """(g, k) once checked: a non-int is a TypeError, g < 1 or k < 0 a
    ValueError."""
    g, k = as_int(g), as_int(k)
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    return g, k


@lru_cache(maxsize=None, typed=True)
def graded_dimension(g: int, k: int) -> int:
    """Number of subsets of {1, ..., g-1} with element sum k.  g and k are
    checked by _genus_and_degree, and the cache is typed, as arith's are."""
    g, k = _genus_and_degree(g, k)
    counts = [1] + [0] * k
    for i in range(1, g):
        for s in range(k, i - 1, -1):
            counts[s] += counts[s - i]
    return counts[k]


@lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> Tuple[IndexTuple, ...]:
    """Subsets of {1, ..., n} with element sum k, each increasing: those
    of {1, ..., n-1}, then those with n.  Shared by every genus and degree.
    Callers pass n <= k (or k = 0), so the recursion is at most k deep."""
    if not 0 <= k <= n * (n + 1) // 2:
        return ()
    if k == 0:
        return ((),)
    with_n = _subsets(min(n - 1, k - n), k - n)
    return _subsets(min(n - 1, k), k) + tuple(s + (n,) for s in with_n)


@lru_cache(maxsize=None, typed=True)
def basis_sets(g: int, k: int) -> Tuple[IndexTuple, ...]:
    """Degree-k basis index sets, sorted, for stable matrix layouts.  Above
    half the socle degree they are the complements of the degree
    g(g-1)/2 - k sets, so the enumeration stays shallow at either end.  g
    and k are checked as graded_dimension checks them."""
    g, k = _genus_and_degree(g, k)
    top = top_degree(g)
    if 2 * k <= top:
        return tuple(sorted(_subsets(min(g - 1, k), k)))
    full = range(1, g)
    complements = _subsets(min(g - 1, top - k), top - k)
    return tuple(sorted(tuple(i for i in full if i not in s) for s in complements))


def socle_pair(a: TautClass, b: TautClass) -> Fraction:
    """Pairing normalized so lambda_1 ... lambda_{g-1} pairs with 1 to 1.

    Returns the coefficient of the full index set in the product; pairs of
    classes with non-complementary degrees automatically pair to 0.
    """
    return multiply(a, b).coefficient(range(1, a.g))


class PairingMatrix:
    """Socle pairing between complementary graded pieces, built by pairing_matrix.

    Rows are the degree-k basis sets S, columns the degree top-k sets T,
    and the entry is <lambda_S, lambda_T>, an int.  ``is_nonsingular``
    proves the matrix nonsingular without arithmetic: with q(T) = sum of
    i^2 over T and S^c the complement of S in {1, ..., g-1}, every row S
    must hold exactly 1 at column S^c and be zero at every other column T
    with q(T) >= q(S^c).  Columns re-indexed by complement and ordered by
    decreasing q then form a unitriangular matrix, so the determinant is
    +-1.  Every matrix that pairing_matrix builds carries the certificate;
    a hand-built matrix without it reads False, whatever its rank.
    """

    __slots__ = ("g", "k", "rows", "cols", "entries")

    def __init__(self, g, k, rows, cols, entries):
        n = len(cols)
        if len(rows) != n or len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError("pairing matrix must be square")
        self.g = g
        self.k = k
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def is_nonsingular(self) -> bool:
        """True when the +-1 triangularity certificate holds (a proof of
        nonsingularity); False says nothing either way."""
        col_index = {t: j for j, t in enumerate(self.cols)}
        q = [sum(i * i for i in t) for t in self.cols]
        # Columns by decreasing q: each row reads only those with q >= q(S^c).
        by_q = sorted(range(len(q)), key=q.__getitem__, reverse=True)
        diagonal = set()
        full = range(1, self.g)
        for s, row in zip(self.rows, self.entries):
            j = col_index.get(tuple(i for i in full if i not in s))
            # Distinct complement columns make S -> S^c a bijection onto the
            # columns, which the triangular reordering needs.
            if j is None or j in diagonal or row[j] != 1:
                return False
            diagonal.add(j)
            bound = q[j]
            for c in by_q:
                if q[c] < bound:
                    break
                if row[c] and c != j:
                    return False
        return True

    def __str__(self) -> str:
        fmt = lambda s: "[" + ",".join(map(str, s)) + "]"
        return "\n".join(
            ["rows: " + " ".join(fmt(s) for s in self.rows)]
            + ["cols: " + " ".join(fmt(s) for s in self.cols)]
            + ["[" + " ".join(str(x) for x in row) + "]" for row in self.entries]
            + [f"nonsingular: {'yes' if self.is_nonsingular() else 'no'}"]
        )

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "k": self.k,
            "rows": [list(s) for s in self.rows],
            "cols": [list(s) for s in self.cols],
            "entries": [[str(x) for x in row] for row in self.entries],
            "nonsingular": self.is_nonsingular(),
        }


def _pairing_values(g: int, k: int) -> List[List[int]]:
    """Socle values of lambda_S lambda_T, S of degree k and T of the
    complementary degree, read from the genus's table (see _rewrite_table)
    at the sums of the packed basis sets.

    Monomials not valued yet are valued by one post-order walk on a stack.
    A popped monomial already valued is skipped; a square-free one (the
    socle monomial) gets 1; any other is pushed back as ~mono, negative
    where packed monomials are not, under its unvalued children.  A
    rewrite raises q (see _q), so no monomial reaches itself, and when
    ~mono is popped every child is valued: mono gets 2 * (sum of its plus
    children's values - the same over its minus children).  The pruned
    rewrites (see _read_rewrites) give lambda_{g-1}^2 no children, so 0.
    """
    w, rules, high, last, table = _rewrite_table(g)
    rows, cols = (
        [sum(1 << w * (i - 1) for i in s) for s in basis_sets(g, d)] for d in (k, top_degree(g) - k)
    )
    stack = [r + c for r in rows for c in cols if r + c not in table]
    while stack:
        mono = stack.pop()
        if mono < 0:
            mono = ~mono
            plus, minus, _ = rules[(mono & high).bit_length()][mono >= last]
            value = 0
            for delta, _ in plus:
                value += table[mono + delta]
            for delta, _ in minus:
                value -= table[mono + delta]
            table[mono] = 2 * value
            continue
        if mono in table:
            continue
        squares = mono & high
        if not squares:
            table[mono] = 1
            continue
        rule = rules[squares.bit_length()] or _read_rewrites(g, w, rules, squares)
        plus, minus, _ = rule[mono >= last]
        stack.append(~mono)
        stack += [mono + delta for delta, _ in chain(plus, minus) if mono + delta not in table]
    return [[table[r + c] for c in cols] for r in rows]


def pairing_matrix(g: int, k: int) -> PairingMatrix:
    """Entries are ints read from the genus's table of socle values:
    <lambda_S, lambda_T> is the socle coefficient of lambda_S lambda_T,
    found by the rewrites of the normal form, each state valued once per
    genus however many entries reach it.  g and k must be ints, and a
    genus above PAIRING_GENUS_CAP is refused before any table is built."""
    g, k = as_int(g), as_int(k)
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if not 0 <= k <= top_degree(g):
        raise ValueError(f"degree k={k} outside [0, {top_degree(g)}]")
    if g > PAIRING_GENUS_CAP:
        raise ValueError(f"pairing matrix genus {g} exceeds cap {PAIRING_GENUS_CAP}")
    return PairingMatrix(
        g, k, basis_sets(g, k), basis_sets(g, top_degree(g) - k), _pairing_values(g, k)
    )


@lru_cache(maxsize=None, typed=True)
def monomials_of_weight(g: int, w: int) -> Tuple[ExponentVector, ...]:
    """All exponent vectors in g variables of weight w (lambda_i weighs i).
    g and w are checked as graded_dimension checks g and k."""
    g, w = _genus_and_degree(g, w)
    found: List[ExponentVector] = []

    def build(i: int, remaining: int, acc: Tuple[int, ...]) -> None:
        if i == g:
            if remaining == 0:
                found.append(acc)
            return
        weight = i + 1
        for e in range(remaining // weight + 1):
            build(i + 1, remaining - weight * e, acc + (e,))

    build(0, w, ())
    return tuple(sorted(found))


# -- localization oracle ------------------------------------------------


@lru_cache(maxsize=None)
def _fixed_points(g: int):
    """Torus-fixed points of LG_{g-1} as (lambda values, weight) pairs, and L.

    At y = (+-1, ..., +-(g-1)), lambda_k takes the value e_k(y), so lambda_g
    takes 0.  With D(y) = prod 2 y_i * prod_{i<j} (y_i + y_j), the socle
    integral is sum_y m(y) / D(y); on int, the point weighs L / D(y), where
    L = lcm |D|, and the sum is divided by L.
    """
    points = []
    for signs in product((1, -1), repeat=g - 1):
        y = [s * i for s, i in zip(signs, range(1, g))]
        e = [1] + [0] * g
        for x in y:
            for k in range(g - 1, 0, -1):
                e[k] += x * e[k - 1]
        d = prod(2 * x for x in y) * prod(a + b for a, b in combinations(y, 2))
        points.append((tuple(e[1:]), d))
    lcm_d = lcm(*(abs(d) for _, d in points))
    return tuple((values, lcm_d // d) for values, d in points), lcm_d


def _socle(g: int, exps: ExponentVector) -> int:
    """Socle coefficient of a monomial of weight g(g-1)/2, by localization."""
    points, lcm_d = _fixed_points(g)
    total = sum(weight * prod(map(pow, values, exps)) for values, weight in points)
    value, remainder = divmod(total, lcm_d)
    if remainder:
        raise RuntimeError(f"localization sum of {exps} at g={g} is not divisible by {lcm_d}")
    return value


@lru_cache(maxsize=None)
def _localized_pairing(g: int, w: int):
    """Degree-w basis sets ordered by q, their complements, and the localized
    pairing between them, which must carry PairingMatrix's certificate."""
    rows = tuple(sorted(basis_sets(g, w), key=lambda s: sum(i * i for i in s)))
    cols = tuple(tuple(i for i in range(1, g) if i not in s) for s in rows)
    entries = [[_socle(g, _exponents(g, s + t)) for t in cols] for s in rows]
    if not PairingMatrix(g, w, rows, cols, entries).is_nonsingular():
        raise RuntimeError(f"localized pairing at (g={g}, w={w}) is not certified unitriangular")
    return rows, cols, entries


@lru_cache(maxsize=None)
def _oracle_monomial(g: int, exps: ExponentVector) -> Tuple[Tuple[IndexTuple, int], ...]:
    """Normal form of a single monomial by duality, as ((indices, int coeff), ...).

    The pairings v_j of the monomial with the complements T_j satisfy
    v_j = sum_i c_i P[i][j], and P is unitriangular with rows in increasing
    q, so forward substitution gives the coefficients c_i on int.
    """
    rows, cols, entries = _localized_pairing(g, _weight(exps))
    coeffs: List[int] = []
    for j, t in enumerate(cols):
        known = sum(c * row[j] for c, row in zip(coeffs, entries))
        coeffs.append(_socle(g, tuple(map(add, exps, _exponents(g, t)))) - known)
    return tuple((s, c) for s, c in zip(rows, coeffs) if c)


def oracle_reduce(p: LambdaPolynomial) -> TautClass:
    """Normal form by localization and duality.

    Independent of the rewriting path.  Requires a homogeneous input of
    weight at most g(g-1)/2 and genus at most ORACLE_GENUS_CAP.  A p that
    is not a LambdaPolynomial is a TypeError.
    """
    g = _expect(LambdaPolynomial, p).g
    if g > ORACLE_GENUS_CAP:
        raise ValueError(f"oracle capped at genus {ORACLE_GENUS_CAP}, got {g}")
    weights = p.weights()
    if len(weights) > 1:
        raise ValueError(f"oracle requires a homogeneous input, weights {weights}")
    if weights and weights[0] > top_degree(g):
        raise ValueError(f"weight {weights[0]} exceeds the socle degree {top_degree(g)}")
    return _extend(g, p.terms.items(), _oracle_monomial)


def clear_caches() -> None:
    """Empty every cache of this module, both routes' and the shared ones."""
    for cached in (
        _rewrite_table,
        _reduce_monomial,
        graded_dimension,
        _subsets,
        basis_sets,
        monomials_of_weight,
        _fixed_points,
        _localized_pairing,
        _oracle_monomial,
    ):
        cached.cache_clear()
