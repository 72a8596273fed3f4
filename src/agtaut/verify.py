"""One-shot verification suites.

Each suite checks one of the package's headline identities exactly, at the
full advertised ranges, and raises VerificationFailure with both sides
rendered exactly on the first violation.  A suite's name lives only in
CHECKS, where run_suites reads it to label the suite's result line.  The
CLI `verify` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Dict, List, Optional

from . import degrees, gw, nl, ring
from .arith import dirichlet_convolve, divisors, jacobi_totient_table, sigma_table
from .linalg import identity, is_nonsingular, mat_mul


class VerificationFailure(Exception):
    def __init__(self, context: str, lhs: str, rhs: str):
        self.context = context
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"{context}\n  lhs = {lhs}\n  rhs = {rhs}")


def _demand(context: str, lhs, rhs) -> None:
    if lhs != rhs:
        raise VerificationFailure(context, str(lhs), str(rhs))


# -- 1. ring normal form vs localization oracle ------------------------------


def check_ring_normal_form() -> str:
    compared = 0
    for g in range(2, 6):
        for w in range(0, ring.top_degree(g) + 1):
            for exps in ring.monomials_of_weight(g, w):
                poly = ring.LambdaPolynomial(g, {exps: Fraction(1)})
                _demand(
                    f"monomial {exps} at g={g}, weight {w}",
                    ring.reduce(poly),
                    ring.oracle_reduce(poly),
                )
                compared += 1
    rng = random.Random(61803)
    g = 6
    for trial in range(200):
        w = rng.randint(0, ring.top_degree(g))
        mons = ring.monomials_of_weight(g, w)
        terms = {}
        for exps in rng.sample(mons, k=min(len(mons), rng.randint(1, 4))):
            terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        poly = ring.LambdaPolynomial(g, terms)
        _demand(
            f"random polynomial #{trial} at g=6, weight {w}",
            ring.reduce(poly),
            ring.oracle_reduce(poly),
        )
        compared += 1
    return f"rewriting equals oracle on {compared} inputs (g<=5 exhaustive, g=6 random)"


# -- 2. perfect pairing and Gorenstein symmetry ------------------------------


def check_perfect_pairing() -> str:
    matrices = 0
    for g in range(2, 10):
        for k in range(0, ring.top_degree(g) + 1):
            matrix = ring.pairing_matrix(g, k)
            _demand(
                f"pairing matrix certified unitriangular at g={g}, k={k}",
                matrix.is_nonsingular(),
                True,
            )
            if g <= 6:
                # Exact elimination, the certificate's independent oracle.
                _demand(
                    f"pairing matrix rank at g={g}, k={k}",
                    is_nonsingular(matrix.entries),
                    True,
                )
            matrices += 1
    for g in range(2, 11):
        top = ring.top_degree(g)
        for k in range(0, top + 1):
            _demand(
                f"graded dimension symmetry at g={g}, k={k}",
                ring.graded_dimension(g, k),
                ring.graded_dimension(g, top - k),
            )
    return (
        f"{matrices} pairing matrices certified +-1 unitriangular up to the complement "
        f"permutation (g<=9), full rank by elimination (g<=6); dimensions symmetric (g<=10)"
    )


# -- 3. defining relations -----------------------------------------------------


def check_mumford_relation() -> str:
    for g in range(2, 9):
        product = ring.total_chern(g) * ring.total_chern_dual(g) - ring.LambdaPolynomial.one(g)
        _demand(
            f"c(E) c(E^v) - 1 reduces to 0 at g={g}",
            ring.reduce(product),
            ring.TautClass.zero(g),
        )
    for g in range(2, 11):
        square = ring.LambdaPolynomial.monomial(g, (g - 1, g - 1))
        _demand(
            f"lambda_{g - 1}^2 reduces to 0 at g={g}",
            ring.reduce(square),
            ring.TautClass.zero(g),
        )
    return "total Chern relation (g<=8) and top-lambda square (g<=10) vanish"


# -- 4. NL constant vs its displayed specializations -------------------------


def check_nl_specializations() -> str:
    _demand(
        "projection of the type-(2) cycle at g=2 from the printed display",
        nl.taut_nl_d_special(2, 2),
        ring.TautClass.monomial(2, (1,), 60),
    )
    checked = 0
    for g in range(2, 9):
        for d in range(1, 61):
            _demand(
                f"u=1 specialization at g={g}, d={d}",
                nl.taut_nl(g, (d,)),
                nl.taut_nl_d_special(g, d),
            )
            checked += 1
    for g in range(4, 9):
        for d2 in range(1, 13):
            for d1 in divisors(d2):
                _demand(
                    f"u=2 specialization at g={g}, (d1,d2)=({d1},{d2})",
                    nl.taut_nl(g, (d1, d2)),
                    nl.taut_nl_pair_special(g, d1, d2),
                )
                checked += 1
    return f"general constant equals both displayed specializations ({checked} cases)"


# -- 5. Eisenstein identity ----------------------------------------------------


def check_eisenstein_identity() -> str:
    order = 50
    for g in range(2, 9):
        series = nl.eisenstein_series(g, order)
        scale = Fraction((-1) ** g, 24)
        for d in range(0, order + 1):
            _demand(
                f"series coefficient vs tilde projection at g={g}, d={d}",
                scale * series.coefficient(d),
                nl.taut_nl_tilde(g, d).coefficient((g - 1,)),
            )
    sigma_1 = sigma_table(1, 10000)
    checked = sum(_check_convolution_identity(g, sigma_1) for g in range(2, 11))
    return f"series matches tilde projections (g<=8, d<=50); convolution identity on {checked} cases"


def _check_convolution_identity(g: int, sigma_1: List[int]) -> int:
    """d (sigma_{-1} * J_{2g-2})(d) = sigma_{2g-1}(d) for d up to len(sigma_1),
    evaluated on int: the convolution is equal term by term to
    (sigma_1 * n J_{2g-2}(n))(d), because d sigma_{-1}(m) J(d/m) = sigma_1(m)
    (d/m) J(d/m).  Returns the number of d checked.  One genus per call, so
    none of its tables is held beside the next genus's, and the weighted
    table is dropped before the expected one is built (peak memory)."""
    N = len(sigma_1)
    weighted = [n * t for n, t in enumerate(jacobi_totient_table(2 * g - 2, N), 1)]
    convolution = dirichlet_convolve(sigma_1, weighted)
    del weighted
    if convolution != sigma_table(2 * g - 1, N):
        expected = sigma_table(2 * g - 1, N)
        d = next(d for d, (a, b) in enumerate(zip(convolution, expected), 1) if a != b)
        _demand(f"convolution identity at g={g}, d={d}", convolution[d - 1], expected[d - 1])
    return N


# -- 6. isogeny degrees ---------------------------------------------------------


def check_isogeny_degrees() -> str:
    for g in range(1, 6):
        for d in range(1, 13):
            for h in range(1, g + 1):
                _demand(
                    f"special vs general at g={g}, k={g - h}, h={h}, d={d}",
                    degrees.deg_phi_special(g, h, d),
                    degrees.deg_phi(g, (1,) * (g - h) + (d,) * h),
                )
    for g in range(1, 5):
        for p in (2, 3):
            for chain in combinations_with_replacement(range(4), g):
                delta = tuple(p**v for v in chain)
                _demand(
                    f"stratified vs closed form at g={g}, p={p}, delta={delta}",
                    degrees.deg_phi_stratified(g, delta, p),
                    degrees.deg_phi(g, delta),
                )
    for g, delta in ((2, (2, 6)), (2, (1, 6)), (3, (2, 12)), (3, (1, 30)), (4, (6, 6))):
        _demand(
            f"prime-by-prime stratified product at g={g}, delta={delta}",
            degrees.deg_phi_crt(g, delta),
            degrees.deg_phi(g, delta),
        )
    rng = random.Random(414213)
    for trial in range(200):
        g = rng.randint(1, 6)
        exponents = tuple(sorted(rng.randint(0, 4) for _ in range(g)))
        _demand(
            f"stratum exponent bookkeeping #{trial} for shape {exponents} at g={g}",
            sum(degrees.stratum_size(exponents, i) for i in range(1, 2 * exponents[-1] + 1)),
            (2 * g + 1) * sum(exponents),
        )
    for g in range(1, 6):
        for h in range(1, g + 1):
            _demand(
                f"first-stratum count at g={g}, h={h}",
                degrees.stratum_size((0,) * (g - h) + (1,) * h, 1),
                2 * g * h - h * (h - 1) // 2,
            )
    expected = {2: 6, 3: 24, 4: 48, 5: 120, 6: 144}
    for d, value in expected.items():
        result = degrees.oracle_index(d)
        _demand(f"enumeration oracle at d={d}", result, value)
        _demand(f"oracle vs closed form at d={d}", result, degrees.deg_phi(1, (d,)))
    for g in range(1, 6):
        for h in range(1, g + 1):
            for p in (2, 3, 5):
                degrees.isotropic_tuple_count(g, h, p)  # asserts both expressions
    for p in (2, 3, 5, 7):
        _demand(
            f"level cover degree vs symplectic group order at p={p}",
            degrees.deg_pi(1, (p,)),
            degrees.sp_order_prime(1, p),
        )
    return "special/general, stratified, oracle, isotropic counts and pi degrees agree"


# -- 7. Gromov-Witten consistency chain ----------------------------------------


def check_gw_consistency() -> str:
    _demand(
        "triple Hodge integral at g=2",
        gw.triple_hodge_integral(2),
        Fraction(1, 5760),
    )
    for g in range(2, 11):
        supplied = (2 * g - 2) * gw.triple_hodge_integral(g)
        for d in range(1, 51):
            _demand(
                f"predictor reproduces the printed invariant at g={g}, d={d}",
                gw.conjecture_prediction(g, d, 1, supplied),
                gw.gw_tau1_lambda(g, d),
            )
    return "predictor chain closes exactly for 2<=g<=10, d<=50"


# -- 8. projection calculus ------------------------------------------------------


def check_projection_calculus() -> str:
    for g in range(2, 9):
        symbols = ["NL(2)", "NLt(1)", "NLt(0)", "P(1)"]
        if g >= 4:
            symbols += ["NL(1,2)", "P(2)"]
        for s1 in symbols:
            for s2 in symbols:
                _demand(
                    f"projection of product {s1} * {s2} at g={g}",
                    nl.taut_projection(g, f"{s1} * {s2}"),
                    ring.TautClass.zero(g),
                )
        lam = ring.TautClass.monomial(g, (g - 1,))
        for d in range(1, 7):
            _demand(
                f"top lambda kills the u=1 projection at g={g}, d={d}",
                ring.multiply(nl.taut_nl_d_special(g, d), lam),
                ring.TautClass.zero(g),
            )
    return "projections of pairwise products vanish, and lambda_{g-1} kills the u=1 projection (g<=8)"


# -- 9. triangular basis change ---------------------------------------------------


def check_basis_change() -> str:
    D = 100
    forward = nl.tilde_to_plain(D)
    backward = nl.plain_to_tilde(D)
    _demand(
        f"transform roundtrip at D={D}",
        mat_mul(backward, forward),
        identity(D),
    )
    _demand(
        f"reverse roundtrip at D={D}",
        mat_mul(forward, backward),
        identity(D),
    )
    return "tilde/plain transforms are exact inverses up to D=100"


CHECKS: Dict[str, Callable[[], str]] = {
    "ring-normal-form": check_ring_normal_form,
    "perfect-pairing": check_perfect_pairing,
    "mumford-relation": check_mumford_relation,
    "nl-specializations": check_nl_specializations,
    "eisenstein-identity": check_eisenstein_identity,
    "isogeny-degrees": check_isogeny_degrees,
    "gw-consistency": check_gw_consistency,
    "projection-calculus": check_projection_calculus,
    "basis-change": check_basis_change,
}


def run_suites(names: Optional[List[str]] = None, stream=None) -> bool:
    """Run the named suites (all by default); print one line per suite.

    Returns True when everything passed.  The first failure stops the run
    after printing both sides of the violated identity, or the type and
    message of the AssertionError or RuntimeError a library self-check raised.
    """
    stream = stream if stream is not None else sys.stdout
    names = list(CHECKS) if names is None else names
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}")
    for name in names:
        try:
            summary = CHECKS[name]()
        except VerificationFailure as failure:
            print(f"FAIL {name}: {failure.context}", file=stream)
            print(f"  lhs = {failure.lhs}", file=stream)
            print(f"  rhs = {failure.rhs}", file=stream)
            return False
        except (AssertionError, RuntimeError) as error:
            print(f"FAIL {name}: {type(error).__name__}: {error}", file=stream)
            return False
        print(f"PASS {name}: {summary}", file=stream)
    return True
