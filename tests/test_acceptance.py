"""Acceptance suite: every headline identity at its full advertised range.

Each test runs one verification suite from agtaut.verify exactly (no
tolerances anywhere; all comparisons are exact rational equality), prints
a PASS line with the suite's summary and demands that summary verbatim, so
a change to `agtaut verify --all` output fails here.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines; the whole file
takes well under ten minutes (about half a minute on a laptop).
"""

import pytest

from agtaut.verify import CHECKS

CRITERIA = [
    # 1. rewriting normal form equals the localization oracle:
    #    exhaustively for g <= 5, on 200 random polynomials for g = 6
    ("ring-normal-form", 1,
     "rewriting equals oracle on 349 inputs (g<=5 exhaustive, g=6 random)"),
    # 2. pairing matrices certified +-1 unitriangular for g <= 9, full rank
    #    by elimination for g <= 6; graded dimension symmetry g <= 10
    ("perfect-pairing", 2,
     "128 pairing matrices certified +-1 unitriangular up to the complement "
     "permutation (g<=9), full rank by elimination (g<=6); dimensions symmetric (g<=10)"),
    # 3. total Chern relation vanishes (g <= 8); top lambda squares to 0 (g <= 10)
    ("mumford-relation", 3,
     "total Chern relation (g<=8) and top-lambda square (g<=10) vanish"),
    # 4. the general projection constant equals both displayed specializations,
    #    u=1 for g <= 8, d <= 60 and u=2 for 4 <= g <= 8, chains up to 12,
    #    including the printed 60 * L(1) value at (g, d) = (2, 2)
    ("nl-specializations", 4,
     "general constant equals both displayed specializations (595 cases)"),
    # 5. Eisenstein identity for g <= 8, d <= 50 including the d = 0 convention,
    #    cross-checked by the convolution identity for g <= 10, d <= 10^4
    ("eisenstein-identity", 5,
     "series matches tilde projections (g<=8, d<=50); convolution identity on 90000 cases"),
    # 6. degree formulas: special vs general, stratified vs closed form, the
    #    stratum-exponent bookkeeping, the enumeration oracle (d in 2..6 with
    #    expected values 6, 24, 48, 120, 144), isotropic tuple counts, and
    #    the level-cover degrees against symplectic group orders
    ("isogeny-degrees", 6,
     "special/general, stratified, oracle, isotropic counts and pi degrees agree"),
    # 7. the predictor with the derived triple Hodge integral reproduces the
    #    printed invariant for 2 <= g <= 10, d <= 50; the g = 2 integral is 1/5760
    ("gw-consistency", 7,
     "predictor chain closes exactly for 2<=g<=10, d<=50"),
    # 8. projections of pairwise NL products, each the ring product of the
    #    individual projections, vanish, and lambda_{g-1} kills the u = 1
    #    projection, for g <= 8
    ("projection-calculus", 8,
     "projections of pairwise products vanish, and lambda_{g-1} kills the u=1 projection (g<=8)"),
    # 9. tilde/plain basis transforms are exact inverses up to D = 100
    ("basis-change", 9,
     "tilde/plain transforms are exact inverses up to D=100"),
]


@pytest.mark.parametrize("name,number,expected", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(name, number, expected):
    summary = CHECKS[name]()
    print(f"PASS criterion {number} [{name}]: {summary}")
    assert summary == expected
