"""Gromov-Witten side: the sigma-weighted predictor and its consistency chain.

The predictor states that the degree-d invariant with one psi-power
insertion and a Hodge-class insertion divisible by the top lambda class is

    (g sigma_{2g-1}(d) / (6 |B_2g|)) * (Hodge integral on the moduli of
                                        1-pointed genus-g curves).

The one printed case (psi^1 against lambda_g lambda_{g-2}) equals

    |B_{2g-2}| / (24 (2g-2)!) * sigma_{2g-1}(d),

and matching the two determines the triple Hodge integral

    int lambda_{g-2} lambda_{g-1} lambda_g
        = |B_2g| |B_{2g-2}| / (4g (2g-2) (2g-2)!).

General Hodge/psi integrals are caller-supplied: this module does not
compute intersection numbers on the moduli of curves.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .arith import abs_bernoulli, as_int, as_rational, sigma


def gw_tau1_lambda(g: int, d: int) -> Fraction:
    """Degree-d invariant with psi^1 against lambda_g lambda_{g-2}:
    |B_{2g-2}| / (24 (2g-2)!) * sigma_{2g-1}(d)."""
    g, d = as_int(g), as_int(d)
    if g < 2 or d < 1:
        raise ValueError(f"requires g >= 2 and d >= 1, got ({g}, {d})")
    return abs_bernoulli(2 * g - 2) / (24 * factorial(2 * g - 2)) * sigma(2 * g - 1, d)


def triple_hodge_integral(g: int) -> Fraction:
    """int lambda_{g-2} lambda_{g-1} lambda_g on the moduli of genus-g curves.

    Solved out of the equality between the predictor at i = 1 (with the
    1/(2g-2) psi-insertion factor) and the printed invariant:
    |B_2g| |B_{2g-2}| / (4g (2g-2) (2g-2)!).
    """
    if as_int(g) < 2:
        raise ValueError(f"requires g >= 2, got {g}")
    return (
        abs_bernoulli(2 * g)
        * abs_bernoulli(2 * g - 2)
        / (4 * g * (2 * g - 2) * factorial(2 * g - 2))
    )


def conjecture_prediction(g: int, d: int, i: int, psi_lambda_integral) -> Fraction:
    """Predictor value (g sigma_{2g-1}(d) / (6 |B_2g|)) * supplied integral.

    The Hodge/psi integral over the 1-pointed moduli space is an input; this
    package computes it only in the lambda_g lambda_{g-2} case via
    triple_hodge_integral (the psi insertion contributes a factor 2g-2).
    """
    g, d, i = as_int(g), as_int(d), as_int(i)
    if g < 2 or d < 1 or i < 0:
        raise ValueError(f"requires g >= 2, d >= 1, i >= 0, got ({g}, {d}, {i})")
    return (
        Fraction(g)
        * sigma(2 * g - 1, d)
        / (6 * abs_bernoulli(2 * g))
        * as_rational(psi_lambda_integral)
    )
