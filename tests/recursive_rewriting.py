"""Recursive rewriting, kept as the reference for ring._reduce_monomial.

This is the normal form the library computed before the forward sweep: it
eliminates the squared factor of smallest index and recurses on each
rewritten monomial, memoizing every intermediate state.  The normal form is
unique, so the tests compare the two exactly.  Its depth grows with the
number of rewrites; lambda_1^top at g = 15 exceeds the default recursion
limit.
"""

from functools import lru_cache
from typing import Tuple

from agtaut.ring import ExponentVector, IndexTuple, _collect


@lru_cache(maxsize=None)
def _reduce_monomial(g: int, exps: ExponentVector) -> Tuple[Tuple[IndexTuple, int], ...]:
    """Normal form of a single monomial, as ((indices, int coeff), ...).

    Deletes lambda_g, then eliminates the squared factor of smallest index.
    Recursion terminates: a rewrite replaces the pair (k, k) by (k-m, k+m),
    raising the sum of squared indices by 2m^2 > 0, and that sum is bounded
    at fixed weight.
    """
    if exps[g - 1] > 0:
        return ()
    square_index = 0
    for i in range(g - 1):
        if exps[i] >= 2:
            square_index = i + 1
            break
    if square_index == 0:
        indices = tuple(i + 1 for i in range(g - 1) if exps[i])
        return ((indices, 1),)
    k = square_index
    # The recursive call stays in this frame, not in a generator, so each
    # rewrite costs one level of the interpreter's recursion limit.
    rewritten = []
    for m in range(1, min(k, g - 1 - k) + 1):
        child = list(exps)
        child[k - 1] -= 2
        child[k + m - 1] += 1
        if k - m >= 1:
            child[k - m - 1] += 1
        rewritten.append((2 * (-1) ** (m + 1), _reduce_monomial(g, tuple(child))))
    collected = _collect(
        (indices, coeff * c) for coeff, normal_form in rewritten for indices, c in normal_form
    )
    return tuple(sorted((i, c) for i, c in collected.items() if c))
