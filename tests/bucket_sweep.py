"""The q-bucket sweep, kept as the reference for ring._reduce_monomial.

This is the forward sweep the library ran before its pending monomials
moved into a level-indexed list: pending monomials wait in dicts keyed by
q = sum of i^2 e_i, each rewrite carries its own signed coefficient, and
every rewrite of a square is taken, so monomials holding lambda_{g-1}^2
are swept too (they have no rewrites and vanish).  It builds its own
rewrites from ring.relation.  The normal form is unique, so the tests
compare the two exactly.
"""

from functools import lru_cache
from typing import Tuple

from agtaut.ring import (
    ExponentVector,
    IndexTuple,
    _exponents,
    _pack,
    _q,
    _weight,
    relation,
    top_degree,
)


@lru_cache(maxsize=None)
def _layout(g: int):
    """Digit width w, the mask of every digit bit but the lowest, and per
    square index k the (delta, dq, sign) of each term of relation(k, g)
    other than lambda_k^2."""
    w = max(2, top_degree(g).bit_length())
    rules = []
    for k in range(1, g):
        square = _exponents(g, (k, k))
        rules.append(
            tuple(
                (_pack(w, exps) - _pack(w, square), _q(exps) - _q(square), -int(coeff))
                for exps, coeff in relation(k, g).terms.items()
                if exps != square
            )
        )
    return w, _pack(w, [(1 << w) - 2] * (g - 1)), rules


def reduce_monomial(g: int, exps: ExponentVector) -> Tuple[Tuple[IndexTuple, int], ...]:
    """Normal form of a single monomial, as ((indices, int coeff), ...).

    The buckets are popped in increasing q, in steps of 2; a popped
    monomial with a squared factor is rewritten largest square index first,
    and rewriting lambda_k^2 to lambda_{k-m} lambda_{k+m} raises q by 2m^2.
    """
    if exps[g - 1] > 0 or _weight(exps) > top_degree(g):
        return ()
    w, high, rules = _layout(g)
    q = _q(exps)
    pending = {q: {_pack(w, exps): 1}}
    survivors = []
    while pending:
        for mono, coeff in pending.pop(q, {}).items():
            if not coeff:
                continue
            squares = mono & high
            if not squares:
                indices = tuple(i + 1 for i in range(g - 1) if mono >> (w * i) & 1)
                survivors.append((indices, coeff))
                continue
            for delta, dq, sign in rules[(squares.bit_length() - 1) // w]:
                bucket = pending.setdefault(q + dq, {})
                child = mono + delta
                bucket[child] = bucket.get(child, 0) + sign * coeff
        q += 2
    return tuple(sorted(survivors))
