"""Depth-first enumeration of basis sets, kept as the reference for
ring.basis_sets.

This is the enumeration the library ran before basis sets were shared
across degrees: for each (g, k) it walks the increasing tuples of
{1, ..., g-1} from the smallest element up, stopping when the next element
exceeds what is left of k.  Sorted, the two must agree exactly.
"""

from typing import List, Tuple

from agtaut.ring import IndexTuple


def basis_sets(g: int, k: int) -> Tuple[IndexTuple, ...]:
    """Degree-k basis index sets of genus g, sorted."""
    found: List[IndexTuple] = []

    def build(start: int, remaining: int, acc: Tuple[int, ...]) -> None:
        if remaining == 0:
            found.append(acc)
            return
        for i in range(start, g):
            if i > remaining:
                break
            build(i + 1, remaining - i, acc + (i,))

    build(1, k, ())
    return tuple(sorted(found))
