"""Enumerations of SL_2(Z/N) and Sp_4(F_2), the references for
degrees.sp_order and degrees.sp_order_prime.

The library computes symplectic group orders from the product formula;
these count the matrices one by one (genus 1 over Z/N, genus 2 over F_2),
so the tests can compare the two exactly.  degrees.oracle_index counts
SL_2(Z/d^2) by its own enumeration, sum_s P(s) P(s - 1) over the products
x*y = s; sl2_order_enumerated is the 4-tuple loop that it replaced.
"""

from typing import List, Tuple


def sl2_order_enumerated(N: int) -> int:
    """|SL_2(Z/N)| by exhausting 4-tuples: for each (a, b, c) the entries w
    with a*w - b*c = 1 are counted off a tabulation of a*w mod N."""
    count = 0
    for a in range(N):
        hits = [0] * N
        for w in range(N):
            hits[(a * w) % N] += 1
        for b in range(N):
            for c in range(N):
                count += hits[(1 + b * c) % N]
    return count


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
