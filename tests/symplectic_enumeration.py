"""Enumeration of Sp_4(F_2), kept as the reference for degrees.sp_order_prime.

The library computes |Sp_2g(F_p)| from the product formula; this counts the
matrices preserving the symplectic form over F_2 in genus 2 one by one, so
the tests can compare the two exactly.
"""

from typing import List, Tuple


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
