"""The two-pass level valuation, kept as the reference for
ring._pairing_values.

This is the walk that filled the genus's table of socle values before it
became one post-order walk: a first pass collects the monomials not valued
yet, and the rewrites they reach, in a list of sets indexed by level
(q - q_0)/2, q_0 the least q among them, expanded in order and grown as
rewrites reach deeper levels; a second pass, in reverse, values each
monomial after its rewrites.  It reads the ring's packed layout and
rewrites but keeps its own table of values, one dict per genus, so the
tests compare two tables filled by two walks.
"""

from functools import lru_cache
from itertools import chain
from typing import List

from agtaut.ring import _read_rewrites, _rewrite_table, basis_sets, top_degree


@lru_cache(maxsize=None)
def _values(g: int) -> dict:
    """Socle values of packed top-weight monomials of genus g, filled by
    pairing_values and shared by every degree."""
    return {}


def _packed_basis(g: int, k: int) -> List[tuple]:
    """(packed int, q) of each degree-k basis set, in basis_sets order."""
    w = _rewrite_table(g)[0]
    return [(sum(1 << w * (i - 1) for i in s), sum(i * i for i in s)) for s in basis_sets(g, k)]


def pairing_values(g: int, k: int) -> List[List[int]]:
    """Socle values of lambda_S lambda_T, S of degree k and T of the
    complementary degree.

    The first pass collects the unvalued monomials level by level; a
    monomial that holds lambda_{g-1} takes the pruned rewrites, since a
    child with lambda_{g-1}^2 is 0.  The second pass, in reverse, gives a
    square-free monomial 1 and any other 2 * (sum of its plus children's
    values - the same over its minus children), so lambda_{g-1}^2, which
    has no rewrites, gets 0.
    """
    w, rules, high, last, _ = _rewrite_table(g)
    table = _values(g)
    rows, cols = _packed_basis(g, k), _packed_basis(g, top_degree(g) - k)
    fresh = {r + c: qr + qc for r, qr in rows for c, qc in cols if r + c not in table}
    if fresh:
        q0 = min(fresh.values())
        levels = [set() for _ in range((max(fresh.values()) - q0) // 2 + 1)]
        for mono, q in fresh.items():
            levels[(q - q0) // 2].add(mono)
        order = []
        for level, pending in enumerate(levels):
            levels[level] = None  # collected: order holds its states now
            for mono in pending:
                squares = mono & high
                if not squares:
                    order.append((mono, None, None))
                    continue
                rule = rules[squares.bit_length()] or _read_rewrites(g, w, rules, squares)
                plus, minus, reach = rule[mono >= last]
                if level + reach >= len(levels):
                    levels += [set() for _ in range(level + reach + 1 - len(levels))]
                order.append((mono, plus, minus))
                for delta, step in chain(plus, minus):
                    if mono + delta not in table:
                        levels[level + step].add(mono + delta)
        for mono, plus, minus in reversed(order):
            if plus is None:
                table[mono] = 1
                continue
            value = 0
            for delta, _ in plus:
                value += table[mono + delta]
            for delta, _ in minus:
                value -= table[mono + delta]
            table[mono] = 2 * value
    return [[table[r + c] for c, _ in cols] for r, _ in rows]


def clear() -> None:
    """Empty every genus's table of values."""
    _values.cache_clear()
