from fractions import Fraction

import pytest

from agtaut.linalg import identity, invert, is_nonsingular, mat_mul, rank, rref


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_and_rank():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2
    assert reduced[0] == [Fraction(1), Fraction(0), Fraction(1)]


def test_invert_roundtrip():
    m = frac_matrix([[2, 1, 0], [1, 1, 1], [0, 3, 1]])
    inv = invert(m)
    assert mat_mul(m, inv) == identity(3)
    assert mat_mul(inv, m) == identity(3)


def test_invert_rejects_singular():
    with pytest.raises(ValueError):
        invert(frac_matrix([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        invert(frac_matrix([[1, 2, 3], [4, 5, 6]]))


def test_nonsingular():
    assert is_nonsingular(frac_matrix([[0, 1], [1, 4]]))
    assert not is_nonsingular(frac_matrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        is_nonsingular(frac_matrix([[1, 2, 3]]))


def test_mat_mul_rejects_mismatched_shapes():
    # python -O strips assert statements, so the shape check must raise.
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 2]])
    with pytest.raises(ValueError):
        mat_mul([[1]], [])
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1], [2, 3]])  # ragged right factor
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]


def exact_entries(matrix):
    return all(isinstance(x, (int, Fraction)) for row in matrix for x in row)


def test_elimination_stays_exact_on_int_fraction_and_mixed_input():
    # Dividing by an int pivot used to produce floats:
    # invert([[2, 1], [1, 1]]) came back as [[1.0, -1.0], [-1.0, 2.0]].
    ints = [[2, 1, 0], [1, 1, 1], [0, 3, 1]]
    mixed = [[2, Fraction(1), 0], [Fraction(1), 1, Fraction(1)], [0, 3, Fraction(1)]]
    expected = [
        [Fraction(2, 5), Fraction(1, 5), Fraction(-1, 5)],
        [Fraction(1, 5), Fraction(-2, 5), Fraction(2, 5)],
        [Fraction(-3, 5), Fraction(6, 5), Fraction(-1, 5)],
    ]
    for m in (ints, frac_matrix(ints), mixed):
        inv = invert(m)
        assert inv == expected
        product = mat_mul(m, inv)
        assert product == identity(3)
        reduced, pivots = rref([row + [7] for row in m])
        assert pivots == [0, 1, 2]
        assert [row[3] for row in reduced] == [Fraction(14, 5), Fraction(7, 5), Fraction(14, 5)]
        for matrix in (inv, product, reduced):
            assert exact_entries(matrix)
    small = invert([[2, 1], [1, 1]])
    assert small == [[1, -1], [-1, 2]] and exact_entries(small)
