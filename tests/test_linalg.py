import copy
import random
from fractions import Fraction

import pytest

import dense_elimination
import ideal_slice_elimination
from agtaut import ring
from agtaut.linalg import identity, invert, is_nonsingular, mat_mul, rref


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_and_rank():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert len(rref(m)[1]) == 2
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


def mat_mul_by_triple_sum(a, b):
    """The definition: entry (i, j) is sum_k a[i][k] b[k][j]."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def test_mat_mul_matches_triple_sum():
    rng = random.Random(1729)

    def entry(kind):
        x = rng.choice((0, 0, 0, 0, 0, 1, -1, 2, -3, 7))
        if kind == "mixed" and rng.random() < 0.5:
            return Fraction(x, rng.choice((1, 2, 3, 5)))
        return x

    for kind in ("int", "mixed"):
        for rows, inner, cols in ((1, 1, 1), (1, 6, 1), (6, 1, 6), (3, 7, 5), (8, 4, 9), (12, 12, 12)):
            for _ in range(10):
                a = [[entry(kind) for _ in range(inner)] for _ in range(rows)]
                b = [[entry(kind) for _ in range(cols)] for _ in range(inner)]
                product = mat_mul(a, b)
                assert product == mat_mul_by_triple_sum(a, b), (a, b)
                assert exact_entries(product)
                if kind == "int":
                    assert all(type(x) is int for row in product for x in row)
    assert mat_mul([[0, 0], [0, 0]], [[1, 2], [3, 4]]) == [[0, 0], [0, 0]]
    assert mat_mul([], [[1, 2]]) == []


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


def test_rref_rejects_ragged_rows():
    # The column count used to come from the first row alone, so
    # the rank of [[1], [2, 3]] was 1 and rref dropped the 3.
    with pytest.raises(ValueError):
        len(rref([[1], [2, 3]])[1])
    with pytest.raises(ValueError):
        rref([[1, 2], [3]])
    assert rref([]) == ([], [])
    assert rref([[], []]) == ([[], []], [])


def assert_rref_matches_dense(rows):
    before = copy.deepcopy(rows)
    assert rref(rows) == dense_elimination.rref(rows), rows
    assert rows == before


def test_rref_matches_dense_reference():
    for rows in dense_elimination.seeded_matrices() + [[], [[]], [[0, 0], [0, 0]]]:
        assert_rref_matches_dense(rows)


def test_rref_matches_dense_reference_on_ideal_slices(monkeypatch):
    slices = []

    def recording_rref(rows):
        slices.append(rows)
        return rref(rows)

    monkeypatch.setattr(ideal_slice_elimination, "rref", recording_rref)
    genera = range(1, 7)
    for g in genera:
        for w in range(ring.top_degree(g) + 1):
            ideal_slice_elimination._ideal_slice_rref.__wrapped__(g, w)
    assert len(slices) == sum(ring.top_degree(g) + 1 for g in genera)
    for rows in slices:
        assert_rref_matches_dense(rows)


def test_unit_pivots_stay_on_int():
    # Fraction(1, -1) used to turn every entry of this inverse into a Fraction.
    inv = invert([[0, -1], [1, 0]])
    assert inv == [[0, 1], [-1, 0]]
    assert all(type(x) is int for row in inv for x in row)
    # Column 0 pivots on the -1 below the 2, so no entry becomes a Fraction.
    reduced, pivots = rref([[2, 1, 0], [-1, 0, 1], [0, 1, 1]])
    assert (reduced, pivots) == (identity(3), [0, 1, 2])
    assert all(type(x) is int for row in reduced for x in row)
