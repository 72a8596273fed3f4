import json
import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

import bucket_sweep
import ideal_slice_elimination
import level_valuation
import recursive_basis_sets
import recursive_rewriting
from agtaut import ring
from agtaut.linalg import is_nonsingular
from agtaut.ring import (
    LambdaPolynomial,
    PairingMatrix,
    TautClass,
    _exponents,
    _reduce_monomial,
    _weight,
    basis_sets,
    graded_dimension,
    monomials_of_weight,
    multiply,
    oracle_reduce,
    pairing_matrix,
    reduce,
    relation,
    socle_pair,
    top_degree,
    total_chern,
    total_chern_dual,
)


def mono(g, indices, coeff=1):
    return LambdaPolynomial.monomial(g, indices, coeff)


def taut(g, indices, coeff=1):
    return TautClass.monomial(g, indices, coeff)


# -- relations ---------------------------------------------------------------


def test_relation_examples():
    assert relation(1, 3) == mono(3, (1, 1)) - 2 * mono(3, (2,))
    assert relation(1, 2) == mono(2, (1, 1))
    assert relation(2, 4) == mono(4, (2, 2)) - 2 * mono(4, (1, 3))
    # next cross term flips sign: L3^2 -> 2 L2 L4 - 2 L1 L5 in genus 6
    assert relation(3, 6) == mono(6, (3, 3)) - 2 * mono(6, (2, 4)) + 2 * mono(6, (1, 5))


def test_relation_range_errors():
    with pytest.raises(ValueError):
        relation(0, 3)
    with pytest.raises(ValueError):
        relation(3, 3)


def test_relation_is_chern_product_part():
    # The weight-2k slice of c(E) c(E^v) - 1, with lambda_g terms deleted,
    # is (-1)^k relation(k).
    for g in range(2, 7):
        product = total_chern(g) * total_chern_dual(g) - LambdaPolynomial.one(g)
        for k in range(1, g):
            trimmed = LambdaPolynomial(
                g,
                {
                    e: c
                    for e, c in product.terms.items()
                    if _weight(e) == 2 * k and e[g - 1] == 0
                },
            )
            assert trimmed == (-1) ** k * relation(k, g), (g, k)


# -- rewriting ----------------------------------------------------------------


def test_reduce_examples():
    assert reduce(mono(2, (1, 1))) == TautClass.zero(2)
    assert reduce(mono(3, (1, 1))) == taut(3, (2,), 2)
    assert reduce(mono(3, (1, 1, 1))) == taut(3, (1, 2), 2)
    assert reduce(mono(4, (1, 1, 2))) == taut(4, (1, 3), 4)


def test_reduce_kills_lambda_g():
    assert reduce(mono(3, (3,))) == TautClass.zero(3)
    assert reduce(mono(4, (4, 1, 2))) == TautClass.zero(4)


def test_reduce_is_linear():
    p = 3 * mono(4, (1, 1)) - mono(4, (2,), Fraction(1, 2))
    assert reduce(p) == 3 * reduce(mono(4, (1, 1))) - Fraction(1, 2) * reduce(mono(4, (2,)))


def test_reduce_beyond_socle_degree_vanishes():
    for g in range(2, 6):
        top = top_degree(g)
        for w in range(top + 1, top + 4):
            for exps in monomials_of_weight(g, w):
                assert reduce(LambdaPolynomial(g, {exps: Fraction(1)})).is_zero()


# -- ring structure -----------------------------------------------------------


def test_multiply_examples():
    one = TautClass.one(4)
    x = taut(4, (1, 2), Fraction(5, 7))
    assert multiply(one, x) == x
    for g in range(2, 11):
        lam = taut(g, (g - 1,))
        assert multiply(lam, lam).is_zero()
    assert multiply(taut(4, (1,)), taut(4, (1, 2))) == taut(4, (1, 3), 4)


def test_multiply_operator_and_scalars():
    a = taut(3, (1,))
    assert a * a == taut(3, (2,), 2)
    assert 3 * a == taut(3, (1,), 3)
    assert a * Fraction(1, 2) == taut(3, (1,), Fraction(1, 2))


def test_multiply_genus_mismatch():
    with pytest.raises(ValueError):
        multiply(TautClass.one(3), TautClass.one(4))


def test_mixed_type_sums_are_type_errors():
    # An int or the other ring representation is neither added nor
    # subtracted: each raises TypeError, not an error about its indices.
    a, poly = taut(2, (1,)), mono(2, (1,))
    for x, y in ((a, 1), (a, 0), (1, a), (a, poly), (poly, a), (poly, 1)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y


def test_multiply_commutative_associative_random():
    rng = random.Random(17)

    def random_class(g):
        sets = [s for w in range(top_degree(g) + 1) for s in basis_sets(g, w)]
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.choice(sets)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return TautClass(g, terms)

    for g in (3, 4, 5, 6):
        for _ in range(8):
            a, b, c = random_class(g), random_class(g), random_class(g)
            assert multiply(a, b) == multiply(b, a)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_lambda_polynomial_rejects_bad_generators():
    with pytest.raises(ValueError):
        LambdaPolynomial.monomial(3, (4,))
    with pytest.raises(ValueError):
        LambdaPolynomial.monomial(3, (0,))
    with pytest.raises(ValueError):
        LambdaPolynomial.monomial(3, (5,))


def test_ring_rejects_float_coefficients():
    with pytest.raises(TypeError):
        TautClass.monomial(3, (1,), 0.5)
    with pytest.raises(TypeError):
        LambdaPolynomial(3, {(1, 0, 0): 0.1})
    with pytest.raises(TypeError):
        0.5 * taut(3, (1,))
    with pytest.raises(TypeError):
        TautClass.monomial(3, (1,), True)


def test_tautclass_validation():
    with pytest.raises(ValueError):
        TautClass(3, {(3,): Fraction(1)})  # index g is not a basis index
    with pytest.raises(ValueError):
        TautClass(3, {(2, 1): Fraction(1)})  # not strictly increasing
    for index in (True, 1.0):
        with pytest.raises(TypeError):
            TautClass.monomial(4, (index,))


def test_coefficient_checks_its_key():
    # coefficient([1.0]) and coefficient([True]) used to return the
    # coefficient of L(1), and coefficient((1, 1)) returned 0.
    t = TautClass(3, {(1,): 5})
    assert t.coefficient([1]) == 5 and t.coefficient((2,)) == 0
    assert t.coefficient(()) == 0 and t.coefficient([2, 1]) == 0
    for indices in ([1.0], [True], (1, 2.0)):
        with pytest.raises(TypeError):
            t.coefficient(indices)
    for indices in ((1, 1), (3,), (0,), (-1, 2)):
        with pytest.raises(ValueError):
            t.coefficient(indices)


def test_ring_classes_reject_a_non_int_genus():
    # TautClass(True, {(): 1}) used to build a class of genus True.
    for g in (True, 3.0):
        with pytest.raises(TypeError):
            TautClass(g, {(): 1})
        with pytest.raises(TypeError):
            LambdaPolynomial(g, {})
    # pairing_matrix(True, 0) used to build a matrix of genus True, and
    # graded_dimension(True, 0) used to return 1.
    for g, k in ((True, 0), (3.0, 0), (3, True), (3, 1.0)):
        with pytest.raises(TypeError):
            pairing_matrix(g, k)
        with pytest.raises(TypeError):
            graded_dimension(g, k)
    # basis_sets(3.0, 1) and basis_sets(2, True) used to return ((1,),),
    # relation(True, 3) the k = 1 relation, and relation(1.0, 3) failed
    # while indexing a list.
    for g, k in ((3.0, 1), (2, True), (True, 1), (3, 1.0)):
        with pytest.raises(TypeError):
            basis_sets(g, k)
    for k, g in ((True, 3), (1.0, 3), (1, True), (1, 3.0)):
        with pytest.raises(TypeError):
            relation(k, g)
    # monomials_of_weight(2.5, 1) used to recurse until RecursionError, and
    # (True, 0) could hit the cache entry of (1, 0).
    for g, w in ((2.5, 1), (True, 0), (3, True), (3, 1.0)):
        with pytest.raises(TypeError):
            monomials_of_weight(g, w)
    # the genus is checked before the degree
    with pytest.raises(ValueError, match="genus"):
        pairing_matrix(0, 5)


def test_lambda_polynomial_rejects_a_bool_exponent():
    # LambdaPolynomial(3, {(True, 0, 0): 1}) used to be accepted.
    with pytest.raises(TypeError):
        LambdaPolynomial(3, {(True, 0, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        LambdaPolynomial(3, {(-1, 0, 0): 1})


def test_lambda_polynomial_rejects_a_float_exponent():
    # reduce of a (1.0, 0, 0) key used to return 1 * L(1) after caching a
    # float key in _reduce_monomial.
    cached = _reduce_monomial.cache_info().currsize
    with pytest.raises(TypeError):
        reduce(LambdaPolynomial(3, {(1.0, 0, 0): 1}))
    assert _reduce_monomial.cache_info().currsize == cached
    assert reduce(LambdaPolynomial(3, {(1, 0, 0): 1})) == taut(3, (1,))


# -- graded dimensions and the pairing ----------------------------------------


def test_graded_dimension_examples():
    assert graded_dimension(4, 0) == 1
    assert graded_dimension(4, 3) == 2  # {3}, {1,2}
    for g in range(2, 11):
        assert graded_dimension(g, top_degree(g)) == 1
        assert graded_dimension(g, top_degree(g) + 1) == 0
    assert graded_dimension(5, 5) == 2  # {1,4}, {2,3}
    assert graded_dimension(6, 5) == 3  # {5}, {1,4}, {2,3}


def test_basis_sets_match_depth_first_enumeration():
    # a negative degree is refused (test_refusals.py); one above the socle
    # degree has no basis sets
    for g in range(1, 13):
        for k in range(top_degree(g) + 2):
            assert basis_sets(g, k) == recursive_basis_sets.basis_sets(g, k), (g, k)


def test_basis_sets_count_the_graded_dimension():
    for g in range(1, 15):
        for k in range(top_degree(g) + 1):
            assert len(basis_sets(g, k)) == graded_dimension(g, k), (g, k)


def test_basis_sets_stay_shallow_at_large_genus():
    # Small degrees recurse only as deep as the degree, and degrees near the
    # socle are complements of small ones, so neither end enumerates the
    # 2^(g-1) subsets of {1, ..., g-1}.
    ring._subsets.cache_clear()
    basis_sets.cache_clear()
    try:
        assert basis_sets(60, 4) == ((1, 3), (4,))
        assert ring._subsets.cache_info().currsize <= 25
        top = top_degree(2000)
        assert basis_sets(2000, top) == (tuple(range(1, 2000)),)
        assert basis_sets(2000, top - 1) == (tuple(range(2, 2000)),)
    finally:
        ring._subsets.cache_clear()
        basis_sets.cache_clear()


def test_socle_pair_examples():
    for g in range(2, 7):
        assert socle_pair(taut(g, tuple(range(1, g))), TautClass.one(g)) == 1
    assert socle_pair(taut(3, (1,)), taut(3, (2,))) == 1
    assert socle_pair(reduce(mono(3, (1, 1))), taut(3, (1,))) == 2
    # non-complementary degrees pair to zero
    assert socle_pair(taut(4, (1,)), taut(4, (2,))) == 0


def test_pairing_matrix_examples():
    m = pairing_matrix(2, 0)
    assert m.entries == [[Fraction(1)]]
    m = pairing_matrix(4, 3)
    assert len(m.rows) == 2 and m.is_nonsingular()
    m = pairing_matrix(5, 5)
    assert len(m.rows) == 2 and m.is_nonsingular()
    m = pairing_matrix(6, 5)
    assert m.rows == ((1, 4), (2, 3), (5,)) and m.is_nonsingular()
    with pytest.raises(ValueError):
        pairing_matrix(4, 7)
    with pytest.raises(ValueError):
        PairingMatrix(3, 1, ((1,),), ((2,),), [[1, 0]])  # entries not square


def test_pairing_matrix_genus_cap(monkeypatch):
    assert ring.PAIRING_GENUS_CAP == 15
    assert pairing_matrix(15, 0).entries == [[Fraction(1)]]

    def no_values(g, k):
        raise AssertionError(f"pairing values computed at g={g}, k={k}")

    monkeypatch.setattr(ring, "_pairing_values", no_values)
    with pytest.raises(ValueError, match="pairing matrix genus 16 exceeds cap 15"):
        pairing_matrix(16, 60)


def test_pairing_entries_equal_socle_pair():
    # pairing_matrix reads entries from the per-genus table of socle values;
    # socle_pair goes through TautClass products and normal forms.  Both
    # must give the same value, an int in the matrix.
    for g in range(1, 8):
        for k in range(top_degree(g) + 1):
            m = pairing_matrix(g, k)
            for s, row in zip(m.rows, m.entries):
                for t, x in zip(m.cols, row):
                    assert type(x) is int, (g, k, s, t)
                    assert x == socle_pair(taut(g, s), taut(g, t)), (g, k, s, t)


def _per_entry_pairing(g, k):
    socle = tuple(range(1, g))
    cols = basis_sets(g, top_degree(g) - k)
    return [
        [dict(_reduce_monomial(g, _exponents(g, s + t))).get(socle, 0) for t in cols]
        for s in basis_sets(g, k)
    ]


def test_pairing_matrix_equals_per_entry_normal_forms():
    # The per-entry normal forms pairing_matrix used to read are the oracle
    # for its table of socle values, g <= 11.  A second build, in scrambled
    # degree order from an empty table, must reuse states without changing
    # a value.
    degrees = [(g, k) for g in range(1, 12) for k in range(top_degree(g) + 1)]
    expected = {(g, k): _per_entry_pairing(g, k) for g, k in degrees}
    for scramble in (False, True):
        ring._rewrite_table.cache_clear()
        if scramble:
            random.Random(17).shuffle(degrees)
        for g, k in degrees:
            assert pairing_matrix(g, k).entries == expected[g, k], (g, k, scramble)


def test_pairing_matrix_equals_level_valuation():
    # The two-pass level valuation that the post-order walk replaced is the
    # reference for every (g, k) with g <= 13; CI checks g = 14 and 15.  It
    # keeps its own table of values, filled first.  The walk runs once
    # from an empty table and once, from another empty table, in scrambled
    # degree order, so each degree meets a different set of valued states.
    degrees = [(g, k) for g in range(1, 14) for k in range(top_degree(g) + 1)]
    level_valuation.clear()
    try:
        expected = {(g, k): level_valuation.pairing_values(g, k) for g, k in degrees}
    finally:
        level_valuation.clear()
    for scramble in (False, True):
        ring._rewrite_table.cache_clear()
        if scramble:
            random.Random(35).shuffle(degrees)
        for g, k in degrees:
            assert pairing_matrix(g, k).entries == expected[g, k], (g, k, scramble)


def test_cold_pairing_matrix_holds_no_level_lists():
    # The walk's memory is the table and a stack of states, with no level
    # list of sets and no list of every state in order beside them: the
    # level valuation peaks at 5.0 MiB, the walk at 3.1 MiB (Python 3.11).
    ring._rewrite_table.cache_clear()
    tracemalloc.start()
    try:
        pairing_matrix(13, 39)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_pairing_matrix_json():
    data = pairing_matrix(4, 3).to_json_dict()
    assert data["nonsingular"] is True
    assert data["rows"] == [[1, 2], [3]]
    assert all(isinstance(x, str) for row in data["entries"] for x in row)


def test_pairing_certificate_agrees_with_rank():
    for g in range(2, 10):
        for k in range(top_degree(g) + 1):
            m = pairing_matrix(g, k)
            assert m.is_nonsingular(), (g, k)
            assert is_nonsingular([list(row) for row in m.entries]), (g, k)


def test_every_pairing_matrix_up_to_genus_13_is_certified():
    # With CI's check of g = 13..15, this covers every matrix that
    # pairing_matrix builds (g <= PAIRING_GENUS_CAP), and the certificate
    # is all that is_nonsingular reads.
    for g in range(1, 14):
        for k in range(top_degree(g) + 1):
            m = pairing_matrix(g, k)
            assert m.is_nonsingular(), (g, k)


def _perturbed(m, row, col, value):
    entries = [list(r) for r in m.entries]
    entries[m.rows.index(row)][m.cols.index(col)] = Fraction(value)
    return PairingMatrix(m.g, m.k, m.rows, m.cols, entries)


def test_pairing_certificate_rejects_perturbed_matrices():
    m = pairing_matrix(7, 10)
    assert m.is_nonsingular()
    # Complement entry 2: no certificate, so is_nonsingular reads False,
    # though the determinant is +-2.
    doubled = _perturbed(m, (1, 2, 3, 4), (5, 6), 2)
    assert not doubled.is_nonsingular()
    assert is_nonsingular(doubled.entries)
    # Nonzero entry at T = (2,4,5) in row S = (4,6): q(T) = 45 >= q(S^c) = 39.
    assert not _perturbed(m, (4, 6), (2, 4, 5), 1).is_nonsingular()
    # A duplicated row, with or without its label, is singular.
    entries = [list(r) for r in m.entries]
    entries[1] = entries[0]
    for rows in (m.rows, (m.rows[0],) * 2 + m.rows[2:]):
        dup = PairingMatrix(m.g, m.k, rows, m.cols, entries)
        assert not dup.is_nonsingular()
        assert not is_nonsingular(dup.entries)


# -- oracle --------------------------------------------------------------------


def test_oracle_examples():
    assert oracle_reduce(mono(3, (1, 1))) == taut(3, (2,), 2)
    assert oracle_reduce(mono(4, (2, 3))) == taut(4, (2, 3))
    product = total_chern(4) * total_chern_dual(4)
    part = LambdaPolynomial(4, {e: c for e, c in product.terms.items() if _weight(e) == 4})
    assert oracle_reduce(part).is_zero()
    assert oracle_reduce(LambdaPolynomial.zero(4)) == TautClass.zero(4)


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        oracle_reduce(mono(9, (1,)))  # genus beyond the oracle cap
    with pytest.raises(ValueError):
        oracle_reduce(mono(3, (1,)) + mono(3, (1, 1)))  # inhomogeneous
    with pytest.raises(ValueError):
        oracle_reduce(mono(3, (2, 2)))  # weight beyond the socle degree


def _monomial_inputs(g, w):
    return [LambdaPolynomial(g, {exps: Fraction(1)}) for exps in monomials_of_weight(g, w)]


def test_oracle_agrees_with_rewriting_small_genus():
    # Every monomial of every weight for g <= 7, 20 seeded ones per weight at g = 8.
    rng = random.Random(8)
    for g in range(1, 9):
        for w in range(0, top_degree(g) + 1):
            inputs = _monomial_inputs(g, w)
            if g == 8:
                inputs = rng.sample(inputs, min(20, len(inputs)))
            for p in inputs:
                assert reduce(p) == oracle_reduce(p), (g, p)


def test_oracle_refuses_inconsistent_localization(monkeypatch):
    # Called unwrapped, so the oracle's caches never see the broken data.
    monkeypatch.setattr(PairingMatrix, "is_nonsingular", lambda self: False)
    with pytest.raises(RuntimeError, match="not certified"):
        ring._localized_pairing.__wrapped__(4, 2)
    monkeypatch.undo()
    points, lcm_d = ring._fixed_points(4)
    skewed = ((points[0][0], points[0][1] + 1),) + points[1:]
    monkeypatch.setattr(ring, "_fixed_points", lambda g: (skewed, lcm_d))
    with pytest.raises(RuntimeError, match="not divisible"):
        ring._localized_pairing.__wrapped__(4, 2)


def test_localization_matches_ideal_slice_elimination():
    # Three routes, exactly, on every monomial of every weight in the
    # elimination's own range.
    for g in range(1, ideal_slice_elimination.ORACLE_GENUS_CAP + 1):
        for w in range(0, top_degree(g) + 1):
            for p in _monomial_inputs(g, w):
                assert reduce(p) == oracle_reduce(p) == ideal_slice_elimination.oracle_reduce(p), (g, p)


def test_pairing_entries_equal_localized_socle():
    # The localization oracle is a second route to every pairing entry, g <= 8.
    for g in range(1, 9):
        socle = tuple(range(1, g))
        for k in range(top_degree(g) + 1):
            m = pairing_matrix(g, k)
            for s, row in zip(m.rows, m.entries):
                for t, x in zip(m.cols, row):
                    assert x == oracle_reduce(mono(g, s + t)).coefficient(socle), (g, k, s, t)


def test_normal_forms_run_on_int_and_surface_as_fraction():
    for g in range(2, 7):
        for w in range(top_degree(g) + 3):
            for exps in monomials_of_weight(g, w):
                assert all(type(c) is int for _, c in _reduce_monomial(g, exps)), (g, exps)
    entries = [x for row in pairing_matrix(4, 3).entries for x in row]
    assert entries and all(type(x) is int for x in entries)
    values = list(reduce(mono(4, (1, 1, 1))).terms.values())
    values += multiply(taut(4, (1,)), taut(4, (1, 2))).terms.values()
    values += [socle_pair(taut(4, (1, 2)), taut(4, (3,)))]
    assert values and all(type(c) is Fraction for c in values)


def _shifted_staircase_tableaux(m):
    # Thrall's count of shifted standard tableaux of shape (m, m-1, ..., 1):
    # n! / prod(l_i!) * prod_{i<j} (l_i - l_j) / (l_i + l_j).
    parts = range(m, 0, -1)
    value = Fraction(factorial(sum(parts)))
    for i, a in enumerate(parts):
        value /= factorial(a)
        for b in parts[i + 1 :]:
            value *= Fraction(a - b, a + b)
    return value


def test_lambda_1_power_matches_closed_form():
    # Third oracle, closed form, beyond the localization oracle's genus cap.
    # g = 15 is past the depth at which recursive rewriting stopped.
    for g in range(2, 16):
        expected = 2 ** ((g - 1) * (g - 2) // 2) * _shifted_staircase_tableaux(g - 1)
        power = reduce(mono(g, [1] * top_degree(g)))
        assert power == taut(g, tuple(range(1, g)), expected), g


def _assert_matches_recursive_rewriting(g, exps):
    assert _reduce_monomial(g, exps) == recursive_rewriting._reduce_monomial(g, exps), (g, exps)


def test_sweep_matches_recursive_rewriting():
    # Exact comparison with the recursive rewriting the sweep replaced:
    # every monomial up to two weights past the socle for g <= 7, every
    # pairing monomial lambda_S lambda_T for g <= 9, lambda_1^top for g <= 12.
    try:
        for g in range(1, 8):
            for w in range(top_degree(g) + 3):
                for exps in monomials_of_weight(g, w):
                    _assert_matches_recursive_rewriting(g, exps)
        for g in range(2, 10):
            for k in range(top_degree(g) + 1):
                for s in basis_sets(g, k):
                    for t in basis_sets(g, top_degree(g) - k):
                        _assert_matches_recursive_rewriting(g, _exponents(g, s + t))
        for g in range(2, 13):
            _assert_matches_recursive_rewriting(g, _exponents(g, [1] * top_degree(g)))
    finally:
        recursive_rewriting._reduce_monomial.cache_clear()


def _assert_matches_bucket_sweep(g, exps):
    assert _reduce_monomial(g, exps) == bucket_sweep.reduce_monomial(g, exps), (g, exps)


def test_sweep_matches_bucket_sweep():
    # Exact comparison with the q-bucket sweep the level list replaced:
    # every monomial up to two weights past the socle for g <= 7, every
    # pairing monomial lambda_S lambda_T for g <= 9, lambda_1^top for
    # g <= 14, every lambda_{g-1} lambda_a^e lambda_b (e >= 2) up to the
    # socle for g <= 10, whose sweeps take the rewrites pruned for
    # monomials that hold lambda_{g-1}, and at g = 8, for every k,
    # lambda_k^2 lambda_7 (lambda_7^2 for k = 7) and lambda_k^(28 // k),
    # whose masked squares have the least and the largest bit length of
    # digit k-1 that a swept monomial reaches.
    for g in range(1, 8):
        for w in range(top_degree(g) + 3):
            for exps in monomials_of_weight(g, w):
                _assert_matches_bucket_sweep(g, exps)
    for g in range(2, 10):
        for k in range(top_degree(g) + 1):
            for s in basis_sets(g, k):
                for t in basis_sets(g, top_degree(g) - k):
                    _assert_matches_bucket_sweep(g, _exponents(g, s + t))
    for g in range(2, 15):
        _assert_matches_bucket_sweep(g, _exponents(g, [1] * top_degree(g)))
    for g in range(3, 11):
        for a in range(1, g):
            for b in range(1, g):
                e = 2
                while g - 1 + a * e + b <= top_degree(g):
                    _assert_matches_bucket_sweep(g, _exponents(g, [g - 1, b] + [a] * e))
                    e += 1
    g = 8
    for k in range(1, g):
        _assert_matches_bucket_sweep(g, _exponents(g, (k, k) if k == g - 1 else (k, k, g - 1)))
        _assert_matches_bucket_sweep(g, _exponents(g, [k] * (top_degree(g) // k)))


def test_rewrites_are_found_at_either_end_of_a_digit():
    # The rewrites of lambda_k^2 sit in a list indexed by the bit length of
    # a monomial's masked squares, which ranges over digit k-1's bits from
    # exponent 2 up to the largest exponent a swept monomial of top weight
    # can hold.  At g = 8, for every k, the entry that a cold sweep of
    # lambda_k^2 lambda_7 (lambda_7^2 for k = 7) stores must also be the one
    # read at the bit length of lambda_k^(top // k).
    g = 8
    top = top_degree(g)
    try:
        for k in range(1, g):
            ring._rewrite_table.cache_clear()
            _reduce_monomial.cache_clear()
            low = _exponents(g, (k, k) if k == g - 1 else (k, k, g - 1))
            high = _exponents(g, [k] * (top // k))
            _reduce_monomial(g, low)
            w, rules, mask = ring._rewrite_table(g)[:3]
            bits = [(ring._pack(w, exps) & mask).bit_length() for exps in (low, high)]
            assert w * (k - 1) + 2 == bits[0] <= bits[1] <= w * k, (k, bits)
            assert rules[bits[0]] is rules[bits[1]] is not None, k
    finally:
        ring._rewrite_table.cache_clear()
        _reduce_monomial.cache_clear()


def test_square_free_monomial_sweeps_without_a_level_per_bound():
    # lambda_1 ... lambda_{g-1} is already in normal form.  Its sweep must
    # cost memory for the states it meets, not for the
    # ((g-1) * weight - q_0)/2 + 1 levels that bound the list: at g = 200
    # that bound is 656,701 levels, about 45 MB as empty dicts.
    g = 200
    exps = _exponents(g, range(1, g))
    _reduce_monomial.cache_clear()
    tracemalloc.start()
    try:
        assert _reduce_monomial(g, exps) == ((tuple(range(1, g)), 1),)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _reduce_monomial.cache_clear()
    assert peak < 1 << 20, peak


def test_packed_digits_match_recursive_rewriting_at_width_boundaries():
    # A packed exponent digit is as wide as the bit length of the socle
    # degree g(g-1)/2, so the genera where that bit length grows are where a
    # digit one bit too narrow would carry into the next index.  The inputs
    # at each are the lambda_1^a lambda_l^b of top weight with the largest a
    # or the largest b, lambda_1^top among them.
    try:
        for g in (4, 5, 7, 9, 12):
            top = top_degree(g)
            for l in range(1, g):
                for b in {1, top // l}:
                    exps = [0] * g
                    exps[0] += top - l * b
                    exps[l - 1] += b
                    _assert_matches_recursive_rewriting(g, tuple(exps))
    finally:
        recursive_rewriting._reduce_monomial.cache_clear()


def test_weight_above_socle_is_zero_without_a_sweep(monkeypatch):
    # R*(A_g) vanishes above degree g(g-1)/2, so these inputs return 0
    # before any packed layout is built.
    def no_sweep(g):
        raise AssertionError(f"sweep entered at g={g}")

    monkeypatch.setattr(ring, "_rewrite_table", no_sweep)
    _reduce_monomial.cache_clear()
    try:
        assert reduce(mono(15, [2] * 60)).is_zero()
        assert reduce(mono(14, [3] * 40)).is_zero()
        assert multiply(taut(6, (1, 2, 3, 4, 5)), taut(6, (2, 3))).is_zero()
    finally:
        _reduce_monomial.cache_clear()


def test_sweep_reads_only_the_relations_it_meets(monkeypatch):
    # The rewrites of lambda_k^2 are read from relation(k, g) the first time
    # a sweep meets that square, so a cold call at a large genus costs what
    # its sweep costs, not g relations of g terms each.
    read = []
    monkeypatch.setattr(ring, "relation", lambda k, g: read.append(k) or relation(k, g))
    ring._rewrite_table.cache_clear()
    _reduce_monomial.cache_clear()
    try:
        assert reduce(mono(100, (1, 2))) == taut(100, (1, 2))
        expected = TautClass(
            100, {(50 - m, 50 + m): 2 * (-1) ** (m + 1) for m in range(1, 50)}
        )
        assert reduce(mono(100, (50, 50))) == expected
        assert read == [50]
    finally:
        ring._rewrite_table.cache_clear()
        _reduce_monomial.cache_clear()


def test_ideal_slices_are_built_on_int(monkeypatch):
    slices = []
    rref = ideal_slice_elimination.rref

    def recording_rref(rows):
        slices.append(rows)
        return rref(rows)

    monkeypatch.setattr(ideal_slice_elimination, "rref", recording_rref)
    for g in range(1, 7):
        for w in range(top_degree(g) + 1):
            ideal_slice_elimination._ideal_slice_rref.__wrapped__(g, w)
    assert slices and all(type(x) is int for rows in slices for row in rows for x in row)


def test_mumford_relation_reduces_to_zero():
    for g in range(2, 9):
        product = total_chern(g) * total_chern_dual(g) - LambdaPolynomial.one(g)
        assert reduce(product).is_zero(), g


# -- serialization and rendering ------------------------------------------------


def test_str_formats():
    assert str(TautClass.zero(3)) == "0"
    assert str(taut(2, (1,), 60)) == "60 * L(1)"
    assert str(taut(4, (1, 3), Fraction(5, 3))) == "5/3 * L(1,3)"
    assert str(TautClass.one(2) + taut(2, (1,), -2)) == "1 + -2 * L(1)"


def test_json_roundtrip():
    x = taut(4, (1, 3), Fraction(5, 3)) + TautClass.one(4)
    data = x.to_json_dict()
    assert data == {
        "g": 4,
        "terms": [{"indices": [], "coeff": "1"}, {"indices": [1, 3], "coeff": "5/3"}],
    }
    assert json.loads(json.dumps(data)) == data  # JSON types only
    assert TautClass.zero(3).to_json_dict() == {"g": 3, "terms": []}
