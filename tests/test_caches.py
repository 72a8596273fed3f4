import agtaut
from agtaut import arith, degrees, gw, linalg, nl, ring, verify

LIBRARY = (arith, degrees, gw, linalg, nl, ring, verify)


def cache_sizes():
    """currsize of every lru_cache a library module holds, by name."""
    return {
        f"{module.__name__}.{name}": value.cache_info().currsize
        for module in LIBRARY
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }


def computed_values():
    """Values that between them fill every cache of arith, nl and ring."""
    g = 5
    top = ring.LambdaPolynomial.monomial(g, (1,) * ring.top_degree(g))
    return (
        nl.taut_nl_tilde(g, 12),
        nl.eisenstein_series(3, 40),
        str(ring.reduce(top)),
        str(ring.oracle_reduce(top)),
        ring.pairing_matrix(g, 5).entries,
        ring.monomials_of_weight(4, 6),
        ring.graded_dimension(g, 4),
        degrees.deg_phi(3, (2, 4, 12)),
        gw.gw_tau1_lambda(3, 10),
    )


def test_clear_caches_empties_every_cache_and_keeps_values():
    agtaut.clear_caches()
    first = computed_values()
    filled = cache_sizes()
    assert all(filled.values()), {name: n for name, n in filled.items() if not n}
    assert arith._tangent_numbers and len(arith._sieve[0]) > 1
    assert list(nl._kept_series) == [3]
    agtaut.clear_caches()
    cleared = cache_sizes()
    assert not any(cleared.values()), {name: n for name, n in cleared.items() if n}
    assert arith._tangent_numbers == () and arith._tangent_column == []
    assert arith._sieve == ([0], [0], [0])
    assert nl._kept_series == {}
    assert computed_values() == first
