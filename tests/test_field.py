import time

import pytest

from projstark.field import NoSubgroupError, PrimeField, build_domain, is_prime


def test_is_prime_basics():
    assert is_prime(2)
    assert is_prime(331)
    assert is_prime(2**61 - 1)
    assert not is_prime(1)
    assert not is_prime(330)
    assert not is_prime(341)  # Fermat pseudoprime base 2


def test_is_prime_rejects_the_strong_pseudoprime_to_bases_up_to_37():
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    with pytest.raises(ValueError):
        PrimeField(n)


def test_modulus_must_be_odd_prime():
    with pytest.raises(ValueError):
        PrimeField(330)
    with pytest.raises(ValueError):
        PrimeField(2)


def test_build_domain_paper_subgroup(field, domain):
    assert domain.generator == 2
    assert domain.order == 30
    assert len(domain.elements) == 30
    assert domain.elements[0] == 1
    assert domain.elements[9] == 181
    assert domain.elements[15] == 330


def test_domain_elements_are_roots_of_unity(domain):
    for e in domain.elements:
        assert pow(e, 30, 331) == 1


def test_domain_symmetric_for_even_order(field):
    for n in (2, 6, 30):
        values = set(build_domain(field, n).elements)
        assert {(331 - v) % 331 for v in values} == values


def test_domain_order_two(field):
    assert build_domain(field, 2).elements == (1, 330)


def test_domain_order_one(field):
    assert build_domain(field, 1).elements == (1,)


def test_no_subgroup(field):
    with pytest.raises(NoSubgroupError):
        build_domain(field, 7)
    with pytest.raises(NoSubgroupError):
        build_domain(field, 0)


def test_generator_has_exact_order(field):
    for n in (2, 3, 5, 6, 10, 15, 30, 33, 55, 66, 110, 165, 330):
        dom = build_domain(field, n)
        g = dom.generator
        assert pow(g, n, 331) == 1
        for m in range(1, n):
            if n % m == 0:
                assert pow(g, m, 331) != 1


def test_domain_contains(domain):
    assert 181 in domain.elements
    assert 3 not in domain.elements


def _smallest_of_order_by_scan(q, n):
    """The generator build_domain must return, found by scanning h = 2, 3, ...
    for the first h of exact order n (O(q) steps)."""
    factors = {p for p in range(2, n + 1) if n % p == 0 and is_prime(p)}
    for h in range(2, q):
        if pow(h, n, q) == 1 and all(pow(h, n // p, q) != 1 for p in factors):
            return h
    return 1  # n = 1: no h >= 2 has order 1


def test_build_domain_matches_the_scan_for_every_small_prime():
    for q in filter(is_prime, range(3, 1000)):
        field = PrimeField(q)
        for n in (n for n in range(1, q) if (q - 1) % n == 0):
            assert build_domain(field, n).generator == _smallest_of_order_by_scan(q, n), (q, n)


@pytest.mark.parametrize("q, n", [(2**31 - 2**27 + 1, 256), (2**64 - 2**32 + 1, 1024)])
def test_build_domain_is_fast_on_large_fields(q, n):
    start = time.perf_counter()
    domain = build_domain(PrimeField(q), n)
    assert time.perf_counter() - start < 0.5
    g = domain.generator
    assert pow(g, n, q) == 1 and pow(g, n // 2, q) == q - 1
