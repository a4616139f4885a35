import random
import time

import pytest

from projstark.field import (
    FieldMismatchError,
    NoSubgroupError,
    PrimeField,
    build_domain,
    is_prime,
)


def test_is_prime_basics():
    assert is_prime(2)
    assert is_prime(331)
    assert is_prime(2**61 - 1)
    assert not is_prime(1)
    assert not is_prime(330)
    assert not is_prime(341)  # Fermat pseudoprime base 2


def test_modulus_must_be_odd_prime():
    with pytest.raises(ValueError):
        PrimeField(330)
    with pytest.raises(ValueError):
        PrimeField(2)


def test_arithmetic_examples(field):
    assert (field(330) + field(1)).value == 0
    assert (field(2) * field(166)).value == 1
    assert (field(181) * field(2)).value == 31
    assert (field(3) - field(5)).value == 329
    assert (-field(1)).value == 330


def test_pow_and_generator_order(field):
    g = field(2)
    assert (g ** 15).value == 330
    assert (g ** 30).value == 1
    assert (field(0) ** 0).value == 1


def test_inverse(field):
    assert field(1).inverse().value == 1
    assert field(2).inverse().value == 166
    assert field(330).inverse().value == 330
    with pytest.raises(ZeroDivisionError):
        field(0).inverse()


def test_division(field):
    assert (field(10) / field(2)).value == 5
    assert (1 / field(166)).value == 2


def test_int_coercion_both_sides(field):
    x = field(7)
    assert (x + 3).value == 10
    assert (3 + x).value == 10
    assert (3 - x).value == (3 - 7) % 331
    assert (x * 2).value == 14
    assert x == 7
    assert x == 7 + 331
    assert int(x) == 7


def test_mixed_fields_refuse_to_combine():
    a = PrimeField(331)(5)
    b = PrimeField(61)(5)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_element_hash_and_bool(field):
    assert field(0) != field(1)
    assert not field(0)
    assert field(5)
    assert len({field(3), field(3), field(334)}) == 1


def test_field_axioms_randomized(field):
    rng = random.Random(11)
    q = field.modulus
    for _ in range(200):
        a, b, c = (field(rng.randrange(q)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a.value:
            assert a * a.inverse() == 1


def test_build_domain_paper_subgroup(field, domain):
    assert domain.generator.value == 2
    assert domain.order == 30
    assert len(domain.elements) == 30
    assert domain.elements[0].value == 1
    assert domain.elements[9].value == 181
    assert domain.elements[15].value == 330


def test_domain_elements_are_roots_of_unity(domain):
    for e in domain:
        assert (e ** 30).value == 1


def test_domain_symmetric_for_even_order(field):
    for n in (2, 6, 30):
        dom = build_domain(field, n)
        values = {e.value for e in dom}
        assert {(331 - v) % 331 for v in values} == values


def test_domain_order_two(field):
    dom = build_domain(field, 2)
    assert [e.value for e in dom] == [1, 330]


def test_domain_order_one(field):
    dom = build_domain(field, 1)
    assert [e.value for e in dom] == [1]


def test_no_subgroup(field):
    with pytest.raises(NoSubgroupError):
        build_domain(field, 7)
    with pytest.raises(NoSubgroupError):
        build_domain(field, 0)


def test_generator_has_exact_order(field):
    for n in (2, 3, 5, 6, 10, 15, 30, 33, 55, 66, 110, 165, 330):
        dom = build_domain(field, n)
        g = dom.generator
        assert (g ** n).value == 1
        for m in range(1, n):
            if n % m == 0:
                assert (g ** m).value != 1


def test_domain_contains(field, domain):
    assert field(181) in domain
    assert field(3) not in domain


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
            assert build_domain(field, n).generator.value == _smallest_of_order_by_scan(q, n), (q, n)


@pytest.mark.parametrize("q, n", [(2**31 - 2**27 + 1, 256), (2**64 - 2**32 + 1, 1024)])
def test_build_domain_is_fast_on_large_fields(q, n):
    start = time.perf_counter()
    domain = build_domain(PrimeField(q), n)
    assert time.perf_counter() - start < 0.5
    g = domain.generator.value
    assert pow(g, n, q) == 1 and pow(g, n // 2, q) == q - 1
