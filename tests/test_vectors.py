"""The vectors the prover runs air.constraints on, and the one Kronecker product.

Column (the integer trace, every step at once) and LazyPolynomial (the
numerators, reduced once) are checked against plain per-entry references;
build_numerators against constraints evaluated on Polynomials."""

import operator
import random

import pytest

from conftest import STEP_CHECK_CASES, random_challenges, random_spec
from projstark import poly
from projstark.air import Column, build_numerators, build_trace_polys, constraints
from projstark.dynamics import simulate
from projstark.field import PrimeField, build_domain
from projstark.poly import LazyPolynomial, Polynomial

OPS = (operator.add, operator.sub, operator.mul)


def padded(a, b):
    """a and b with the shorter padded with zeros to the longer's length."""
    size = max(len(a), len(b))
    return list(a) + [0] * (size - len(a)), list(b) + [0] * (size - len(b))


def convolution(a, b):
    """Exact product of coefficient lists: coefficient k is sum_i a[i]·b[k-i]."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_values(rng, q):
    """Negative, unreduced (beyond q) and canonical values, of any length."""
    return [rng.randint(-3 * q, 3 * q) for _ in range(rng.randrange(0, 12))]


def test_column_ops_act_value_by_value():
    rng = random.Random(5)
    for _ in range(300):
        a, b = random_values(rng, 331), random_values(rng, 331)
        k = rng.randint(-1000, 1000)
        for op in OPS:
            assert op(Column(a), Column(b)) == tuple(map(op, *padded(a, b)))
            assert op(Column(a), k) == tuple(op(x, k) for x in a)
            assert op(k, Column(a)) == tuple(op(k, x) for x in a)
            assert type(op(Column(a), Column(b))) is type(op(k, Column(a))) is Column
    assert sum([Column((1, 2)), Column((3, 4, 5))]) == (4, 6, 5)


@pytest.mark.parametrize("q", [61, 331, 12289])
def test_lazy_polynomial_ops_match_coefficient_references(q):
    field = PrimeField(q)
    rng = random.Random(q)
    for _ in range(200):
        a, b = random_values(rng, q), random_values(rng, q)
        k = rng.randint(-3 * q, 3 * q)
        la, lb = LazyPolynomial(field, a), LazyPolynomial(field, b)
        # +, - and a scalar * reduce nothing: their values are the exact references
        assert (la + lb).values == [x + y for x, y in zip(*padded(a, b))]
        assert (la - lb).values == [x - y for x, y in zip(*padded(a, b))]
        assert (la + k).values == (k + la).values == [x + y for x, y in zip(*padded(a, [k]))]
        assert (la - k).values == [x - y for x, y in zip(*padded(a, [k]))]
        assert (k - la).values == [x - y for x, y in zip(*padded([k], a))]
        assert (la * k).values == (k * la).values == [x * k for x in a]
        # a product reduces its operands only, so it is congruent to the exact one
        product, exact = padded((la * lb).values, convolution(a, b))
        assert [v % q for v in product] == [v % q for v in exact]
        # a plain Polynomial on either side gives the same lazy result
        pa, pb = Polynomial(field, a), Polynomial(field, b)
        for op in OPS:
            want = op(pa, pb)
            for got in (op(la, lb), op(la, pb), op(pa, lb)):
                assert isinstance(got, LazyPolynomial)
                assert got == want and got.coeffs == want.coeffs
        assert la.reported_degree == pa.reported_degree


def test_lazy_polynomial_reads_its_coefficients_reduced_once():
    field = PrimeField(61)
    lazy = LazyPolynomial(field, [-1, 122, 61, 0])
    assert lazy.values == [-1, 122, 61, 0]
    assert lazy.coeffs == (60,) and lazy.coeffs is lazy.coeffs
    assert lazy == Polynomial(field, (60,)) and hash(lazy) == hash(Polynomial(field, (60,)))
    assert LazyPolynomial.of(Polynomial(field, (1, 2))).coeffs == (1, 2)
    with pytest.raises(ValueError):
        lazy + Polynomial(PrimeField(331), (1,))


def _criterion_06_specs():
    """The (field, spec, trace) of acceptance criterion 06, drawn as it draws them."""
    rng = random.Random(1006)
    for _ in range(100):
        q = rng.choice((61, 61, 61, 61, 211, 331))
        spec = random_spec(rng, q)
        random_challenges(rng, q, spec, num_queries=4)
        yield PrimeField(q), spec, simulate(spec)


def test_build_numerators_equal_constraints_on_polynomials():
    checked = 0
    for field, spec, trace in [*STEP_CHECK_CASES, *_criterion_06_specs()]:
        domain = build_domain(field, spec.num_steps + 1)
        tp = build_trace_polys(trace, domain)
        g = domain.generator
        want = constraints(spec, tp.f_z, [p.scale_argument(g) for p in tp.f_z],
                           tp.f_alpha_up, tp.f_alpha_lo, tp.f_delta)
        got = build_numerators(tp, spec, domain)
        assert got == want, (field.modulus, spec)
        assert [p.coeffs for p in got] == [p.coeffs for p in want]
        checked += 1
    assert checked == len(STEP_CHECK_CASES) + 100


def schoolbook(a, b, q):
    return [v % q for v in convolution(a, b)]


# (q, shorter length) whose product slots take 1 to 9 bytes: 2·bitlen(q - 1)
# + bitlen(shorter length) bits, rounded up to whole bytes; 18 for Goldilocks
SLOT_WIDTHS = {
    1: (3, 7), 2: (61, 7), 3: (331, 29), 4: (769, 256), 5: (12289, 128), 6: (65537, 1000),
    7: (8380417, 100), 8: (2**31 - 1, 3), 9: (2**31 - 2**27 + 1, 256),
    18: (2**64 - 2**32 + 1, 256),
}


@pytest.mark.parametrize("width", sorted(SLOT_WIDTHS))
def test_kronecker_product_equals_schoolbook_at_every_slot_width(width):
    q, short = SLOT_WIDTHS[width]
    bits = 2 * (q - 1).bit_length() + short.bit_length()
    assert poly._product_plan(q, bits)[0] == width
    rng = random.Random(width)
    for long in (short, short + 1, 2 * short + 5):
        for a, b in (([q - 1] * long, [q - 1] * short),  # every slot as large as it can be
                     ([rng.randrange(q) for _ in range(long)],
                      [rng.randrange(q) for _ in range(short)])):
            want = schoolbook(a, b, q)
            got = poly._kronecker(a, b, q)
            assert [v % q for v in got] == want == [v % q for v in poly._kronecker(b, a, q)]
            assert min(got) >= 0
    assert poly._kronecker([], [1], q) == poly._kronecker([1], [], q) == []


def test_q12289_products_take_five_byte_slots_read_as_words():
    # a 36-bit slot is 5 bytes, not 8; one split brings it below 2^32
    width, coeff_word, splits, word = poly._product_plan(12289, 36)
    assert (width, coeff_word, len(splits), word) == (5, 2, 1, 4)
    # slots that are machine words need no split; Goldilocks slots are read whole
    assert poly._product_plan(769, 29)[2:] == ((), 4)
    assert poly._product_plan(2**64 - 2**32 + 1, 137)[3] is None
