"""The vectors the prover runs air.constraints on, and the one Kronecker product.

Column (the integer trace, every step at once) and Polynomial, whose values
are reduced only when its coefficients are read, are checked against plain
per-entry references; build_numerators against constraints evaluated on
Polynomials, and constraints against padded rows on all three kinds of value."""

import operator
import random

import pytest

from conftest import STEP_CHECK_CASES, criterion_06_specs
from projstark import poly
from projstark.air import (Column, build_numerators, build_trace_polys, constraints,
                           trace_width)
from projstark.field import PrimeField, build_domain
from projstark.poly import Polynomial

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


def eager(values, q):
    """The coefficients of values as an eager polynomial holds them: each
    reduced mod q, trailing zeros trimmed."""
    out = [v % q for v in values]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def random_values(rng, q):
    """Negative, unreduced (beyond q) and canonical values, of any length."""
    return [rng.randint(-3 * q, 3 * q) for _ in range(rng.randrange(0, 12))]


class Unreducible(int):
    """An int that refuses to be reduced: `%` on it raises."""

    def __mod__(self, other):
        raise AssertionError(f"{int(self)} reduced mod {other}")

    __rmod__ = __mod__


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
        pa, pb = Polynomial(field, a), Polynomial(field, b)
        # +, - and a scalar * reduce nothing: their values are the exact references
        assert (pa + pb).values == tuple(x + y for x, y in zip(*padded(a, b)))
        assert (pa - pb).values == tuple(x - y for x, y in zip(*padded(a, b)))
        assert (pa + k).values == (k + pa).values == tuple(x + y for x, y in zip(*padded(a, [k])))
        assert (pa - k).values == tuple(x - y for x, y in zip(*padded(a, [k])))
        assert (k - pa).values == tuple(x - y for x, y in zip(*padded([k], a)))
        assert (pa * k).values == (k * pa).values == tuple(x * k for x in a)
        assert (-pa).values == tuple(-x for x in a)
        # a product reduces its factors only, so it is congruent to the exact one
        product, exact = padded((pa * pb).values, convolution(a, b))
        assert [v % q for v in product] == [v % q for v in exact]
        # read, every result's coefficients are the eager reference's
        exact = (list(map(operator.add, *padded(a, b))), list(map(operator.sub, *padded(a, b))),
                 convolution(a, b))
        for op, want in zip(OPS, exact):
            assert op(pa, pb).coeffs == eager(want, q)
        assert pa.reported_degree == max(len(eager(a, q)) - 1, 0)


@pytest.mark.parametrize("q", [61, 331, 12289])
def test_polynomial_coefficients_are_the_eager_reduction_of_its_values(q):
    field = PrimeField(q)
    rng = random.Random(q + 1)
    for _ in range(300):
        values = random_values(rng, q) + [rng.choice((0, q, -q))] * rng.randrange(3)
        p = Polynomial(field, values)
        assert p.values == tuple(values)
        assert p.coeffs == eager(values, q)
        # once read, the coefficients are the values too
        assert p.values is p.coeffs
        assert p == Polynomial(field, eager(values, q))
        assert hash(p) == hash(Polynomial(field, eager(values, q)))


def test_lazy_polynomial_reads_its_coefficients_reduced_once():
    field = PrimeField(61)
    lazy = Polynomial(field, [-1, 122, 61, 0])
    assert lazy.values == (-1, 122, 61, 0)
    assert lazy.coeffs == (60,) and lazy.coeffs is lazy.coeffs
    assert lazy == Polynomial(field, (60,)) and hash(lazy) == hash(Polynomial(field, (60,)))
    with pytest.raises(ValueError):
        lazy + Polynomial(PrimeField(331), (1,))
    # residues already in [0, q) are read as they are, trailing zeros trimmed
    residues = Polynomial(field, map(Unreducible, (1, 60, 0, 7, 0, 0)))
    assert residues.coeffs == (1, 60, 0, 7)
    assert Polynomial(field, map(Unreducible, (3, 2))).values == (3, 2)
    with pytest.raises(AssertionError, match="reduced mod 61"):
        Polynomial(field, map(Unreducible, (3, 61))).coeffs


def test_lazy_polynomial_products_reduce_only_their_factors():
    field = PrimeField(61)
    a = Polynomial(field, map(Unreducible, (1, 2, 60)))
    b = Polynomial(field, (-1, 62))  # reduced for the product: (60, 1)
    assert (a * b).coeffs == eager(convolution((1, 2, 60), (60, 1)), 61)
    assert b.values == b.coeffs == (60, 1)
    # a sum or scaling of them reduces neither
    assert (a + a).values == (2, 4, 120) and (a * 3).values == (3, 6, 180)


def test_a_list_mutated_after_construction_does_not_change_the_polynomial():
    field = PrimeField(61)
    values = [1, 2, 3]
    p = Polynomial(field, values)
    values[0] = 50
    values.append(9)
    assert p.values == (1, 2, 3) and p.coeffs == (1, 2, 3)
    total = p + p
    values[:] = [0]
    assert total.coeffs == (2, 4, 6)


def test_build_numerators_equal_constraints_on_polynomials():
    checked = 0
    for field, spec, trace in [*STEP_CHECK_CASES, *criterion_06_specs()]:
        domain = build_domain(field, spec.num_steps + 1)
        tp = build_trace_polys(trace, domain)
        g = domain.generator
        want = constraints(spec, tp, [p.scale_argument(g) for p in tp[:spec.n]])
        got = build_numerators(tp, spec, domain)
        assert got == want, (field.modulus, spec)
        assert [p.coeffs for p in got] == [p.coeffs for p in want]
        checked += 1
    assert checked == len(STEP_CHECK_CASES) + 100


def test_constraints_read_only_the_declared_row_and_state():
    # a row padded past its trace_width columns, or a next row padded past
    # the state, changes nothing
    rng = random.Random(37)
    for field, spec, trace in STEP_CHECK_CASES[:8]:
        q, n, N = field.modulus, spec.n, spec.num_steps
        width = trace_width(spec)
        row = [v for rows in trace.sections for v in rows[0]]
        assert len(row) == width
        junk = [rng.randrange(-q, q) for _ in range(2 * width)]
        want = constraints(spec, row, trace.z_rows[1])
        assert constraints(spec, row + junk, [*trace.z_rows[1], *junk]) == want
        # Columns of every step
        columns = [Column(c) for rows in trace.sections for c in zip(*rows[:N])]
        state = [Column(c) for c in zip(*trace.z_rows[1:])]
        noise = [Column(rng.randrange(q) for _ in range(N)) for _ in range(width)]
        assert constraints(spec, columns + noise, state + noise) == constraints(
            spec, columns, state)
        # Polynomials
        domain = build_domain(field, N + 1)
        tp = build_trace_polys(trace, domain)
        shifted = [p.scale_argument(domain.generator) for p in tp]
        extra = [Polynomial(field, junk[:k + 1]) for k in range(n)]
        assert constraints(spec, [*tp, *extra], shifted + extra) == constraints(
            spec, tp, shifted[:n])


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
