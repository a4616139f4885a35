import operator
import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projstark import poly
from projstark.field import PrimeField, build_domain, is_prime
from projstark.fri import num_rounds
from projstark.poly import CosetEvaluator, Polynomial, interpolate, vanishing
from projstark.protocol import base_eval_domain, layer_eval_domains


def rand_poly(rng, field, max_deg):
    return Polynomial(field, [rng.randrange(field.modulus) for _ in range(max_deg + 1)])


def test_zero_polynomial_degree(field):
    z = Polynomial(field)
    assert z.coeffs == ()
    assert z.reported_degree == 0
    assert z.is_zero()
    assert z.evaluate(17) == 0


def test_trailing_zeros_trimmed(field):
    p = Polynomial(field, (3, 0, 0))
    assert p.coeffs == (3,)
    assert p.reported_degree == 0
    assert Polynomial(field, (0, 0)).is_zero()


def test_evaluate(field):
    p = Polynomial(field, (1, 1))  # 1 + x
    assert p.evaluate(330) == 0
    assert p.evaluate(-1) == 0
    assert p.evaluate(0) == 1
    cubic = Polynomial(field, (5, 0, 0, 2))  # 5 + 2x^3
    assert cubic.evaluate(3) == (5 + 2 * 27) % 331


def test_addition_and_subtraction(field):
    a = Polynomial(field, (1, 2, 3))
    b = Polynomial(field, (330, 329))
    assert (a + b).coeffs == (0, 0, 3)
    assert (a - a).is_zero()
    assert (-a + a).is_zero()


def test_multiplication(field):
    x_plus = Polynomial(field, (1, 1))
    x_minus = Polynomial(field, (-1, 1))
    assert (x_plus * x_minus).coeffs == (330, 0, 1)  # x^2 - 1
    assert (x_plus * Polynomial(field)).is_zero()


def test_int_operands_act_as_constants(field):
    a = Polynomial(field, (1, 2, 3))
    three = Polynomial(field, (3,))
    assert a + 3 == 3 + a == a + three
    assert a - 3 == a - three
    assert 3 - a == three - a
    assert a * 3 == 3 * a == a * three == a.scale(3)
    assert -331 * a == a * 0 == 0 - 0 * a == Polynomial(field)
    assert sum([a, a]) == a + a
    with pytest.raises(ValueError):
        a + Polynomial(PrimeField(61), (1,))


@pytest.mark.parametrize("c", [0, 1, -1, 331, 336, -334])
def test_scalar_products_equal_constant_polynomial_products(field, c):
    # 0, ±1, q, q + 5 and -q - 3: an int operand scales each coefficient
    a = rand_poly(random.Random(c), field, 9)
    assert a * c == c * a == a * Polynomial(field, (c,))


def schoolbook(a, b, q):
    """Reference product of coefficient lists: coefficient k is sum_i a[i]·b[k-i]."""
    out = []
    for k in range(len(a) + len(b) - 1):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        out.append(sum(map(operator.mul, a[lo:hi + 1], b[k - lo::-1])) % q)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# 331, 769 and 12289 are the benchmark moduli; at q = 12289 a product's slot is
# exactly 32 bits when the shorter factor has 8 to 15 coefficients, 33 bits
# (5 bytes) for 16 to 31
@pytest.mark.parametrize("q", [331, 769, 12289, 2**89 - 1])
def test_product_matches_schoolbook(q):
    field = PrimeField(q)
    rng = random.Random(q)
    for la in range(301):
        lb = rng.randrange(301 if la % 3 == 0 else 16)
        if rng.randrange(2):
            # every coefficient q-1 makes each product coefficient as large as it can be
            a, b = [q - 1] * la, [q - 1] * lb
        else:
            a = [rng.randrange(q) for _ in range(la)]
            b = [rng.randrange(q) for _ in range(lb)]
        pa, pb = Polynomial(field, a), Polynomial(field, b)
        want = schoolbook(pa.coeffs, pb.coeffs, q)
        assert (pa * pb).coeffs == (pb * pa).coeffs == want
        k = rng.choice((q - 1, rng.randrange(-3 * q, 3 * q)))
        assert (pa * k).coeffs == (k * pa).coeffs == schoolbook(pa.coeffs, (k % q,), q)


def test_pack_refuses_a_value_wider_than_its_slot():
    assert poly._unpack(poly._pack([1, 255, 0], 1), 3, 1) == [1, 255, 0]
    with pytest.raises(OverflowError):
        poly._pack([1, 256, 0], 1)  # would carry into its neighbour's slot


# 1, 2, 4 and 8 bytes are machine words, moved by struct; the rest by bytes
@pytest.mark.parametrize("width", [*range(1, 10), 14, 16])
def test_pack_round_trips_and_refuses_at_each_width(width):
    top = 2 ** (8 * width) - 1
    values = [0, top, 1, top - 1, 0]
    assert poly._unpack(poly._pack(values, width), len(values), width) == values
    for word in (1, 2, 4, 8):
        if word <= width:  # each slot as its low word, the bytes above it zero
            low = [v % 2 ** (8 * word) for v in values]
            packed = poly._pack(low, width, word)
            assert packed == poly._pack(low, width)
            assert poly._unpack(packed, len(low), width, word) == low
            with pytest.raises(OverflowError):
                poly._pack([2 ** (8 * word)], width, word)
    for bad in (top + 1, -1):  # one past the slot, or negative
        with pytest.raises(OverflowError):
            poly._pack([0, bad, 0], width)


def test_degree_is_additive_under_product(field):
    rng = random.Random(5)
    for _ in range(50):
        a = rand_poly(rng, field, rng.randrange(6))
        b = rand_poly(rng, field, rng.randrange(6))
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).reported_degree == a.reported_degree + b.reported_degree


def test_scale_and_scale_argument(field):
    p = Polynomial(field, (1, 2, 3))
    assert p.scale(2).coeffs == (2, 4, 6)
    # p(2x): coefficient i picks up 2^i
    assert p.scale_argument(2).coeffs == (1, 4, 12)
    x = 7
    assert p.scale_argument(5).evaluate(x) == p.evaluate(5 * x % 331)


def test_divmod_basics(field):
    num = Polynomial(field, (330, 0, 1))  # x^2 - 1
    den = Polynomial(field, (330, 1))  # x - 1
    quot, rem = divmod(num, den)
    assert quot.coeffs == (1, 1)
    assert rem.is_zero()
    with pytest.raises(ZeroDivisionError):
        divmod(num, Polynomial(field))


def test_divmod_with_remainder(field):
    num = Polynomial(field, (1, 0, 1))  # x^2 + 1
    den = Polynomial(field, (330, 1))  # x - 1
    quot, rem = divmod(num, den)
    assert quot * den + rem == num
    assert rem.coeffs == (2,)


def test_divmod_remainder_flags_inexact_division(field):
    num = Polynomial(field, (330, 0, 1))
    den = Polynomial(field, (330, 1))
    quot, rem = divmod(num, den)
    assert rem.is_zero() and quot.coeffs == (1, 1)
    _, rem = divmod(Polynomial(field, (1, 0, 1)), den)
    assert not rem.is_zero()


def test_division_roundtrip_randomized(field):
    rng = random.Random(23)
    for _ in range(50):
        a = rand_poly(rng, field, rng.randrange(8))
        b = rand_poly(rng, field, rng.randrange(1, 5))
        if b.is_zero():
            continue
        quot, rem = divmod(a * b, b)
        assert rem.is_zero() and quot == a


def test_interpolate_constant_column(field, domain):
    points = [(e, 3) for e in domain.elements]
    p = interpolate(points, field)
    assert p.coeffs == (3,)
    assert p.reported_degree == 0


def test_interpolate_roundtrip(field, domain):
    rng = random.Random(7)
    points = [(e, rng.randrange(331)) for e in domain.elements]
    p = interpolate(points, field)
    assert p.reported_degree <= len(points) - 1
    for x, y in points:
        assert p.evaluate(x) == y


def test_interpolate_recovers_low_degree(field):
    rng = random.Random(9)
    for _ in range(20):
        target = rand_poly(rng, field, rng.randrange(5))
        xs = rng.sample(range(331), 12)
        p = interpolate([(x, target.evaluate(x)) for x in xs], field)
        assert p == target


def test_interpolate_duplicate_x_rejected(field):
    with pytest.raises(ValueError):
        interpolate([(1, 5), (1, 6)], field)


def test_interpolate_empty(field):
    assert interpolate([], field).is_zero()


def test_vanishing_full_subgroup(field, domain):
    zv = vanishing(domain.elements, field)
    # x^30 - 1
    assert zv.coeffs == (330,) + (0,) * 29 + (1,)
    for e in domain.elements:
        assert zv.evaluate(e) == 0


def test_vanishing_step_domain_factors(field, domain):
    xs = domain.elements
    zv = vanishing(xs[:29], field)
    assert zv.reported_degree == 29
    last = Polynomial(field, (-xs[29], 1))
    assert zv * last == vanishing(xs, field)
    assert zv.evaluate(xs[29]) != 0


def test_vanishing_single_point(field):
    assert vanishing([1], field).coeffs == (330, 1)
    with pytest.raises(ValueError):
        vanishing([4, 4], field)


# --- coset DFT evaluation -----------------------------------------------------


def _layer_evaluators(q, order):
    """Evaluators for the base domain and every FRI layer domain of a proof,
    each with its domain's points in table order: coset by coset, each in
    power order."""
    field = PrimeField(q)
    domain = build_domain(field, order)
    reps = base_eval_domain(field, domain)[::order]
    for reps, size in layer_eval_domains(field, reps, order, num_rounds(2 * order - 4)):
        omega = pow(domain.generator, order // size, q)
        points = [r * pow(omega, i, q) % q for r in reps for i in range(size)]
        yield points, CosetEvaluator(field, reps, omega, size)


@pytest.mark.parametrize("q,order", [(12289, 128), (769, 256), (331, 30), (3001, 40)])
def test_coset_evaluator_matches_horner_on_proof_domains(q, order):
    rng = random.Random(q)
    field = PrimeField(q)
    short = [Polynomial(field), rand_poly(rng, field, 0)]
    polys = short + [
        rand_poly(rng, field, d) for d in (order - 1, order, 2 * order - 3, 3 * order + 1)
    ]
    polys.insert(3, Polynomial(field))
    layers = 0
    for points, ev in _layer_evaluators(q, order):
        # the second call needs more powers of each representative than the first
        for batch in (short, polys):
            tables = ev.evaluate(batch)
            assert len(tables) == len(batch)
            for p, table in zip(batch, tables):
                assert table == [p.evaluate(x) for x in points]
        layers += 1
    assert layers == num_rounds(2 * order - 4)


def _plan_rows_match_horner(ev, points, batches):
    """Evaluate each batch with the one plan ev, comparing with Horner; after
    each call, each slot width keeps as many power rows as the longest
    coefficient list evaluated at that width, never more."""
    longest = {}
    for batch in batches:
        assert ev.evaluate(batch) == [[p.evaluate(x) for x in points] for p in batch]
        length = max(len(p.coeffs) for p in batch)
        width = ev._slot_plan(length)[0]
        longest[width] = max(longest.get(width, 0), length)
        assert {w: len(rows) for w, rows in ev._power_rows.items()} == longest
    return longest


# wider: the fewest coefficients, in multiples of m, whose slots are a byte
# wider than those of m coefficients (None: not below 64·m)
@pytest.mark.parametrize("q,order,wider", [
    (12289, 128, 3), (331, 30, 12), (769, 256, None), (3001, 40, None),
])
def test_coset_evaluator_keeps_its_power_rows_between_calls(q, order, wider):
    rng = random.Random(order)
    field = PrimeField(q)
    points, ev = next(_layer_evaluators(q, order))
    long = [rand_poly(rng, field, d) for d in (order - 1, 2 * order - 3, order + 1)]
    short = [rand_poly(rng, field, d) for d in (3, order // 2)]
    batches = [
        long, short,  # a short batch reads the first rows of a long one's
        [rand_poly(rng, field, 2 * order + 7)],  # one polynomial, longer than 2m
    ]
    if wider:  # a batch of the wider slots, then one of the first again
        batches += [[rand_poly(rng, field, wider * order - 1)] * 2, long]
    longest = _plan_rows_match_horner(ev, points, batches)
    assert len(longest) == (2 if wider else 1)


def test_coset_evaluator_plan_grown_by_many_threads():
    # threads, more than cores, each grow one cold plan to a different length
    # at the same slot width; a torn or half-grown row list gives a wrong
    # table. Each of three rounds starts from a new cold plan.
    q, order = 12289, 128
    field = PrimeField(q)
    points, plan = next(_layer_evaluators(q, order))
    count = 2 * (os.cpu_count() or 1) + 2
    lengths = [order + 1 + (order - 1) * k // count for k in range(count)]
    rng = random.Random(count)
    polys = [rand_poly(rng, field, length - 1) for length in lengths]
    expected = [[p.evaluate(x) for x in points] for p in polys]
    omega = build_domain(field, order).generator
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            ev = CosetEvaluator(field, plan._reps, omega, order)
            assert len({ev._slot_plan(length)[0] for length in lengths}) == 1
            errors = []
            start = threading.Barrier(count, timeout=60)

            def worker(p, table):
                try:
                    start.wait()
                    for _ in range(2):
                        assert ev.evaluate([p]) == [table]
                except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=pt) for pt in zip(polys, expected)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            [rows] = ev._power_rows.values()
            assert len(rows) <= max(lengths)
    finally:
        sys.setswitchinterval(interval)


def test_coset_evaluator_empty_batch():
    field = PrimeField(331)
    g = build_domain(field, 30).generator
    assert CosetEvaluator(field, [1], g, 30).evaluate([]) == []


def test_coset_evaluator_rejects_bad_plans():
    field = PrimeField(331)
    g = build_domain(field, 30).generator
    for omega in (g * g % 331, 1, 0):  # g^2 has order 15
        with pytest.raises(ValueError, match=f"^{omega} does not have multiplicative order 30"):
            CosetEvaluator(field, [2], omega, 30)
    ev = CosetEvaluator(field, [5], 1, 1)
    with pytest.raises(ValueError):
        ev.evaluate([Polynomial(field, (1,)), Polynomial(PrimeField(61), (1, 2))])


def _coset_reps(q, omega, order, cosets):
    """A random point of each of the first `cosets` cosets of <omega> met
    scanning 1, 2, 3, ..., shuffled."""
    rng = random.Random(q)
    subgroup = [pow(omega, k, q) for k in range(order)]
    reps, seen, x = [], set(), 1
    while len(reps) < cosets:
        if x not in seen:
            seen.update(x * h % q for h in subgroup)
            reps.append(x * rng.choice(subgroup) % q)
        x += 1
    rng.shuffle(reps)
    return reps


def _assert_matches_horner(field, omega, order, cosets, polys):
    q = field.modulus
    reps = _coset_reps(q, omega, order, cosets)
    tables = CosetEvaluator(field, reps, omega, order).evaluate(polys)
    points = [r * pow(omega, i, q) % q for r in reps for i in range(order)]
    assert tables == [[p.evaluate(x) for x in points] for p in polys]


# radices: 2^7; 2^8; 2·3·5; 3·5 and 5·11 with no radix-2 stage; 2^3·5; 2^2·3·5;
# 2^4 for BabyBear, whose rows take three row-fold splits to reach a 64-bit
# word, and for Goldilocks, whose slots are read whole
@pytest.mark.parametrize("q,order,cosets", [
    (12289, 128, 3), (769, 256, 1), (331, 30, 11), (331, 15, 22), (331, 55, 6),
    (3001, 40, 25), (61, 60, 1), (2**31 - 2**27 + 1, 16, 3), (2**64 - 2**32 + 1, 16, 3),
])
def test_coset_evaluator_worst_case_coefficients(q, order, cosets):
    # every coefficient q - 1, the largest the fold can multiply by a power
    field = PrimeField(q)
    omega = build_domain(field, order).generator
    polys = [Polynomial(field, [q - 1] * (d + 1)) for d in (order - 1, 2 * order - 1, 4 * order - 1)]
    _assert_matches_horner(field, omega, order, cosets, polys)


# the words slots are read in, over a proof's layer domains and lengths
@pytest.mark.parametrize("q,order,words", [
    (331, 30, {4}), (769, 256, {2, 4, 8}), (12289, 128, {4, 8}), (2**31 - 2**27 + 1, 16, {8}),
    (2**64 - 2**32 + 1, 16, {None}),
])
def test_coset_row_fold_reaches_a_machine_word(q, order, words):
    # the benchmark moduli and BabyBear read every slot as one machine word
    # after the row fold; a Goldilocks residue alone can fill 64 bits, so no
    # split gets there and its slots are read whole
    seen = set()
    for _, ev in _layer_evaluators(q, order):
        for length in (1, order, 2 * order - 2):
            width, _, splits, word = ev._slot_plan(length)
            assert word is None or word <= width
            assert splits or word in (width, None)
            seen.add(word)
    assert seen == words


def test_coset_evaluator_above_64_bits():
    q = 2 ** 89 - 1
    field = PrimeField(q)
    omega = pow(3, (q - 1) // 30, q)  # of order 30; build_domain would scan the field
    rng = random.Random(89)
    polys = [Polynomial(field, [q - 1] * (d + 1)) for d in (29, 59, 119)]
    polys += [rand_poly(rng, field, d) for d in (0, 30, 97)]
    _assert_matches_horner(field, omega, 30, 4, polys)
    # one coset: power rows narrow enough to fold packed columns of
    # coefficients, which fit no machine word
    _assert_matches_horner(field, omega, 30, 1, polys)


_SMALL_PRIMES = [p for p in range(3, 400) if is_prime(p)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_coset_evaluator_matches_horner_on_any_coset_union(data):
    q = data.draw(st.sampled_from(_SMALL_PRIMES), label="q")
    order = data.draw(st.sampled_from([m for m in range(1, 49) if (q - 1) % m == 0]), label="m")
    field = PrimeField(q)
    g = build_domain(field, order).generator
    subgroup = [pow(g, k, q) for k in range(order)]
    reps, seen = [], set()
    for x in range(1, q):
        if x not in seen:
            reps.append(x)
            seen.update(x * h % q for h in subgroup)
    chosen = data.draw(st.lists(st.sampled_from(reps), min_size=1, unique=True), label="cosets")
    # any point of each coset may represent it
    chosen = [c * data.draw(st.sampled_from(subgroup), label="shift") % q for c in chosen]
    coeffs = st.lists(st.integers(0, q - 1), max_size=3 * order + 2)
    polys = [Polynomial(field, c) for c in data.draw(st.lists(coeffs, max_size=4), label="polys")]
    tables = CosetEvaluator(field, chosen, g, order).evaluate(polys)
    points = [c * h % q for c in chosen for h in subgroup]
    assert tables == [[p.evaluate(x) for x in points] for p in polys]
