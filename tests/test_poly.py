import operator
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projstark.field import PrimeField, build_domain, is_prime
from projstark.fri import num_rounds
from projstark.poly import (
    NEG_INF,
    CosetEvaluator,
    Polynomial,
    divide_exact,
    interpolate,
    vanishing,
)
from projstark.protocol import base_eval_domain, layer_eval_domains


def rand_poly(rng, field, max_deg):
    return Polynomial(field, [rng.randrange(field.modulus) for _ in range(max_deg + 1)])


def test_zero_polynomial_degree(field):
    z = Polynomial.zero(field)
    assert z.degree == NEG_INF
    assert z.reported_degree == 0
    assert z.is_zero()
    assert z(17).value == 0


def test_trailing_zeros_trimmed(field):
    p = Polynomial(field, (3, 0, 0))
    assert p.coeffs == (3,)
    assert p.degree == 0
    assert Polynomial(field, (0, 0)).is_zero()


def test_evaluate(field):
    p = Polynomial(field, (1, 1))  # 1 + x
    assert p(330).value == 0
    assert p(0).value == 1
    cubic = Polynomial(field, (5, 0, 0, 2))  # 5 + 2x^3
    assert cubic(3).value == (5 + 2 * 27) % 331


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
    assert (x_plus * Polynomial.zero(field)).is_zero()


def test_int_operands_act_as_constants(field):
    a = Polynomial(field, (1, 2, 3))
    three = Polynomial.constant(field, 3)
    assert a + 3 == 3 + a == a + three
    assert a - 3 == a - three
    assert 3 - a == three - a
    assert a * 3 == 3 * a == a * three == a.scale(3)
    assert -331 * a == a * 0 == 0 - 0 * a == Polynomial.zero(field)
    assert sum([a, a]) == a + a
    with pytest.raises(ValueError):
        a + Polynomial(PrimeField(61), (1,))


def schoolbook(a, b, q):
    """Reference product of coefficient lists: coefficient k is sum_i a[i]·b[k-i]."""
    out = []
    for k in range(len(a) + len(b) - 1):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        out.append(sum(map(operator.mul, a[lo:hi + 1], b[k - lo::-1])) % q)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@pytest.mark.parametrize("q", [769, 2**89 - 1])
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


def test_degree_is_additive_under_product(field):
    rng = random.Random(5)
    for _ in range(50):
        a = rand_poly(rng, field, rng.randrange(6))
        b = rand_poly(rng, field, rng.randrange(6))
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree == a.degree + b.degree


def test_scale_and_scale_argument(field):
    p = Polynomial(field, (1, 2, 3))
    assert p.scale(2).coeffs == (2, 4, 6)
    # p(2x): coefficient i picks up 2^i
    assert p.scale_argument(2).coeffs == (1, 4, 12)
    x = 7
    assert p.scale_argument(5)(x) == p(5 * x % 331)


def test_divmod_basics(field):
    num = Polynomial(field, (330, 0, 1))  # x^2 - 1
    den = Polynomial(field, (330, 1))  # x - 1
    quot, rem = divmod(num, den)
    assert quot.coeffs == (1, 1)
    assert rem.is_zero()
    with pytest.raises(ZeroDivisionError):
        divmod(num, Polynomial.zero(field))


def test_divmod_with_remainder(field):
    num = Polynomial(field, (1, 0, 1))  # x^2 + 1
    den = Polynomial(field, (330, 1))  # x - 1
    quot, rem = divmod(num, den)
    assert quot * den + rem == num
    assert rem.coeffs == (2,)


def test_divide_exact_flags_remainders(field):
    num = Polynomial(field, (330, 0, 1))
    den = Polynomial(field, (330, 1))
    quot, exact = divide_exact(num, den)
    assert exact and quot.coeffs == (1, 1)
    _, exact = divide_exact(Polynomial(field, (1, 0, 1)), den)
    assert not exact


def test_division_roundtrip_randomized(field):
    rng = random.Random(23)
    for _ in range(50):
        a = rand_poly(rng, field, rng.randrange(8))
        b = rand_poly(rng, field, rng.randrange(1, 5))
        if b.is_zero():
            continue
        quot, exact = divide_exact(a * b, b)
        assert exact and quot == a


def test_interpolate_constant_column(field, domain):
    points = [(e.value, 3) for e in domain]
    p = interpolate(points, field)
    assert p.coeffs == (3,)
    assert p.reported_degree == 0


def test_interpolate_roundtrip(field, domain):
    rng = random.Random(7)
    points = [(e.value, rng.randrange(331)) for e in domain]
    p = interpolate(points, field)
    assert p.degree <= len(points) - 1
    for x, y in points:
        assert p(x).value == y


def test_interpolate_recovers_low_degree(field):
    rng = random.Random(9)
    for _ in range(20):
        target = rand_poly(rng, field, rng.randrange(5))
        xs = rng.sample(range(331), 12)
        p = interpolate([(x, target(x).value) for x in xs], field)
        assert p == target


def test_interpolate_duplicate_x_rejected(field):
    with pytest.raises(ValueError):
        interpolate([(1, 5), (1, 6)], field)


def test_interpolate_empty(field):
    assert interpolate([], field).is_zero()


def test_vanishing_full_subgroup(field, domain):
    zv = vanishing([e.value for e in domain], field)
    # x^30 - 1
    assert zv.coeffs == (330,) + (0,) * 29 + (1,)
    for e in domain:
        assert zv(e).value == 0


def test_vanishing_step_domain_factors(field, domain):
    xs = [e.value for e in domain]
    zv = vanishing(xs[:29], field)
    assert zv.degree == 29
    last = Polynomial(field, (-xs[29], 1))
    assert zv * last == vanishing(xs, field)
    assert zv(xs[29]).value != 0


def test_vanishing_single_point(field):
    assert vanishing([1], field).coeffs == (330, 1)
    with pytest.raises(ValueError):
        vanishing([4, 4], field)


# --- coset DFT evaluation -----------------------------------------------------


def _layer_evaluators(q, order):
    """Evaluators for the base domain and every FRI layer domain of a proof."""
    field = PrimeField(q)
    domain = build_domain(field, order)
    g = domain.generator.value
    layers = layer_eval_domains(field, base_eval_domain(field, domain), num_rounds(2 * order - 4))
    for j, points in enumerate(layers):
        e = 2 ** j
        yield points, CosetEvaluator(field, points, pow(g, e, q), order // gcd(order, e))


@pytest.mark.parametrize("q,order", [(12289, 128), (769, 256), (331, 30), (3001, 40)])
def test_coset_evaluator_matches_horner_on_proof_domains(q, order):
    rng = random.Random(q)
    field = PrimeField(q)
    polys = [Polynomial.zero(field)] + [
        rand_poly(rng, field, d) for d in (0, order - 1, order, 2 * order - 3)
    ]
    layers = 0
    for points, ev in _layer_evaluators(q, order):
        assert ev.index == {x: i for i, x in enumerate(points)}
        for p in polys:
            assert ev.evaluate(p) == [p(x).value for x in points]
        layers += 1
    assert layers == num_rounds(2 * order - 4)


def test_coset_evaluator_rejects_bad_plans():
    field = PrimeField(331)
    g = build_domain(field, 30).generator.value
    with pytest.raises(ValueError):
        CosetEvaluator(field, [2, 3], g, 30)  # too few points for one coset
    with pytest.raises(ValueError):
        CosetEvaluator(field, list(range(1, 31)), g, 30)  # 30 points, not a coset
    with pytest.raises(ValueError):
        CosetEvaluator(field, list(range(1, 331)), g * g % 331, 30)  # g^2 has order 15
    with pytest.raises(ValueError):
        CosetEvaluator(field, [1, 1], 1, 1)
    ev = CosetEvaluator(field, [5], 1, 1)
    with pytest.raises(ValueError):
        ev.evaluate(Polynomial(PrimeField(61), (1, 2)))


_SMALL_PRIMES = [p for p in range(3, 400) if is_prime(p)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_coset_evaluator_matches_horner_on_any_coset_union(data):
    q = data.draw(st.sampled_from(_SMALL_PRIMES), label="q")
    order = data.draw(st.sampled_from([m for m in range(1, 49) if (q - 1) % m == 0]), label="m")
    field = PrimeField(q)
    g = build_domain(field, order).generator.value
    subgroup = [pow(g, k, q) for k in range(order)]
    reps, seen = [], set()
    for x in range(1, q):
        if x not in seen:
            reps.append(x)
            seen.update(x * h % q for h in subgroup)
    chosen = data.draw(st.lists(st.sampled_from(reps), min_size=1, unique=True), label="cosets")
    points = data.draw(st.permutations([c * h % q for c in chosen for h in subgroup]))
    coeffs = data.draw(st.lists(st.integers(0, q - 1), max_size=3 * order + 2), label="coeffs")
    p = Polynomial(field, coeffs)
    assert CosetEvaluator(field, points, g, order).evaluate(p) == [p(x).value for x in points]
