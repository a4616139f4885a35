import random

import pytest

from projstark import reference_example as ref
from projstark.fri import (
    DegreeTestFailedError,
    commit_phase,
    fold,
    fold_value,
    num_rounds,
    split_even_odd,
)
from projstark.poly import Polynomial


def rand_poly(rng, field, deg):
    coeffs = [rng.randrange(field.modulus) for _ in range(deg)] + [rng.randrange(1, field.modulus)]
    return Polynomial(field, coeffs)


@pytest.fixture(scope="module")
def paper_q(field):
    return Polynomial(field, ref.Q_COEFFS)


@pytest.fixture(scope="module")
def paper_layers(paper_q):
    return commit_phase(paper_q, ref.COMBINED_DEGREE_BOUND, iter(ref.BETAS))


def test_split_even_odd(field):
    p = Polynomial(field, (1, 2, 3, 4, 5))
    even, odd = split_even_odd(p)
    assert even.coeffs == (1, 3, 5)
    assert odd.coeffs == (2, 4)


def test_split_even_odd_constant(field):
    even, odd = split_even_odd(Polynomial(field, (7,)))
    assert even.coeffs == (7,)
    assert odd.is_zero()


def test_split_identity_randomized(field):
    rng = random.Random(3)
    x = Polynomial.x(field)
    for _ in range(20):
        p = rand_poly(rng, field, rng.randrange(12))
        even, odd = split_even_odd(p)
        x2 = x * x
        # Q(x) = Q_e(x^2) + x * Q_o(x^2)
        recomposed = _compose(even, x2, field) + x * _compose(odd, x2, field)
        assert recomposed == p


def _compose(p, inner, field):
    acc = Polynomial.zero(field)
    power = Polynomial.constant(field, 1)
    for c in p.coeffs:
        acc = acc + power.scale(c)
        power = power * inner
    return acc


def test_fold_halves_degree_randomized(field):
    rng = random.Random(13)
    for _ in range(30):
        p = rand_poly(rng, field, rng.randrange(1, 40))
        beta = rng.randrange(331)
        assert fold(p, beta).reported_degree <= p.reported_degree // 2


def test_fold_of_constant_is_constant(field):
    c = Polynomial(field, (42,))
    assert fold(c, 123) == c


def test_fold_agrees_with_fold_value(field):
    rng = random.Random(17)
    for _ in range(30):
        p = rand_poly(rng, field, rng.randrange(1, 20))
        beta = rng.randrange(331)
        folded = fold(p, beta)
        x = rng.randrange(1, 331)
        got = fold_value(field, p(x).value, p(-x).value, x, beta)
        assert got == folded(x * x % 331).value


def test_num_rounds():
    assert num_rounds(0) == 1
    assert num_rounds(1) == 1
    assert num_rounds(2) == 2
    assert num_rounds(3) == 2
    assert num_rounds(4) == 3
    assert num_rounds(28) == 5
    assert num_rounds(56) == 6


def test_commit_phase_paper_layers(paper_layers):
    assert len(paper_layers) == 6  # Q plus five folds
    for idx, expected in enumerate(ref.LAYER_COEFFS, start=1):
        assert paper_layers[idx].poly.coeffs == expected
    assert tuple(l.poly.reported_degree for l in paper_layers[1:]) == ref.LAYER_DEGREES
    assert paper_layers[-1].poly.coeffs[0] == ref.FINAL_CONSTANT
    assert tuple(l.beta for l in paper_layers[:-1]) == ref.BETAS
    assert paper_layers[-1].beta is None


def test_commit_phase_constant_input(field):
    layers = commit_phase(Polynomial(field, (9,)), 1, iter([5]))
    assert len(layers) == 2
    assert layers[-1].poly.coeffs[0] == 9


def test_commit_phase_rejects_overweight_polynomial(field):
    rng = random.Random(19)
    # bound 2^k - 1 folds k times; a degree-2^k polynomial keeps its leading
    # coefficient in the even half every round and never reaches a constant
    for k in (2, 3, 4, 5):
        bound = 2 ** k - 1
        p = rand_poly(rng, field, bound + 1)
        betas = iter([rng.randrange(331) for _ in range(k + 2)])
        with pytest.raises(DegreeTestFailedError):
            commit_phase(p, bound, betas)
