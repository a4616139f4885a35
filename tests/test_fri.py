import random

import pytest

from conftest import fold_rounds
from projstark import reference_example as ref
from projstark.fri import fold, fold_value, num_rounds
from projstark.poly import Polynomial


def rand_poly(rng, field, deg):
    coeffs = [rng.randrange(field.modulus) for _ in range(deg)] + [rng.randrange(1, field.modulus)]
    return Polynomial(field, coeffs)


@pytest.fixture(scope="module")
def paper_q(field):
    return Polynomial(field, ref.Q_COEFFS)


@pytest.fixture(scope="module")
def paper_layers(paper_q):
    return fold_rounds(paper_q, ref.COMBINED_DEGREE_BOUND, iter(ref.BETAS))


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
        got = fold_value(field, p.evaluate(x), p.evaluate(-x), x, beta)
        assert got == folded.evaluate(x * x % 331)


def test_fold_value_equals_the_two_inversion_formula_on_all_of_f331(field):
    # (v+ + v-)/2 + beta * (v+ - v-)/(2x), each quotient by a Fermat inversion
    q = field.modulus
    rng = random.Random(23)
    for x in range(1, q):
        v_pos, v_neg, beta = (rng.randrange(q) for _ in range(3))
        even = (v_pos + v_neg) * pow(2, q - 2, q) % q
        odd = (v_pos - v_neg) * pow(2 * x, q - 2, q) % q
        assert fold_value(field, v_pos, v_neg, x, beta) == (even + beta * odd) % q


def test_num_rounds():
    assert num_rounds(0) == 1
    assert num_rounds(1) == 1
    assert num_rounds(2) == 2
    assert num_rounds(3) == 2
    assert num_rounds(4) == 3
    assert num_rounds(28) == 5
    assert num_rounds(56) == 6


def test_fold_paper_layers(paper_layers):
    assert len(paper_layers) == 6  # Q plus five folds, one per beta
    for idx, expected in enumerate(ref.LAYER_COEFFS, start=1):
        assert paper_layers[idx].coeffs == expected
    assert tuple(p.reported_degree for p in paper_layers[1:]) == ref.LAYER_DEGREES
    assert paper_layers[-1].coeffs[0] == ref.FINAL_CONSTANT


def test_fold_rounds_of_constant_input(field):
    layers = fold_rounds(Polynomial(field, (9,)), 1, iter([5]))
    assert len(layers) == 2
    assert layers[-1].coeffs[0] == 9


def test_fold_rounds_leave_overweight_polynomial_nonconstant(field):
    rng = random.Random(19)
    # bound 2^k - 1 folds k times; a degree-2^k polynomial keeps its leading
    # coefficient in the even half every round and never reaches a constant
    for k in (2, 3, 4, 5):
        bound = 2 ** k - 1
        p = rand_poly(rng, field, bound + 1)
        betas = iter([rng.randrange(331) for _ in range(k + 2)])
        assert fold_rounds(p, bound, betas)[-1].reported_degree > 0
