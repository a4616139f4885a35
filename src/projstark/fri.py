"""FRI low-degree testing: even/odd folding, the per-point fold the verifier
checks, and the number of folds that bring a degree bound to a constant."""

from __future__ import annotations

from .field import PrimeField
from .poly import Polynomial


def fold(p: Polynomial, beta: int) -> Polynomial:
    """Q_e + beta * Q_o, where Q(x) = Q_e(x^2) + x * Q_o(x^2); degree at most floor(deg/2)."""
    even = Polynomial(p.field, p.coeffs[0::2])
    return even + Polynomial(p.field, p.coeffs[1::2]).scale(beta)


def fold_value(field: PrimeField, v_pos: int, v_neg: int, x: int, beta: int) -> int:
    """Next-layer value at x^2 from Q(x) and Q(-x): Q_e(x^2) + beta * Q_o(x^2)
    with Q_e(x^2) = (Q(x) + Q(-x))/2 and Q_o(x^2) = (Q(x) - Q(-x))/(2x), over
    the one denominator 2x, so one inversion."""
    q = field.modulus
    return ((v_pos + v_neg) * x + beta * (v_pos - v_neg)) * pow(2 * x, -1, q) % q


def num_rounds(bound: int) -> int:
    """floor(log2(bound)) + 1 folds bring a degree <= bound polynomial to a constant."""
    return max(bound, 1).bit_length()
