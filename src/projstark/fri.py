"""FRI low-degree testing: even/odd folding, the per-point fold, and the commit phase."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .field import PrimeField
from .poly import Polynomial


class DegreeTestFailedError(RuntimeError):
    """The final FRI layer is not constant for the claimed degree bound."""


@dataclass(frozen=True)
class FriLayer:
    poly: Polynomial
    beta: Optional[int]  # challenge folding this layer into the next; None on the last


def split_even_odd(p: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """Q(x) = Q_e(x^2) + x * Q_o(x^2)."""
    return (
        Polynomial(p.field, p.coeffs[0::2]),
        Polynomial(p.field, p.coeffs[1::2]),
    )


def fold(p: Polynomial, beta: int) -> Polynomial:
    """Q_e + beta * Q_o; degree at most floor(deg/2)."""
    even, odd = split_even_odd(p)
    return even + odd.scale(beta)


def fold_value(field: PrimeField, v_pos: int, v_neg: int, x: int, beta: int) -> int:
    """Next-layer value at x^2 from Q(x) and Q(-x)."""
    q = field.modulus
    inv2 = pow(2, q - 2, q)
    even = (v_pos + v_neg) * inv2 % q
    odd = (v_pos - v_neg) * pow(2 * x % q, q - 2, q) % q
    return (even + beta * odd) % q


def num_rounds(bound: int) -> int:
    """floor(log2(bound)) + 1 folds bring a degree <= bound polynomial to a constant."""
    return max(bound, 1).bit_length()


def commit_phase(p: Polynomial, bound: int, betas: Iterator[int]) -> List[FriLayer]:
    """Fold num_rounds(bound) times; the final layer must come out constant."""
    rounds = num_rounds(bound)
    layers = []
    current = p
    for _ in range(rounds):
        beta = next(betas)
        layers.append(FriLayer(poly=current, beta=beta))
        current = fold(current, beta)
    layers.append(FriLayer(poly=current, beta=None))
    if current.reported_degree > 0:
        raise DegreeTestFailedError(
            f"final layer has degree {current.reported_degree} after {rounds} folds "
            f"(claimed bound {bound})"
        )
    return layers
