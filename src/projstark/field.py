"""Prime field arithmetic and cyclic evaluation domains."""

from __future__ import annotations

from math import gcd
from typing import Union


class FieldMismatchError(ValueError):
    """Raised when combining elements of different prime fields."""


class NoSubgroupError(ValueError):
    """Raised when the requested subgroup order does not divide q - 1."""


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field of integers mod a prime q >= 3."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        if modulus < 3 or not is_prime(modulus):
            raise ValueError(f"modulus must be a prime >= 3, got {modulus}")
        self.modulus = modulus

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(value % self.modulus, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus})"


class FieldElement:
    """Canonical residue in [0, q); immutable."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value % field.modulus
        self.field = field

    def _coerce(self, other: Union["FieldElement", int]) -> "FieldElement":
        if isinstance(other, int):
            return FieldElement(other, self.field)
        if other.field != self.field:
            raise FieldMismatchError(
                f"elements of F_{self.field.modulus} and F_{other.field.modulus} do not mix"
            )
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.value + other.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement(self.value - other.value, self.field)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement(self.value * other.value, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.field)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        return FieldElement(pow(self.value, exponent, self.field.modulus), self.field)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        q = self.field.modulus
        return FieldElement(pow(self.value, q - 2, q), self.field)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return str(self.value)


def prime_factors(n: int) -> list:
    """Prime factors of n with multiplicity, smallest first."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class CyclicDomain:
    """The order-n subgroup of F_q*, listed in power order g^0, g^1, ..."""

    __slots__ = ("field", "generator", "order", "elements")

    def __init__(self, field: PrimeField, generator: FieldElement, order: int):
        self.field = field
        self.generator = generator
        self.order = order
        elems = []
        acc = field.one
        for _ in range(order):
            elems.append(acc)
            acc = acc * generator
        if acc != field.one:
            raise ValueError(f"{generator} does not have order {order}")
        self.elements = tuple(elems)

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __repr__(self) -> str:
        return f"CyclicDomain(q={self.field.modulus}, g={self.generator}, n={self.order})"


def build_domain(field: PrimeField, n: int) -> CyclicDomain:
    """Order-n cyclic subgroup of F_q*, generated by the smallest h >= 2 of exact order n.

    F_q* is cyclic, so its elements of exact order n are the w^k with
    gcd(k, n) = 1 for any one w of that order, and w = c^((q-1)/n) has it
    unless c is a p-th power for some prime p dividing n. The first such c
    is small, so finding w and then the least w^k takes O(n) steps, not O(q).
    """
    q = field.modulus
    if n <= 0 or (q - 1) % n != 0:
        raise NoSubgroupError(f"F_{q}* has no subgroup of order {n}: {n} does not divide {q - 1}")
    if n == 1:
        return CyclicDomain(field, field.one, 1)
    factors = set(prime_factors(n))
    # a generator of F_q* is below q, so the scan ends
    w = next(w for w in (pow(c, (q - 1) // n, q) for c in range(2, q))
             if all(pow(w, n // p, q) != 1 for p in factors))
    g, power = w, w
    for k in range(2, n):
        power = power * w % q
        if power < g and gcd(k, n) == 1:
            g = power
    return CyclicDomain(field, field(g), n)
