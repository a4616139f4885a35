"""Prime fields and their cyclic evaluation domains; elements are plain ints in [0, q)."""

from __future__ import annotations

from math import gcd


class NoSubgroupError(ValueError):
    """Raised when the requested subgroup order does not divide q - 1."""


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases.

    Exact for n < 3.3 * 10^24: the least strong pseudoprime to every one of
    these bases is 3317044064679887385961981 (without base 41 it would be
    318665857834031151167461). Above that bound it is a strong-probable-prime
    test, and a composite can pass it.
    """
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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus})"


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

    def __init__(self, field: PrimeField, generator: int, order: int):
        self.field = field
        self.generator = generator
        self.order = order
        q = field.modulus
        elems = []
        acc = 1
        for _ in range(order):
            elems.append(acc)
            acc = acc * generator % q
        if acc != 1:
            raise ValueError(f"{generator} does not have order {order}")
        self.elements = tuple(elems)

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
        return CyclicDomain(field, 1, 1)
    factors = set(prime_factors(n))
    # a generator of F_q* is below q, so the scan ends
    w = next(w for w in (pow(c, (q - 1) // n, q) for c in range(2, q))
             if all(pow(w, n // p, q) != 1 for p in factors))
    g, power = w, w
    for k in range(2, n):
        power = power * w % q
        if power < g and gcd(k, n) == 1:
            g = power
    return CyclicDomain(field, g, n)
