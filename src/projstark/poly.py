"""Univariate polynomial algebra over a prime field.

Coefficients are stored as canonical residues in ascending power order with
trailing zeros trimmed.  The zero polynomial has degree NEG_INF so that it
passes every degree bound.
"""

from __future__ import annotations

import operator
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .field import FieldElement, PrimeField, prime_factors

NEG_INF = float("-inf")

Scalar = Union[int, FieldElement]


def _val(x: Scalar, q: int) -> int:
    if isinstance(x, FieldElement):
        return x.value
    return x % q


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[Scalar] = ()):
        q = field.modulus
        c = [_val(x, q) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls, field: PrimeField) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def constant(cls, field: PrimeField, c: Scalar) -> "Polynomial":
        return cls(field, (c,))

    @classmethod
    def x(cls, field: PrimeField) -> "Polynomial":
        return cls(field, (0, 1))

    @property
    def degree(self):
        """Exact degree; NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def reported_degree(self) -> int:
        """Degree with the zero polynomial reported as 0, the tabulation convention."""
        return max(len(self.coeffs) - 1, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: Scalar) -> FieldElement:
        q = self.field.modulus
        xv = _val(x, q)
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * xv + c) % q
        return FieldElement(acc, self.field)

    def __call__(self, x: Scalar) -> FieldElement:
        return self.evaluate(x)

    def _lift(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        """The other operand of an arithmetic op; a scalar becomes a constant polynomial."""
        if not isinstance(other, Polynomial):
            return Polynomial(self.field, (other,))
        if other.field != self.field:
            raise ValueError("polynomials over different fields")
        return other

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        a, b = self.coeffs, self._lift(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.field.modulus
        return Polynomial(self.field, out)

    __radd__ = __add__

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        a, b = self.coeffs, self._lift(other).coeffs
        n = max(len(a), len(b))
        q = self.field.modulus
        return Polynomial(
            self.field,
            [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % q for i in range(n)],
        )

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return self._lift(other) - self

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        other = self._lift(other)
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero(self.field)
        q = self.field.modulus
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % q
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "Polynomial":
        cv = _val(c, self.field.modulus)
        return Polynomial(self.field, [a * cv for a in self.coeffs])

    def scale_argument(self, c: Scalar) -> "Polynomial":
        """p(c * x), by rescaling coefficient i with c^i."""
        q = self.field.modulus
        cv = _val(c, q)
        out, p = [], 1
        for a in self.coeffs:
            out.append(a * p % q)
            p = p * cv % q
        return Polynomial(self.field, out)

    def __divmod__(self, den: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        den = self._lift(den)
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = self.field.modulus
        rem = list(self.coeffs)
        dc = den.coeffs
        if len(rem) < len(dc):
            return Polynomial.zero(self.field), Polynomial(self.field, rem)
        quot = [0] * (len(rem) - len(dc) + 1)
        lead_inv = pow(dc[-1], q - 2, q)
        for top in range(len(rem) - 1, len(dc) - 2, -1):
            c = rem[top] * lead_inv % q
            if c == 0:
                continue
            shift = top - (len(dc) - 1)
            quot[shift] = c
            for i, d in enumerate(dc):
                rem[shift + i] = (rem[shift + i] - c * d) % q
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)})"


def interpolate(points: Sequence[Tuple[Scalar, Scalar]], field: PrimeField) -> Polynomial:
    """Unique polynomial of degree < len(points) through all (x, y) pairs.

    Lagrange construction via the master product, O(m^2).
    """
    q = field.modulus
    xs = [_val(x, q) for x, _ in points]
    ys = [_val(y, q) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicated x-coordinate in interpolation points")
    if not xs:
        return Polynomial.zero(field)
    master = _product_coeffs(xs, q)
    m = len(xs)
    acc = [0] * m
    for xj, yj in zip(xs, ys):
        # synthetic division of master by (x - xj)
        basis = [0] * m
        basis[m - 1] = master[m]
        for i in range(m - 1, 0, -1):
            basis[i - 1] = (master[i] + xj * basis[i]) % q
        den = 0
        for c in reversed(basis):
            den = (den * xj + c) % q
        w = yj * pow(den, q - 2, q) % q
        if w:
            for i in range(m):
                acc[i] = (acc[i] + w * basis[i]) % q
    return Polynomial(field, acc)


def _product_coeffs(roots: Sequence[int], q: int) -> list:
    out = [1]
    for r in roots:
        out.append(0)
        nr = (-r) % q
        for i in range(len(out) - 1, 0, -1):
            out[i] = (out[i - 1] + out[i] * nr) % q
        out[0] = out[0] * nr % q
    return out


def vanishing(points: Sequence[Scalar], field: PrimeField) -> Polynomial:
    """Monic polynomial with exactly the given roots."""
    q = field.modulus
    xs = [_val(x, q) for x in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicated root in vanishing polynomial")
    return Polynomial(field, _product_coeffs(xs, q))


def divide_exact(num: Polynomial, den: Polynomial) -> Tuple[Polynomial, bool]:
    """Long division; the quotient is meaningful only when the remainder is zero."""
    quot, rem = divmod(num, den)
    return quot, rem.is_zero()


class CosetEvaluator:
    """Evaluation tables on a union of cosets of a cyclic subgroup, by coset DFT.

    `points` must be a union of cosets c·G of the order-m subgroup G generated
    by `omega`; tables come out in the order of `points`, and `index` maps each
    point to its position. For each coset representative c, p(c·y) is reduced
    mod y^m - 1 (coefficient k collects p_i·c^i over i ≡ k mod m), and one
    length-m mixed-radix DFT, decimation in frequency with the smallest prime
    first, gives p(c·omega^j) for every j. The DFT works on m rows, each holding
    one entry per coset, so every butterfly is a list operation over all cosets
    and the plan (index patterns and twiddles) is O(m) per stage.
    """

    def __init__(self, field: PrimeField, points: Sequence[int], omega: Scalar, order: int):
        q = field.modulus
        w = _val(omega, q)
        radices = prime_factors(order)
        if order < 1 or pow(w, order, q) != 1 or any(pow(w, order // r, q) == 1 for r in radices):
            raise ValueError(f"{w} does not have multiplicative order {order} mod {q}")
        self.field = field
        self.order = order
        self.index = {x: i for i, x in enumerate(points)}
        if len(self.index) != len(points):
            raise ValueError("duplicated evaluation point")

        powers = [1] * order
        for k in range(1, order):
            powers[k] = powers[k - 1] * w % q

        # Stage with radix r on blocks of length b = r·s: for every block and
        # k1 < s, row k1 + s·j2 becomes sum_k2 w_b^(j2·(k1 + s·k2)) · row(k1 + s·k2),
        # w_b = w^(order/b) of order b. For r = 2 that matrix is [[1, 1], [t, -t]]
        # with t = w_b^k1, so only t is kept: the two-list butterfly it allows
        # costs half the general matrix product, and radix 2 is most stages.
        self._stages = []
        block = order
        for r in radices:
            span = block // r
            step = order // block
            butterflies = []
            for k1 in range(span):
                if r == 2:
                    shape = powers[step * k1]
                else:
                    shape = tuple(
                        tuple(powers[step * (j2 * (k1 + span * k2) % block)] for k2 in range(r))
                        for j2 in range(r)
                    )
                rows = tuple(k1 + span * k2 for k2 in range(r))
                butterflies.append((rows, shape))
            self._stages.append((r, block, butterflies))
            block = span

        # After the last stage, row p holds the DFT output at the mixed-radix
        # digit reversal freq[p] of p; entry t of that row is the value at
        # reps[t]·w^freq[p]. gather maps each point to its flat row-major slot.
        freq = [0]
        for r in reversed(radices):
            freq = [r * f + j2 for j2 in range(r) for f in freq]
        count, extra = divmod(len(points), order)
        if extra:
            raise ValueError(f"{len(points)} points cannot be a union of cosets of order {order}")
        reps: List[int] = []
        gather: List[Optional[int]] = [None] * len(points)
        for x in points:
            if gather[self.index[x]] is not None:
                continue
            t = len(reps)
            reps.append(x)
            for row, f in enumerate(freq):
                i = self.index.get(x * powers[f] % q)
                if i is None:
                    raise ValueError(f"the coset of {x} is not contained in the points")
                gather[i] = row * count + t
        self._reps = reps
        self._gather = gather

    def evaluate(self, poly: Polynomial) -> List[int]:
        """[poly(x) for x in points] as canonical residues."""
        if poly.field != self.field:
            raise ValueError("polynomial over a different field")
        q = self.field.modulus
        m = self.order
        reps = self._reps
        zero = [0] * len(reps)
        rows = [zero] * m
        pw = [1] * len(reps)  # c^i for every representative c
        last = len(poly.coeffs) - 1
        for i, a in enumerate(poly.coeffs):
            if a:
                k = i % m
                if i < m:
                    rows[k] = [a * x % q for x in pw]
                else:
                    rows[k] = [(v + a * x) % q for v, x in zip(rows[k], pw)]
            if i < last:
                pw = [x * c % q for x, c in zip(pw, reps)]

        for r, block, butterflies in self._stages:
            for base in range(0, m, block):
                for idx, shape in butterflies:
                    if r == 2:
                        i0, i1 = base + idx[0], base + idx[1]
                        x0, x1 = rows[i0], rows[i1]
                        rows[i0] = [(a + b) % q for a, b in zip(x0, x1)]
                        rows[i1] = [(a - b) * shape % q for a, b in zip(x0, x1)]
                    else:
                        cols = list(zip(*[rows[base + i] for i in idx]))
                        for i, ws in zip(idx, shape):
                            rows[base + i] = [
                                sum(map(operator.mul, ws, col)) % q for col in cols
                            ]

        flat = [v for row in rows for v in row]
        return [flat[i] for i in self._gather]
