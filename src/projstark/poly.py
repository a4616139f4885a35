"""Univariate polynomial algebra over a prime field.

A polynomial keeps integers congruent mod q to its coefficients, ascending,
and reads them as canonical residues with trailing zeros trimmed, so the zero
polynomial has no coefficients.  Scalars, points and values are plain ints; a
scalar operand acts as a constant polynomial.
"""

from __future__ import annotations

import operator
import struct
from functools import lru_cache
from itertools import chain, repeat, zip_longest
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .field import PrimeField, prime_factors


class Polynomial:
    """A polynomial kept as `values`, integers congruent mod q to its
    coefficients. `coeffs` reduces and trims them when first read, and from
    then on they serve as the values too. +, - and a scalar * reduce nothing;
    a product reduces only its two factors, for `_kronecker`."""

    __slots__ = ("field", "values", "_coeffs")

    def __init__(self, field: PrimeField, values: Iterable[int] = ()):
        self.field = field
        self.values = tuple(values)
        self._coeffs = None

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """The canonical residues, ascending, trailing zeros trimmed: values
        already in [0, q), one min/max test, are not reduced again."""
        c = self._coeffs
        if c is None:
            c, q = self.values, self.field.modulus
            if c and (min(c) < 0 or max(c) >= q):
                c = [x % q for x in c]
            end = len(c)
            while end and not c[end - 1]:
                end -= 1
            c = self._coeffs = self.values = tuple(c[:end])
        return c

    @property
    def reported_degree(self) -> int:
        """Degree with the zero polynomial reported as 0, the tabulation convention."""
        return max(len(self.coeffs) - 1, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: int) -> int:
        """The value at x, by Horner's rule."""
        q = self.field.modulus
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % q
        return acc

    def _lift(self, other: Union["Polynomial", int]) -> "Polynomial":
        """The other operand of an arithmetic op; a scalar becomes a constant polynomial."""
        if not isinstance(other, Polynomial):
            return Polynomial(self.field, (other,))
        if other.field != self.field:
            raise ValueError("polynomials over different fields")
        return other

    def __add__(self, other: Union["Polynomial", int]) -> "Polynomial":
        return Polynomial(self.field,
                          elementwise(operator.add, self.values, self._lift(other).values))

    __radd__ = __add__

    def __sub__(self, other: Union["Polynomial", int]) -> "Polynomial":
        return Polynomial(self.field,
                          elementwise(operator.sub, self.values, self._lift(other).values))

    def __rsub__(self, other: int) -> "Polynomial":
        return self._lift(other) - self

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, map(operator.neg, self.values))

    def __mul__(self, other: Union["Polynomial", int]) -> "Polynomial":
        """Product by Kronecker substitution (`_kronecker`) of the two reduced
        factors; a scalar operand scales each value instead."""
        if not isinstance(other, Polynomial):
            return self.scale(other)
        return Polynomial(self.field,
                          _kronecker(self.coeffs, self._lift(other).coeffs, self.field.modulus))

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        return Polynomial(self.field, map(operator.mul, self.values, repeat(c)))

    def scale_argument(self, c: int) -> "Polynomial":
        """p(c * x), by rescaling coefficient i with c^i."""
        q = self.field.modulus
        out, p = [], 1
        for a in self.coeffs:
            out.append(a * p % q)
            p = p * c % q
        return Polynomial(self.field, out)

    def __divmod__(self, den: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        den = self._lift(den)
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = self.field.modulus
        rem = list(self.coeffs)
        dc = den.coeffs
        if len(rem) < len(dc):
            return Polynomial(self.field), Polynomial(self.field, rem)
        quot = [0] * (len(rem) - len(dc) + 1)
        lead_inv = pow(dc[-1], -1, q)
        # a sparse divisor such as x^m - 1 costs O(deg) instead of O(deg·m)
        terms = [(i, d) for i, d in enumerate(dc) if d]
        for top in range(len(rem) - 1, len(dc) - 2, -1):
            c = rem[top] * lead_inv % q
            if c == 0:
                continue
            shift = top - (len(dc) - 1)
            quot[shift] = c
            for i, d in terms:
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


def elementwise(op, a: Sequence[int], b: Sequence[int]) -> Iterator[int]:
    """op(a[i], b[i]) over the longer of a and b, the shorter padded with
    zeros: an iterator, so the caller builds its tuple from it once."""
    if len(a) >= len(b):
        return chain(map(op, a, b), map(op, a[len(b):], repeat(0)))
    return chain(map(op, a, b), map(op, repeat(0), b[len(a):]))


_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # machine words struct moves as one int
# Widest power row (T slots) that CosetEvaluator multiplies by a packed column
# of coefficients: that product costs about T·W digit operations per slot of
# the batch, so wider rows fold each polynomial alone and pack the sums.
_COLUMN_FOLD_BYTES = 64


@lru_cache(maxsize=256)
def _layout(count: int, width: int, word: int) -> struct.Struct:
    """count width-byte slots, each a machine word of `word` bytes and
    width - word pad bytes above it: zero when packed, skipped when unpacked."""
    code, pad = _WORDS[word], width - word
    return struct.Struct("<" + f"{code}{pad}x" * count if pad else f"<{count}{code}")


def _pack(values: Iterable[int], width: int, word: Optional[int] = None) -> int:
    """sum_i values[i]·2^(8·width·i): each non-negative value in a width-byte
    slot, lowest first. A value wider than its slot, or negative, raises
    OverflowError.

    With `word`, a machine word of at most width bytes that every value fits
    in, each slot is written as that word and zero bytes above it, by one
    struct call; so is every slot when width is itself a machine word. Any
    other slot is written by int.to_bytes."""
    word = word or width
    if word not in _WORDS:
        return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")
    values = tuple(values)
    try:
        return int.from_bytes(_layout(len(values), width, word).pack(*values), "little")
    except struct.error as exc:
        raise OverflowError(f"a value does not fit a {word}-byte word") from exc


def _unpack(value: int, count: int, width: int, word: Optional[int] = None) -> List[int]:
    """The count width-byte slots of value < 2^(8·width·count), lowest first.

    With `word`, a machine word of at most width bytes that every slot is
    below, only the low word bytes of each slot are read, by one struct call;
    so is every slot when width is itself a machine word. Any other slot is
    cut out whole and read by int.from_bytes."""
    data = value.to_bytes(count * width, "little")
    word = word or width
    if word in _WORDS:
        return list(_layout(count, width, word).unpack(data))
    slots = struct.unpack(f"{width}s" * count, data)
    return list(map(int.from_bytes, slots, repeat("little")))


def _residue_word(q: int) -> Optional[int]:
    """The narrowest machine word that a residue mod q fits in, or None."""
    return next((w for w in sorted(_WORDS) if not (q - 1) >> 8 * w), None)


def _fold_plan(bound: int, q: int, width: int) -> Tuple[Tuple[Tuple[int, int], ...], Optional[int]]:
    """The splits (s, 2^s mod q) of the row fold (`_fold_row`) that bring
    width-byte slots of at most `bound` below a machine word of at most width
    bytes, and that word; or no splits and None if none get there. The word is
    the widest that greedy splits reach, each split at the s that leaves the
    smallest bound (2^s - 1) + floor(M/2^s)·(2^s mod q), while that is below M."""
    twos = [pow(2, s, q) for s in range(bound.bit_length())]
    for word in sorted(_WORDS, reverse=True):
        if word > width:
            continue
        splits, top = [], bound
        while top >> 8 * word:
            after, s = min(((1 << s) - 1 + (top >> s) * twos[s], s)
                           for s in range(1, top.bit_length()))
            if after >= top:
                break
            top = after
            splits.append((s, twos[s]))
        else:
            return tuple(splits), word
    return (), None


@lru_cache(maxsize=32)
def _fold_masks(count: int, width: int, splits: Tuple[Tuple[int, int], ...]) -> tuple:
    """Per split (s, c): s, c and the masks of a row of count width-byte
    slots that keep, in every slot, its low s bits and the 8·width - s bits
    above them."""
    ones = _pack(repeat(1, count), width)
    return tuple((s, c, ones * ((1 << s) - 1), ones * ((1 << 8 * width - s) - 1))
                 for s, c in splits)


def _fold_row(row: int, masks: tuple) -> int:
    """Each slot x = lo + hi·2^s replaced by lo + hi·(2^s mod q), its residue
    kept, split after split, by a few operations on the whole row (SWAR)."""
    for s, c, low, high in masks:
        row = (row & low) + (row >> s & high) * c
    return row


@lru_cache(maxsize=64)
def _product_plan(q: int, bits: int) -> Tuple[int, Optional[int], tuple, Optional[int]]:
    """For product slots below 2^bits: the slot width in bytes, the machine
    word a residue is packed in (None: the whole slot), the row fold's splits
    and the word each slot is read in after them (None: the whole slot)."""
    width = -(-bits // 8)
    splits, word = _fold_plan((1 << bits) - 1, q, width)
    # a slot that is a machine word packs as one; otherwise a residue takes the
    # narrowest word that holds it, at most width bytes as a slot holds 2·bitlen(q-1) bits
    return width, width if width in _WORDS else _residue_word(q), splits, word


def _kronecker(a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
    """Integers congruent mod q to the coefficients of the product of a and b,
    lists of residues in [0, q), by Kronecker substitution: one big-integer
    multiplication: Polynomial's one product.

    Each operand is packed into one integer, one whole-byte slot per
    coefficient. A product coefficient is a sum of at most min(len a, len b)
    terms of at most (q-1)^2, so it fits in 2·bitlen(q-1) + bitlen(min) bits;
    the slot is that many bits rounded up to whole bytes, so slots never carry
    into each other. The row fold then brings every slot below a machine word,
    read by one struct call (at q = 12289 one split takes 5-byte slots below
    2^32); a slot no split brings below a word is read whole."""
    if not a or not b:
        return []
    count = len(a) + len(b) - 1
    width, coeff_word, splits, word = _product_plan(
        q, 2 * (q - 1).bit_length() + min(len(a), len(b)).bit_length())
    row = _pack(a, width, coeff_word) * _pack(b, width, coeff_word)
    if splits:
        row = _fold_row(row, _fold_masks(count, width, splits))
    return _unpack(row, count, width, word)


def interpolate(points: Sequence[Tuple[int, int]], field: PrimeField) -> Polynomial:
    """Unique polynomial of degree < len(points) through all (x, y) pairs.

    Lagrange construction via the master product, O(m^2), for arbitrary
    points. The prover interpolates trace columns over the subgroup H with
    one inverse DFT instead (air.build_trace_polys).
    """
    q = field.modulus
    xs = [x % q for x, _ in points]
    ys = [y % q for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicated x-coordinate in interpolation points")
    if not xs:
        return Polynomial(field)
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
        w = yj * pow(den, -1, q) % q
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


def vanishing(points: Sequence[int], field: PrimeField) -> Polynomial:
    """Monic polynomial with exactly the given roots."""
    q = field.modulus
    xs = [x % q for x in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicated root in vanishing polynomial")
    return Polynomial(field, _product_coeffs(xs, q))


class CosetEvaluator:
    """Evaluation tables on a union of cosets of a cyclic subgroup, by coset DFT.

    `reps` are representatives c_t of cosets c_t·G of the order-m subgroup G
    generated by `omega`, which the caller keeps distinct. A table lists the
    values coset by coset, each in power order: p(c_t·omega^i) at t·m + i.
    For each polynomial p and representative c, p(c·y) is reduced mod y^m - 1
    (coefficient k collects p_i·c^i over i ≡ k mod m), and one length-m
    mixed-radix DFT, decimation in frequency with the smallest prime first,
    gives p(c·omega^j) for every j.

    The DFT works on m packed rows. Row k is one integer with a W-byte slot per
    (polynomial, representative) pair, slot s·T + t for polynomial s and
    representative t of T, so every butterfly is a few big-integer operations
    over a whole batch of polynomials. The slots are never reduced mod q inside
    the DFT; instead W is wide enough for the largest value any slot can reach.
    That bound starts at ceil(L/m)·(q-1)^2 after the fold (L the longest
    coefficient list) and is tracked through every stage. A radix-2 butterfly
    maps (x0, x1) to (x0 + x1, (x0 + B - x1)·t), where B holds in every slot
    the same multiple of q, at least the slot bound, so no slot goes negative
    or borrows from its neighbour; the bound becomes max(2M, (M + B)·t_max).
    A radix-r stage multiplies the bound by its largest matrix row sum. Rows
    are packed and split by `_pack` and `_unpack`, the whole-byte slot layout
    of `_kronecker`. Where a power row (T slots) is at most
    _COLUMN_FOLD_BYTES wide, the fold multiplies it by coefficient i of every
    polynomial packed side by side, one product per i for the whole batch;
    otherwise each polynomial is folded alone and its rows packed beside the
    others'.

    Before a row is unpacked, a row fold (`_fold_row`) brings every slot below
    a machine word with a few operations on the whole row: a split at bit s
    writes the slot x as lo + hi·2^s and replaces it with lo + hi·(2^s mod q),
    its residue unchanged. `_slot_plan` plans the splits from the final slot
    bound, so no slot outgrows its W bytes. The row is
    then read one machine word per slot with one struct call, and every value
    is reduced mod q once. Where no splits reach a machine word, as for
    q near 2^64 (Goldilocks), whose residues alone fill one, each slot is
    read whole by int.from_bytes.

    A plan keeps, for its later calls, the power rows of each slot width
    (`_powers`), the slot plan of each fold length and, for each row width,
    where each table entry lies. A plan built with a `scale` s gives
    s·p(x) for every point: its power rows hold s·c^i mod q, so the tables
    leave the DFT scaled and reduced once.
    """

    def __init__(self, field: PrimeField, reps: Sequence[int], omega: int, order: int,
                 scale: int = 1):
        q = field.modulus
        w = omega % q
        radices = prime_factors(order)
        if order < 1 or pow(w, order, q) != 1 or any(pow(w, order // r, q) == 1 for r in radices):
            raise ValueError(f"{w} does not have multiplicative order {order} mod {q}")
        self.field = field
        self.order = order
        powers = [1] * order
        for k in range(1, order):
            powers[k] = powers[k - 1] * w % q

        # Stage with radix r on blocks of length b = r·s: for every block and
        # k1 < s, row k1 + s·j2 becomes sum_k2 w_b^(j2·(k1 + s·k2)) · row(k1 + s·k2),
        # w_b = w^(order/b) of order b. For r = 2 that matrix is [[1, 1], [t, -t]]
        # with t = w_b^k1, so only t is kept: the butterfly it allows costs half
        # the general matrix product, and radix 2 is most stages. A stage keeps
        # one twiddle t or matrix per k1; `growth` maps a slot bound M before
        # the stage to the bound after it.
        self._stages = []
        block = order
        for r in radices:
            span = block // r
            step = order // block
            if r == 2:
                shapes = [powers[step * k1] for k1 in range(span)]
                growth = max(shapes)
            else:
                shapes = [
                    tuple(
                        tuple(powers[step * (j2 * (k1 + span * k2) % block)] for k2 in range(r))
                        for j2 in range(r)
                    )
                    for k1 in range(span)
                ]
                growth = max(sum(ws) for shape in shapes for ws in shape)
            self._stages.append((r, block, shapes, growth))
            block = span

        # After the last stage, row p holds the DFT output at the mixed-radix
        # digit reversal freq[p] of p: in slot t of a polynomial, the value at
        # reps[t]·w^freq[p]. _rows[i] is the row that holds power i.
        freq = [0]
        for r in reversed(radices):
            freq = [r * f + j2 for j2 in range(r) for f in freq]
        self._rows = [0] * order
        for row, f in enumerate(freq):
            self._rows[f] = row
        self._reps = list(reps)
        self._picks: Dict[int, List[int]] = {}  # row width in slots -> gather
        self._power_rows: Dict[int, List[int]] = {}
        self._slot_plans: Dict[int, tuple] = {}
        self._coeff_word = _residue_word(q)
        self._scale = scale % q

    def _slot_plan(
        self, length: int
    ) -> Tuple[int, List[int], Tuple[Tuple[int, int], ...], Optional[int]]:
        """For coefficient lists of at most `length` entries: the slot width W
        in bytes, the bias of every stage (0 for radix > 2), and `_fold_plan`'s
        row fold from the final slot bound: its splits and the machine word, at
        most W bytes, that every slot is below after them, or None if no
        splits get there. Kept per ceil(length/m), on which alone the plan
        depends."""
        key = -(-max(length, 1) // self.order)
        plan = self._slot_plans.get(key)
        if plan is not None:
            return plan
        q = self.field.modulus
        bound = key * (q - 1) ** 2  # after the fold
        biases = []
        for r, _, _, growth in self._stages:
            if r == 2:
                biases.append(-(-bound // q) * q)
                bound = max(2 * bound, (bound + biases[-1]) * growth)
            else:
                biases.append(0)
                bound *= growth
        width = -(-bound.bit_length() // 8)
        plan = (width, biases, *_fold_plan(bound, q, width))
        self._slot_plans[key] = plan
        return plan

    def _powers(self, length: int, width: int) -> List[int]:
        """Packed rows of c^i for i < length at least, one width-byte slot per
        representative c, kept per width: a longer list builds a longer copy
        that replaces the kept one, never extended in place, so a concurrent
        caller reads either copy, both complete."""
        rows = self._power_rows.get(width, [])
        if len(rows) < length:
            q, reps = self.field.modulus, self._reps
            row = [self._scale * pow(c, len(rows), q) % q for c in reps]
            rows = list(rows)
            while len(rows) < length:
                rows.append(_pack(row, width))
                row = [x * c % q for x, c in zip(row, reps)]
            self._power_rows[width] = rows
        return rows

    def evaluate(self, polys: Sequence[Polynomial]) -> List[List[int]]:
        """[[s·p(c·w^i) for c in reps for i < m] for p in polys], s the plan's
        scale and w its omega, as canonical residues, by one DFT."""
        q = self.field.modulus
        m = self.order
        for poly in polys:
            if poly.field != self.field:
                raise ValueError("polynomial over a different field")
        if not polys:
            return []
        coeffs = [poly.coeffs for poly in polys]
        length = max(map(len, coeffs))
        width, biases, splits, word = self._slot_plan(length)
        count = len(self._reps)
        slots = len(polys) * count
        powers = self._powers(length, width)

        # fold, m coefficients at a time: row k of a polynomial is
        # sum_(i ≡ k mod m) a_i·c^i in its T slots, power row i holding every
        # c^i; a batch has its polynomials' rows side by side, stride bytes each
        def fold(a):
            out = [0] * m
            for j in range(0, len(a), m):
                out[:len(a) - j] = map(operator.add, out,
                                       map(operator.mul, a[j:j + m], powers[j:j + m]))
            return out

        stride = width * count
        if len(polys) == 1:
            rows = fold(coeffs[0])
        elif stride <= _COLUMN_FOLD_BYTES:
            # coefficient i of each polynomial side by side, stride bytes
            # apart, times power row i puts every a_i·c^i in its slot at once
            rows = fold([_pack(c, stride, self._coeff_word)
                         for c in zip_longest(*coeffs, fillvalue=0)])
        else:
            rows = [_pack(r, stride) for r in zip(*map(fold, coeffs))]

        ones = _pack(repeat(1, slots), width)
        for (r, block, shapes, _), bias in zip(self._stages, biases):
            span = block // r
            bias *= ones
            for base in range(0, m, block):
                if r == 2:
                    for i0, t in enumerate(shapes, base):
                        i1 = i0 + span
                        x0, x1 = rows[i0], rows[i1]
                        rows[i0] = x0 + x1
                        rows[i1] = (x0 + bias - x1) * t
                else:
                    for k, shape in enumerate(shapes, base):
                        idx = range(k, k + block, span)
                        xs = [rows[i] for i in idx]
                        for i, ws in zip(idx, shape):
                            rows[i] = sum(map(operator.mul, ws, xs))

        # Row-fold and reduce every row into one flat list, slot j of row k at
        # k·slots + j. picks[t·m + i] is where the first polynomial's value at
        # reps[t]·w^i sits; dropping the first T values moves the next
        # polynomial's there.
        flat: List[int] = []
        masks = _fold_masks(slots, width, splits)
        for k in range(m):
            flat += [v % q for v in _unpack(_fold_row(rows[k], masks), slots, width, word)]
            rows[k] = None
        picks = self._picks.get(slots)
        if picks is None:
            picks = self._picks[slots] = [row * slots + t for t in range(count)
                                          for row in self._rows]
        tables = []
        for _ in polys:
            tables.append(list(map(flat.__getitem__, picks)))
            del flat[:count]
        return tables
