"""Algebraic intermediate representation of an execution trace.

Turns the trace into column interpolants over the cyclic domain, section by
section of dynamics.SECTIONS, and the constraint numerators, divides a
numerator by the step-domain vanishing polynomial, and takes random-weighted
sums.  Floor division is linear, so the prover combines the numerators with
the weights first and divides once, as the verifier's consistency check does
pointwise.  The counts derived from that shape are here too, and the two
AIRs, which share every constraint family but the transition: the paper's,
which replay proofs use, and a degree-2 one for Fiat-Shamir proofs, which
halves Q's worst-case degree bound.

Numerators, quotients and weights are flat lists in the order the weights are
drawn: entry k is family FAMILIES[k // n] at coordinate k % n.  The degree
tables of the worked example list the two bit families in the opposite order;
the replay fixture reorders for presentation only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub
from typing import Callable, List, NamedTuple, Sequence, Tuple, Union

from .dynamics import SECTIONS, ExecutionTrace, SystemSpec
from .field import CyclicDomain, PrimeField
from .poly import CosetEvaluator, Polynomial, elementwise
# Unused here, but the benchmark tracer wraps air.interpolate and air.vanishing by name.
from .poly import interpolate, vanishing  # noqa: F401

FAMILIES = ("transition", "slack", "upper_bit", "lower_bit")  # of constraints, n each


def trace_width(spec: SystemSpec) -> int:
    """The trace's columns: n per section."""
    return len(SECTIONS) * spec.n


def constraint_count(spec: SystemSpec) -> int:
    """The constraint numerators, and so the weights drawn for them: n per family."""
    return len(FAMILIES) * spec.n


def by_section(row: Sequence, n: int) -> list:
    """The first trace_width values of row, cut into its n-wide sections."""
    return [row[k * n:(k + 1) * n] for k in range(len(SECTIONS))]


class FieldOverflowError(ValueError):
    """A trace cell has magnitude >= q, so reducing it mod q would change it."""


class InvalidTraceError(ValueError):
    """The honest prover refuses the trace, on its integer rows: it fails the
    boundary condition, an online check or a step constraint."""


def lift_trace(trace: ExecutionTrace, field: PrimeField) -> ExecutionTrace:
    """The trace reduced mod q, refusing any cell of magnitude >= q. Each
    column is range-checked by its min and max and each value reduced once;
    a column already in [0, q) is kept as it is. It only reduces:
    protocol._lift_or_refuse decides on the integer rows first."""
    q = field.modulus

    def lift_rows(rows):
        columns = []
        for column in zip(*rows):
            low, high = min(column), max(column)
            if low <= -q or high >= q:
                v = next(v for row in rows for v in row if abs(v) >= q)
                raise FieldOverflowError(f"trace value {v} has magnitude >= q={q}")
            columns.append(column if low >= 0 else map(q.__rmod__, column))
        return tuple(zip(*columns))

    return ExecutionTrace(trace.spec, *map(lift_rows, trace.sections))


class Column(tuple):
    """A trace column's integer values, step by step. +, - and * act value by
    value, an int acting on every value and a shorter column padded with
    zeros, so `constraints` runs on every step at once."""

    __slots__ = ()

    def _apply(self, op, other: Union["Column", int]) -> "Column":
        if isinstance(other, Column):
            return Column(elementwise(op, self, other))
        return Column(map(op, self, repeat(other)))

    def __add__(self, other: Union["Column", int]) -> "Column":
        return self._apply(add, other)

    __radd__ = __add__

    def __sub__(self, other: Union["Column", int]) -> "Column":
        return self._apply(sub, other)

    def __rsub__(self, other: int) -> "Column":
        return Column(map(sub, repeat(other), self))

    def __mul__(self, other: Union["Column", int]) -> "Column":
        return self._apply(mul, other)

    __rmul__ = __mul__


@lru_cache(maxsize=4)  # one plan per domain of the (q, N) pairs protocol._domains keeps
def trace_interpolator(domain: CyclicDomain) -> CosetEvaluator:
    """The inverse DFT over H that build_trace_polys runs: evaluation at g^(-i), i <= N,
    scaled by 1/(N+1). Built once per domain object, which hashes by identity.

    Coefficient i of the interpolant through (g^k, y_k), k <= N, is
    (1/(N+1))·sum_k y_k·g^(-ik): the polynomial sum_k y_k·x^k at g^(-i), times
    1/(N+1), so one inverse DFT over H gives every coefficient of every
    column, each reduced once; the plan's power rows carry the factor.
    """
    return CosetEvaluator(domain.field, [1], domain.elements[-1], domain.order,
                          scale=pow(domain.order, -1, domain.field.modulus))


@lru_cache(maxsize=4)  # as trace_interpolator
def _vanishing_coeffs(domain: CyclicDomain) -> List[int]:
    """The coefficients of Z_N = prod_{k<N}(x - g^k) = (x^(N+1) - 1)/(x - g^N)
    = sum_j g^(N(N-j))·x^j, ascending."""
    q = domain.field.modulus
    N = domain.order - 1
    g_inv = domain.elements[N]
    return [pow(g_inv, N - j, q) for j in range(N + 1)]


def build_trace_polys(trace: ExecutionTrace, domain: CyclicDomain) -> Tuple[Polynomial, ...]:
    """The interpolant of each trace column, in SECTIONS order, n per section:
    through all of H for a column of N + 1 values, its first N points for one
    of N, all by one trace_interpolator(domain) inverse DFT. A column is
    reduced mod q only if a value lies outside [0, q), unchecked (lift_trace
    leaves none); an interpolant through N + 1 values is the DFT's table as
    it is, canonical, and one through N is reduced once after its correction."""
    N = trace.spec.num_steps
    if domain.order != N + 1:
        raise ValueError(f"domain order {domain.order} != num_steps + 1 = {N + 1}")
    field = domain.field
    columns = [c for rows in trace.sections for c in zip(*rows)]
    tables = trace_interpolator(domain).evaluate([Polynomial(field, c) for c in columns])
    # An N-value column gets P through its N values and 0 at g^N, of degree
    # <= N; removing P[N]·Z_N leaves the degree < N interpolant of the N points.
    z_n = _vanishing_coeffs(domain)
    return tuple(
        Polynomial(field, t) if len(c) > N else
        Polynomial(field, map(sub, t, map(t[N].__mul__, z_n)))
        for c, t in zip(columns, tables))


class Air(NamedTuple):
    """The constraints of one proof system, which differ only in their
    transition: its value at a coordinate from z', the two bits, A_hat·z, the
    box and the slack terms P_u = up·(hi - A_hat·z), P_l = lo·(A_hat·z - lw);
    and Q's worst-case degree bound for N steps, the largest degree a
    quotient of the numerators by Z_N can have."""

    transition: Callable
    worst_bound: Callable[[int], int]


# The paper's transition, of degree 3: lo·up·A_hat·z has degree
# (N - 1) + (N - 1) + N, less N for Z_N. Replay proofs use it.
PAPER_AIR = Air(lambda z_next, up, lo, az, hi, lw, p_u, p_l:
                z_next - lo * up * az - (1 - up) * hi - (1 - lo) * lw,
                lambda num_steps: max(2 * num_steps - 2, 0))
# The Fiat-Shamir transition, of degree 2 like the slack: P_u has degree
# (N - 1) + N, less N. For bit pairs (1, 1), (1, 0) and (0, 1) it equals the
# paper's; at (0, 0) the slack constraint forces delta = 0, which the online
# check delta >= hi - lw refuses, so both accept the same integer traces.
DEGREE_2_AIR = Air(lambda z_next, up, lo, az, hi, lw, p_u, p_l:
                   z_next + az + p_u - p_l - (hi + lw),
                   lambda num_steps: max(num_steps - 1, 0))


def constraints(spec: SystemSpec, row: Sequence, next_row: Sequence, air: Air = PAPER_AIR) -> list:
    """The constraint numerators of `air` at one point, in weight-draw order,
    from the trace row there and the next: `row` holds at least the
    trace_width values of SECTIONS in order, `next_row` at least the n of the
    state, and nothing past those is read.

    Only +, - and * are used, so the one definition serves polynomials (the
    prover's numerators), integer Columns of every step (the prover's step
    check, where each value must be exactly 0) and opened values (the
    verifier, which reduces the results mod q).
    """
    n = spec.n
    z, up, lo, delta = by_section(row, n)
    hi, lw = spec.z_upper, spec.z_lower
    az = [sum(a * zj for a, zj in zip(r, z) if a) for r in spec.a_hat]
    p_u = [up[i] * (hi[i] - az[i]) for i in range(n)]
    p_l = [lo[i] * (az[i] - lw[i]) for i in range(n)]
    return [
        *map(air.transition, next_row[:n], up, lo, az, hi, lw, p_u, p_l),
        *(delta[i] - p_u[i] - p_l[i] for i in range(n)),
        *(up[i] * (1 - up[i]) for i in range(n)),
        *(lo[i] * (1 - lo[i]) for i in range(n)),
    ]


def build_numerators(
    tp: Sequence[Polynomial], spec: SystemSpec, domain: CyclicDomain, air: Air = PAPER_AIR
) -> List[Polynomial]:
    """The constraint numerators of `air` as polynomials, from
    build_trace_polys' interpolants; numerator k at g^j is constraint k on
    trace rows j and j+1. Their values are left unreduced: `combine` reduces
    their weighted sum once."""
    return constraints(spec, tp, [p.scale_argument(domain.generator) for p in tp[:spec.n]], air)


def build_compositions(numerators: Sequence[Polynomial], domain: CyclicDomain) -> List[Polynomial]:
    """The floor quotient of each numerator by the vanishing polynomial Z_N of
    the first N points.

    The division is exact when the trace meets the numerator's constraint at
    every step. Nothing here checks that: prove refuses a trace that does not
    on its rows, before any polynomial is built, and a forced proof commits
    the floor quotient.

    Z_N·(x - g^N) = x^(N+1) - 1, so num = Q·Z_N + R gives
    num·(x - g^N) = Q·(x^(N+1) - 1) + R·(x - g^N): dividing by the two-term
    x^(N+1) - 1 yields the same floor quotient Q in O(deg) steps.
    """
    field = domain.field
    N = domain.order - 1
    x_minus_last = Polynomial(field, (-domain.elements[N], 1))
    cyclic = Polynomial(field, (-1, *[0] * N, 1))
    return [divmod(num * x_minus_last, cyclic)[0] for num in numerators]


def combine(polys: Sequence[Polynomial], gammas: Sequence[int]) -> Polynomial:
    """Random-weighted sum of numerators or of quotients, in weight-draw order.
    It weights each polynomial's `values` as they are, the unreduced ones of
    build_numerators included, and reduces the sum mod q once, at the end."""
    if len(gammas) != len(polys):
        raise ValueError(f"need {len(polys)} weights, got {len(gammas)}")
    acc = [0] * max(len(p.values) for p in polys)
    for g, p in zip(gammas, polys):
        acc[:len(p.values)] = map(add, acc, map(g.__mul__, p.values))
    return Polynomial(polys[0].field, acc)


def degree_bound(tp: Sequence[Polynomial], quotient: Polynomial, num_steps: int) -> int:
    """The declared degree bound of Q, raised to Q's own degree, since the
    declaration is trusted only that far: the paper's tabulated rule, the
    largest sum over i of the degrees of the state, upper-bit and lower-bit
    interpolants at coordinate i, less N. That is not the degree of the
    transition numerator, which has A_hat·z, not the state itself, at
    coordinate i; it fixes the replay proof's declared bound."""
    z, up, lo, _ = by_section(tp, len(tp) // len(SECTIONS))
    transition = max(
        a.reported_degree + b.reported_degree + c.reported_degree for a, b, c in zip(z, up, lo))
    return max(transition - num_steps, quotient.reported_degree, 0)
