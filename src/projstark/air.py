"""Algebraic intermediate representation of an execution trace.

Turns the trace into column interpolants over the cyclic domain and the 4n
constraint numerators, divides a numerator by the step-domain vanishing
polynomial, and takes random-weighted sums.  Floor division is linear, so the
prover combines the numerators with the weights first and divides once, as
the verifier's consistency check does pointwise.

Numerators, quotients and weights are flat lists in the order the weights are
drawn: entry k is family FAMILIES[k // n] at coordinate k % n.  The degree
tables of the worked example list the two bit families in the opposite order;
the replay fixture reorders for presentation only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import List, Sequence, Tuple

from .dynamics import ExecutionTrace, SystemSpec
from .field import CyclicDomain, PrimeField
from .poly import CosetEvaluator, Polynomial
# Unused here, but the benchmark tracer wraps air.interpolate and air.vanishing by name.
from .poly import interpolate, vanishing  # noqa: F401

FAMILIES = ("transition", "slack", "upper_bit", "lower_bit")


class FieldOverflowError(ValueError):
    """A trace cell has magnitude >= q, so reducing it mod q would change it."""


class InvalidTraceError(ValueError):
    """The honest prover refuses the trace, on its integer rows: it fails the
    boundary condition, an online check or a step constraint."""


def lift_trace(trace: ExecutionTrace, field: PrimeField) -> ExecutionTrace:
    """The trace reduced mod q, refusing any cell of magnitude >= q. It only
    reduces: protocol._lift_or_refuse decides on the integer rows first."""
    q = field.modulus

    def lift_rows(rows):
        out = []
        for row in rows:
            for v in row:
                if abs(v) >= q:
                    raise FieldOverflowError(f"trace value {v} has magnitude >= q={q}")
            out.append(tuple(v % q for v in row))
        return tuple(out)

    return ExecutionTrace(
        spec=trace.spec,
        z_rows=lift_rows(trace.z_rows),
        alpha_up_rows=lift_rows(trace.alpha_up_rows),
        alpha_lo_rows=lift_rows(trace.alpha_lo_rows),
        delta_rows=lift_rows(trace.delta_rows),
    )


@dataclass(frozen=True)
class TracePolynomials:
    """Column interpolants: f_z over the full domain, the rest over the first N points."""

    f_z: Tuple[Polynomial, ...]
    f_alpha_up: Tuple[Polynomial, ...]
    f_alpha_lo: Tuple[Polynomial, ...]
    f_delta: Tuple[Polynomial, ...]


@lru_cache(maxsize=4)  # one plan per domain of the (q, N) pairs protocol._domains keeps
def trace_interpolator(domain: CyclicDomain) -> CosetEvaluator:
    """The inverse DFT over H that build_trace_polys runs: evaluation at g^(-i), i <= N.
    Built once per domain object, which hashes by identity.

    Coefficient i of the interpolant through (g^k, y_k), k <= N, is
    (1/(N+1))·sum_k y_k·g^(-ik): the polynomial sum_k y_k·x^k at g^(-i), so one
    inverse DFT over H gives every coefficient of every column.
    """
    q = domain.field.modulus
    g_inv = domain.elements[-1]
    points = [pow(g_inv, i, q) for i in range(domain.order)]
    return CosetEvaluator(domain.field, points, domain.generator, domain.order)


def build_trace_polys(trace: ExecutionTrace, domain: CyclicDomain) -> TracePolynomials:
    """Column interpolants of the trace, by one trace_interpolator(domain)
    inverse DFT; values are taken mod q, unchecked (see lift_trace)."""
    spec = trace.spec
    N = spec.num_steps
    if domain.order != N + 1:
        raise ValueError(f"domain order {domain.order} != num_steps + 1 = {N + 1}")
    field = domain.field
    q = field.modulus
    g_inv = domain.elements[N]
    inv_order = pow(N + 1, -1, q)
    n = spec.n
    columns = [
        Polynomial(field, [row[i] for row in rows])
        for rows in (trace.z_rows, trace.alpha_up_rows, trace.alpha_lo_rows, trace.delta_rows)
        for i in range(n)
    ]
    tables = trace_interpolator(domain).evaluate(columns)
    # The N-point columns get P through their N values and 0 at g^N, of degree
    # <= N; removing P[N]·Z_N leaves the degree < N interpolant of the N points.
    # Z_N = prod_{k<N}(x - g^k) = (x^(N+1) - 1)/(x - g^N) = sum_j g^(N(N-j))·x^j
    z_n = [pow(g_inv, N - j, q) for j in range(N + 1)]
    f_z = tuple(Polynomial(field, [c * inv_order for c in t]) for t in tables[:n])
    f_up, f_lo, f_d = (
        tuple(
            Polynomial(field, [(c - t[N] * z) * inv_order for c, z in zip(t, z_n)])
            for t in tables[k * n:(k + 1) * n]
        )
        for k in (1, 2, 3)
    )
    return TracePolynomials(f_z=f_z, f_alpha_up=f_up, f_alpha_lo=f_lo, f_delta=f_d)


def constraints(spec: SystemSpec, z, z_next, up, lo, delta) -> list:
    """The 4n constraint numerators at one point, in weight-draw order.

    The arguments are per-coordinate sequences: the state z, the next state,
    the two selector bits and the slack. Only +, - and * are used, so the one
    definition serves polynomials (the prover's numerators), the integer trace
    rows (the prover's step check, where each value must be exactly 0) and
    opened values (the verifier, which reduces the results mod q).
    """
    n = spec.n
    hi, lw = spec.z_upper, spec.z_lower
    az = [sum(a * zj for a, zj in zip(row, z) if a) for row in spec.a_hat]
    return [
        *(z_next[i] - lo[i] * up[i] * az[i] - (1 - up[i]) * hi[i] - (1 - lo[i]) * lw[i]
          for i in range(n)),
        *(delta[i] - up[i] * (hi[i] - az[i]) - lo[i] * (az[i] - lw[i]) for i in range(n)),
        *(up[i] * (1 - up[i]) for i in range(n)),
        *(lo[i] * (1 - lo[i]) for i in range(n)),
    ]


def build_numerators(
    tp: TracePolynomials, spec: SystemSpec, domain: CyclicDomain
) -> List[Polynomial]:
    """The 4n constraint numerators as polynomials; numerator k at g^j is
    constraint k on trace rows j and j+1."""
    g = domain.generator
    return constraints(spec, tp.f_z, [p.scale_argument(g) for p in tp.f_z],
                       tp.f_alpha_up, tp.f_alpha_lo, tp.f_delta)


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
    """Random-weighted sum of numerators or of quotients, in weight-draw order."""
    if len(gammas) != len(polys):
        raise ValueError(f"need {len(polys)} weights, got {len(gammas)}")
    acc = [0] * max(len(p.coeffs) for p in polys)
    for g, p in zip(gammas, polys):
        # Polynomial() reduces the sums mod q once, at the end
        acc[:len(p.coeffs)] = map(add, acc, map(g.__mul__, p.coeffs))
    return Polynomial(polys[0].field, acc)


def degree_bound(tp: TracePolynomials, quotient: Polynomial, num_steps: int) -> int:
    """The declared degree bound of Q: the transition numerators' degree less N,
    raised to Q's own degree, since the declaration is trusted only that far."""
    transition = max(
        z.reported_degree + up.reported_degree + lo.reported_degree
        for z, up, lo in zip(tp.f_z, tp.f_alpha_up, tp.f_alpha_lo)
    )
    return max(transition - num_steps, quotient.reported_degree, 0)
