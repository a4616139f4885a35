"""Algebraic intermediate representation of an execution trace.

Turns the trace into column interpolants over the cyclic domain, the four
constraint-numerator families, their quotients by the step-domain vanishing
polynomial, and the random-weighted combined polynomial.

Constraint families are held in the order the combination weights are drawn:
transition, slack definition, upper-bit, lower-bit.  The degree tables of the
worked example list the two bit families in the opposite order; the replay
fixture reorders for presentation only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, Union

from .dynamics import ExecutionTrace, SystemSpec, apply_transition
from .field import CyclicDomain, PrimeField
from .poly import CosetEvaluator, Polynomial, divide_exact
# Unused here, but the benchmark tracer wraps air.interpolate and air.vanishing by name.
from .poly import interpolate, vanishing  # noqa: F401


class FieldOverflowError(ValueError):
    """A trace magnitude or intermediate product does not fit below the modulus."""


class InvalidTraceError(ValueError):
    """A constraint numerator is not divisible by the vanishing polynomial."""


@dataclass(frozen=True)
class FieldTrace:
    """Execution trace reduced to canonical residues."""

    field: PrimeField
    spec: SystemSpec
    z_rows: Tuple[Tuple[int, ...], ...]
    alpha_up_rows: Tuple[Tuple[int, ...], ...]
    alpha_lo_rows: Tuple[Tuple[int, ...], ...]
    delta_rows: Tuple[Tuple[int, ...], ...]


def lift_trace(trace: ExecutionTrace, field: PrimeField) -> FieldTrace:
    """Reduce the integer trace mod q, rejecting any magnitude >= q.

    Also rejects traces whose unprojected updates A_hat * z overflow, so the
    field constraints coincide with the integer semantics.
    """
    q = field.modulus
    spec = trace.spec

    def lift_rows(rows):
        out = []
        for row in rows:
            for v in row:
                if abs(v) >= q:
                    raise FieldOverflowError(f"trace value {v} has magnitude >= q={q}")
            out.append(tuple(v % q for v in row))
        return tuple(out)

    for z in trace.z_rows[:-1]:
        for w in apply_transition(spec, z):
            if abs(w) >= q:
                raise FieldOverflowError(f"intermediate A_hat*z value {w} has magnitude >= q={q}")
    return FieldTrace(
        field=field,
        spec=spec,
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

    @property
    def n(self) -> int:
        return len(self.f_z)

    def degrees(self) -> dict:
        return {
            "z": tuple(p.reported_degree for p in self.f_z),
            "alpha_up": tuple(p.reported_degree for p in self.f_alpha_up),
            "alpha_lo": tuple(p.reported_degree for p in self.f_alpha_lo),
            "delta": tuple(p.reported_degree for p in self.f_delta),
        }


def build_trace_polys(
    trace: Union[ExecutionTrace, FieldTrace], domain: CyclicDomain
) -> TracePolynomials:
    if isinstance(trace, ExecutionTrace):
        trace = lift_trace(trace, domain.field)
    spec = trace.spec
    N = spec.num_steps
    if domain.order != N + 1:
        raise ValueError(f"domain order {domain.order} != num_steps + 1 = {N + 1}")
    field = domain.field
    q = field.modulus
    # Coefficient i of the interpolant through (g^k, y_k), k <= N, is
    # (1/(N+1))·sum_k y_k·g^(-ik): the polynomial sum_k y_k·x^k at g^(-i), so one
    # inverse DFT over H gives every coefficient.
    g_inv = domain.elements[N].value
    dft = CosetEvaluator(field, [pow(g_inv, i, q) for i in range(N + 1)], domain.generator, N + 1)
    inv_order = pow(N + 1, q - 2, q)
    # Z_N = prod_{k<N}(x - g^k) = (x^(N+1) - 1)/(x - g^N) = sum_j g^(N(N-j))·x^j
    z_n = [pow(g_inv, N - j, q) for j in range(N + 1)]

    def coefficients(values):
        return [c * inv_order % q for c in dft.evaluate(Polynomial(field, values))]

    def full(values):
        return Polynomial(field, coefficients(values))

    def step(values):
        # P through the N values and 0 at g^N has degree <= N; removing P[N]·Z_N
        # leaves the degree < N interpolant of the first N points.
        p = coefficients([*values, 0])
        return Polynomial(field, [c - p[N] * z for c, z in zip(p, z_n)])

    def column(rows, i):
        return [row[i] for row in rows]

    f_z, f_up, f_lo, f_d = [], [], [], []
    for i in range(spec.n):
        f_z.append(full(column(trace.z_rows, i)))
        f_up.append(step(column(trace.alpha_up_rows, i)))
        f_lo.append(step(column(trace.alpha_lo_rows, i)))
        f_d.append(step(column(trace.delta_rows, i)))
    return TracePolynomials(
        f_z=tuple(f_z), f_alpha_up=tuple(f_up), f_alpha_lo=tuple(f_lo), f_delta=tuple(f_d)
    )


@dataclass(frozen=True)
class ConstraintNumerators:
    """The four families, indexed by state coordinate."""

    transition: Tuple[Polynomial, ...]
    slack: Tuple[Polynomial, ...]
    upper_bit: Tuple[Polynomial, ...]
    lower_bit: Tuple[Polynomial, ...]

    def families(self) -> Iterator[Tuple[str, int, Polynomial]]:
        """(family, coordinate, numerator) in weight-draw order."""
        for name in ("transition", "slack", "upper_bit", "lower_bit"):
            for i, p in enumerate(getattr(self, name)):
                yield name, i, p


def constraints(spec: SystemSpec, z, z_next, up, lo, delta) -> list:
    """The 4n constraint numerators at one point, in weight-draw order.

    The arguments are per-coordinate sequences: the state z, the next state,
    the two selector bits and the slack. Only +, - and * are used, so the one
    definition serves polynomials (the prover's numerators) and opened integer
    values (the verifier, which reduces the results mod q).
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
) -> ConstraintNumerators:
    n = spec.n
    g = domain.generator
    nums = constraints(spec, tp.f_z, [p.scale_argument(g) for p in tp.f_z],
                       tp.f_alpha_up, tp.f_alpha_lo, tp.f_delta)
    return ConstraintNumerators(
        transition=tuple(nums[:n]),
        slack=tuple(nums[n:2 * n]),
        upper_bit=tuple(nums[2 * n:3 * n]),
        lower_bit=tuple(nums[3 * n:]),
    )


@dataclass(frozen=True)
class CompositionSet:
    """Quotients by the step-domain vanishing polynomial, with their combined degree bound."""

    transition: Tuple[Polynomial, ...]
    slack: Tuple[Polynomial, ...]
    upper_bit: Tuple[Polynomial, ...]
    lower_bit: Tuple[Polynomial, ...]
    combined_degree_bound: int

    def ordered(self) -> List[Polynomial]:
        """Quotients in weight-draw order: per family, per coordinate."""
        out = []
        for name in ("transition", "slack", "upper_bit", "lower_bit"):
            out.extend(getattr(self, name))
        return out


def build_compositions(
    numerators: ConstraintNumerators,
    tp: TracePolynomials,
    domain: CyclicDomain,
    *,
    allow_remainder: bool = False,
) -> CompositionSet:
    """Divide every numerator by the vanishing polynomial Z_N of the first N points.

    A nonzero remainder means the trace breaks a constraint at some step; the
    honest prover stops there.  With allow_remainder the floor quotients are
    kept, which is the dishonest commit path used in soundness experiments.

    Z_N·(x - g^N) = x^(N+1) - 1, so num = Q·Z_N + R gives
    num·(x - g^N) = Q·(x^(N+1) - 1) + R·(x - g^N): dividing by the two-term
    x^(N+1) - 1 yields the same floor quotient Q in O(deg) steps, with a
    remainder that is zero exactly when R is.
    """
    field = domain.field
    N = domain.order - 1
    x_minus_last = Polynomial(field, (-domain.elements[N].value, 1))
    cyclic = Polynomial(field, (-1, *[0] * N, 1))

    quots = {}
    for name, i, num in numerators.families():
        quot, exact = divide_exact(num * x_minus_last, cyclic)
        if not exact and not allow_remainder:
            raise InvalidTraceError(f"constraint {name}[{i}] does not vanish on the step domain")
        quots.setdefault(name, []).append(quot)

    d = tp.degrees()
    n = tp.n
    combined = max(
        d["z"][i] + d["alpha_up"][i] + d["alpha_lo"][i] for i in range(n)
    ) - N
    return CompositionSet(
        transition=tuple(quots["transition"]),
        slack=tuple(quots["slack"]),
        upper_bit=tuple(quots["upper_bit"]),
        lower_bit=tuple(quots["lower_bit"]),
        combined_degree_bound=max(combined, 0),
    )


@dataclass(frozen=True)
class CombinedPolynomial:
    poly: Polynomial
    gammas: Tuple[int, ...]
    degree_bound: int


def combine(cs: CompositionSet, gammas: Sequence[int]) -> CombinedPolynomial:
    """Random-weighted sum of all quotients; weights in family-major order."""
    quots = cs.ordered()
    if len(gammas) != len(quots):
        raise ValueError(f"need {len(quots)} weights, got {len(gammas)}")
    acc = None
    for g, quot in zip(gammas, quots):
        term = quot.scale(g)
        acc = term if acc is None else acc + term
    # the declared bound can only be trusted up to the observed degree
    bound = max(cs.combined_degree_bound, acc.reported_degree)
    return CombinedPolynomial(poly=acc, gammas=tuple(int(g) for g in gammas), degree_bound=bound)
