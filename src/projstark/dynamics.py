"""Projected linear dynamics, the slack form, the trace layout, and online checks.

All simulation runs in exact integer arithmetic; values are reduced into the
field only when the execution trace enters the algebraic layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

IntVec = Tuple[int, ...]


@dataclass(frozen=True)
class SystemSpec:
    """State-transition matrix, box bounds, initial state, and step count."""

    a_hat: Tuple[IntVec, ...]
    z_upper: IntVec
    z_lower: IntVec
    z_init: IntVec
    num_steps: int

    def __post_init__(self):
        object.__setattr__(self, "a_hat", tuple(tuple(r) for r in self.a_hat))
        object.__setattr__(self, "z_upper", tuple(self.z_upper))
        object.__setattr__(self, "z_lower", tuple(self.z_lower))
        object.__setattr__(self, "z_init", tuple(self.z_init))
        n = len(self.a_hat)
        if n == 0:
            raise ValueError("a_hat must have at least one row: the state has no coordinate")
        if any(len(r) != n for r in self.a_hat):
            raise ValueError("a_hat must be square")
        for name in ("z_upper", "z_lower", "z_init"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have length {n}")
        # hash_spec encodes each of these as a signed 64-bit integer
        for name, values in (("A_hat", sum(self.a_hat, ())), ("z_upper", self.z_upper),
                             ("z_lower", self.z_lower), ("z_init", self.z_init)):
            for v in values:
                if not -(2**63) <= v < 2**63:
                    raise ValueError(f"{name}: {v} is outside the signed 64-bit range")
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        for lo, hi, z0 in zip(self.z_lower, self.z_upper, self.z_init):
            if not lo < hi:
                raise ValueError("bounds must satisfy z_lower < z_upper elementwise")
            if not lo <= z0 <= hi:
                raise ValueError("z_init must lie within the bounds")

    @property
    def n(self) -> int:
        return len(self.a_hat)


@dataclass(frozen=True)
class StepRecord:
    z_next: IntVec
    alpha_up: IntVec
    alpha_lo: IntVec
    delta: IntVec


# The trace's column families in commitment order, each n columns of num_steps
# rows plus the count given; every count of the trace's shape follows from it.
SECTIONS = {"z": 1, "alpha_up": 0, "alpha_lo": 0, "delta": 0}


@dataclass(frozen=True)
class ExecutionTrace:
    """Trace grid: for each of SECTIONS its `<name>_rows`, num_steps rows plus
    the section's extra rows, of n entries each."""

    spec: SystemSpec
    z_rows: Tuple[IntVec, ...]
    alpha_up_rows: Tuple[IntVec, ...]
    alpha_lo_rows: Tuple[IntVec, ...]
    delta_rows: Tuple[IntVec, ...]

    def __post_init__(self):
        N, n = self.spec.num_steps, self.spec.n
        for (name, extra), rows in zip(SECTIONS.items(), self.sections):
            if len(rows) != N + extra:
                raise ValueError(f"{name}_rows must have {N + extra} rows")
            if set(map(len, rows)) != {n}:
                raise ValueError(f"every row of {name}_rows must have {n} entries")

    @property
    def sections(self) -> Tuple[Tuple[IntVec, ...], ...]:
        """The rows of each of SECTIONS, in its order."""
        return tuple(getattr(self, f"{name}_rows") for name in SECTIONS)

    def step(self, k: int) -> StepRecord:
        """Step k as the online stage saw it, row k plus the extra rows of each
        section: the next state and its slack columns."""
        return StepRecord(*(rows[k + extra]
                            for rows, extra in zip(self.sections, SECTIONS.values())))

    @classmethod
    def from_steps(cls, spec: SystemSpec, steps: Iterable[StepRecord]) -> "ExecutionTrace":
        """The trace from spec.z_init whose step k is the k-th of `steps`: the inverse of step."""
        z_next, alpha_up, alpha_lo, delta = zip(
            *[(s.z_next, s.alpha_up, s.alpha_lo, s.delta) for s in steps])
        return cls(spec=spec, z_rows=(spec.z_init, *z_next), alpha_up_rows=alpha_up,
                   alpha_lo_rows=alpha_lo, delta_rows=delta)

    def with_cell(self, section: str, row: int, index: int, value: int) -> "ExecutionTrace":
        """Copy of the trace with one cell of one of SECTIONS replaced."""
        if section not in SECTIONS:
            raise ValueError(f"unknown trace section {section!r}")
        attr = f"{section}_rows"
        rows = getattr(self, attr)
        if not (0 <= row < len(rows)) or not (0 <= index < self.spec.n):
            raise IndexError(f"cell ({section}, {row}, {index}) out of range")
        new_row = rows[row][:index] + (value,) + rows[row][index + 1:]
        return replace(self, **{attr: rows[:row] + (new_row,) + rows[row + 1:]})


def apply_transition(spec: SystemSpec, z: Sequence[int]) -> List[int]:
    """The unprojected update A_hat * z, exact integers."""
    if len(z) != spec.n:
        raise ValueError(f"state must have dimension {spec.n}")
    return [sum(a * zi for a, zi in zip(row, z)) for row in spec.a_hat]


def step_slack(spec: SystemSpec, z: Sequence[int]) -> StepRecord:
    """One step of the slack-variable form; its state is the clamp of A_hat * z."""
    w = apply_transition(spec, z)
    up = tuple(1 if wi <= hi else 0 for wi, hi in zip(w, spec.z_upper))
    lo = tuple(1 if wi >= lw else 0 for wi, lw in zip(w, spec.z_lower))
    z_next = tuple(
        u * l * wi + (1 - u) * hi + (1 - l) * lw
        for wi, u, l, hi, lw in zip(w, up, lo, spec.z_upper, spec.z_lower)
    )
    delta = tuple(
        u * (hi - wi) + l * (wi - lw)
        for wi, u, l, hi, lw in zip(w, up, lo, spec.z_upper, spec.z_lower)
    )
    return StepRecord(z_next=z_next, alpha_up=up, alpha_lo=lo, delta=delta)


_BITS = frozenset((0, 1))


def online_check(spec: SystemSpec, rec: StepRecord) -> Optional[str]:
    """Cheap per-step verifier checks; None means accept, else the reject reason."""
    n = spec.n
    if not len(rec.z_next) == len(rec.alpha_up) == len(rec.alpha_lo) == len(rec.delta) == n:
        return f"wrong-width: every vector of the step must have {n} entries"
    if not (_BITS.issuperset(rec.alpha_up) and _BITS.issuperset(rec.alpha_lo)):
        for name in ("alpha_up", "alpha_lo"):
            for i, b in enumerate(getattr(rec, name)):
                if b not in _BITS:
                    return f"not-a-bit: {name}[{i}]={b} is neither 0 nor 1"
    for i, (d, hi, lw) in enumerate(zip(rec.delta, spec.z_upper, spec.z_lower)):
        if d < hi - lw:
            return f"delta-too-small: delta[{i}]={d} < {hi - lw}"
    for i, (zi, hi, lw) in enumerate(zip(rec.z_next, spec.z_upper, spec.z_lower)):
        if not lw <= zi <= hi:
            return f"out-of-bounds: z_next[{i}]={zi} not in [{lw}, {hi}]"
    return None


def simulate(spec: SystemSpec) -> ExecutionTrace:
    """Honest slack-form simulation for the full horizon."""
    steps = []
    z = spec.z_init
    for _ in range(spec.num_steps):
        steps.append(step_slack(spec, z))
        z = steps[-1].z_next
    return ExecutionTrace.from_steps(spec, steps)


StepSource = Callable[[int, IntVec, int], StepRecord]
