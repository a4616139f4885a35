"""Projected linear dynamics, the slack-variable reformulation, and online checks.

All simulation runs in exact integer arithmetic; values are reduced into the
field only when the execution trace enters the algebraic layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

IntVec = Tuple[int, ...]


class Lemma1Error(RuntimeError):
    """The per-coordinate slack system has no or conflicting solutions."""


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
        if any(len(r) != n for r in self.a_hat):
            raise ValueError("a_hat must be square")
        for name in ("z_upper", "z_lower", "z_init"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have length {n}")
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


@dataclass(frozen=True)
class ExecutionTrace:
    """Trace grid: z has num_steps + 1 rows, the slack columns have num_steps rows."""

    spec: SystemSpec
    z_rows: Tuple[IntVec, ...]
    alpha_up_rows: Tuple[IntVec, ...]
    alpha_lo_rows: Tuple[IntVec, ...]
    delta_rows: Tuple[IntVec, ...]

    def __post_init__(self):
        N, n = self.spec.num_steps, self.spec.n
        for name, count in (("z_rows", N + 1), ("alpha_up_rows", N),
                            ("alpha_lo_rows", N), ("delta_rows", N)):
            rows = getattr(self, name)
            if len(rows) != count:
                raise ValueError(f"{name} must have {count} rows")
            if set(map(len, rows)) != {n}:
                raise ValueError(f"every row of {name} must have {n} entries")

    def step(self, k: int) -> StepRecord:
        """Step k as the online stage saw it: the next state and its slack columns."""
        return StepRecord(
            z_next=self.z_rows[k + 1],
            alpha_up=self.alpha_up_rows[k],
            alpha_lo=self.alpha_lo_rows[k],
            delta=self.delta_rows[k],
        )

    def with_cell(self, section: str, row: int, index: int, value: int) -> "ExecutionTrace":
        """Copy of the trace with one cell replaced."""
        attr = {"z": "z_rows", "alpha_up": "alpha_up_rows",
                "alpha_lo": "alpha_lo_rows", "delta": "delta_rows"}.get(section)
        if attr is None:
            raise ValueError(f"unknown trace section {section!r}")
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


def step_project(spec: SystemSpec, z: Sequence[int]) -> IntVec:
    """One step of the original dynamics: clamp A_hat * z into the box."""
    w = apply_transition(spec, z)
    return tuple(min(max(wi, lo), hi) for wi, lo, hi in zip(w, spec.z_lower, spec.z_upper))


def step_slack(spec: SystemSpec, z: Sequence[int]) -> StepRecord:
    """One step of the slack-variable form; equals step_project on the state."""
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


def online_check(spec: SystemSpec, rec: StepRecord) -> Optional[str]:
    """Cheap per-step verifier checks; None means accept, else the reject reason."""
    n = spec.n
    if not len(rec.z_next) == len(rec.alpha_up) == len(rec.alpha_lo) == len(rec.delta) == n:
        return f"wrong-width: every vector of the step must have {n} entries"
    for i, (d, hi, lw) in enumerate(zip(rec.delta, spec.z_upper, spec.z_lower)):
        if d < hi - lw:
            return f"delta-too-small: delta[{i}]={d} < {hi - lw}"
    for i, (zi, hi, lw) in enumerate(zip(rec.z_next, spec.z_upper, spec.z_lower)):
        if not lw <= zi <= hi:
            return f"out-of-bounds: z_next[{i}]={zi} not in [{lw}, {hi}]"
    return None


def simulate(spec: SystemSpec) -> ExecutionTrace:
    """Honest slack-form simulation for the full horizon."""
    z_rows = [spec.z_init]
    up_rows, lo_rows, d_rows = [], [], []
    for _ in range(spec.num_steps):
        rec = step_slack(spec, z_rows[-1])
        z_rows.append(rec.z_next)
        up_rows.append(rec.alpha_up)
        lo_rows.append(rec.alpha_lo)
        d_rows.append(rec.delta)
    return ExecutionTrace(
        spec=spec,
        z_rows=tuple(z_rows),
        alpha_up_rows=tuple(up_rows),
        alpha_lo_rows=tuple(lo_rows),
        delta_rows=tuple(d_rows),
    )


def lemma1_solve(spec: SystemSpec, a_hat_z: Sequence[int]) -> Tuple[IntVec, IntVec, IntVec]:
    """Per-coordinate brute force over the four (alpha_up, alpha_lo) bit patterns.

    Returns the assignment satisfying the bit, slack-size, and box conditions.
    When the unprojected value sits exactly on a bound, two bit patterns induce
    the same (z_next, delta); the comparison-rule pattern (both bits 1) is
    returned.  Genuinely conflicting solutions raise Lemma1Error.
    """
    if len(a_hat_z) != spec.n:
        raise ValueError(f"a_hat_z must have dimension {spec.n}")
    up, lo, delta = [], [], []
    for i, w in enumerate(a_hat_z):
        hi, lw = spec.z_upper[i], spec.z_lower[i]
        sols = []
        for u in (0, 1):
            for l in (0, 1):
                zn = u * l * w + (1 - u) * hi + (1 - l) * lw
                d = u * (hi - w) + l * (w - lw)
                if d >= hi - lw and lw <= zn <= hi:
                    sols.append((u, l, zn, d))
        if not sols:
            raise Lemma1Error(f"coordinate {i}: no satisfying bit assignment")
        outcomes = {(zn, d) for _, _, zn, d in sols}
        if len(outcomes) > 1:
            raise Lemma1Error(f"coordinate {i}: conflicting solutions {sols}")
        u, l, _, d = max(sols)
        up.append(u)
        lo.append(l)
        delta.append(d)
    return tuple(up), tuple(lo), tuple(delta)


StepSource = Callable[[int, IntVec, int], StepRecord]
