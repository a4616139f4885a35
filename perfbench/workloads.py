"""The benchmark's workloads and the seeded inputs they feed to projstark.

Each workload fixes a field, a step count, a state dimension and a query
count; why each was chosen is recorded in BENCHMARK.json. The system (A_hat
and the box) is drawn once per run from the seed and shared by every proof;
each proof, and each further online stage, gets a fresh z_init, and each
proof a fresh Fiat-Shamir salt, from the same seeded stream. The seeded
systems' boxes hold millions of states, so their z_inits do not repeat within
a run; the paper's system admits only 217 of them, so there online stages
repeat inputs, while its proofs still differ by their salts.

This module imports projstark only inside the functions that need it, so the
launcher can read the workload table without the package on its path.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Optional, Tuple

# Largest |entry| of a seeded A_hat; the box is sized from it (see _seeded_system).
A_MAX = 2
# A seeded A_hat has no zero entry: projstark skips zero entries, so a system
# with more of them would cost less per step and per proof than another seed's.
A_ENTRIES = [a for a in range(-A_MAX, A_MAX + 1) if a != 0]
SPEC_TRIES = 500
Z_INIT_TRIES = 500
# Accepted share of clamped (step, coordinate) cells. Bit columns that are
# almost all 0 or all 1 make interpolation cheaper, so a narrow window keeps
# the cost of a proof alike across seeds.
CLAMP_WINDOW = (0.35, 0.75)


@dataclass(frozen=True)
class Workload:
    name: str
    modulus: int
    num_steps: int
    dim: int
    queries: int
    # Online stages run per proof, each on its own fresh z_init, so that a
    # run holds enough online samples even when proving is slow.
    online_runs: int
    paper_system: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-q64",
            modulus=331, num_steps=29, dim=2, queries=64, online_runs=2,
            paper_system=True,
        ),
        Workload(
            name="field-q12289",
            modulus=12289, num_steps=127, dim=2, queries=8, online_runs=20,
        ),
        Workload(
            name="trace-q769",
            modulus=769, num_steps=255, dim=4, queries=8, online_runs=16,
        ),
    )
}


@dataclass(frozen=True)
class ProofInput:
    """What one proof of the closed loop receives."""

    spec: object  # projstark.SystemSpec with this proof's z_init
    salt: bytes
    tamper_seed: int


def max_magnitudes(spec) -> Tuple[int, int]:
    """Worst-case |A_hat * z| and slack over every z in the box."""
    bound = [max(abs(lo), abs(hi)) for lo, hi in zip(spec.z_lower, spec.z_upper)]
    w_max = [sum(abs(a) * b for a, b in zip(row, bound)) for row in spec.a_hat]
    slack_max = max(
        max(w + max(abs(lo), abs(hi)), hi - lo)
        for w, lo, hi in zip(w_max, spec.z_lower, spec.z_upper)
    )
    return max(w_max), slack_max


def clamped_share(trace) -> float:
    """Share of (step, coordinate) cells where the projection clamps."""
    cells = clamped = 0
    for up, lo in zip(trace.alpha_up_rows, trace.alpha_lo_rows):
        for u, l in zip(up, lo):
            cells += 1
            clamped += (u == 0 or l == 0)
    return clamped / cells


def _cycle_length(trace) -> Optional[int]:
    """Length of the cycle the state trajectory ends in, or None when no
    state repeats within the trace."""
    seen = {}
    for k, z in enumerate(map(tuple, trace.z_rows)):
        if z in seen:
            return k - seen[z]
        seen[z] = k
    return None


def _dense(trace, num_steps: int) -> bool:
    """False when the trajectory ends in a cycle whose length divides the
    trace domain's order N + 1: its columns are then close to periodic on
    the domain, their interpolants have few nonzero coefficients, and, as
    Polynomial.__mul__ skips zero coefficients, the proof costs several
    times less than for a trace with dense interpolants."""
    cycle = _cycle_length(trace)
    return cycle is None or (num_steps + 1) % cycle != 0


def _all_columns_vary(trace) -> bool:
    """True when no trace column is constant, so every interpolant has full degree."""
    for rows in (trace.z_rows, trace.alpha_up_rows, trace.alpha_lo_rows, trace.delta_rows):
        for column in zip(*rows):
            if len(set(column)) == 1:
                return False
    return True


class Inputs:
    """Seeded input stream of one workload run."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}/{seed}")
        if workload.paper_system:
            from projstark.reference_example import SYSTEM

            self.spec = SYSTEM
        else:
            self.spec = self._seeded_system()
        q = workload.modulus
        w_max, slack_max = max_magnitudes(self.spec)
        if w_max >= q or slack_max >= q:
            raise ValueError(f"{workload.name}: box too wide for q={q}")

    def _seeded_system(self):
        """A_hat with entries in [-A_MAX, A_MAX] and a box small enough that
        |A_hat * z| and every slack stay below q for any z in the box.

        Kept only if most z_init draws give a trace whose columns all vary,
        whose interpolants are dense (see _dense) and whose clamped share
        lies in CLAMP_WINDOW, so that drawing each proof's z_init stays
        cheap."""
        from projstark import SystemSpec

        w = self.workload
        box = (w.modulus - 1) // (w.dim * A_MAX + 1)
        for _ in range(SPEC_TRIES):
            spec = SystemSpec(
                a_hat=[[self.rng.choice(A_ENTRIES) for _ in range(w.dim)]
                       for _ in range(w.dim)],
                z_upper=[self.rng.randint(box // 2, box) for _ in range(w.dim)],
                z_lower=[-self.rng.randint(box // 2, box) for _ in range(w.dim)],
                z_init=[0] * w.dim,
                num_steps=w.num_steps,
            )
            if self._mostly_accepted(spec):
                return spec
        raise RuntimeError(f"{w.name}: no system with varying trace columns found")

    def _mostly_accepted(self, spec) -> bool:
        """True when 4 of 6 z_init draws give an accepted trace; stops at the
        third rejection, so that rejected systems cost little set-up."""
        accepted = rejected = 0
        while accepted < 4 and rejected < 3:
            if self._draw_z_init(spec, tries=1) is None:
                rejected += 1
            else:
                accepted += 1
        return accepted == 4

    def _draw_z_init(self, spec, tries: int) -> Optional[tuple]:
        from projstark import simulate

        if self.workload.paper_system:
            # z1 stays fixed and z2 falls by z1 per step until it clamps at 40;
            # these ranges clamp within the 29 steps but never at step 0
            return (self.rng.randint(3, 9), self.rng.randint(70, 100))
        for _ in range(tries):
            z0 = tuple(self.rng.randint(lo, hi) for lo, hi in zip(spec.z_lower, spec.z_upper))
            trace = simulate(dataclasses.replace(spec, z_init=z0))
            lo, hi = CLAMP_WINDOW
            if (_all_columns_vary(trace) and _dense(trace, spec.num_steps)
                    and lo <= clamped_share(trace) <= hi):
                return z0
        return None

    def next_spec(self):
        """The shared system with a fresh z_init."""
        z0 = self._draw_z_init(self.spec, tries=Z_INIT_TRIES)
        if z0 is None:
            raise RuntimeError(f"{self.workload.name}: no z_init with varying trace columns")
        return dataclasses.replace(self.spec, z_init=z0)

    def next_proof(self) -> ProofInput:
        return ProofInput(
            spec=self.next_spec(),
            salt=self.rng.randbytes(16),
            tamper_seed=self.rng.getrandbits(64),
        )
