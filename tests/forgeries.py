"""Forged traces and the one seam that proves them.

The honest prover refuses every trace built here. `forge_proof` commits one
as it is: it lifts the trace and calls protocol._prove_lifted, the code that
runs after prove's decision, so a forged proof comes from exactly the code
that makes an honest one.
"""

from dataclasses import replace

from projstark import protocol
from projstark.air import lift_trace
from projstark.dynamics import (SECTIONS, ExecutionTrace, StepRecord, SystemSpec, apply_transition,
                                step_slack)
from projstark.reference_example import SYSTEM


def forge_proof(field, spec, trace, transcript, num_queries):
    """prove's proof of `trace` without prove's decision on it; a cell of
    magnitude >= q is still refused, by lift_trace."""
    return protocol._prove_lifted(field, spec, lift_trace(trace, field), transcript, num_queries)


def with_cell(trace: ExecutionTrace, section: str, row: int, index: int,
              value: int) -> ExecutionTrace:
    """Copy of the trace with one cell of one of SECTIONS replaced."""
    if section not in SECTIONS:
        raise ValueError(f"unknown trace section {section!r}")
    attr = f"{section}_rows"
    rows = getattr(trace, attr)
    if not (0 <= row < len(rows)) or not (0 <= index < trace.spec.n):
        raise IndexError(f"cell ({section}, {row}, {index}) out of range")
    new_row = rows[row][:index] + (value,) + rows[row][index + 1:]
    return replace(trace, **{attr: rows[:row] + (new_row,) + rows[row + 1:]})


def tamper_randomly(rng, spec, trace, q):
    """One uniformly random cell replaced with a fresh inconsistent value."""
    section = rng.choice(("z", "alpha_up", "alpha_lo", "delta"))
    if section == "z":
        row = rng.randrange(spec.num_steps + 1)
    else:
        row = rng.randrange(spec.num_steps)
    idx = rng.randrange(spec.n)
    old = getattr(trace, section + "_rows")[row][idx]
    if section == "z":
        value = rng.choice([v for v in range(max(spec.z_upper) + 3) if v != old])
    elif section == "delta":
        value = rng.choice([v for v in range(q) if v != old])
    else:
        value = rng.randrange(2, q)  # off both bit values, so always inconsistent
    return with_cell(trace, section, row, idx, value)


# q = 331, A_hat = [[-3]], box [0, 100], z_init = 87: step 0 claims z_1 = 70
# with both bits 1 and slack 100, where the dynamics give clamp(-261) = 0; the
# later steps are honest. The online checks pass, and the transition value
# 70 + 261 is q, so every constraint holds mod q but not over the integers.
WRAPPING_SYSTEM = SystemSpec(a_hat=((-3,),), z_upper=(100,), z_lower=(0,), z_init=(87,),
                             num_steps=5)


def wrapping_trace() -> ExecutionTrace:
    steps = [StepRecord(z_next=(70,), alpha_up=(1,), alpha_lo=(1,), delta=(100,))]
    for _ in range(WRAPPING_SYSTEM.num_steps - 1):
        steps.append(step_slack(WRAPPING_SYSTEM, steps[-1].z_next))
    return ExecutionTrace.from_steps(WRAPPING_SYSTEM, steps)


def trajectory(forged: dict, spec: SystemSpec = SYSTEM) -> ExecutionTrace:
    """The system's trajectory from z_init, honest at every step but the keys
    of `forged`, whose records replace the honest ones; each later step
    continues honestly from the state the forged one reached."""
    steps = []
    z = spec.z_init
    for k in range(spec.num_steps):
        steps.append(forged.get(k) or step_slack(spec, z))
        z = steps[-1].z_next
    return ExecutionTrace.from_steps(spec, steps)


def wrong_clip() -> ExecutionTrace:
    # step 0 clamps coordinate 0 to z_upper[0] = 100 where (A_hat·z)[0] = 3
    # lies inside the box, with the slack (A_hat·z)[0] - z_lower[0]
    honest = step_slack(SYSTEM, SYSTEM.z_init)
    assert honest.z_next[0] == 3 and SYSTEM.z_lower[0] == 0
    return trajectory({0: StepRecord(
        z_next=(100, honest.z_next[1]), alpha_up=(0, honest.alpha_up[1]),
        alpha_lo=(1, honest.alpha_lo[1]), delta=(3, honest.delta[1]))})


def missing_clip() -> ExecutionTrace:
    # at step 20, (A_hat·z)[1] = 37 lies below z_lower[1] = 40; the step keeps
    # 37 with both bits 1 and the slack z_upper[1] - z_lower[1] = 60
    honest = step_slack(SYSTEM, trajectory({}).z_rows[20])
    assert honest.z_next[1] == 40 and honest.alpha_lo[1] == 0
    return trajectory({20: StepRecord(
        z_next=(honest.z_next[0], 37), alpha_up=honest.alpha_up,
        alpha_lo=(honest.alpha_lo[0], 1), delta=(honest.delta[0], 60))})


def shifted_state() -> ExecutionTrace:
    # the state moves by (+1, -2) after step 5, so two constraints fail at
    # that step only
    honest = step_slack(SYSTEM, trajectory({}).z_rows[5])
    shifted = (honest.z_next[0] + 1, honest.z_next[1] - 2)
    return trajectory({5: StepRecord(shifted, honest.alpha_up, honest.alpha_lo, honest.delta)})


def wrong_start() -> ExecutionTrace:
    # the constant trajectory z_k = z_upper, with both bits of every step 0
    # and 1 and the slack A_hat·z_upper - z_lower, so z_0 = (100, 100) where
    # z_init = (3, 100): every step constraint holds, and only the boundary
    # fails
    N, n = SYSTEM.num_steps, SYSTEM.n
    delta = tuple(w - lo for w, lo in zip(apply_transition(SYSTEM, SYSTEM.z_upper), SYSTEM.z_lower))
    return ExecutionTrace(SYSTEM, z_rows=(SYSTEM.z_upper,) * (N + 1), alpha_up_rows=((0,) * n,) * N,
                          alpha_lo_rows=((1,) * n,) * N, delta_rows=(delta,) * N)


def moved_state(spec: SystemSpec) -> ExecutionTrace:
    """The trajectory whose state after the middle step is moved by 1 on
    coordinate 0, within the box, and continued honestly: one transition
    constraint fails, at that step only."""
    k = spec.num_steps // 2
    honest = step_slack(spec, trajectory({}, spec).z_rows[k])
    z0 = honest.z_next[0] + (1 if honest.z_next[0] < spec.z_upper[0] else -1)
    return trajectory({k: StepRecord((z0, *honest.z_next[1:]), honest.alpha_up,
                                     honest.alpha_lo, honest.delta)}, spec)
