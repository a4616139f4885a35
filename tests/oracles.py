"""Reference solutions of the paper's dynamics, written apart from projstark's
slack form so the tests can check it: the clamped step itself, and Lemma 1's
bit assignment found by brute force."""

from typing import Sequence, Tuple

from projstark.dynamics import IntVec, SystemSpec, apply_transition


class Lemma1Error(RuntimeError):
    """The per-coordinate slack system has no or conflicting solutions."""


def step_project(spec: SystemSpec, z: Sequence[int]) -> IntVec:
    """One step of the original dynamics: clamp A_hat * z into the box."""
    w = apply_transition(spec, z)
    return tuple(min(max(wi, lo), hi) for wi, lo, hi in zip(w, spec.z_lower, spec.z_upper))


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
