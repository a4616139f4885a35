"""The soundness scoreboard: each known break of the Fiat-Shamir verifier as a
strict expected failure, built through the public API on the paper system
or, for the wrapped step, on conftest's one-coordinate WRAPPING_SYSTEM.

Each forgery is a trajectory that breaks the dynamics, which the honest prover
refuses. Committed with prove(force=True) at 8 queries, verify should reject
it; today verify accepts each, so each test xfails and names the ROADMAP item
that would close it. When a fix closes a break, its test passes and, being
strict, fails the run until the fix removes the mark.
"""

import pytest

from conftest import WRAPPING_SYSTEM, wrapping_trace
from projstark import (ExecutionTrace, FiatShamirTranscript, InvalidTraceError, PrimeField,
                       StepRecord, SystemSpec, prove, step_slack, verify)
from projstark.reference_example import MODULUS, SYSTEM

QUERIES = 8


def trajectory(forged: dict) -> ExecutionTrace:
    """The paper system's trajectory from z_init, honest at every step but the
    keys of `forged`, whose records replace the honest ones; each later step
    continues honestly from the state the forged one reached."""
    steps = []
    z = SYSTEM.z_init
    for k in range(SYSTEM.num_steps):
        steps.append(forged.get(k) or step_slack(SYSTEM, z))
        z = steps[-1].z_next
    return ExecutionTrace.from_steps(SYSTEM, steps)


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


def accepted(trace: ExecutionTrace, salt: bytes, spec: SystemSpec = SYSTEM) -> bool:
    field = PrimeField(MODULUS)
    proof = prove(field, spec, trace, FiatShamirTranscript(MODULUS, salt=salt),
                  num_queries=QUERIES, force=True)
    return verify(field, spec, proof, num_queries=QUERIES).accepted


@pytest.mark.parametrize("forgery", [wrong_clip, missing_clip, shifted_state])
def test_the_honest_prover_refuses_each_forged_trajectory(forgery):
    with pytest.raises(InvalidTraceError):
        prove(PrimeField(MODULUS), SYSTEM, forgery(), FiatShamirTranscript(MODULUS),
              num_queries=QUERIES)


# raises=AssertionError: a forgery that cannot be built any more is an error,
# not an open break
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10")
def test_wrong_clip_is_rejected():
    # every constraint holds; only the online checks see the step is no projection
    assert not accepted(wrong_clip(), salt=b"0")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10")
def test_missing_clip_is_rejected():
    assert not accepted(missing_clip(), salt=b"0")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
def test_salt_grinding_is_rejected():
    # the prover picks the salt, and so the composition weights drawn from F_q:
    # b"149" is the first of b"0", b"1", ... whose weights cancel the two failures
    assert not accepted(shifted_state(), salt=b"149")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10")
def test_wrapped_step_is_rejected():
    # step 0 claims z_1 = 70 where the dynamics clamp to 0: the online checks
    # pass and every constraint holds mod q = 331, though not over the
    # integers, which only the honest prover checks. Accepted for each salt
    # of b"0" to b"19"
    with pytest.raises(InvalidTraceError):
        prove(PrimeField(MODULUS), WRAPPING_SYSTEM, wrapping_trace(),
              FiatShamirTranscript(MODULUS), num_queries=QUERIES)
    assert not accepted(wrapping_trace(), salt=b"0", spec=WRAPPING_SYSTEM)
