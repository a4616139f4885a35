"""The soundness scoreboard: each known break of the Fiat-Shamir verifier as a
strict expected failure, built through the public API on the paper system
or, for the wrapped step, on conftest's one-coordinate WRAPPING_SYSTEM; the
wrong start also replaces the trace tree's boundary tables, by patching
protocol._Committed.

Each forgery is a trajectory that breaks the dynamics, which the honest prover
refuses. Committed with prove(force=True) at 8 queries, verify should reject
it; today verify accepts each, so each test xfails and names the ROADMAP item
that would close it. When a fix closes a break, its test passes and, being
strict, fails the run until the fix removes the mark.

The rate forgery (ROADMAP items 2 and 22) is accepted at a rate, not always:
its test measures that rate on each shape the benchmark proves.
"""

import math
from operator import mul

import pytest

from conftest import WRAPPING_SYSTEM, wrapping_trace
from projstark import (ExecutionTrace, FiatShamirTranscript, InvalidTraceError, PrimeField,
                       StepRecord, SystemSpec, prove, step_slack, verify)
from projstark import protocol
from projstark.air import DEGREE_2_AIR
from projstark.dynamics import apply_transition
from projstark.poly import Polynomial
from projstark.reference_example import MODULUS, SYSTEM
from test_protocol import BENCHMARK_SHAPES

QUERIES = 8


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


def forge_boundary_tables(monkeypatch) -> None:
    """Make prove commit, as the n boundary columns of its trace tree, the
    tables (f_z(x) - z_init)·(x - 1)^(-1) in place of the floor quotients:
    they meet the boundary identity at every point of D0, and no FRI tests
    their degree."""
    init = protocol._Committed.__init__

    def forged(self, tables, domains):
        if type(self) is protocol._Committed:  # the trace tree, not a tree of pairs
            q, n, inverses = domains.field.modulus, SYSTEM.n, domains.boundary_inverses()
            tables = tables[:-n] + [[(v - z0) * w % q for v, w in zip(table, inverses)]
                                    for table, z0 in zip(tables[:n], SYSTEM.z_init)]
        init(self, tables, domains)

    monkeypatch.setattr(protocol._Committed, "__init__", forged)


def accepted(trace: ExecutionTrace, salt: bytes, spec: SystemSpec = SYSTEM) -> bool:
    field = PrimeField(MODULUS)
    proof = prove(field, spec, trace, FiatShamirTranscript(MODULUS, salt=salt),
                  num_queries=QUERIES, force=True)
    return verify(field, spec, proof, num_queries=QUERIES).accepted


@pytest.mark.parametrize("forgery", [wrong_clip, missing_clip, shifted_state, wrong_start])
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
    # b"41" is the first of b"0", b"1", ... whose weights cancel the two failures
    assert not accepted(shifted_state(), salt=b"41")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_wrong_start_is_rejected(monkeypatch):
    # only Q is FRI-tested, so the boundary columns can hold any table:
    # committed as forge_boundary_tables commits them, the wrong start passes
    # the boundary stage at every sample point. Accepted for each salt of
    # b"0" to b"9", at 8 and at 64 queries
    forge_boundary_tables(monkeypatch)
    assert not accepted(wrong_start(), salt=b"0")


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


def moved_state(spec: SystemSpec) -> ExecutionTrace:
    """The trajectory whose state after the middle step is moved by 1 on
    coordinate 0, within the box, and continued honestly: one transition
    constraint fails, at that step only."""
    k = spec.num_steps // 2
    honest = step_slack(spec, trajectory({}, spec).z_rows[k])
    z0 = honest.z_next[0] + (1 if honest.z_next[0] < spec.z_upper[0] else -1)
    return trajectory({k: StepRecord((z0, *honest.z_next[1:]), honest.alpha_up,
                                     honest.alpha_lo, honest.delta)}, spec)


def lagrange_columns(xs, q):
    """Column i holds coefficient i of each Lagrange basis polynomial of the
    points xs, so an interpolant's coefficient i is its column's dot product
    with the values."""
    master = [1]
    for x in xs:  # prod (X - x), ascending
        master = [(a - x * b) % q for a, b in zip([0, *master], [*master, 0])]
    m, rows = len(xs), []
    for xj in xs:
        basis = [0] * m  # master / (X - xj), by synthetic division
        basis[m - 1] = master[m]
        for i in range(m - 1, 0, -1):
            basis[i - 1] = (master[i] + xj * basis[i]) % q
        inverse = pow(Polynomial(PrimeField(q), basis).evaluate(xj), -1, q)
        rows.append([c * inverse % q for c in basis])
    return list(zip(*rows))


def rate_forgery(q: int, spec: SystemSpec):
    """The build_compositions of a prover that commits, as Q, the interpolant
    of the values the consistency check expects, Σγ_k·C_k(x)/Z_N(x), on the
    first bound + 1 points of D0 in leaf order: Q then meets the degree bound, so FRI
    passes, and only the sample points off those fail consistency."""
    N = spec.num_steps
    domains = protocol._domains(q, N)
    xs = domains.trace_points[:DEGREE_2_AIR.worst_bound(N) + 1]
    g_n = pow(domains.g, N, q)
    inv_z = [(x - g_n) * pow(pow(x, N + 1, q) - 1, -1, q) % q for x in xs]
    columns = lagrange_columns(xs, q)

    def build_compositions(numerators, domain):
        [combined] = numerators
        table = domains.evaluator(0).evaluate([combined])[0]  # on D0, in leaf order
        ys = [v * w % q for v, w in zip(table, inv_z)]
        return [Polynomial(PrimeField(q), [sum(map(mul, c, ys)) % q for c in columns])]

    return build_compositions


# enough salts on each shape that 0, and the rate of the paper's AIR, fall
# outside the band
@pytest.mark.parametrize("q, spec, salts", [
    (q, spec, salts) for (q, spec, _), salts in zip(BENCHMARK_SHAPES, (200, 300, 100))],
    ids=["paper", "field-q12289", "trace-q769"])
def test_the_rate_forgery_is_accepted_at_its_rate(monkeypatch, q, spec, salts):
    # at 1 query, the share of Q's table that is right: N of the |D0| points
    # (29/300, 127/2048, 255/512), within 3 standard deviations over the
    # salts. The paper's AIR, bound 2N - 2, gave 2N - 1 of them
    field, trace = PrimeField(q), moved_state(spec)
    with pytest.raises(InvalidTraceError, match="constraint transition"):
        prove(field, spec, trace, FiatShamirTranscript(q), num_queries=1)
    monkeypatch.setattr(protocol, "build_compositions", rate_forgery(q, spec))
    accepted = 0
    for k in range(salts):
        salt = b"rate%d" % k
        proof = prove(field, spec, trace, FiatShamirTranscript(q, salt=salt), num_queries=1,
                      force=True)
        accepted += verify(field, spec, proof).accepted
    rate = spec.num_steps / protocol._domains(q, spec.num_steps).size(0)
    assert abs(accepted - salts * rate) <= 3 * math.sqrt(salts * rate * (1 - rate)), accepted
