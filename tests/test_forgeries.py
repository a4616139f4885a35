"""The soundness scoreboard: each known break of the Fiat-Shamir verifier as a
strict expected failure, on the forged trajectories of tests/forgeries.py,
over the paper system or, for the wrapped step, its one-coordinate
WRAPPING_SYSTEM.

Each forgery is a trajectory that breaks the dynamics, which the honest prover
refuses. Committed at 8 queries through forgeries.forge_proof, the code that
runs after prove's decision, verify should reject it; where verify accepts
it, the test xfails and names the ROADMAP item that would close it. When a
fix closes a break, its test passes and, being strict, fails the run until
the fix removes the mark. The wrong start, closed by F's boundary terms
(ROADMAP item 4), is a plain test now.

The rate forgery (ROADMAP items 2 and 22) is accepted at a rate, not always:
its test measures that rate on each shape the benchmark proves. So is the
adaptive wrong start, which commits as F the interpolant of the values the
verifier expects, its boundary terms included: it falls to the same rate.
"""

import math
from itertools import cycle
from operator import mul

import pytest

from forgeries import (WRAPPING_SYSTEM, forge_proof, missing_clip, moved_state, shifted_state,
                       wrapping_trace, wrong_clip, wrong_start)
from projstark import (ExecutionTrace, FiatShamirTranscript, InvalidTraceError, PrimeField,
                       SystemSpec, prove, verify)
from projstark import protocol
from projstark.air import DEGREE_2_AIR
from projstark.poly import Polynomial
from projstark.reference_example import MODULUS, SYSTEM
from test_protocol import BENCHMARK_SHAPES

QUERIES = 8


def accepted(trace: ExecutionTrace, salt: bytes, spec: SystemSpec = SYSTEM) -> bool:
    field = PrimeField(MODULUS)
    proof = forge_proof(field, spec, trace, FiatShamirTranscript(MODULUS, salt=salt), QUERIES)
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
    # b"44" is the first of b"0", b"1", ... whose weights cancel the two failures
    assert not accepted(shifted_state(), salt=b"44")


def test_wrong_start_is_rejected():
    # every step holds, so Q is exact, but f_z(1) is not z_init: F's boundary
    # terms, floor quotients by x - 1, differ from the verifier's (f_z(x) -
    # z_init)/(x - 1) at every point of D0
    assert not any(accepted(wrong_start(), salt=b"%d" % k) for k in range(10))


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


def boundary_forgery(q: int, spec: SystemSpec):
    """The boundary_quotient of a prover that commits, as boundary term i,
    the interpolant of the values the consistency check expects, (f_z,i(x) -
    z_init,i)/(x - 1), on the first bound + 1 points of D0; prove takes the
    n terms in coordinate order, so z_init cycles with them. With
    rate_forgery, F is then the interpolant of every value the verifier
    expects there."""
    N = spec.num_steps
    domains = protocol._domains(q, N)
    xs = domains.trace_points[:DEGREE_2_AIR.worst_bound(N) + 1]
    inverses = [pow(x - 1, -1, q) for x in xs]
    columns, starts = lagrange_columns(xs, q), cycle(spec.z_init)

    def boundary_quotient(f):
        z0, table = next(starts), domains.evaluator(0).evaluate([f])[0]
        ys = [(v - z0) * w % q for v, w in zip(table, inverses)]
        return Polynomial(PrimeField(q), [sum(map(mul, c, ys)) % q for c in columns])

    return boundary_quotient


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
        proof = forge_proof(field, spec, trace, FiatShamirTranscript(q, salt=salt), 1)
        accepted += verify(field, spec, proof).accepted
    rate = spec.num_steps / protocol._domains(q, spec.num_steps).size(0)
    assert abs(accepted - salts * rate) <= 3 * math.sqrt(salts * rate * (1 - rate)), accepted


def test_the_adaptive_wrong_start_is_accepted_at_the_rate_and_not_at_8_queries(monkeypatch):
    # F the interpolant of the verifier's expected values, boundary terms
    # included, on the first N points of D0: at 1 query accepted where the
    # sample point is one of them, N of the |D0| points (29/300 on the paper
    # shape), within 3 standard deviations over 300 salts; at 8 queries
    # never, over 100 salts
    q, spec, trace = MODULUS, SYSTEM, wrong_start()
    monkeypatch.setattr(protocol, "build_compositions", rate_forgery(q, spec))
    monkeypatch.setattr(protocol, "boundary_quotient", boundary_forgery(q, spec))
    field = PrimeField(q)
    counts = []
    for queries, salts in ((1, 300), (8, 100)):
        count = 0
        for k in range(salts):
            transcript = FiatShamirTranscript(q, salt=b"start%d" % k)
            proof = forge_proof(field, spec, trace, transcript, queries)
            count += verify(field, spec, proof, num_queries=queries).accepted
        counts.append(count)
    rate = spec.num_steps / protocol._domains(q, spec.num_steps).size(0)
    assert abs(counts[0] - 300 * rate) <= 3 * math.sqrt(300 * rate * (1 - rate)), counts
    assert counts[1] == 0, counts
