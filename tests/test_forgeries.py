"""The soundness scoreboard: each known break of the Fiat-Shamir verifier as a
strict expected failure, on the forged trajectories of tests/forgeries.py,
over the paper system or, for the wrapped step, its one-coordinate
WRAPPING_SYSTEM; the wrong start also replaces the trace tree's boundary
tables, by patching protocol._Committed.

Each forgery is a trajectory that breaks the dynamics, which the honest prover
refuses. Committed at 8 queries through forgeries.forge_proof, the code that
runs after prove's decision, verify should reject it; today verify accepts
each, so each test xfails and names the ROADMAP item that would close it.
When a fix closes a break, its test passes and, being strict, fails the run
until the fix removes the mark.

The rate forgery (ROADMAP items 2 and 22) is accepted at a rate, not always:
its test measures that rate on each shape the benchmark proves.
"""

import math
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
        proof = forge_proof(field, spec, trace, FiatShamirTranscript(q, salt=salt), 1)
        accepted += verify(field, spec, proof).accepted
    rate = spec.num_steps / protocol._domains(q, spec.num_steps).size(0)
    assert abs(accepted - salts * rate) <= 3 * math.sqrt(salts * rate * (1 - rate)), accepted
