import base64
import binascii
import contextlib
import dataclasses
import hashlib
import json
import math
import pathlib
import random
import re
import sys
import threading
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (STEP_CHECK_CASES, criterion_06_specs, keyed, minimal_multiproof, positional,
                      random_challenges, random_spec, replay_config)
from forgeries import WRAPPING_SYSTEM, forge_proof, with_cell, wrapping_trace
from projstark import protocol
from projstark import reference_example as ref
from projstark.air import (
    DEGREE_2_AIR,
    PAPER_AIR,
    InvalidTraceError,
    boundary_quotient,
    build_compositions,
    build_numerators,
    build_trace_polys,
    combine,
    constraints,
    trace_interpolator,
)
from projstark.channel import (FiatShamirTranscript, MerkleCommitment, ReplayTranscript,
                               TranscriptError)
from projstark.cli import EXIT_MALFORMED, EXIT_OK, ConfigError, load_config, main
from projstark.dynamics import (SECTIONS, ExecutionTrace, StepRecord, SystemSpec, online_check,
                                simulate, step_slack)
from projstark.field import PrimeField, build_domain
from projstark.fri import num_rounds
from projstark.poly import Polynomial, vanishing
from projstark.protocol import (
    MAX_RETRIES,
    PROOF_VERSION,
    OnlineStageError,
    Proof,
    ProofFormatError,
    dump_proof,
    hash_spec,
    honest_step_source,
    load_proof,
    prove,
    proof_from_json,
    proof_to_json,
    run_online_stage,
    verify,
)


def paper_transcript():
    return ReplayTranscript(
        ref.MODULUS, gammas=ref.GAMMAS, betas=ref.BETAS, sample_points=ref.SAMPLE_POINTS
    )


@pytest.fixture(scope="module")
def paper_proof(field, paper_spec, paper_trace):
    return prove(field, paper_spec, paper_trace, paper_transcript(), num_queries=2)


def _drawn_points(field, spec, proof, transcript=None):
    """The sample points verify draws for the proof, from the transcript or,
    if None, a Fiat-Shamir one salted with the proof's salt."""
    if transcript is None:
        transcript = FiatShamirTranscript(field.modulus, salt=proof.salt)
    drawn, draw = [], transcript.draw

    def recording(kind, points=None):
        value = draw(kind, points)
        if kind == "sample_point":
            drawn.append(value)
        return value

    transcript.draw = recording
    verify(field, spec, proof, transcript)
    return drawn


@pytest.fixture(scope="module")
def paper_fs_proof(field, paper_spec, paper_trace):
    transcript = FiatShamirTranscript(ref.MODULUS, salt=b"suite")
    return prove(field, paper_spec, paper_trace, transcript, num_queries=8, salt=b"suite")


# --- online stage -----------------------------------------------------------


def test_online_stage_honest(paper_spec, paper_trace):
    log = []
    trace = run_online_stage(paper_spec, honest_step_source(paper_spec), log)
    assert trace == paper_trace
    assert len(log) == paper_spec.num_steps
    assert all(e["verdict"] == "accept" and e["attempt"] == 0 for e in log)


def test_online_stage_retries_flaky_source(paper_spec, paper_trace):
    def flaky(k, z, attempt):
        rec = step_slack(paper_spec, z)
        if k == 2 and attempt == 0:
            bad_delta = (rec.delta[0], rec.delta[1] - 1)
            return StepRecord(rec.z_next, rec.alpha_up, rec.alpha_lo, bad_delta)
        return rec

    log = []
    trace = run_online_stage(paper_spec, flaky, log)
    assert trace == paper_trace
    rejects = [e for e in log if e["verdict"] == "reject"]
    assert len(rejects) == 1
    assert rejects[0]["step"] == 2 and rejects[0]["attempt"] == 0
    assert rejects[0]["reason"].startswith("delta-too-small")


def test_online_stage_gives_up(paper_spec):
    def hostile(k, z, attempt):
        rec = step_slack(paper_spec, z)
        return StepRecord((rec.z_next[0], 999), rec.alpha_up, rec.alpha_lo, rec.delta)

    with pytest.raises(OnlineStageError):
        run_online_stage(paper_spec, hostile)


@pytest.mark.parametrize("record", [
    StepRecord((50,), (1,), (1,), (100,)),
    StepRecord((), (), (), ()),
    StepRecord((3, 97), (1, 1), (1, 1), (100, 60, 0)),
], ids=["narrow", "empty", "wide-delta"])
def test_online_stage_refuses_records_of_the_wrong_width(paper_spec, record):
    log = []
    with pytest.raises(OnlineStageError):
        run_online_stage(paper_spec, lambda k, z, attempt: record, log)
    assert [e["reason"].split(":")[0] for e in log] == ["wrong-width"] * (MAX_RETRIES + 1)


# --- proving and verifying --------------------------------------------------


def test_paper_replay_proof_accepts(field, paper_spec, paper_proof):
    report = verify(field, paper_spec, paper_proof, paper_transcript())
    assert report.accepted
    assert report.verdict == "accept"
    assert paper_proof.degree_bound == ref.COMBINED_DEGREE_BOUND
    assert paper_proof.fri_layers.remainder == (ref.FINAL_CONSTANT,)
    # a proof carries no sample point: each query's layer-0 FRI opening sits
    # at the leaf of the pair {x, -x} of its replayed x
    domains = protocol._domains(ref.MODULUS, paper_spec.num_steps)
    assert ([q.fri[0][0].index for q in paper_proof.queries]
            == [domains.pair_leaf(0, x)[0] for x in ref.SAMPLE_POINTS])


def test_paper_fiat_shamir_proof_accepts(field, paper_spec, paper_fs_proof):
    assert paper_fs_proof.degree_bound == paper_spec.num_steps - 1
    assert verify(field, paper_spec, paper_fs_proof).accepted


def test_a_proof_carries_its_transcripts_salt(field, paper_spec, paper_trace):
    def transcript():
        return FiatShamirTranscript(ref.MODULUS, salt=b"a")

    proof = prove(field, paper_spec, paper_trace, transcript(), num_queries=2)
    assert proof.salt == b"a"
    assert verify(field, paper_spec, proof).accepted
    assert prove(field, paper_spec, paper_trace, transcript(), num_queries=2, salt=b"a") == proof
    for salt in (b"", b"b"):
        with pytest.raises(ValueError, match="salt"):
            prove(field, paper_spec, paper_trace, transcript(), num_queries=2, salt=salt)


def test_prove_raises_the_callers_value_errors_before_deciding_the_trace(field, paper_spec,
                                                                         paper_trace):
    # a wrong start, refused only once the publics, the query count and the
    # salt have passed
    wrong_start = with_cell(paper_trace, "z", 0, 1, 99)
    odd = dataclasses.replace(paper_spec, num_steps=2)  # N+1 = 3 divides 330 but is odd
    for spec, trace, kwargs, message in (
            (paper_spec, wrong_start, dict(salt=b"x"), "salt"),
            (paper_spec, wrong_start, dict(num_queries=0), "num_queries"),
            (odd, with_cell(simulate(odd), "z", 0, 1, 99), {}, "must be even")):
        with pytest.raises(ValueError, match=message):
            prove(field, spec, trace, FiatShamirTranscript(ref.MODULUS), **kwargs)
    with pytest.raises(InvalidTraceError, match="boundary"):
        prove(field, paper_spec, wrong_start, FiatShamirTranscript(ref.MODULUS))


def test_a_replay_proof_carries_the_empty_salt(field, paper_spec, paper_trace, paper_proof):
    # a replay transcript salts nothing, so a salt given with it is refused
    assert paper_proof.salt == b""
    with pytest.raises(ValueError, match="salt"):
        prove(field, paper_spec, paper_trace, paper_transcript(), num_queries=2, salt=b"x")


def test_verify_holds_a_replay_proof_to_the_empty_salt(field, paper_spec, paper_proof):
    # prove writes no other salt with a replay transcript, so verify takes none
    proof = dataclasses.replace(paper_proof, salt=b"x")
    report = verify(field, paper_spec, load_proof(dump_proof(proof)), paper_transcript())
    assert (report.verdict, report.stage) == ("reject", "salt")
    assert "b'x'" in report.detail and "b''" in report.detail


def test_verify_holds_a_proof_to_its_own_transcripts_salt(field, paper_spec, paper_trace):
    def transcript(salt):
        return FiatShamirTranscript(ref.MODULUS, salt=salt)

    proof = prove(field, paper_spec, paper_trace, transcript(b"s"), num_queries=2)
    report = verify(field, paper_spec, proof, transcript(b"t"))
    assert (report.verdict, report.stage) == ("reject", "salt")
    assert "b's'" in report.detail and "b't'" in report.detail
    assert verify(field, paper_spec, proof, transcript(b"s")).accepted
    # the query count is checked first
    assert verify(field, paper_spec, proof, transcript(b"t"), num_queries=3).stage == "queries"


def test_verify_holds_a_proof_to_the_callers_query_count(field, paper_spec, paper_trace):
    # the prover picks how many queries it answers; the caller of verify sets
    # the least number it accepts, whatever the proof says
    proof = prove(field, paper_spec, paper_trace, FiatShamirTranscript(ref.MODULUS), num_queries=1)
    report = verify(field, paper_spec, proof, num_queries=8)
    assert (report.verdict, report.stage) == ("reject", "queries")
    assert "answers 1 queries" in report.detail and "asks for 8" in report.detail
    assert verify(field, paper_spec, proof, num_queries=1).accepted


@pytest.mark.parametrize("count", [0, protocol.MAX_QUERIES + 1])
def test_verify_refuses_a_query_count_prove_refuses(field, paper_spec, paper_fs_proof, count):
    with pytest.raises(ValueError, match="num_queries"):
        verify(field, paper_spec, paper_fs_proof, num_queries=count)


def test_prove_requires_even_subgroup(field):
    rng = random.Random(71)
    spec = random_spec(rng, 331)
    odd_spec = spec.__class__(
        a_hat=spec.a_hat, z_upper=spec.z_upper, z_lower=spec.z_lower,
        z_init=spec.z_init, num_steps=2,  # N+1 = 3 divides 330 but is odd
    )
    with pytest.raises(ValueError):
        prove(field, odd_spec, simulate(odd_spec), FiatShamirTranscript(331))


def test_prove_refuses_tampered_trace(field, paper_spec, paper_trace):
    tampered = with_cell(paper_trace, "alpha_lo", 4, 1, 2)
    with pytest.raises(InvalidTraceError):
        prove(field, paper_spec, tampered, paper_transcript())


def test_prove_refuses_online_failure(field, paper_spec, paper_trace):
    bad = with_cell(paper_trace, "delta", 4, 1, 59)
    with pytest.raises(InvalidTraceError, match="online"):
        prove(field, paper_spec, bad, paper_transcript())


def test_prove_names_the_failing_constraint_and_step(field, paper_spec, paper_trace):
    # a larger slack passes the online checks; the step check catches it
    tampered = with_cell(paper_trace, "delta", 7, 1, paper_trace.delta_rows[7][1] + 1)
    with pytest.raises(InvalidTraceError, match=r"constraint slack\[1\] fails at step 7$"):
        prove(field, paper_spec, tampered, paper_transcript())


def test_a_step_that_holds_only_mod_q_is_refused():
    # the transition value of step 0 is q: zero in the field, not in the integers
    trace = wrapping_trace()
    spec, q = WRAPPING_SYSTEM, 331
    assert all(online_check(spec, trace.step(k)) is None for k in range(spec.num_steps))
    assert constraints(spec, (87, 1, 1, 100), (70,)) == [q, 0, 0, 0]
    with pytest.raises(InvalidTraceError, match=r"constraint transition\[0\] fails at step 0$"):
        prove(PrimeField(q), spec, trace, FiatShamirTranscript(q), num_queries=2)


@pytest.mark.parametrize("section, row, shift, message", [
    ("z", 0, -1, r"boundary condition violated for coordinate 1$"),
    ("delta", 7, 1, r"constraint slack\[1\] fails at step 7$"),
], ids=["wrong-start", "larger-slack"])
def test_prove_refuses_on_the_rows_before_interpolating(field, paper_spec, paper_trace,
                                                        monkeypatch, section, row, shift, message):
    # the boundary condition and the step constraints are decided on the
    # integer rows; no polynomial is built for a trace the prover refuses
    def no_interpolation(*args):
        raise AssertionError("prove interpolated a trace it refuses")

    monkeypatch.setattr(protocol, "build_trace_polys", no_interpolation)
    old = getattr(paper_trace, section + "_rows")[row][1]
    tampered = with_cell(paper_trace, section, row, 1, old + shift)
    with pytest.raises(InvalidTraceError, match=message):
        prove(field, paper_spec, tampered, paper_transcript())


def test_a_bit_outside_0_1_is_refused_online(field, paper_spec, paper_trace):
    # refused when the step is recorded, while it can still be requested again
    tampered = with_cell(paper_trace, "alpha_up", 7, 1, 2)
    log = []
    with pytest.raises(OnlineStageError):
        run_online_stage(paper_spec, lambda k, z, attempt: tampered.step(k), log)
    assert [(e["step"], e["reason"]) for e in log if e["verdict"] == "reject"] == [
        (7, "not-a-bit: alpha_up[1]=2 is neither 0 nor 1")] * (MAX_RETRIES + 1)
    with pytest.raises(InvalidTraceError, match=r"online check failed at step 7: not-a-bit"):
        prove(field, paper_spec, tampered, paper_transcript())


def test_prover_divides_once_for_the_weighted_sum_of_floor_quotients():
    rng = random.Random(97)
    for field, spec, trace in STEP_CHECK_CASES:
        q, N = field.modulus, spec.num_steps
        domain = build_domain(field, N + 1)
        zv = vanishing(domain.elements[:N], field)
        nums = build_numerators(build_trace_polys(trace, domain), spec, domain)
        gammas = [rng.randrange(1, q) for _ in nums]
        expected = Polynomial(field)
        for gamma, num in zip(gammas, nums, strict=True):
            expected = expected + divmod(num, zv)[0].scale(gamma)
        [quotient] = build_compositions([combine(nums, gammas)], domain)
        assert quotient == expected, (q, spec)
        # and the committed Q opens to that sum at every sample point
        ch = random_challenges(rng, q, spec, num_queries=3)
        ch["gammas"] = gammas
        proof = forge_proof(field, spec, trace, ReplayTranscript(q, **ch), 3)
        for query, x in zip(proof.queries, ch["sample_points"], strict=True):
            assert query.fri[0][0].value == expected.evaluate(x), (q, spec, x)


def test_step_check_refuses_exactly_when_a_numerator_leaves_a_remainder():
    outcomes = []
    for field, spec, trace in STEP_CHECK_CASES:
        q, N = field.modulus, spec.num_steps
        domain = build_domain(field, N + 1)
        zv = vanishing(domain.elements[:N], field)
        nums = build_numerators(build_trace_polys(trace, domain), spec, domain)
        remainder = any(not divmod(num, zv)[1].is_zero() for num in nums)
        try:
            prove(field, spec, trace, FiatShamirTranscript(q), num_queries=1)
            refused = False
        except InvalidTraceError as exc:
            assert "fails at step" in str(exc)
            refused = True
        assert refused == remainder, (q, spec, trace)
        outcomes.append(refused)
    assert 0 < sum(outcomes) < len(outcomes)


def test_forced_proof_is_rejected(field, paper_spec, paper_trace):
    tampered = with_cell(paper_trace, "z", 9, 1, 55)
    transcript = FiatShamirTranscript(ref.MODULUS)
    proof = forge_proof(field, paper_spec, tampered, transcript, 8)
    report = verify(field, paper_spec, proof)
    assert not report.accepted
    assert report.stage in ("consistency", "fri_query")


def test_forced_wrong_start_is_rejected_at_consistency(field, paper_spec, paper_trace):
    forged = with_cell(paper_trace, "z", 0, 1, 99)
    transcript = FiatShamirTranscript(ref.MODULUS)
    proof = forge_proof(field, paper_spec, forged, transcript, 4)
    report = verify(field, paper_spec, proof)
    assert not report.accepted
    assert report.stage == "consistency"


@pytest.mark.parametrize("forced", [False, True])
def test_committed_f_adds_the_floor_boundary_quotients(field, paper_spec, paper_trace,
                                                       monkeypatch, forced):
    # under Fiat-Shamir the committed F is Q plus, weighted by the n draws
    # after the 4n gammas, the floor quotients floor((f_z,i - z_init,i)/(x -
    # 1)) by divmod, also for a forged trace whose row 0 is not z_init: there
    # (f_z(x) - z_init)/(x - 1) is no polynomial, and F differs from it at
    # every point of D0
    trace = with_cell(paper_trace, "z", 0, 1, 99) if forced else paper_trace
    committed, weights = [], []
    init = protocol._CommittedPairs.__init__

    def spy(self, poly, domains, layer):
        committed.append(poly)
        init(self, poly, domains, layer)

    transcript = FiatShamirTranscript(ref.MODULUS)
    draw = transcript.draw

    def recording(kind, points=None):
        value = draw(kind, points)
        if kind == "gamma":
            weights.append(value)
        return value

    monkeypatch.setattr(protocol._CommittedPairs, "__init__", spy)
    transcript.draw = recording
    (forge_proof if forced else prove)(field, paper_spec, trace, transcript, num_queries=2)
    n, domain = paper_spec.n, build_domain(field, paper_spec.num_steps + 1)
    tp = build_trace_polys(trace, domain)
    gammas, alphas = weights[:4 * n], weights[4 * n:]
    assert len(alphas) == n
    [expected] = build_compositions([combine(build_numerators(tp, paper_spec, domain, DEGREE_2_AIR),
                                             gammas)], domain)
    x_minus_one = Polynomial(field, (-1, 1))
    for f, z0, alpha in zip(tp, paper_spec.z_init, alphas):
        expected = expected + divmod(f - z0, x_minus_one)[0].scale(alpha)
    assert committed[0] == expected
    starts = [f.evaluate(1) for f in tp[:n]]
    assert (starts != list(paper_spec.z_init)) == forced


@pytest.mark.parametrize("public", ["a_hat", "z_upper", "z_lower", "z_init"])
def test_verify_rejects_wrong_public_inputs(field, paper_spec, paper_fs_proof, public):
    # an honest Fiat-Shamir proof of the paper system, checked against a spec
    # with one value changed. A replay proof binds no public input: its
    # challenges are fixed before the prover commits, and its F has no
    # boundary term
    value = getattr(paper_spec, public)
    if public == "a_hat":
        other = ((value[0][0] + 1, *value[0][1:]), *value[1:])
    else:
        other = (value[0] - 1, *value[1:])
    report = verify(field, dataclasses.replace(paper_spec, **{public: other}), paper_fs_proof)
    assert not report.accepted
    assert verify(field, paper_spec, paper_fs_proof).accepted


def test_verify_rejects_wrong_modulus(paper_spec, paper_proof):
    report = verify(PrimeField(661), paper_spec, paper_proof, paper_transcript())
    assert not report.accepted
    assert report.stage == "commitment"


def _with_remainder(proof, remainder):
    fri_layers = dataclasses.replace(proof.fri_layers, remainder=tuple(remainder))
    return dataclasses.replace(proof, fri_layers=fri_layers)


class _RemainderSwapTranscript(FiatShamirTranscript):
    """A Fiat-Shamir transcript that absorbs `remainder` in place of the one
    the prover sends: a prover that commits to a remainder it did not fold."""

    def __init__(self, q, remainder, **kwargs):
        super().__init__(q, **kwargs)
        self.remainder = remainder

    def absorb(self, label, data):
        if label == "fri_remainder":
            data = protocol._remainder_bytes(self.remainder)
        super().absorb(label, data)


@pytest.mark.parametrize("replay", [True, False], ids=["replay", "fiat-shamir"])
def test_verify_rejects_a_changed_remainder_coefficient(field, paper_spec, paper_trace,
                                                        paper_proof, paper_fs_proof, replay):
    # one coefficient off by one; under Fiat-Shamir the edited remainder is
    # the one absorbed, so the verifier draws the prover's sample points and
    # the last fold, not an opening, is what disagrees
    honest = paper_proof if replay else paper_fs_proof
    remainder = list(honest.fri_layers.remainder)
    remainder[-1] = (remainder[-1] + 1) % ref.MODULUS
    if replay:
        forged, transcript = _with_remainder(honest, remainder), paper_transcript()
    else:
        forged = _with_remainder(prove(
            field, paper_spec, paper_trace,
            _RemainderSwapTranscript(ref.MODULUS, remainder, salt=b"suite"), num_queries=8,
            salt=b"suite"), remainder)
        assert forged.commitments == honest.commitments
        # sent with the honest openings, the remainder moves the sample points
        assert verify(field, paper_spec, _with_remainder(honest, remainder)).stage == "commitment"
        transcript = None
    report = verify(field, paper_spec, forged, transcript)
    assert (report.verdict, report.stage) == ("reject", "fri_query")
    # the reject names the folded value and the edited remainder's value at
    # the square of the first query's point in the last layer
    last = len(honest.fri_layers.roots)
    x = _drawn_points(field, paper_spec, forged, paper_transcript() if replay else None)[0]
    y = pow(x, 2 ** (last + 1), ref.MODULUS)
    folded = Polynomial(field, honest.fri_layers.remainder).evaluate(y)
    sent = Polynomial(field, remainder).evaluate(y)
    assert folded != sent
    assert folded == ref.FINAL_CONSTANT or not replay
    assert report.detail == (f"query 0: folding identity fails at layer {last}: "
                             f"folded {folded}, the remainder gives {sent}")


@pytest.mark.parametrize("edit, message", [
    ("append", "^expected 15 remainder coefficients, got 16$"),
    ("drop", "^expected 15 remainder coefficients, got 14$"),
    ("q", "^remainder coefficient out of range$"),
], ids=["one-too-long", "one-too-short", "coefficient-q"])
def test_verify_refuses_a_remainder_of_the_wrong_length_or_range(field, paper_spec,
                                                                 paper_fs_proof, edit, message):
    # under Fiat-Shamir N - 1 = 28 is folded once: (28 >> 1) + 1 = 15
    # coefficients, each in [0, q); an appended 0 leaves the polynomial as it
    # was, but not the proof's shape
    remainder = list(paper_fs_proof.fri_layers.remainder)
    assert len(remainder) == 15
    if edit == "append":
        remainder.append(0)
    elif edit == "drop":
        remainder.pop()
    else:
        remainder[0] = ref.MODULUS
    doc = proof_to_json(_with_remainder(paper_fs_proof, remainder))
    with pytest.raises(ProofFormatError, match=message):
        verify(field, paper_spec, load_proof(json.dumps(doc, separators=(",", ":"))))


@pytest.mark.parametrize("bound", [0, 27, 29, 2 * 29 - 2])
def test_fiat_shamir_verify_rejects_a_declared_bound_other_than_n_minus_1(
        field, paper_spec, paper_fs_proof, bound):
    # the remainder's length and the fold count come from the degree-2 AIR's
    # N - 1 = 28, so the proof is well formed and the bound itself is what is
    # wrong, the paper AIR's 2N - 2 = 56 included
    report = verify(field, paper_spec, dataclasses.replace(paper_fs_proof, degree_bound=bound))
    assert (report.verdict, report.stage) == ("reject", "fri_commit")
    assert report.detail == f"degree bound {bound}: worst case is 28"


def test_a_fiat_shamir_proof_of_the_paper_airs_shape_is_malformed(field, paper_spec):
    # a Fiat-Shamir proof of the paper's AIR, as version 15 made it, declares
    # 2N - 2 = 56 and sends 56 folded once, 29 coefficients; labelled as this
    # version, it meets the verifier's shape, N - 1 = 28 folded once to 15
    doc = _as_made_by_version_15(lambda: _pinned_proof("paper-fiat-shamir"))
    assert doc["degree_bound"] == 56 and len(doc["fri_layers"]["remainder"]) == 29
    proof = proof_from_json({**doc, "version": PROOF_VERSION})
    with pytest.raises(ProofFormatError, match="^expected 15 remainder coefficients, got 29$"):
        verify(field, paper_spec, proof)


def _cost_rule_folds(domains, queries):
    """The Fiat-Shamir fold count, evaluated apart from _fri_shape: after r
    folds, fold r + 1 is made only when the 8-byte coefficients it drops
    from the remainder outweigh one 32-byte digest per level of layer r's
    tree of pairs for each query; the last fold leaves a constant."""
    bound = DEGREE_2_AIR.worst_bound(domains.subgroup.order - 1)
    sizes = [(bound >> r) + 1 for r in range(num_rounds(bound) + 1)]
    for r in range(1, num_rounds(bound)):
        levels = math.ceil(math.log2(domains.size(r) // 2))
        if 8 * (sizes[r] - sizes[r + 1]) <= 32 * queries * levels:
            return r
    return num_rounds(bound)


@pytest.mark.parametrize("q, num_steps", [(12289, 127), (769, 255), (331, 29), (3001, 39)])
def test_fiat_shamir_folds_by_the_cost_rule_and_replay_to_a_constant(q, num_steps):
    # at 2 queries the cost rule folds q = 769 twice, to 64 coefficients,
    # and the others once
    field, spec = PrimeField(q), _box_spec(num_steps)
    trace = simulate(spec)
    bound = num_steps - 1
    rounds = _cost_rule_folds(protocol._domains(q, num_steps), 2)
    assert rounds == (2 if q == 769 else 1)
    proof = prove(field, spec, trace, FiatShamirTranscript(q, salt=b"grid"), num_queries=2)
    assert verify(field, spec, proof).accepted
    assert len(proof.fri_layers.roots) == rounds - 1
    assert all(len(query.fri) == rounds for query in proof.queries)
    assert len(proof.fri_layers.remainder) == (bound >> rounds) + 1
    # replay folds its declared bound to a constant: on the paper system, in
    # five folds to 229
    ch = random_challenges(random.Random(q), q, spec, num_queries=2)

    def transcript():
        return paper_transcript() if q == ref.MODULUS else ReplayTranscript(q, **ch)

    proof = prove(field, spec, trace, transcript(), num_queries=2)
    assert verify(field, spec, proof, transcript()).accepted
    rounds = num_rounds(proof.degree_bound)
    assert all(len(query.fri) == rounds for query in proof.queries)
    assert len(proof.fri_layers.remainder) == 1
    if q == ref.MODULUS:
        assert rounds == 5 and proof.fri_layers.remainder == (ref.FINAL_CONSTANT,)


@pytest.mark.parametrize("q, order, queries, rounds, size", [
    (331, 30, 8, 1, 15), (331, 30, 64, 1, 15),
    (12289, 128, 1, 1, 64), (12289, 128, 8, 1, 64), (12289, 128, 64, 1, 64),
    (769, 256, 8, 1, 128), (3001, 40, 8, 1, 20),
    # layer 1 has 128 leaves, a tree of 7 levels: 2 queries pay 448 bytes
    # for it, and folding again drops 512, where 4 queries would pay 896; so
    # the tree's height decides. 1 query folds once more, to 32
    (769, 256, 4, 1, 128), (769, 256, 2, 2, 64), (769, 256, 1, 3, 32),
])
def test_fiat_shamir_folds_while_a_layer_costs_less_than_the_coefficients_it_drops(
        q, order, queries, rounds, size):
    # the prover's fold count and the verifier's both come from the query
    # count, so a proof made for it is accepted
    bound = order - 2
    domains = protocol._domains(q, order - 1)
    air, shape = protocol._fri_shape(FiatShamirTranscript(q), domains, queries)
    assert air is DEGREE_2_AIR and shape(0) == (bound, rounds)
    assert _cost_rule_folds(domains, queries) == rounds and (bound >> rounds) + 1 == size
    field, spec = PrimeField(q), _box_spec(order - 1)
    proof = prove(field, spec, simulate(spec), FiatShamirTranscript(q, salt=b"rule"),
                  num_queries=queries, salt=b"rule")
    assert len(proof.fri_layers.roots) == rounds - 1 and len(proof.fri_layers.remainder) == size
    assert all(len(query.fri) == rounds for query in proof.queries)
    assert verify(field, spec, proof, num_queries=queries).accepted


def test_the_long_horizon_shape_folds_three_times_to_512_coefficients():
    # q = 65537, N + 1 = 4096, 8 queries, from the domains alone: N - 1 =
    # 4094 folded once leaves 2048 coefficients, and each of the next two
    # folds drops more bytes than its layer's openings add
    domains = protocol._Domains(65537, 4095)
    assert protocol._fri_shape(FiatShamirTranscript(65537), domains, 8)[1](0) == (4094, 3)
    assert _cost_rule_folds(domains, 8) == 3 and (4094 >> 3) + 1 == 512


def test_a_proof_folded_for_another_query_count_is_malformed(tmp_path):
    # q = 769, N + 1 = 256: one query folds three times, to 32 coefficients,
    # and eight fold once, to 128. The verifier takes the fold count from the
    # queries a proof answers, so one whose layers carry another is malformed
    q, spec, salt = 769, _box_spec(255), b"count"
    field, trace = PrimeField(q), simulate(spec)
    one, eight = (prove(field, spec, trace, FiatShamirTranscript(q, salt=salt),
                        num_queries=queries, salt=salt) for queries in (1, 8))
    assert verify(field, spec, one).accepted and verify(field, spec, eight).accepted
    assert (len(one.fri_layers.roots), len(eight.fri_layers.roots)) == (2, 0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"q": str(q), "N": 255, "A_hat": [[1, 0], [-1, 1]],
                                  "z_upper": [100, 100], "z_lower": [0, 40], "z_init": [3, 100],
                                  "queries": 1}))
    for forged, size, sent in ((dataclasses.replace(one, queries=one.queries * 8), 128, 32),
                               (dataclasses.replace(eight, queries=eight.queries[:1]), 32, 128)):
        with pytest.raises(ProofFormatError,
                           match=f"^expected {size} remainder coefficients, got {sent}$"):
            verify(field, spec, forged)
        (tmp_path / "proof.json").write_text(dump_proof(forged))
        assert main(["verify", "--config", str(config),
                     "--proof", str(tmp_path / "proof.json")]) == EXIT_MALFORMED


def test_boundary_and_consistency_rejects_name_both_values(field, paper_spec, paper_trace):
    # a wrong start (row 0) and a broken step (row 9) both fail the
    # consistency stage, which checks F's boundary terms and its constraint
    # terms at once; the reject names the opened and the recomputed F(x)
    q = ref.MODULUS
    for row in (0, 9):
        forged = with_cell(paper_trace, "z", row, 1, 55)
        proof = forge_proof(field, paper_spec, forged, FiatShamirTranscript(q), 8)
        report = verify(field, paper_spec, proof)
        assert (report.verdict, report.stage) == ("reject", "consistency")
        k = int(report.detail.split(":")[0].removeprefix("query "))
        x = _drawn_points(field, paper_spec, proof)[k]
        opened = proof.queries[k].fri[0][0].value
        recomputed = int(report.detail.split()[-1])
        assert recomputed != opened
        assert f"at x={x}: opened F(x) = {opened}, recomputed" in report.detail


# --- caller-chosen challenges -----------------------------------------------

# A replay proof of a trace that breaks the transition at step 3 (alpha_up[3][0]
# set to 0), committed with prover-chosen gammas and sample points under which
# every spot check holds.
FORGED_GAMMAS = (199, 321, 199, 195, 302, 81, 237, 212)
FORGED_SAMPLE_POINTS = (184, 3)


def forged_transcript():
    return ReplayTranscript(
        ref.MODULUS, gammas=FORGED_GAMMAS, betas=ref.BETAS, sample_points=FORGED_SAMPLE_POINTS
    )


@pytest.fixture(scope="module")
def forged_proof(field, paper_spec, paper_trace):
    broken = with_cell(paper_trace, "alpha_up", 3, 0, 0)
    with pytest.raises(InvalidTraceError):
        prove(field, paper_spec, broken, forged_transcript(), num_queries=2)
    return forge_proof(field, paper_spec, broken, forged_transcript(), 2)


def test_forged_proof_passes_only_its_own_challenges(field, paper_spec, forged_proof):
    assert verify(field, paper_spec, forged_proof, forged_transcript()).accepted


def test_verifier_challenges_reject_forged_proof(field, paper_spec, forged_proof):
    # a Fiat-Shamir verifier expects the degree-2 AIR's N - 1 = 28 folded
    # once, to a remainder of 15 coefficients, not the replay proof's five
    # folds to a constant
    with pytest.raises(ProofFormatError, match="^expected 15 remainder coefficients, got 1$"):
        verify(field, paper_spec, forged_proof)
    report = verify(field, paper_spec, forged_proof, paper_transcript())
    assert (report.verdict, report.stage) == ("reject", "commitment")


def test_spec_hash_binds_inputs(field, paper_spec):
    other = paper_spec.__class__(
        a_hat=paper_spec.a_hat, z_upper=paper_spec.z_upper, z_lower=paper_spec.z_lower,
        z_init=(3, 99), num_steps=paper_spec.num_steps,
    )
    assert hash_spec(field, paper_spec) != hash_spec(field, other)
    assert hash_spec(field, paper_spec) == hash_spec(field, paper_spec)


# --- serialization ----------------------------------------------------------

PROOF_KEYS = {"version", "salt", "degree_bound", "commitments", "fri_layers", "queries"}


def test_proof_json_roundtrip(field, paper_spec, paper_proof):
    text = dump_proof(paper_proof)
    reloaded = load_proof(text)
    assert reloaded == paper_proof
    assert set(proof_to_json(reloaded)) == PROOF_KEYS
    assert verify(field, paper_spec, reloaded, paper_transcript()).accepted


def test_proof_json_roundtrip_fiat_shamir(field, paper_spec, paper_fs_proof):
    reloaded = load_proof(dump_proof(paper_fs_proof))
    assert reloaded == paper_fs_proof
    assert set(proof_to_json(reloaded)) == PROOF_KEYS
    assert verify(field, paper_spec, reloaded).accepted


def test_proof_json_integers_are_json_integers(paper_proof):
    doc = keyed(proof_to_json(paper_proof))
    assert type(doc["degree_bound"]) is int
    assert type(doc["queries"][0]["trace"][0]["values"][0]) is int
    assert all(type(c) is int for c in doc["fri_layers"]["remainder"])


def test_load_proof_rejects_garbage():
    with pytest.raises(ProofFormatError):
        load_proof("not json at all {")
    with pytest.raises(ProofFormatError):
        load_proof('{"version": 1' + "0" * 5000 + "}")
    with pytest.raises(ProofFormatError):
        load_proof("[" * 100_000)  # RecursionError in json.loads
    with pytest.raises(ProofFormatError):
        proof_from_json({"version": 1})


def test_load_proof_rejects_wrong_types(paper_proof):
    doc = proof_to_json(paper_proof)
    doc["degree_bound"] = str(doc["degree_bound"])  # must be a JSON integer
    with pytest.raises(ProofFormatError):
        proof_from_json(doc)


@pytest.mark.parametrize("where", [
    ("version",),
    ("commitments", "trace", "leaf_count"),
    ("fri_layers", "roots", 0, "leaf_count"),
    ("queries", 0, "fri", 0, 0, "index"),
    ("queries", 1, "fri", 0, 1),
])
@pytest.mark.parametrize("flag", [True, False])
def test_load_proof_rejects_booleans_for_integers(paper_proof, where, flag):
    # JSON true and false load as Python bools, which are ints
    doc = keyed(proof_to_json(paper_proof))
    *parents, key = where
    node = doc
    for k in parents:
        node = node[k]
    node[key] = flag
    with pytest.raises(ProofFormatError):
        proof_from_json(positional(doc))


def test_a_list_of_integers_is_refused_at_its_first_other_value(paper_proof):
    # a row's values and the remainder are read with one scan of their
    # types; a list that fails it is read value by value, so the error
    # names the first value that is no integer
    for bad, name in ((True, "bool"), ("7", "str"), (7.0, "float"), (None, "NoneType")):
        for edit in (lambda d: d["queries"][1]["trace"][0]["values"],
                     lambda d: d["fri_layers"]["remainder"]):
            doc = keyed(proof_to_json(paper_proof))
            values = edit(doc)
            values[-1:] = [bad, {}]
            with pytest.raises(ProofFormatError, match=f"^expected an integer, got {name}$"):
                proof_from_json(positional(doc))


@pytest.mark.parametrize("value", [-1, ref.MODULUS])
def test_every_opened_value_is_range_checked(field, paper_spec, paper_proof, value):
    # the values of every trace row, and each FRI opening's value and f(-y),
    # are checked once per proof, before any is used
    base = keyed(proof_to_json(paper_proof))
    places = [(k, "trace", r, i) for k, qd in enumerate(base["queries"])
              for r, row in enumerate(qd["trace"]) for i in range(len(row["values"]))]
    places += [(k, "fri", j, side) for k, qd in enumerate(base["queries"])
               for j in range(len(qd["fri"])) for side in (0, 1)]
    assert len(places) == 2 * (2 * 4 * paper_spec.n + 2 * 5)
    for k, section, j, i in places:
        doc = json.loads(json.dumps(base))
        node = doc["queries"][k][section][j]
        if section == "trace":
            node["values"][i] = value
        elif i == 0:
            node[0]["value"] = value
        else:
            node[1] = value
        with pytest.raises(ProofFormatError, match="^opened value out of range$"):
            verify(field, paper_spec, proof_from_json(positional(doc)), paper_transcript())


def _nodes(doc, where=()):
    """The path to every node of a JSON document, the root first."""
    yield where
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _nodes(value, where + (key,))


def _at(doc, where):
    for key in where:
        doc = doc[key]
    return doc


def _places(tp, value, where=(), field=None):
    """(where, tp, field) for every value in the document of `value`, a value
    of type `tp` in the proof dataclasses, the root first: its path in the
    document, its declared type, and the (dataclass, field name) it is, None
    for the root and a list's items. Found by walking the declaration, not
    the document: a field of a POSITIONAL record is at its position in the
    record's list, any other at its name."""
    yield where, tp, field
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for i, f in enumerate(dataclasses.fields(tp)):
            key = i if tp in protocol.POSITIONAL else f.name
            yield from _places(hints[f.name], getattr(value, f.name), where + (key,),
                               (tp, f.name))
    elif typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        for i, item in enumerate(value):
            yield from _places(args[0] if args[-1] is Ellipsis else args[i], item,
                               where + (i,))


def _declared_fields(tp):
    """(dataclass, field name) of every field of every dataclass reachable from tp."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            yield tp, f.name
            yield from _declared_fields(hints[f.name])
    for arg in typing.get_args(tp):
        if arg is not Ellipsis:
            yield from _declared_fields(arg)


def _json_type(tp) -> type:
    if dataclasses.is_dataclass(tp):
        return list if tp in protocol.POSITIONAL else dict
    return list if typing.get_origin(tp) is tuple else {int: int, bytes: str}[tp]


JSON_VALUES = (None, True, 0, 1.5, "x", [], {})
DELETE = object()


def test_load_proof_refuses_every_wrong_type(paper_proof):
    # every value of a 2-query proof document, found from the proof
    # dataclasses: replaced by a JSON value of each other type (an object
    # where a POSITIONAL record's list belongs among them), deleted where it
    # is an object's field, and one value short or long where it is a
    # fixed-length list or a record's list
    base = proof_to_json(paper_proof)
    places = list(_places(Proof, paper_proof))
    assert len(places) == len(list(_nodes(base)))  # the walk meets every node
    fields = set()
    for where, tp, field in places:
        value = _at(base, where)
        assert type(value) is _json_type(tp), where
        edits = [v for v in JSON_VALUES if type(v) is not type(value)]
        if field is not None:
            fields.add(field)
            if type(where[-1]) is str:
                edits.append(DELETE)
        if (typing.get_origin(tp) is tuple and Ellipsis not in typing.get_args(tp)
                or tp in protocol.POSITIONAL):
            edits += [value[:-1], value + value[-1:]]
        for edit in edits:
            doc = json.loads(json.dumps(base))
            if not where:
                doc = edit
            elif edit is DELETE:
                del _at(doc, where[:-1])[where[-1]]
            else:
                _at(doc, where[:-1])[where[-1]] = edit
            with pytest.raises(ProofFormatError):
                proof_from_json(doc)
    assert fields == set(_declared_fields(Proof))  # a later field is covered too
    assert {tp for tp, _ in fields} >= protocol.POSITIONAL


def test_verify_flags_structural_damage(field, paper_spec, paper_proof):
    doc = json.loads(dump_proof(paper_proof))
    doc["queries"][0]["fri"] = doc["queries"][0]["fri"][:-1]
    damaged = proof_from_json(doc)
    with pytest.raises(ProofFormatError):
        verify(field, paper_spec, damaged, paper_transcript())


def test_verify_rejects_tampered_opening(field, paper_spec, paper_proof):
    doc = keyed(json.loads(dump_proof(paper_proof)))
    values = doc["queries"][0]["trace"][0]["values"]
    values[7] = (values[7] + 1) % 331  # f_delta[1]
    report = verify(field, paper_spec, proof_from_json(positional(doc)), paper_transcript())
    assert not report.accepted
    assert report.stage == "commitment"


def test_verify_rejects_tampered_row_at_gx(field, paper_spec, paper_proof):
    doc = keyed(json.loads(dump_proof(paper_proof)))
    values = doc["queries"][1]["trace"][1]["values"]
    values[1] = (values[1] + 1) % 331  # f_z[1](g*x), the next state
    report = verify(field, paper_spec, proof_from_json(positional(doc)), paper_transcript())
    assert not report.accepted
    assert report.stage == "commitment"


@settings(max_examples=100, deadline=None)
@given(data=st.data(), replay=st.booleans(), side=st.sampled_from([0, 1]),  # at x, at g·x
       shift=st.integers(1, ref.MODULUS - 1))
def test_verify_rejects_any_tampered_trace_row_value(
    field, paper_spec, paper_proof, paper_fs_proof, data, replay, side, shift
):
    doc = keyed(json.loads(dump_proof(paper_proof if replay else paper_fs_proof)))
    query = data.draw(st.sampled_from(doc["queries"]), label="query")
    values = query["trace"][side]["values"]
    assert len(values) == 4 * paper_spec.n
    i = data.draw(st.integers(0, len(values) - 1), label="position")
    values[i] = (values[i] + shift) % ref.MODULUS
    report = verify(field, paper_spec, proof_from_json(positional(doc)),
                    paper_transcript() if replay else None)
    assert not report.accepted
    assert report.stage == "commitment"


def _openings(query: dict) -> list:
    """Every opening of one query in a keyed proof document: both trace rows,
    then the one opening of every FRI layer's pair, at y."""
    return query["trace"] + [opening for opening, _ in query["fri"]]


def _all_openings(doc: dict) -> list:
    return [o for query in doc["queries"] for o in _openings(query)]


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode()


def _where(doc: dict, k: int) -> typing.Tuple[str, str]:
    """The tree of opening k of _all_openings(doc), and the query and point
    a commitment reject names it by."""
    per_query = len(doc["queries"][0]["trace"]) + len(doc["queries"][0]["fri"])
    query, at = divmod(k, per_query)
    if at < 2:
        return "trace", f"query {query} at {('x', 'g*x')[at]}"
    return f"layer {at - 2}", f"query {query}"


def _committed_root(doc: dict, tree: str) -> str:
    if tree == "trace":
        return doc["commitments"]["trace"]["root"]
    j = int(tree.split()[1])
    layers = [doc["commitments"]["composition"], *doc["fri_layers"]["roots"]]
    return layers[j]["root"]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), replay=st.booleans(), mask=st.integers(1, 255))
def test_verify_rejects_any_flipped_path_byte(
    field, paper_spec, paper_proof, paper_fs_proof, data, replay, mask
):
    # a tree's paths send only the digests its opened rows do not give, so
    # only openings with a non-empty path have a byte to flip; the reject
    # names the tree and both roots, computed and committed
    doc = keyed(json.loads(dump_proof(paper_proof if replay else paper_fs_proof)))
    with_path = [k for k, o in enumerate(_all_openings(doc)) if o["path"]]
    k = data.draw(st.sampled_from(with_path), label="opening")
    opening = _all_openings(doc)[k]
    path = bytearray(base64.b64decode(opening["path"]))
    level = data.draw(st.integers(0, len(path) // 32 - 1), label="level")
    path[32 * level + data.draw(st.integers(0, 31), label="byte")] ^= mask
    opening["path"] = _b64(path)
    report = verify(field, paper_spec, proof_from_json(positional(doc)),
                    paper_transcript() if replay else None)
    assert (report.verdict, report.stage) == ("reject", "commitment")
    tree, _ = _where(doc, k)
    computed, committed = re.fullmatch(rf"{tree} tree: computed root (\S+), committed (\S+)",
                                       report.detail).groups()
    assert committed == _committed_root(doc, tree) != computed


@pytest.mark.parametrize("replay", [True, False])
@pytest.mark.parametrize("edit", ["drop-last", "append"])
def test_verify_rejects_a_path_one_digest_short_or_long(field, paper_spec, paper_trace,
                                                        paper_proof, replay, edit):
    # each path must hold exactly the digests its tree's batch assigns it:
    # one digest short or one too many is refused, on every opening, and the
    # reject names its tree and query. Salted so that a Fiat-Shamir query
    # reopens a leaf
    salt = b"reopen13"
    fs_proof = prove(field, paper_spec, paper_trace, FiatShamirTranscript(ref.MODULUS, salt=salt),
                     num_queries=8, salt=salt)
    base = keyed(proof_to_json(paper_proof if replay else fs_proof))
    openings = _all_openings(base)
    assert any(o["path"] for o in openings)
    assert replay or not all(o["path"] for o in openings)  # 8 queries reopen some leaves
    edited = 0
    for k, opening in enumerate(openings):
        if edit == "drop-last" and not opening["path"]:
            continue
        doc = json.loads(json.dumps(base))
        path = base64.b64decode(opening["path"])
        if edit == "drop-last":
            path = path[:-32]
        else:
            path += (path or base64.b64decode(base["commitments"]["trace"]["root"]))[-32:]
        _all_openings(doc)[k]["path"] = _b64(path)
        report = verify(field, paper_spec, proof_from_json(positional(doc)),
                        paper_transcript() if replay else None)
        assert (report.verdict, report.stage) == ("reject", "commitment"), (k, edit)
        tree, query = _where(base, k)
        assert report.detail.startswith(f"{tree} tree, {query}: a path of {len(path)} bytes, "
                                        "where its leaf needs ")
        edited += 1
    # 2 queries of 7 openings, each with a path but the 2 rows at g·x, whose
    # leaves are the ones after x's, both even; 8 queries of 3 openings (one
    # FRI layer), of which 3 rows at g·x so placed and 1 FRI opening of a leaf
    # an earlier query opened have an empty path. Every path can grow
    openings, empty = (14, 2) if replay else (24, 4)
    assert edited == openings - empty * (edit == "drop-last")


@pytest.mark.parametrize("replay", [True, False])
def test_each_fri_pair_is_one_leaf(field, paper_spec, paper_proof, paper_fs_proof, replay):
    # the composition and FRI trees hold one leaf per pair {y, -y}: in D_j's
    # layout y and -y are |G_j|/2 apart in one coset, and the pairs are
    # numbered in the layout order of their first points; a pair is opened
    # once, at y, and f(-y), its other value, is sent as a plain integer.
    # The trace tree keeps one leaf per point
    proof = paper_proof if replay else paper_fs_proof
    q, domains = ref.MODULUS, protocol._domains(ref.MODULUS, paper_spec.num_steps)
    assert proof.commitments.trace.leaf_count == domains.size(0)
    for j, cm in enumerate((proof.commitments.composition, *proof.fri_layers.roots)):
        assert cm.leaf_count == domains.size(j) // 2
    xs = _drawn_points(field, paper_spec, proof, paper_transcript() if replay else None)
    for query, x in zip(proof.queries, xs):
        for j, ((pos, neg), y) in enumerate(zip(query.fri, domains.chain(x, len(query.fri)))):
            assert type(pos) is protocol.Opening and type(neg) is int
            half = domains.layers[j][1] // 2
            at_y, at_minus_y = domains.leaf(y, j), domains.leaf(q - y, j)
            first = min(at_y, at_minus_y)
            assert max(at_y, at_minus_y) - first == half and first % (2 * half) < half
            assert pos.index == first - first // (2 * half) * half
    for qd in proof_to_json(proof)["queries"]:
        assert all(type(neg) is int for _, neg in qd["fri"])


def _verify_each_fri_pair(field, spec, proof, replay, edit):
    """Verify the proof once per FRI opening pair, with edit(pair) applied to
    that pair only, where edit returns False to skip it; the reports, in order."""
    base = keyed(proof_to_json(proof))
    reports = []
    for k, qd in enumerate(base["queries"]):
        for j in range(len(qd["fri"])):
            doc = json.loads(json.dumps(base))
            if edit(doc["queries"][k]["fri"][j]) is not False:
                reports.append(verify(field, spec, proof_from_json(positional(doc)),
                                      paper_transcript() if replay else None))
    return reports


@pytest.mark.parametrize("replay", [True, False])
def test_verify_rejects_a_pair_with_its_values_swapped(field, paper_spec, paper_proof,
                                                       paper_fs_proof, replay):
    # a leaf holds f at the smaller point of its pair first, so the same two
    # values in the other order are another row
    def edit(pair):
        opening, neg = pair
        if opening["value"] == neg:
            return False
        opening["value"], pair[1] = neg, opening["value"]

    proof = paper_proof if replay else paper_fs_proof
    reports = _verify_each_fri_pair(field, paper_spec, proof, replay, edit)
    # 2 queries of 5 FRI pairs for replay, 8 of 1 under Fiat-Shamir
    assert len(reports) >= (10 if replay else 8)
    assert all((r.verdict, r.stage) == ("reject", "commitment") for r in reports)


@pytest.mark.parametrize("replay", [True, False])
def test_verify_rejects_an_edited_value_at_minus_y(field, paper_spec, paper_proof,
                                                   paper_fs_proof, replay):
    # f(-y) is authenticated by the path of y's opening, as the other value of
    # its leaf: changing it alone changes the leaf, in every layer
    def edit(pair):
        pair[1] = (pair[1] + 1) % ref.MODULUS

    proof = paper_proof if replay else paper_fs_proof
    reports = _verify_each_fri_pair(field, paper_spec, proof, replay, edit)
    assert len(reports) == len(proof.queries) * (len(proof.fri_layers.roots) + 1)
    assert all((r.verdict, r.stage) == ("reject", "commitment") for r in reports)


def test_load_proof_refuses_an_opening_at_minus_y(paper_proof):
    # version 7 sent f(-y) as a second opening of y's leaf, with an empty path;
    # versions 8 to 10 have no such object
    doc = keyed(proof_to_json(paper_proof))
    for k, qd in enumerate(doc["queries"]):
        for j, (opening, neg) in enumerate(qd["fri"]):
            assert type(neg) is int
            edited = json.loads(json.dumps(doc))
            edited["queries"][k]["fri"][j][1] = {
                "index": opening["index"], "value": neg, "path": ""}
            with pytest.raises(ProofFormatError):
                proof_from_json(positional(edited))


@pytest.mark.parametrize("replay", [True, False])
def test_each_fri_pair_is_opened_and_checked_once(field, paper_spec, paper_trace,
                                                  monkeypatch, replay):
    # one batch per tree, opened and checked once: the two trace rows of
    # each query, then each FRI layer's one opening per query
    calls = {"open": [], "check": []}

    def counted(name, fn):
        def wrapper(tree, batch):
            calls[name].append(len(batch))
            return fn(tree, batch)
        return wrapper

    monkeypatch.setattr(protocol.MerkleTree, "open", counted("open", protocol.MerkleTree.open))
    monkeypatch.setattr(protocol, "verify_opening", counted("check", protocol.verify_opening))

    def transcript():
        return paper_transcript() if replay else FiatShamirTranscript(ref.MODULUS, salt=b"once")

    proof = prove(field, paper_spec, paper_trace, transcript(), num_queries=2)
    rounds = len(proof.fri_layers.roots) + 1
    assert calls == {"open": [2 * 2] + [2] * rounds, "check": []}
    assert verify(field, paper_spec, proof, transcript()).accepted
    assert calls["check"] == [2 * 2] + [2] * rounds


BASE64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _base64_texts(b: str) -> list:
    """JSON texts other than the byte string b's own that a2b_base64 reads as
    the same bytes, or refuses only for a missing "=": the padding dropped or
    one "=" more, a URL-safe "_" or a "." inserted, which it skips, and a
    spare bit set in the last character of a padded string."""
    body = b.rstrip("=")
    texts = [body, b + "=", b[:4] + "_" + b[4:], b[:4] + "." + b[4:]]
    if body != b:  # a padded last group has spare low bits in its last character
        last = BASE64_ALPHABET.index(body[-1])
        texts.append(body[:-1] + BASE64_ALPHABET[last + 1] + b[len(body):])
    for t in texts:
        if t != body:  # which may be b itself, or refused for a missing "="
            assert binascii.a2b_base64(t) == binascii.a2b_base64(b), t
    return [json.dumps(t) for t in texts if t != b]


def test_load_proof_reads_each_number_and_digest_in_one_spelling(paper_fs_proof):
    # a proof has one text: every number and byte string of an 8-query proof,
    # found from the proof dataclasses, is refused in each other spelling
    # json.loads reads, and each byte string in each other spelling
    # a2b_base64 reads. A "-" makes 0 into -0, which json.loads reads as 0,
    # and any other number into a negative one; a ".0" or "e0" makes a float
    base = proof_to_json(paper_fs_proof)
    tried = {int: 0, bytes: 0}
    for where, tp, _ in _places(Proof, paper_fs_proof):
        value = _at(base, where)
        if tp not in tried:
            continue
        tried[tp] += 1
        doc = json.loads(json.dumps(base))
        _at(doc, where[:-1])[where[-1]] = "@"
        marked = json.dumps(doc, separators=(",", ":"))
        assert marked.count('"@"') == 1
        assert load_proof(marked.replace('"@"', json.dumps(value))) == paper_fs_proof
        texts = [f"-{value}", f"{value}.0", f"{value}e0"] if tp is int else _base64_texts(value)
        for text in texts:
            with pytest.raises(ProofFormatError):
                load_proof(marked.replace('"@"', text))
    # every number and every string of the document was tried
    leaves = [type(_at(base, where)) for where in _nodes(base)]
    assert tried == {int: leaves.count(int), bytes: leaves.count(str)}


def test_load_proof_refuses_a_root_of_other_than_32_bytes(paper_proof):
    # every commitment root of the document, one byte short or long
    base = proof_to_json(paper_proof)
    roots = [where for where, _, field in _places(Proof, paper_proof)
             if field == (MerkleCommitment, "root")]
    assert len(roots) == 2 + len(paper_proof.fri_layers.roots)
    for where in roots:
        root = base64.b64decode(_at(base, where))
        for digest in (root[:-1], root + b"\0"):
            doc = json.loads(json.dumps(base))
            _at(doc, where[:-1])[where[-1]] = _b64(digest)
            with pytest.raises(ProofFormatError, match="32 bytes"):
                proof_from_json(doc)


def test_load_proof_refuses_negative_zero(field, paper_spec, paper_trace):
    # json.loads reads -0 as the integer 0: the 64-query proof with its first
    # FRI opening at index 0, "fri":[[[0,, written "fri":[[[-0, would be a
    # second text of the same proof (salted so that one query's leaf is 0)
    salt = b"1"
    proof = prove(field, paper_spec, paper_trace, FiatShamirTranscript(ref.MODULUS, salt=salt),
                  num_queries=64, salt=salt)
    text = dump_proof(proof)
    assert '"fri":[[[0,' in text and "-" not in text
    with pytest.raises(ProofFormatError):
        load_proof(text.replace('"fri":[[[0,', '"fri":[[[-0,', 1))


def test_load_proof_refuses_whitespace(paper_fs_proof):
    # dump_proof writes none, so a space, tab or line break anywhere is a
    # second text of the proof: between tokens, and json.dumps' default and
    # indented layouts
    text = dump_proof(paper_fs_proof)
    assert load_proof(text) == paper_fs_proof
    doc = proof_to_json(paper_fs_proof)
    texts = [json.dumps(doc), json.dumps(doc, indent=2), text + "\n", " " + text]
    texts += [text.replace(",", sep + ",", 1) for sep in (" ", "\t", "\n", "\r")]
    texts += [text.replace(":", ":" + sep, 1) for sep in (" ", "\t", "\n", "\r")]
    for spaced in texts:
        assert json.loads(spaced) == doc
        with pytest.raises(ProofFormatError, match="no whitespace"):
            load_proof(spaced)


def test_load_proof_refuses_a_key_no_field_declares(paper_proof):
    # every object of a 2-query proof document, found from the proof
    # dataclasses, with one key added; a POSITIONAL record is a list, and
    # one value too many is refused by the wrong-type test above
    base = proof_to_json(paper_proof)
    objects = [where for where, tp, _ in _places(Proof, paper_proof)
               if dataclasses.is_dataclass(tp) and tp not in protocol.POSITIONAL]
    assert len(objects) > 2 * len(paper_proof.queries)
    for where in objects:
        doc = json.loads(json.dumps(base))
        _at(doc, where)["x"] = 0
        with pytest.raises(ProofFormatError, match="unknown key 'x'"):
            proof_from_json(doc)


def test_load_proof_reads_the_version_first(paper_proof):
    # a document of another version is refused by its version, whatever
    # else it holds or lacks
    doc = proof_to_json(paper_proof)
    v14 = _as_version_14(doc)
    for version in (PROOF_VERSION - 1, PROOF_VERSION + 1):
        for edited in ({**doc, "version": version}, {"version": version},
                       {"version": version, "x": 0}, v14, _as_version_12(v14),
                       _as_version_11(v14), _as_version_10(v14),
                       _as_version_9(_as_version_10(v14)), _as_version_8(_as_version_10(v14))):
            edited["version"] = version
            with pytest.raises(ProofFormatError, match=f"unsupported proof version {version}"):
                proof_from_json(edited)
    text = json.dumps(_as_version_8(_as_version_10(v14)), separators=(",", ":"))
    with pytest.raises(ProofFormatError, match="unsupported proof version 8"):
        load_proof(text)


def test_load_proof_rejects_bad_path_digests(paper_proof):
    # a path is one base64 string of whole 32-byte digests: not a number,
    # null, a list of digests (version 9's form) or other than base64, and
    # not one byte short or long
    base = keyed(proof_to_json(paper_proof))
    for where in (("queries", 1, "fri", 0, 0, "path"), ("queries", 0, "trace", 0, "path")):
        path = base64.b64decode(_at(base, where))
        assert len(path) >= 3 * 32
        hex_list = [path[i:i + 32].hex() for i in range(0, len(path), 32)]
        for bad in (5, None, hex_list, "zz", "0", _b64(path[:-1]), _b64(path + b"\0")):
            doc = json.loads(json.dumps(base))
            _at(doc, where[:-1])[where[-1]] = bad
            with pytest.raises(ProofFormatError):
                proof_from_json(positional(doc))
    base["queries"][0]["trace"][1]["path"] = _b64(bytes(33))
    with pytest.raises(ProofFormatError, match="whole 32-byte digests, got 33 bytes"):
        proof_from_json(positional(base))


def test_proof_commits_the_trace_once(paper_spec, paper_proof):
    doc = keyed(proof_to_json(paper_proof))
    assert set(doc["commitments"]) == {"trace", "composition"}
    # one leaf per point, where the composition polynomial has one per pair {y, -y}
    comms = doc["commitments"]
    assert comms["trace"]["leaf_count"] == 2 * comms["composition"]["leaf_count"]
    for qd in doc["queries"]:
        assert set(qd) == {"trace", "fri"}  # no sample point: the verifier draws it
        assert len(qd["trace"]) == 2  # the rows at x and at g·x
        assert all(len(row["values"]) == 4 * paper_spec.n for row in qd["trace"])


def test_verify_rejects_wrong_row_width(field, paper_spec, paper_proof):
    # a row is 4n values; version 18's, with the n boundary quotients, 5n
    n = paper_spec.n
    for width in (4 * n - 1, 4 * n + 1, 5 * n):
        doc = keyed(json.loads(dump_proof(paper_proof)))
        row = doc["queries"][0]["trace"][1]
        row["values"] = (row["values"] + [0] * n)[:width]
        with pytest.raises(ProofFormatError):
            verify(field, paper_spec, proof_from_json(positional(doc)), paper_transcript())


def test_verify_rejects_version_1_proof(field, paper_spec, paper_proof):
    for version in (1, 2):  # 2 committed all of F_q* minus H
        doc = proof_to_json(paper_proof)
        doc["version"] = version
        with pytest.raises(ProofFormatError):
            verify(field, paper_spec, proof_from_json(doc), paper_transcript())


def test_verify_and_the_cli_refuse_a_version_4_proof(field, paper_spec, paper_trace,
                                                      tmp_path, monkeypatch):
    # version 4 sent the full path with every opening, and versions 4 and 5
    # the sample point x of every query; made either way, a proof is malformed
    # under its own version, and one with full paths is rejected under version 6
    def prove_v6():
        salt = b"v4"
        return prove(field, paper_spec, paper_trace, FiatShamirTranscript(ref.MODULUS, salt=salt),
                     num_queries=8, salt=salt)

    batch_open = protocol.MerkleTree.open
    monkeypatch.setattr(protocol.MerkleTree, "open",
                        lambda tree, indices: [batch_open(tree, [i])[0] for i in indices])
    proof = prove_v6()
    monkeypatch.undo()
    report = verify(field, paper_spec, proof)
    assert (report.verdict, report.stage) == ("reject", "commitment")
    config = replay_config()
    del config["challenges"]
    (tmp_path / "config.json").write_text(json.dumps(config))
    for version, made in ((4, proof), (5, prove_v6())):
        doc = proof_to_json(made)
        doc["version"] = version
        doc["queries"] = [{"x": str(x), **qd}
                          for qd, x in zip(doc["queries"], _drawn_points(field, paper_spec, made))]
        with pytest.raises(ProofFormatError, match=f"unsupported proof version {version}"):
            verify(field, paper_spec, proof_from_json(doc))
        (tmp_path / "proof.json").write_text(json.dumps(doc, indent=2))
        assert main(["verify", "--config", str(tmp_path / "config.json"),
                     "--proof", str(tmp_path / "proof.json")]) == EXIT_MALFORMED


def _version_13_open(tree, indices):
    """Version 13's paths for the openings of one tree, made one at a time:
    each the siblings from its leaf up to the first node an earlier opening
    sent or let the verifier compute."""
    base = 1 << (tree.leaf_count - 1).bit_length()
    known, paths = {1}, []
    for index in indices:
        node, siblings = base + index, []
        while node not in known:
            known |= {node, node ^ 1}
            siblings.append(tree._nodes[node ^ 1])
            node >>= 1
        paths.append(b"".join(siblings))
    return paths


def _as_made_by_version_13(make) -> dict:
    """The document of the proof make() returns as version 13 wrote it: its
    paths cut by version 13's rule, each opening keyed and its version 13,
    all else as made."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(protocol.MerkleTree, "open", _version_13_open)
        return {**_as_version_14(_as_made_by_version_15(make)), "version": 13}


@pytest.fixture(scope="module")
def paper_v13_doc():
    return _as_made_by_version_13(lambda: _pinned_proof("paper-replay"))


def _as_version_11(doc: dict) -> dict:
    """The version-11 document of a replay proof document: its one-coefficient
    remainder [v] as the final FRI value v. A new document: `doc` is left as it is."""
    doc = json.loads(json.dumps(doc))
    [final] = doc["fri_layers"]["remainder"]
    return {**doc, "version": 11, "fri_layers": {"roots": doc["fri_layers"]["roots"],
                                                 "final": final}}


def _as_version_10(doc: dict) -> dict:
    """The version-10 document of the paper replay proof's document: version
    11's, with each trace row's index, the leaf verify computes for x or g·x,
    put back as its first key."""
    q = ref.MODULUS
    domains = protocol._domains(q, ref.SYSTEM.num_steps)
    ascending = _ascending_layer(domains, 0)  # version 10's trace leaf order
    doc = _as_version_11(doc)
    for qd, x in zip(doc["queries"], ref.SAMPLE_POINTS):
        points = x, x * domains.g % q
        qd["trace"] = [{"index": ascending.index(p), **row} for row, p in zip(qd["trace"], points)]
    return {**doc, "version": 10}


def _as_version_9(doc: dict) -> dict:
    """The version-9 document of a version-10 proof document: every byte
    string in lower-case hex, and each path a list of its 32-byte digests."""
    def hexed(node, key=None):
        if isinstance(node, dict):
            return {k: hexed(v, k) for k, v in node.items()}
        if isinstance(node, list):
            return [hexed(v) for v in node]
        if key in ("root", "salt"):
            return base64.b64decode(node).hex()
        if key == "path":
            path = base64.b64decode(node)
            return [path[i:i + 32].hex() for i in range(0, len(path), 32)]
        return node

    return {**hexed(doc), "version": 9}


def _as_version_8(doc: dict) -> dict:
    """The version-8 document of a version-10 proof document: version 9's, with its fields grouped
    under "publics", "at_x" and "at_gx", "pos" and "neg", leaf counts as
    "leaves", and every number but an index or a leaf count as a base-10
    string."""
    doc = _as_version_9(doc)

    def comm(c):
        return {"root": c["root"], "leaves": c["leaf_count"]}

    def row(r):
        return {"index": r["index"], "values": [str(v) for v in r["values"]], "path": r["path"]}

    def pair(opening, neg):
        return {"pos": {**opening, "value": str(opening["value"])}, "neg": str(neg)}

    return {
        "version": 8,
        "publics": {"salt": doc["salt"], "degree_bound": str(doc["degree_bound"])},
        "commitments": {name: comm(c) for name, c in doc["commitments"].items()},
        "fri_layers": {"roots": [comm(c) for c in doc["fri_layers"]["roots"]],
                       "final": str(doc["fri_layers"]["final"])},
        "queries": [{"trace": {"at_x": row(qd["trace"][0]), "at_gx": row(qd["trace"][1])},
                     "fri": [pair(*p) for p in qd["fri"]]} for qd in doc["queries"]],
    }


def _assert_earlier_version_refused(doc: dict, pinned: str, tmp_path) -> None:
    """The document, written compactly, has the digest its version pinned for
    the paper replay proof, and load_proof and the CLI refuse it by version."""
    text = json.dumps(doc, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == pinned
    with pytest.raises(ProofFormatError, match=f"unsupported proof version {doc['version']}"):
        load_proof(text)
    (tmp_path / "config.json").write_text(json.dumps(replay_config()))
    (tmp_path / "proof.json").write_text(text)
    assert main(["verify", "--config", str(tmp_path / "config.json"),
                 "--proof", str(tmp_path / "proof.json")]) == EXIT_MALFORMED


def test_load_proof_and_the_cli_refuse_a_version_8_proof(paper_v13_doc, tmp_path):
    # the paper replay proof written as version 8 wrote it: its digest is the
    # one version 8 pinned
    pinned = "f9dd3411d0c502bb79f874bec84a5a021006e71964118800394108858b41d19e"
    _assert_earlier_version_refused(_as_version_8(_as_version_10(paper_v13_doc)),
                                    pinned, tmp_path)


def test_load_proof_and_the_cli_refuse_a_version_9_proof(paper_v13_doc, tmp_path):
    # the paper replay proof written as version 9 wrote it, in hex with each
    # path a list of digests: its digest is the one version 9 pinned, so
    # version 10 changed how byte strings are spelled, not a value
    pinned = "a5d6f207656dba543edd15653d94d72649c85d1a7dc384b7117c47b631f7783e"
    _assert_earlier_version_refused(_as_version_9(_as_version_10(paper_v13_doc)),
                                    pinned, tmp_path)


def test_verify_caps_replay_degree_bound(field, paper_spec, paper_proof):
    # a replay proof declaring a bound above 2N-2, with the FRI roots, opening
    # pairs and betas that bound calls for, so only the bound itself is wrong
    doc = proof_to_json(paper_proof)
    bound = 2 * paper_spec.num_steps - 1
    extra = num_rounds(bound) - num_rounds(paper_proof.degree_bound)
    assert extra >= 1
    doc["degree_bound"] = bound
    doc["fri_layers"]["roots"] += doc["fri_layers"]["roots"][-1:] * extra
    for qd in doc["queries"]:
        qd["fri"] += qd["fri"][-1:] * extra
    transcript = ReplayTranscript(ref.MODULUS, gammas=ref.GAMMAS,
                                  betas=ref.BETAS + ref.BETAS[-1:] * extra,
                                  sample_points=ref.SAMPLE_POINTS)
    report = verify(field, paper_spec, proof_from_json(doc), transcript)
    assert not report.accepted
    assert report.stage == "fri_commit"


def test_verify_rejects_negative_degree_bound(field, paper_spec, paper_proof):
    doc = json.loads(dump_proof(paper_proof))
    doc["degree_bound"] = -1
    with pytest.raises(ProofFormatError):
        verify(field, paper_spec, proof_from_json(doc), paper_transcript())


def _integer_fields(doc, where=()):
    """Paths to every integer of a dumped proof."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if key in ("root", "salt", "path"):  # base64 strings
            continue
        if isinstance(value, int):
            yield where + (key,)
        else:
            yield from _integer_fields(value, where + (key,))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    replay=st.booleans(),
    value=st.one_of(
        st.integers(max_value=-1), st.just(0), st.just(ref.MODULUS),
        st.integers(min_value=2 ** 64), st.integers(),
    ),
)
def test_mutated_integer_field_is_rejected_or_malformed(
    field, paper_spec, paper_proof, paper_fs_proof, data, replay, value
):
    doc = keyed(proof_to_json(paper_proof if replay else paper_fs_proof))
    # draw the kind of field first (list positions ignored), so rare fields
    # such as the final FRI value are drawn as often as opened values
    kinds = {}
    for where in _integer_fields(doc):
        kinds.setdefault(tuple(k for k in where if isinstance(k, str)), []).append(where)
    kind = data.draw(st.sampled_from(sorted(kinds)))
    *parents, key = data.draw(st.sampled_from(kinds[kind]))
    node = doc
    for k in parents:
        node = node[k]
    old = node[key]
    node[key] = value
    try:
        report = verify(field, paper_spec, proof_from_json(positional(doc)),
                        paper_transcript() if replay else None)
    except ProofFormatError:
        return
    # every integer is bound: hashed into a leaf or the transcript, or equal to
    # a value the verifier derives itself. A replay transcript absorbs nothing,
    # so a declared bound with the same round count is not (ROADMAP item 15)
    unbound = replay and key == "degree_bound" and num_rounds(value) == num_rounds(old)
    assert report.verdict == "reject" or node[key] == old or unbound, (parents, key, node[key])


@settings(max_examples=50, deadline=None)
@given(replay=st.booleans(), salt=st.binary(max_size=40))
def test_mutated_salt_is_rejected(field, paper_spec, paper_proof, paper_fs_proof, replay, salt):
    # the verifier holds its own transcript, so its own salt: b"" for replay
    proof = paper_proof if replay else paper_fs_proof
    transcript = paper_transcript() if replay else FiatShamirTranscript(ref.MODULUS, salt=b"suite")
    report = verify(field, paper_spec, dataclasses.replace(proof, salt=salt), transcript)
    assert report.accepted if salt == proof.salt else report.stage == "salt"


# --- byte identity ------------------------------------------------------------

# SHA-256 of dump_proof (compact JSON with no whitespace, laid out by the
# proof dataclasses, every number a JSON integer and every byte string
# padded standard base64, a path its digests joined, each opening the list
# of its fields' values; proof version 19:
# Fiat-Shamir proofs of the degree-2 AIR, whose F adds to Q the n boundary
# quotients weighted by n draws after the 4n gammas, and replay proofs of
# the paper's, whose F is Q, every tree laid out coset by coset, each coset
# in power order: one row-leaf trace tree of the 4n columns, so the row at
# g·x is the leaf after x's, and one
# leaf per pair {y, -y} in the composition and FRI trees, y and -y |G_j|/2
# apart in one coset, opened once at y with f(-y) sent as a plain value,
# FRI folded under Fiat-Shamir while a layer costs less than the
# coefficients it drops from the remainder, and to a constant for replay,
# at most BLOWUP cosets of H committed, sample points drawn as indices
# into D0 in leaf order, no q, N or g, no sample point and no trace row index,
# which the verifier holds or derives, and each tree's openings one batch
# whose paths send the minimal multiproof, each digest in the path of the
# first opening under its parent) for fixed inputs; any change to
# the committed values, their order, the tree hashing, the paths sent or
# the transcript changes a digest.
PINNED_PROOF_DIGESTS = {
    "paper-replay": "b6002949891a76591e5b8df8fd498d4d8994217f9370cbb11dfae6d67293c37f",
    "paper-fiat-shamir": "1dc0e1d21184d253201a7de66e52d6299eb66250b5c99263f3b2848cbbf11dbb",
    # q=3001, N+1=40=2^3*5: mixed-radix trace subgroup; 16 of its 74 cosets
    # are committed, and 38 folded once leaves a remainder of 20 coefficients
    "q3001-fiat-shamir": "f8939632ce64e23749388a5698b00a99f0ccae2aaed03fe3b1e89c382a47901a",
    # q=12289, N+1=128, one query: 126 folded once leaves 64 coefficients
    "q12289-one-query-fiat-shamir":
        "b4db1e257ee52860e82e49f845a2826c48311a55b5eaa321c6fb206c4e3fc75a",
    # q=769, N+1=256, one query: 254 folded three times leaves 32
    # coefficients, and FRI layers 1 and 2, unions of cosets of the subgroups
    # of order 128 and 64, are committed
    "q769-one-query-fiat-shamir":
        "8f1787b5ac14083d9880ecdb9251abacc59ff3d0abf8a984c138f28eb5c6ffd4",
}
PINNED_REPLAY_PAPER_DIGEST = "c93db5260f4859739bd1fe80d8c1c550e14ae7d89c58feb76e90bd727303487b"

MIXED_RADIX_SPEC = SystemSpec(
    a_hat=((1, 2), (2, -1)),
    z_upper=(300, 284),
    z_lower=(94, 243),
    z_init=(225, 282),
    num_steps=39,
)


def _proof_digest(proof) -> str:
    return hashlib.sha256(dump_proof(proof).encode()).hexdigest()


def _doc_digest(doc: dict) -> str:
    """The digest of a proof document written as dump_proof writes one."""
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def test_paper_proofs_are_byte_identical(field, paper_spec, paper_trace, paper_proof):
    assert paper_proof.version == PROOF_VERSION == 19
    assert _proof_digest(paper_proof) == PINNED_PROOF_DIGESTS["paper-replay"]
    salt = b"pin-paper"
    proof = prove(field, paper_spec, paper_trace, FiatShamirTranscript(ref.MODULUS, salt=salt),
                  num_queries=8, salt=salt)
    assert verify(field, paper_spec, proof).accepted
    assert _proof_digest(proof) == PINNED_PROOF_DIGESTS["paper-fiat-shamir"]


def test_mixed_radix_proof_is_byte_identical():
    field = PrimeField(3001)
    salt = b"pin-mixed"
    proof = prove(field, MIXED_RADIX_SPEC, simulate(MIXED_RADIX_SPEC),
                  FiatShamirTranscript(3001, salt=salt), num_queries=8, salt=salt)
    assert verify(field, MIXED_RADIX_SPEC, proof).accepted
    assert len(proof.fri_layers.roots) == 0 and len(proof.fri_layers.remainder) == 20
    assert _proof_digest(proof) == PINNED_PROOF_DIGESTS["q3001-fiat-shamir"]


# what PINNED_PROOF_DIGESTS["paper-replay"] held for proof version 11, whose
# FRI layers ended in one final value, and for version 10, whose trace rows
# also carried the index of their leaf
VERSION_11_REPLAY_DIGEST = "11a7450ce410c41ea7e6d7648f2c0067fe0fbc45b932457bd00ff8a427dcb0ff"
VERSION_10_REPLAY_DIGEST = "ed5d22b63c5e2121dea25e1f84fc604b0ca72396e893ac8e3e5d57a0095af914"


def test_version_12_renames_only_the_replay_final_value(paper_v13_doc):
    # the replay proof with its one-coefficient remainder [v] written as the
    # final value v and its version set to 11 is the version-11 proof byte
    # for byte: every root, value, path, FRI index and degree bound is as it
    # was; with each trace row's index put back too, it is version 10's
    assert [f.name for f in dataclasses.fields(protocol.FriLayers)] == ["roots", "remainder"]
    assert _doc_digest(paper_v13_doc) == VERSION_13_DIGESTS["paper-replay"]
    for as_version, pinned in ((_as_version_11, VERSION_11_REPLAY_DIGEST),
                               (_as_version_10, VERSION_10_REPLAY_DIGEST)):
        assert _doc_digest(as_version(paper_v13_doc)) == pinned


# what PINNED_PROOF_DIGESTS held for the paper proofs in proof version 12,
# whose Fiat-Shamir fold count was max(num_rounds(2N - 2) - 5, 1)
VERSION_12_DIGESTS = {
    "paper-replay": "d0159d62b2b522277e63c6b5ac90068bc06633ea0e8ab246b2aca80d5d615ee1",
    "paper-fiat-shamir": "674049183665537a14ab9f296e09de5f14de3920e0c79637ef5d3afc89559e95",
}


def _as_version_12(doc: dict) -> dict:
    """The version-12 document of a paper proof document: the same, but for
    its version. A new document: `doc` is left as it is."""
    return {**doc, "version": 12}


def test_version_13_changes_only_the_version_of_the_paper_proofs():
    # both rules fold the paper system once under Fiat-Shamir at 8 queries,
    # and replay is untouched, so with its version set to 12 each paper
    # proof as version 13 made it is the version-12 proof byte for byte
    for name in VERSION_12_DIGESTS:
        doc = _as_made_by_version_13(lambda: _pinned_proof(name))
        assert _doc_digest(doc) == VERSION_13_DIGESTS[name]
        assert _doc_digest(_as_version_12(doc)) == VERSION_12_DIGESTS[name]


# what PINNED_PROOF_DIGESTS held in proof version 13, whose openings were made
# and checked one by one, each path cut at the first node an earlier opening
# of its tree sent or let the verifier compute
VERSION_13_DIGESTS = {
    "paper-replay": "13140aa7ef6ca733e768915795ebda037b00b274ef7f955f37f329074400263b",
    "paper-fiat-shamir": "5f427da8b103c607c5cdb3fae21b6397f4a38f6f71c13f74b6b2c7ecce56ab4a",
    "q3001-fiat-shamir": "f6ff38dd2b1d2e9d45c171cf6e2f190c80eb90a8d3b53091d37c3765c6b26890",
    "q12289-one-query-fiat-shamir":
        "f00d4803f2866f88f16e6bb06c2cf5531af6bb80c1c0d7f3c88ee336519355be",
}


# what PINNED_PROOF_DIGESTS held in proof version 15, whose Fiat-Shamir
# proofs were of the paper's AIR, with its degree bound 2N - 2
VERSION_15_DIGESTS = {
    "paper-replay": "5f50cdbaf2939f33cc54fd843d9423fa5058cf4810f647202a89cf978f4a980f",
    "paper-fiat-shamir": "da993fa68ccbfcf3e69a9f515c0613b4b51f222b9098b89eb78b2b18e8386aca",
    "q3001-fiat-shamir": "137c397cffaf3e77d406f3c879280d305e2a74c2cf2b478335d7f214d89bf73a",
    "q12289-one-query-fiat-shamir":
        "b5a4343364050d2932efb823b6d47f3dada479efc9d1314ba972ffceada360a6",
}


def _as_made_by_version_15(make) -> dict:
    """The document of the proof make() returns as version 15 made it: as
    version 16 made it, but under Fiat-Shamir too of the paper's AIR, so with
    its bound 2N - 2 and the fold count and remainder that gives, and its
    version 15."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(protocol, "DEGREE_2_AIR", PAPER_AIR)
        return {**_as_made_by_version_16(make), "version": 15}


@pytest.mark.parametrize("name", sorted(VERSION_15_DIGESTS))
def test_version_16_changes_only_the_air_of_fiat_shamir_proofs(name):
    # made of the paper's AIR under Fiat-Shamir too and labelled version 15,
    # each pinned proof as version 16 made it is version 15's byte for byte;
    # the replay proof is as version 16 made it, but for its version
    v16 = _as_made_by_version_16(lambda: _pinned_proof(name))
    assert _doc_digest(v16) == VERSION_16_DIGESTS[name]
    v15 = _as_made_by_version_15(lambda: _pinned_proof(name))
    assert _doc_digest(v15) == VERSION_15_DIGESTS[name]
    assert (v16 == {**v15, "version": 16}) == (name == "paper-replay")


# what PINNED_PROOF_DIGESTS held in proof version 16, whose trace tree had
# its leaves in ascending order of their points
VERSION_16_DIGESTS = {
    "paper-replay": "7e783e562c87ac512f2a1ff08325b1789552e0cf4c9a9e4cd71b819d28759533",
    "paper-fiat-shamir": "6487c14a95e9f32a7d8a0b025bd5c66c72706e57a5afd2205247a6f6ef2349c3",
    "q3001-fiat-shamir": "0e0f862b0038931138c0857f3f97af420ddfe2ba1d5804d41d3632f4238ac572",
    "q12289-one-query-fiat-shamir":
        "01347fa799d14fbe2f854bcef10491d4c25a0c617de54749079c25e738f06cfb",
    "q769-one-query-fiat-shamir":
        "aa98eaac00472d2daaccf163a8cb1bc8d6e157713fdd8f1516cfedd3924add42",
}


def _ascending_layer(domains, layer):
    """D_layer in ascending order, each point's position its leaf in the
    trees of proof versions 16 and below and in version 17's FRI trees:
    D0's points raised to 2^layer, closed under negation."""
    q = domains.field.modulus
    ys = {pow(x, 2 ** layer, q) for x in domains.trace_points}
    return sorted(ys | {q - y for y in ys})


@contextlib.contextmanager
def _ascending_trees(trace_tree: bool):
    """Proof version 17's layout patched in, and with trace_tree version
    16's as well. Fiat-Shamir draws each sample point from D0 ascending;
    the tree of FRI layer j holds at leaf i the values at d and q - d, d
    the i-th point of D_j ascending, so y sits at the leaf of min(y, q - y),
    on side 0 if it is the smaller; with trace_tree the trace tree's leaf
    of a point is its position in D0 ascending too. The domains keep
    nothing that depends on the layout, so the cached ones serve."""
    leaf, init, draw = protocol._Domains.leaf, protocol._Committed.__init__, FiatShamirTranscript.draw

    def pairs(self, poly, domains, layer):
        # the first half ascending, then their negations: _CommittedPairs'
        # rows, over one coset of |D_j| points, pair k with k + |D_j|/2
        table = domains.evaluator(layer).evaluate([poly])[0]
        points = _ascending_layer(domains, layer)
        self.layer, self.half = layer, len(points) // 2
        order = points[:self.half] + points[::-1][:self.half]
        init(self, [[table[leaf(domains, p, layer)] for p in order]], domains)

    def pair_leaf(domains, layer, point):
        points = _ascending_layer(domains, layer)
        i = points.index(point)
        return min((i, 0), (len(points) - 1 - i, 1))

    def trace(self, tables, domains):
        points = _ascending_layer(domains, 0)
        init(self, [[t[leaf(domains, p)] for p in points] for t in tables], domains)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(protocol._CommittedPairs, "__init__", pairs)
        m.setattr(protocol._Domains, "pair_leaf", pair_leaf)
        m.setattr(FiatShamirTranscript, "draw",
                  lambda t, kind, points=None: draw(t, kind, points and sorted(points)))
        if trace_tree:
            m.setattr(protocol._Committed, "__init__", trace)
            m.setattr(protocol._Domains, "leaf", lambda domains, point, layer=0:
                      _ascending_layer(domains, layer).index(point))
        yield


@contextlib.contextmanager
def _boundary_columns():
    """Proof version 18's trace tree and F patched in: after its 4n
    columns, each row holds the n boundary quotients floor((f_z,i -
    z_init,i)/(x - 1)), the value (f_z,i(x) - f_z,i(1))/(x - 1) version 18
    committed, and F is Q alone, with no boundary weight drawn. Entered
    after any other patch of _Committed.__init__, so the columns are laid
    out as that one lays out the rest."""
    build, init = protocol.build_trace_polys, protocol._Committed.__init__
    polys = []

    def recorded(trace, domain):
        polys[:] = build(trace, domain)
        return tuple(polys)

    def trace_tree(self, tables, domains):
        if type(self) is protocol._Committed:  # the trace tree, not a tree of pairs
            state = polys[:len(polys) // len(SECTIONS)]
            tables = tables + domains.evaluator(0).evaluate(list(map(boundary_quotient, state)))
        init(self, tables, domains)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(protocol, "build_trace_polys", recorded)
        m.setattr(protocol._Committed, "__init__", trace_tree)
        m.setattr(protocol, "DEGREE_2_AIR", protocol.DEGREE_2_AIR._replace(boundary=lambda s: ()))
        yield


def _as_made_by_version_18(make) -> dict:
    """The document of the proof make() returns as version 18 made it: with
    its boundary columns (_boundary_columns), and its version 18."""
    with _boundary_columns():
        return {**proof_to_json(make()), "version": 18}


def _as_made_by_version_17(make) -> dict:
    """The document of the proof make() returns as version 17 made it: as
    version 18 made it, but with its FRI trees and sample points in
    ascending order of their points (_ascending_trees), and its version 17."""
    with _ascending_trees(trace_tree=False), _boundary_columns():
        return {**proof_to_json(make()), "version": 17}


def _as_made_by_version_16(make) -> dict:
    """The document of the proof make() returns as version 16 made it: as
    version 17 made it, but with its trace tree's leaves in ascending order
    of their points too, and its version 16."""
    with _ascending_trees(trace_tree=True), _boundary_columns():
        return {**proof_to_json(make()), "version": 16}


def _trace_tree_blanked(doc: dict) -> dict:
    """The document with its trace root and its trace rows' paths blanked."""
    doc = json.loads(json.dumps(doc))
    doc["commitments"]["trace"]["root"] = ""
    for qd in doc["queries"]:
        for row in qd["trace"]:
            row[-1] = ""
    return doc


@pytest.mark.parametrize("name", sorted(VERSION_16_DIGESTS))
def test_version_17_changes_only_the_order_of_the_trace_leaves(name):
    # made with version 16's ascending leaf order and labelled version 16,
    # each pinned proof is version 16's byte for byte. A replay proof draws
    # no challenge from the trace root, so only that root and the trace
    # paths differ; a Fiat-Shamir proof draws other challenges from it
    v17 = _as_made_by_version_17(lambda: _pinned_proof(name))
    assert _doc_digest(v17) == VERSION_17_DIGESTS[name]
    v16 = _as_made_by_version_16(lambda: _pinned_proof(name))
    assert _doc_digest(v16) == VERSION_16_DIGESTS[name]
    same = _trace_tree_blanked(v17) == {**_trace_tree_blanked(v16), "version": 17}
    assert same == (name == "paper-replay")


# what PINNED_PROOF_DIGESTS held in proof version 17, whose FRI trees had
# their leaves, and whose draws their sample points, in ascending order
VERSION_17_DIGESTS = {
    "paper-replay": "8d6f6a3e3d3e34dfe275c541b9182ec93637048d95ed49d2870653901ad1a5e5",
    "paper-fiat-shamir": "5dd7bf6a06af2fa00795f7ea8649427b0a5c19f8e3fffbcbf9ac68a3c68b2a6a",
    "q3001-fiat-shamir": "ba71c5270d73571ea5921246c2ac25246626db2f04eb6cfc2839054e6db6be02",
    "q12289-one-query-fiat-shamir":
        "5d09dbba1424eaefc2f327ca98f3e46a46927f0fff3ccac6f86d881ab62571ab",
    "q769-one-query-fiat-shamir":
        "d1ea530710a47e0efea39be81ac2153c87b8115b58a3ce986296b62c1c3cfb57",
}
# the paper replay proof as version 17 wrote it
VERSION_17_PAPER_REPLAY = pathlib.Path(__file__).parent / "data" / "paper-replay-v17.json"


def _fri_trees_blanked(doc: dict) -> dict:
    """The document with its composition and FRI roots, and each FRI
    opening's index and path, blanked."""
    doc = json.loads(json.dumps(doc))
    for cm in (doc["commitments"]["composition"], *doc["fri_layers"]["roots"]):
        cm["root"] = ""
    for qd in doc["queries"]:
        for opening, _ in qd["fri"]:
            opening[0] = opening[-1] = ""
    return doc


def test_version_18_changes_only_the_fri_trees():
    # the paper replay proof as version 17 wrote it, frozen, is what the
    # ascending layout patched in makes; this version lays each FRI tree
    # out coset by coset, as the trace tree already was, and replay's
    # injected challenges draw nothing from a root. So only the composition
    # and FRI roots, the FRI openings' leaves and paths, and the version
    # differ; every value, the trace tree and the remainder are as they were
    v17 = json.loads(VERSION_17_PAPER_REPLAY.read_text())
    assert _doc_digest(v17) == VERSION_17_DIGESTS["paper-replay"]
    assert _as_made_by_version_17(lambda: _pinned_proof("paper-replay")) == v17
    doc = _as_made_by_version_18(lambda: _pinned_proof("paper-replay"))
    assert _fri_trees_blanked(doc) == {**_fri_trees_blanked(v17), "version": 18}
    assert doc["commitments"]["composition"] != v17["commitments"]["composition"]


# what PINNED_PROOF_DIGESTS held in proof version 18, whose trace rows held
# the n boundary quotients after the 4n columns, and whose F was Q alone
VERSION_18_DIGESTS = {
    "paper-replay": "3d1a308ecaf39eb2126903378605f2bc2f0aca6dc9b06f7f77fa0c41b188ba8f",
    "paper-fiat-shamir": "3d6907ad9fee6cb175ba8f9caae1fa460677f587fe189fbecbab679a6aaf985a",
    "q3001-fiat-shamir": "18c3b727a5c1ddc952b95c19f740ddb45ed916775da0620c8a3e6206d0ea9172",
    "q12289-one-query-fiat-shamir":
        "4d98f63938da665819c454efa74d231acfc6a22a2fb3372f36dcc9136c871c00",
    "q769-one-query-fiat-shamir":
        "aea431041246e12ac94e2d525ec3da76e0d36a6f5afdaefaedda6ca1bab164c2",
}
# the paper replay proof as version 18 wrote it
VERSION_18_PAPER_REPLAY = pathlib.Path(__file__).parent / "data" / "paper-replay-v18.json"


@pytest.mark.parametrize("name", sorted(VERSION_18_DIGESTS))
def test_version_18_is_this_version_with_the_boundary_columns_patched_back_in(name):
    # version 18's trace tree and its F = Q, patched in, give each pinned
    # proof as version 18 made it, byte for byte
    assert _doc_digest(_as_made_by_version_18(lambda: _pinned_proof(name))) == \
        VERSION_18_DIGESTS[name]


def test_version_19_changes_only_the_replay_trace_tree():
    # the paper replay proof as version 18 wrote it, frozen, is what the
    # boundary columns patched in make. This version's trace rows are its
    # rows without their last n values, the boundary quotients, so the trace
    # root and paths differ; replay's F has no boundary term and its
    # challenges are injected, so the composition root, the FRI roots and
    # openings and the remainder are byte for byte version 18's
    text = VERSION_18_PAPER_REPLAY.read_text().strip()
    assert hashlib.sha256(text.encode()).hexdigest() == VERSION_18_DIGESTS["paper-replay"]
    v18, n = json.loads(text), ref.SYSTEM.n
    assert _as_made_by_version_18(lambda: _pinned_proof("paper-replay")) == v18
    expected = {**json.loads(text), "version": 19}
    for qd in expected["queries"]:
        for row in qd["trace"]:
            assert len(row[0]) == 5 * n
            row[0] = row[0][:-n]
    doc = proof_to_json(_pinned_proof("paper-replay"))
    assert _trace_tree_blanked(doc) == _trace_tree_blanked(expected)
    assert doc["commitments"]["trace"] != v18["commitments"]["trace"]


# what PINNED_PROOF_DIGESTS held in proof version 14, whose openings were
# objects keyed by their field names
VERSION_14_DIGESTS = {
    "paper-replay": "ad80fd71a66806c94eb318f949ab83794cd4e20a3892c3fdec439c765684496f",
    "paper-fiat-shamir": "29a90fc6781566aec972018efbc2fa1179b5d5713e87e99159931cd8a9256e6d",
    "q3001-fiat-shamir": "e4eabb2a767fd405356fdd53f3bb4492682cca6587188c4632f912ebd1b906f7",
    "q12289-one-query-fiat-shamir":
        "7a36d16529e5c6f2101ad82a11827d51404a08b1c4cea42475f4ead563c907d1",
}


def _as_version_14(doc: dict) -> dict:
    """The version-14 document of a proof document: each opening an object
    keyed by its field names, in their order. A new document."""
    return {**keyed(doc), "version": 14}


@pytest.mark.parametrize("name", sorted(VERSION_15_DIGESTS))
def test_version_15_changes_only_the_layout_of_openings(name):
    # every root, value, path, FRI index, degree bound and remainder is
    # version 14's: with each opening keyed again and its version set to
    # 14, each pinned proof as version 15 made it is the version-14 proof
    # byte for byte
    doc = _as_made_by_version_15(lambda: _pinned_proof(name))
    assert _doc_digest(doc) == VERSION_15_DIGESTS[name]
    assert _doc_digest(_as_version_14(doc)) == VERSION_14_DIGESTS[name]
    assert positional(keyed(doc)) == doc
    queries = doc["queries"]
    assert all(len(row) == 2 for qd in queries for row in qd["trace"])
    assert all(len(opening) == 3 for qd in queries for opening, _ in qd["fri"])


def _pinned_proof(name):
    """The proof PINNED_PROOF_DIGESTS[name] pins, made afresh."""
    def fiat_shamir(q, spec, salt, queries):
        return prove(PrimeField(q), spec, simulate(spec), FiatShamirTranscript(q, salt=salt),
                     num_queries=queries, salt=salt)

    return {
        "paper-replay": lambda: prove(PrimeField(ref.MODULUS), ref.SYSTEM, simulate(ref.SYSTEM),
                                      paper_transcript(), num_queries=2),
        "paper-fiat-shamir": lambda: fiat_shamir(ref.MODULUS, ref.SYSTEM, b"pin-paper", 8),
        "q3001-fiat-shamir": lambda: fiat_shamir(3001, MIXED_RADIX_SPEC, b"pin-mixed", 8),
        "q12289-one-query-fiat-shamir":
            lambda: fiat_shamir(12289, _box_spec(127), b"pin-two-folds", 1),
        "q769-one-query-fiat-shamir":
            lambda: fiat_shamir(769, _box_spec(255), b"pin-three-folds", 1),
    }[name]()


def _paths_blanked(node):
    if isinstance(node, dict):
        return {k: "" if k == "path" else _paths_blanked(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_paths_blanked(v) for v in node]
    return node


def _digests_sent(doc: dict) -> int:
    return sum(len(base64.b64decode(o["path"])) // 32 for o in _all_openings(doc))


@pytest.mark.parametrize("name", sorted(VERSION_15_DIGESTS))
def test_version_14_changes_only_the_paths_of_the_pinned_proofs(name):
    # every root, value, FRI index, degree bound and remainder is version
    # 13's; only the paths differ, as one batch per tree sends no digest a
    # later opening lets the verifier compute
    v13 = _as_made_by_version_13(lambda: _pinned_proof(name))
    assert _doc_digest(v13) == VERSION_13_DIGESTS[name]
    doc = _as_version_14(_as_made_by_version_15(lambda: _pinned_proof(name)))
    assert _paths_blanked(doc) == {**_paths_blanked(v13), "version": 14}
    assert _digests_sent(doc) <= _digests_sent(v13)
    if name == "paper-fiat-shamir":
        assert (_digests_sent(doc), _digests_sent(v13)) == (67, 88)
        # its version-13 paths, relabelled as this version and checked as
        # version 15 checked them, of the paper's AIR and rows of 5n values
        # (the boundary quotients last, which the paper's AIR does not read),
        # are a reject
        v13_relabelled = proof_from_json(positional({**v13, "version": PROOF_VERSION}))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(protocol, "DEGREE_2_AIR", PAPER_AIR)
            m.setattr(protocol, "trace_width", lambda spec: (len(SECTIONS) + 1) * spec.n)
            report = verify(PrimeField(ref.MODULUS), ref.SYSTEM, v13_relabelled)
        assert (report.verdict, report.stage) == ("reject", "commitment")


def test_paper_proof_with_64_queries_stays_under_300_kib(field, paper_spec, paper_trace):
    # 192 openings (2 trace rows of 4n values and 1 FRI layer per query) and
    # a remainder of 15 coefficients in 13,440 bytes, against 13,808 in
    # version 18, whose rows also held the n boundary quotients, 13,974 in
    # version 17, whose
    # composition tree held its pairs in ascending order of their points,
    # 15,058 in version 16, whose
    # trace leaves were in ascending order, 15,188 in version 15, whose
    # paper AIR sent 29, 18,708 in version 14, which keyed each opening by
    # its field names, and 25,444 in version 13, whose openings were made one
    # by one; folded to a constant in 6 FRI layers, version 11 sent 512
    # openings in 62,946 bytes, and with full paths they would take about
    # 311 KiB
    salt = b"size"

    def make():
        return prove(field, paper_spec, paper_trace, FiatShamirTranscript(ref.MODULUS, salt=salt),
                     num_queries=64, salt=salt)

    proof = make()
    assert verify(field, paper_spec, proof).accepted
    assert len(dump_proof(proof)) <= 19 * 1024
    v16, v15 = _as_made_by_version_16(make), _as_made_by_version_15(make)
    sizes = [len(json.dumps(doc, separators=(",", ":")))
             for doc in (_as_made_by_version_18(make), _as_made_by_version_17(make), v16, v15,
                         _as_version_14(v15))]
    assert [len(dump_proof(proof)), *sizes] == [13440, 13808, 13974, 15058, 15188, 18708]


def test_paper_proof_with_64_queries_sends_at_most_1000_digests(field, paper_spec, paper_trace):
    # one FRI layer and a 15-coefficient remainder: 157 digests, the minimal
    # multiproof of each tree, against 149 in version 18, whose trace root,
    # and so its sample points, were others, 152 in version 17, whose composition
    # tree held its pairs, and whose draws their sample points, in ascending
    # order of their points, 177 in version 16, whose trace tree
    # put the rows at x and g·x in unrelated subtrees (179 for the sample
    # points version 15 drew), 337 in version 13, which sent a
    # digest a later opening let the verifier compute, and 895 when version
    # 11 folded to a constant in 6 layers. Folding that far, one
    # leaf per FRI pair, opened once, took 64,446 bytes in version 10, each
    # path one base64 string (85,479 with each digest in hex, 95,131 in
    # version 8's layout), against 107,128 with f(-y) sent as a second
    # opening of the leaf, and 1,523 digests and 149,133 bytes with one leaf
    # per point
    salt = b"size"
    proof = prove(field, paper_spec, paper_trace, FiatShamirTranscript(ref.MODULUS, salt=salt),
                  num_queries=64, salt=salt)
    assert verify(field, paper_spec, proof).accepted
    q, domains = ref.MODULUS, protocol._domains(ref.MODULUS, paper_spec.num_steps)
    xs = _drawn_points(field, paper_spec, proof)
    trace_leaves = [domains.leaf(p) for x in xs for p in (x, domains.g * x % q)]
    pair_leaves = [qr.fri[0][0].index for qr in proof.queries]
    minimal = (len(minimal_multiproof(proof.commitments.trace.leaf_count, trace_leaves))
               + len(minimal_multiproof(proof.commitments.composition.leaf_count, pair_leaves)))
    openings = [o for qr in proof.queries for o in (*qr.trace, *(pos for pos, _ in qr.fri))]
    assert sum(len(o.path) // 32 for o in openings) == minimal == 157
    assert len(dump_proof(proof)) <= 19 * 1024

    def make():
        return prove(field, paper_spec, paper_trace, FiatShamirTranscript(ref.MODULUS, salt=salt),
                     num_queries=64, salt=salt)

    v18, v17, v16 = (_as_made_by_version_18(make), _as_made_by_version_17(make),
                     _as_made_by_version_16(make))
    assert [_digests_sent(keyed(doc)) for doc in (v18, v17, v16)] == [149, 152, 177]


def test_replay_paper_output_is_unchanged(capsys):
    assert main(["replay-paper"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPLAY_PAPER_DIGEST


# --- domains shared per (q, N) ------------------------------------------------


def test_cold_and_warm_domain_cache_give_the_same_proof(
    field, paper_spec, paper_trace, monkeypatch
):
    salt = b"pin-paper"

    def prove_and_verify():
        proof = prove(field, paper_spec, paper_trace,
                      FiatShamirTranscript(ref.MODULUS, salt=salt), num_queries=8, salt=salt)
        return _proof_digest(proof), verify(field, paper_spec, proof)

    protocol._domains.cache_clear()
    cold = prove_and_verify()
    # a warm cache derives no domain again
    for name in ("build_domain", "base_eval_domain", "layer_eval_domains"):
        monkeypatch.setattr(protocol, name, None)
    warm = prove_and_verify()
    assert cold == warm
    assert warm[0] == PINNED_PROOF_DIGESTS["paper-fiat-shamir"] and warm[1].accepted


def test_threads_share_the_domain_cache():
    # threads that prove and verify at once against one cold context, whose
    # coset-DFT plans and trace interpolator are built on first use, must each
    # get the pinned proof (q = 769 at one query: three folds, so the plans
    # of layers 0, 1 and 2, whose domains differ)
    q, spec, salt = 769, _box_spec(255), b"pin-three-folds"
    field, trace = PrimeField(q), simulate(spec)
    digests, errors = [], []
    start = threading.Barrier(4, timeout=60)

    def worker():
        try:
            start.wait()
            for _ in range(2):
                proof = prove(field, spec, trace, FiatShamirTranscript(q, salt=salt),
                              num_queries=1, salt=salt)
                assert verify(field, spec, proof).accepted
                digests.append(_proof_digest(proof))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    protocol._domains.cache_clear()
    domains = protocol._domains(q, spec.num_steps)  # one context, no plan built yet
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert digests == [PINNED_PROOF_DIGESTS["q769-one-query-fiat-shamir"]] * 8
    # the plans of the three layers, layer 0's also the trace table's
    assert set(domains.plans) == {0, 1, 2}


def test_domain_cache_stays_at_its_bound():
    q = 61
    orders = [m for m in range(2, q - 1, 2) if (q - 1) % m == 0]
    assert len(orders) > protocol.DOMAIN_CACHE_SIZE
    rng = random.Random(5)
    for order in orders:
        spec = random_spec(rng, q, n_max=1, orders=[order])
        proof = prove(PrimeField(q), spec, simulate(spec), FiatShamirTranscript(q), num_queries=2)
        assert verify(PrimeField(q), spec, proof).accepted
        assert protocol._domains.cache_info().currsize <= protocol.DOMAIN_CACHE_SIZE
    assert protocol._domains.cache_info().currsize == protocol.DOMAIN_CACHE_SIZE
    # one trace interpolator per kept domain
    assert trace_interpolator.cache_info().maxsize == protocol.DOMAIN_CACHE_SIZE


def test_a_fiat_shamir_prover_builds_only_the_layer_plans_it_commits(
    field, paper_spec, paper_trace
):
    # the paper system folds once under Fiat-Shamir, so only layer 0 is
    # committed, out of num_rounds(2N - 2) = 6 layer domains: its one plan
    # gives both the trace table and Q's, as both trees lay D0 out alike
    protocol._domains.cache_clear()
    prove(field, paper_spec, paper_trace, FiatShamirTranscript(ref.MODULUS), num_queries=2)
    domains = protocol._domains(ref.MODULUS, paper_spec.num_steps)
    assert len(domains.layers) == 6
    assert set(domains.plans) == {0}


def _layer_count(q, num_steps):
    return len(protocol._domains(q, num_steps).layers)


def test_rejected_or_malformed_proofs_leave_the_layer_count(
    field, paper_spec, paper_proof, paper_fs_proof
):
    N = paper_spec.num_steps
    doc = keyed(proof_to_json(paper_fs_proof))
    # under Fiat-Shamir the fold count comes from 2N - 2, whatever the proof declares
    oversized = json.loads(json.dumps(doc))
    oversized["degree_bound"] = 4 * N
    # a replay proof's declared bound sets its fold count: 70 FRI layers,
    # which the bound alone caps
    deep = keyed(proof_to_json(paper_proof))
    extra = num_rounds(2**69) - num_rounds(paper_proof.degree_bound)
    deep["degree_bound"] = 2**69
    deep["fri_layers"]["roots"] += deep["fri_layers"]["roots"][-1:] * extra
    for qd in deep["queries"]:
        qd["fri"] += qd["fri"][-1:] * extra
    assert len(deep["queries"][0]["fri"]) == 70
    tampered = json.loads(json.dumps(doc))
    opening = tampered["queries"][0]["fri"][-1][0]
    opening["value"] = (opening["value"] + 1) % ref.MODULUS
    truncated = json.loads(json.dumps(doc))
    truncated["queries"][0]["fri"].pop()

    # a cold context holds every layer an accepted proof can reach, so no
    # proof, accepted, rejected or malformed, changes them
    protocol._domains.cache_clear()
    trace_interpolator.cache_clear()
    count = _layer_count(ref.MODULUS, N)
    assert count == num_rounds(2 * N - 2)
    layers = protocol._domains(ref.MODULUS, N).layers
    for bad, transcript in ((oversized, None), (deep, paper_transcript())):
        report = verify(field, paper_spec, proof_from_json(positional(bad)), transcript)
        assert (report.verdict, report.stage) == ("reject", "fri_commit")
        assert _layer_count(ref.MODULUS, N) == count

    assert verify(field, paper_spec, paper_fs_proof).accepted
    assert _layer_count(ref.MODULUS, N) == count
    for bad in (oversized, tampered):
        assert not verify(field, paper_spec, proof_from_json(positional(bad))).accepted
        assert _layer_count(ref.MODULUS, N) == count
    with pytest.raises(ProofFormatError):
        verify(field, paper_spec, proof_from_json(positional(truncated)))
    assert _layer_count(ref.MODULUS, N) == count
    assert protocol._domains(ref.MODULUS, N).layers is layers
    # a pure verifier builds no coset-DFT plan and no trace interpolator
    assert not protocol._domains(ref.MODULUS, N).plans
    assert trace_interpolator.cache_info().currsize == 0


def test_forced_replay_proofs_need_no_layer_beyond_the_built_ones():
    # random rows give interpolants of full degree, so the replay prover's
    # declared bound and its floor quotient reach their largest values
    rng = random.Random(1414)
    at_worst = 0
    for _ in range(12):
        q = rng.choice((61, 211, 331))
        spec = random_spec(rng, q)
        N, n = spec.num_steps, spec.n
        cap = max(2, (q - 1) // (4 * n + 2))

        def rows(count):
            return tuple(tuple(rng.randint(0, cap) for _ in range(n)) for _ in range(count))

        trace = ExecutionTrace(spec=spec, z_rows=rows(N + 1), alpha_up_rows=rows(N),
                               alpha_lo_rows=rows(N), delta_rows=rows(N))
        ch = random_challenges(rng, q, spec, num_queries=2)
        proof = forge_proof(PrimeField(q), spec, trace, ReplayTranscript(q, **ch), 2)
        assert proof.degree_bound <= max(2 * N - 2, 0)
        at_worst += proof.degree_bound == max(2 * N - 2, 0)
        assert len(proof.fri_layers.roots) + 1 <= _layer_count(q, N)
        report = verify(PrimeField(q), spec, proof, ReplayTranscript(q, **ch))
        assert report.verdict in ("accept", "reject")
    assert at_worst >= 6


def test_modulus_of_2_to_the_64_or_more_is_refused_before_any_work(
    field, paper_spec, paper_trace, paper_fs_proof, monkeypatch
):
    # 2^89 - 1 is prime and N + 1 = 30 divides q - 1: only the 8-byte
    # encodings rule it out, and the refusal comes before any domain is built
    q = 2**89 - 1

    def no_domain(*args):
        raise AssertionError("a domain was built for a refused modulus")

    monkeypatch.setattr(protocol, "build_domain", no_domain)
    with pytest.raises(ValueError, match="must be below 2\\^64"):
        prove(PrimeField(q), paper_spec, paper_trace, FiatShamirTranscript(q))
    with pytest.raises(ValueError, match="must be below 2\\^64"):
        verify(PrimeField(q), paper_spec, paper_fs_proof)


@pytest.mark.parametrize("q, num_steps, message", [
    (2**89 - 1, 29, "must be below 2\\^64"),  # prime, and N + 1 = 30 divides q - 1
    (331, 2, "must be even"),  # N + 1 = 3 divides 330
    (331, 3, "must divide q-1"),  # N + 1 = 4 is even
    (13, 11, "must be below q-1"),  # H = F_13*: no coset left to commit on
    (5, 3, "must be below q-1"),  # H = F_5*
], ids=["q-2^89-1", "odd-order", "order-not-dividing", "h-is-f13-star", "h-is-f5-star"])
def test_prove_verify_and_the_cli_refuse_the_same_publics(
    tmp_path, paper_fs_proof, q, num_steps, message
):
    with pytest.raises(ValueError, match=message) as refused:
        protocol.check_publics(q, num_steps)
    expected = str(refused.value)
    field, spec = PrimeField(q), _box_spec(num_steps)
    with pytest.raises(ValueError) as exc:
        prove(field, spec, simulate(spec), FiatShamirTranscript(q))
    assert str(exc.value) == expected
    with pytest.raises(ValueError) as exc:
        verify(field, spec, paper_fs_proof)
    assert str(exc.value) == expected
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**replay_config(), "q": str(q), "N": num_steps}))
    with pytest.raises(ConfigError) as exc:
        load_config(str(config))
    assert str(exc.value) == expected


def _other_pair(doc, layer, opening):
    """The first opening, in query order, of a pair of FRI layer `layer`
    other than the one `opening` belongs to."""
    return next(qd["fri"][layer][0] for qd in doc["queries"]
                if qd["fri"][layer][0]["index"] != opening["index"])


def _index_cases(doc):
    """(opening, an opening of another pair, commitment) for a layer-0 FRI
    opening and an opening in the last committed FRI layer, from every query
    of a proof document. Trace rows carry no index to edit."""
    layers = [doc["commitments"]["composition"], *doc["fri_layers"]["roots"]]
    assert len(doc["queries"][0]["fri"]) == len(layers)
    for qd in doc["queries"]:
        first, last = qd["fri"][0], qd["fri"][-1]
        yield first[0], _other_pair(doc, 0, first[0]), layers[0]
        yield last[0], _other_pair(doc, -1, last[0]), layers[-1]


def _verify_each_index_case(field, spec, proof, replay, edit):
    """Verify the proof once per case of _index_cases, with edit(opening,
    other, commitment) applied to that case only; the reports, in order."""
    base = keyed(proof_to_json(proof))
    reports = []
    for i in range(len(list(_index_cases(base)))):
        doc = json.loads(json.dumps(base))
        edit(*list(_index_cases(doc))[i])
        reports.append(verify(field, spec, proof_from_json(positional(doc)),
                              paper_transcript() if replay else None))
    return reports


@pytest.mark.parametrize("replay", [True, False])
@pytest.mark.parametrize("shift", [-1, 1])
def test_verify_rejects_a_shifted_leaf_index(field, paper_spec, paper_proof, paper_fs_proof,
                                             replay, shift):
    def edit(opening, other, comm):
        opening["index"] += shift  # value and path kept

    for report in _verify_each_index_case(
            field, paper_spec, paper_proof if replay else paper_fs_proof, replay, edit):
        assert (report.verdict, report.stage) == ("reject", "commitment")


@pytest.mark.parametrize("replay", [True, False])
def test_verify_rejects_a_valid_opening_of_another_point(field, paper_spec, paper_proof,
                                                         paper_fs_proof, replay):
    # index, value and path authenticate against the root, but at the leaf
    # of another point; for the trace row at x, the values and path of the
    # row at g·x
    def edit(opening, other, comm):
        opening.update(other)

    proof = paper_proof if replay else paper_fs_proof
    reports = _verify_each_index_case(field, paper_spec, proof, replay, edit)
    for k in range(len(proof.queries)):
        doc = keyed(proof_to_json(proof))
        rows = doc["queries"][k]["trace"]
        rows[0] = dict(rows[1])
        reports.append(verify(field, paper_spec, proof_from_json(positional(doc)),
                              paper_transcript() if replay else None))
    assert len(reports) == 3 * len(proof.queries)
    for report in reports:
        assert (report.verdict, report.stage) == ("reject", "commitment")


@pytest.mark.parametrize("replay", [True, False])
@pytest.mark.parametrize("bad", ["leaf_count", -1, -300])
def test_verify_rejects_an_out_of_range_leaf_index(field, paper_spec, paper_proof,
                                                   paper_fs_proof, replay, bad):
    def edit(opening, other, comm):
        opening["index"] = comm["leaf_count"] if bad == "leaf_count" else bad

    for report in _verify_each_index_case(
            field, paper_spec, paper_proof if replay else paper_fs_proof, replay, edit):
        assert (report.verdict, report.stage) == ("reject", "commitment")


@pytest.mark.parametrize("system, where, leaves", [
    ("paper", ("commitments", "trace"), 400),
    ("paper", ("commitments", "composition"), 256),
    ("paper-replay", ("fri_layers", "roots", 0), 255),
    ("q769", ("fri_layers", "roots", 0), 100),
], ids=["trace", "composition", "fri-layer-1", "fri-layer-1-fiat-shamir"])
def test_verify_rejects_a_rewritten_leaf_count(field, paper_spec, paper_trace, paper_proof,
                                               system, where, leaves):
    # each count keeps its tree's height, so every path still authenticates;
    # the count is checked against the size of its layer's domain. The paper
    # Fiat-Shamir proof folds once and commits no FRI layer 1; replay does,
    # and so does the one-query q = 769 Fiat-Shamir proof, which folds
    # three times and whose layer 1 has 128 leaves
    replay = system == "paper-replay"

    def transcript():
        return paper_transcript() if replay else None

    spec, trace, queries = paper_spec, paper_trace, 8
    if system == "q769":
        spec = _box_spec(255)
        field, trace, queries = PrimeField(769), simulate(spec), 1
    proof = paper_proof if replay else prove(
        field, spec, trace, FiatShamirTranscript(field.modulus, salt=b"a"),
        num_queries=queries, salt=b"a")
    assert verify(field, spec, proof, transcript()).accepted
    doc = proof_to_json(proof)
    node = doc
    for k in where:
        node = node[k]
    assert node["leaf_count"] != leaves
    assert (node["leaf_count"] - 1).bit_length() == (leaves - 1).bit_length()  # same height
    node["leaf_count"] = leaves
    report = verify(field, spec, proof_from_json(doc), transcript())
    assert (report.verdict, report.stage) == ("reject", "commitment")
    assert f"has {leaves} leaves" in report.detail


# --- the committed domain -----------------------------------------------------

BABYBEAR = 2**31 - 2**27 + 1
GOLDILOCKS = 2**64 - 2**32 + 1


def _box_spec(num_steps):
    return SystemSpec(a_hat=((1, 0), (-1, 1)), z_upper=(100, 100), z_lower=(0, 40),
                      z_init=(3, 100), num_steps=num_steps)


@pytest.mark.parametrize("q, num_steps", [(331, 29), (769, 255)])
def test_few_cosets_commit_all_of_the_field_off_h(q, num_steps):
    # 10 and 2 cosets besides H, no more than BLOWUP: the domain is F_q* \ H
    domains = protocol._domains(q, num_steps)
    subgroup = set(domains.subgroup.elements)
    assert sorted(domains.trace_points) == [x for x in range(1, q) if x not in subgroup]


def test_many_cosets_commit_blowup_of_them():
    q, order = 12289, 128  # 95 cosets besides H
    domains = protocol._domains(q, order - 1)
    layer0 = domains.trace_points
    points = set(layer0)
    subgroup = set(domains.subgroup.elements)
    assert protocol.BLOWUP == 16 and len(points) == len(layer0) == protocol.BLOWUP * order
    assert all(x * domains.g % q in points for x in layer0)  # a union of cosets of H
    assert not points & subgroup
    assert all(q - x in points for x in layer0)
    # the cosets of 2, 3, ..., each new one in turn
    keys = {pow(x, order, q) for x in layer0}
    assert pow(2, order, q) in keys and len(keys) == protocol.BLOWUP


@pytest.mark.parametrize("q, num_steps", [(BABYBEAR, 255), (GOLDILOCKS, 1023)])
def test_large_field_proofs_verify(q, num_steps):
    field, spec, salt = PrimeField(q), _box_spec(num_steps), b"large"
    queries = 4 if q == GOLDILOCKS else 8
    proof = prove(field, spec, simulate(spec), FiatShamirTranscript(q, salt=salt),
                  num_queries=queries, salt=salt)
    assert proof.commitments.composition.leaf_count == protocol.BLOWUP * (num_steps + 1) // 2
    assert verify(field, spec, load_proof(dump_proof(proof))).accepted
    doc = keyed(proof_to_json(proof))

    def bump(container, key):
        container[key] = (container[key] + 1) % q

    # BabyBear folds once and Goldilocks, at N + 1 = 1024 and 4 queries,
    # twice; each edit bumps a trace value or the value at -y of the last FRI
    # pair a query opens
    assert len(proof.fri_layers.roots) == (1 if q == GOLDILOCKS else 0)
    for edit in (lambda d: bump(d["queries"][3]["trace"][1]["values"], 1),
                 lambda d: bump(d["queries"][2]["fri"][-1], 1)):
        edited = json.loads(json.dumps(doc))
        edit(edited)
        assert verify(field, spec, proof_from_json(positional(edited))).stage == "commitment"


# the three shapes the benchmark proves: the paper system with 64 queries,
# q = 12289 with N = 127, and q = 769 with N = 255 and four state coordinates
BENCHMARK_SHAPES = [
    (331, ref.SYSTEM, 64),
    (12289, _box_spec(127), 8),
    (769, SystemSpec(a_hat=((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (-1, 0, 0, 1)),
                     z_upper=(40,) * 4, z_lower=(0,) * 4, z_init=(3, 20, 7, 39), num_steps=255), 8),
]


@pytest.mark.parametrize("q, spec, queries", BENCHMARK_SHAPES,
                         ids=["paper-q64", "field-q12289", "trace-q769"])
def test_dump_load_dump_is_byte_identical(q, spec, queries):
    salt = b"shape"
    proof = prove(PrimeField(q), spec, simulate(spec), FiatShamirTranscript(q, salt=salt),
                  num_queries=queries, salt=salt)
    text = dump_proof(proof)
    assert load_proof(text) == proof
    assert dump_proof(load_proof(text)) == text


def test_sample_points_are_drawn_from_the_committed_domain():
    q, spec = 12289, _box_spec(127)
    field, trace = PrimeField(q), simulate(spec)
    domains = protocol._domains(q, spec.num_steps)
    layer0 = set(domains.trace_points)
    proof = prove(field, spec, trace, FiatShamirTranscript(q, salt=b"draws"),
                  num_queries=128, salt=b"draws")
    xs = _drawn_points(field, spec, proof)
    assert len(xs) == 128 and set(xs) <= layer0
    assert verify(field, spec, proof).accepted

    # a replay point in F_q* \ H but in none of the committed cosets has no
    # leaf: a fault of the caller's list, for prove and verify alike, never
    # blamed on the proof
    subgroup = set(domains.subgroup.elements)
    outside = next(x for x in range(2, q) if x not in subgroup and x not in layer0)
    message = f"^point {outside} is not in D0, the domain of FRI layer 0$"
    ch = random_challenges(random.Random(8), q, spec, num_queries=2)
    with pytest.raises(ValueError, match=message) as exc:
        prove(field, spec, trace, ReplayTranscript(q, **{**ch, "sample_points": [outside] * 2}),
              num_queries=2)
    assert type(exc.value) is ValueError
    proof = prove(field, spec, trace, ReplayTranscript(q, **ch), num_queries=2)
    assert verify(field, spec, proof, ReplayTranscript(q, **ch)).accepted
    moved = {**ch, "sample_points": [ch["sample_points"][0], outside]}
    with pytest.raises(ValueError, match=message) as exc:
        verify(field, spec, proof, ReplayTranscript(q, **moved))
    assert type(exc.value) is ValueError
    # how many betas and sample points verify draws, the proof decides
    rounds = len(proof.fri_layers.roots) + 1
    for short in ({**ch, "betas": ch["betas"][:rounds - 1]},
                  {**ch, "sample_points": ch["sample_points"][:1]}):
        with pytest.raises(ProofFormatError, match="transcript cannot supply the challenges"):
            verify(field, spec, proof, ReplayTranscript(q, **short))
    exact = {**ch, "betas": ch["betas"][:rounds]}
    assert verify(field, spec, proof, ReplayTranscript(q, **exact)).accepted


def _one_coset_shape():
    """The (q, N) of the first system criterion 06 draws whose D0 is one coset
    of H: q = 61 and |H| = 30."""
    return next((field.modulus, spec.num_steps) for field, spec, _ in criterion_06_specs()
                if (field.modulus - 1) // (spec.num_steps + 1) == 2)


@pytest.mark.parametrize("q, num_steps",
                         [(q, spec.num_steps) for q, spec, _ in BENCHMARK_SHAPES]
                         + [_one_coset_shape()],
                         ids=["paper-q64", "field-q12289", "trace-q769", "one-coset"])
def test_the_trace_leaf_of_g_x_is_the_one_after_the_leaf_of_x(q, num_steps):
    # D0 coset by coset, the cosets by ascending least point c, each listed
    # c, c·g, ..., c·g^N: leaf(g·x) = leaf(x) + 1, but at c·g^N, whose g·x
    # is c, its coset's first leaf. Also where |H| = 30 is no power of two
    domains = protocol._domains(q, num_steps)
    order, points = num_steps + 1, domains.trace_points
    assert domains.layers[0] == (points[::order], order)
    assert points[::order] == sorted(points[::order])
    assert all(points[k] == min(points[k:k + order]) for k in range(0, len(points), order))
    for leaf, x in enumerate(points):
        assert domains.leaf(x) == leaf
        first = leaf - leaf % order
        after = leaf + 1 if leaf + 1 < first + order else first
        assert domains.leaf(domains.g * x % q) == after


@pytest.mark.parametrize("q, num_steps", [(ref.MODULUS, ref.SYSTEM.num_steps),
                                          (3001, MIXED_RADIX_SPEC.num_steps), (769, 255),
                                          (12289, 127), (65537, 4095)],
                         ids=["paper", "q3001", "trace-q769", "field-q12289", "horizon-q65537"])
def test_the_point_of_leaf_k_is_its_cosets_representative_times_g_to_k_mod_h(q, num_steps):
    # trace_points[k] = r_{k // |H|}·g^(k mod |H|), r_t the representative of
    # D0's coset t: a point is computed from its leaf with no table of D0
    domains = protocol._domains(q, num_steps)
    reps, order = domains.layers[0]
    points, g = domains.trace_points, domains.g
    assert order == num_steps + 1 and len(points) == len(reps) * order
    assert points == [reps[k // order] * pow(g, k % order, q) % q for k in range(len(points))]


@pytest.mark.parametrize("q, spec, queries", BENCHMARK_SHAPES,
                         ids=["paper-q64", "field-q12289", "trace-q769"])
def test_the_row_at_g_x_sends_no_digest_when_the_leaf_of_x_is_even(q, spec, queries):
    # its leaf is then the sibling of x's, opened just before it, and every
    # digest above them is sent with x's row or an earlier one. An even leaf
    # is never a coset's last point, whose leaf t·|H| + |H| - 1 is odd
    salt = b"shape"
    field = PrimeField(q)
    proof = prove(field, spec, simulate(spec), FiatShamirTranscript(q, salt=salt),
                  num_queries=queries, salt=salt)
    domains = protocol._domains(q, spec.num_steps)
    paired = 0
    for x, query in zip(_drawn_points(field, spec, proof), proof.queries):
        if domains.leaf(x) % 2 == 0:
            assert query.trace[1].path == b""
            paired += 1
    assert paired > 0


def test_a_field_q12289_proof_sends_fewer_trace_digests():
    # the 8-query proof of the field-q12289 shape sends 59 digests for its
    # trace rows, where version 16, whose 2048-leaf trace tree put the rows
    # at x and g·x in unrelated subtrees, sent 101 (69 in version 17, whose
    # sample points, drawn from D0 ascending, were others, and 58 in version
    # 18, whose trace root, and so its sample points, were others too)
    q, spec, queries = BENCHMARK_SHAPES[1]
    salt = b"shape"

    def make():
        return prove(PrimeField(q), spec, simulate(spec), FiatShamirTranscript(q, salt=salt),
                     num_queries=queries, salt=salt)

    def trace_digests(doc):
        return sum(len(base64.b64decode(row[-1])) // 32 for qd in doc["queries"]
                   for row in qd["trace"])

    assert trace_digests(proof_to_json(make())) == 59
    assert trace_digests(_as_made_by_version_18(make)) == 58
    assert trace_digests(_as_made_by_version_17(make)) == 69
    assert trace_digests(_as_made_by_version_16(make)) == 101


@pytest.mark.parametrize("q, num_steps", [(ref.MODULUS, ref.SYSTEM.num_steps),
                                          (3001, MIXED_RADIX_SPEC.num_steps),
                                          (769, 255), (12289, 127)],
                         ids=["paper", "q3001", "trace-q769", "field-q12289"])
def test_leaf_is_the_one_rule_for_the_points_of_every_layer(q, num_steps):
    # every value from 0 to q at every FRI layer j: leaf(., j) maps D_j, D0's
    # points raised to 2^j and closed under negation, one to one onto 0 ..
    # |D_j| - 1, and any other value is a ValueError naming it and the
    # layer. Layer j's plan writes p(x) at leaf(x, j), and y and -y share a
    # pair leaf, on opposite sides. The paper's |H| = 30 is twice an odd
    # number, so G_1 = ±H² is H itself; q = 3001's |H| = 40 is mixed radix
    domains = protocol._domains(q, num_steps)
    poly = Polynomial(domains.field, range(1, num_steps + 5))  # longer than |H|
    if q == ref.MODULUS:
        assert [order for _, order in domains.layers] == [30] * 6
    for j in range(len(domains.layers)):
        points = set(_ascending_layer(domains, j))
        at = {}  # leaf -> point
        for value in range(q + 1):
            if value in points:
                at[domains.leaf(value, j)] = value
                continue
            with pytest.raises(ValueError) as exc:
                domains.leaf(value, j)
            assert str(exc.value) == f"point {value} is not in D{j}, the domain of FRI layer {j}"
        assert sorted(at) == list(range(len(points))) == list(range(domains.size(j)))
        table = domains.evaluator(j).evaluate([poly])[0]
        assert table == [poly.evaluate(at[leaf]) for leaf in range(len(table))]
        pairs = [(domains.pair_leaf(j, y), domains.pair_leaf(j, q - y)) for y in points]
        assert all(leaf == other and side != other_side
                   for (leaf, side), (other, other_side) in pairs)
        assert sorted(leaf for (leaf, side), _ in pairs if side == 0) == list(range(len(at) // 2))


def test_too_few_gammas_is_the_callers_fault(field, paper_spec, paper_proof):
    # the spec fixes 4n gammas, whatever the proof holds: a replay list one
    # short is the caller's, a TranscriptError, not a malformed proof
    short = ReplayTranscript(ref.MODULUS, gammas=ref.GAMMAS[:4 * paper_spec.n - 1],
                             betas=ref.BETAS, sample_points=ref.SAMPLE_POINTS)
    with pytest.raises(TranscriptError, match="exhausted for kind 'gamma'"):
        verify(field, paper_spec, paper_proof, short)
    assert verify(field, paper_spec, paper_proof, paper_transcript()).accepted


def test_a_trace_row_with_an_index_is_refused(paper_proof):
    # a trace row is its values and path: with version 10's index put back,
    # first, even the leaf verify computes for the row, it is a list of
    # three values where a row has two
    doc = _as_version_14(proof_to_json(paper_proof))
    indexed = _as_version_10(doc)
    assert doc == _as_version_14(proof_to_json(paper_proof))  # each edit puts back one index
    for k, qd in enumerate(indexed["queries"]):
        for r, row in enumerate(qd["trace"]):
            edited = json.loads(json.dumps(doc))
            edited["queries"][k]["trace"][r] = row
            edited = {**positional(edited), "version": PROOF_VERSION}
            assert edited["queries"][k]["trace"][r][0] == row["index"]
            message = "^expected a list of 2 values, got 3$"
            with pytest.raises(ProofFormatError, match=message):
                proof_from_json(edited)
            with pytest.raises(ProofFormatError, match=message):
                load_proof(json.dumps(edited, separators=(",", ":")))


def test_an_affine_term_is_an_extra_coordinate_held_at_1():
    # z' = Proj(A_hat·z + b) needs no code: coordinate c = n, with box [1, 2]
    # (SystemSpec needs z_lower < z_upper), z_init 1 and A_hat row e_c, stays
    # 1, and b in A_hat's column c adds b to every step. The paper system
    # with b = (5, -7): the first n coordinates are clamp(A_hat·z + b) at
    # every step, and a Fiat-Shamir proof of it verifies
    base, b = ref.SYSTEM, (5, -7)
    n = base.n
    spec = SystemSpec(
        a_hat=(*(row + (bi,) for row, bi in zip(base.a_hat, b)), (0,) * n + (1,)),
        z_upper=base.z_upper + (2,), z_lower=base.z_lower + (1,), z_init=base.z_init + (1,),
        num_steps=base.num_steps)
    trace = simulate(spec)
    z = base.z_init
    for row in trace.z_rows[1:]:
        affine = [sum(a * v for a, v in zip(r, z)) + bi for r, bi in zip(base.a_hat, b)]
        z = tuple(min(max(v, lo), hi) for v, lo, hi in zip(affine, base.z_lower, base.z_upper))
        assert row == z + (1,)
    assert len(set(trace.z_rows)) > 2  # the state moves
    field, salt = PrimeField(ref.MODULUS), b"affine"
    proof = prove(field, spec, trace, FiatShamirTranscript(ref.MODULUS, salt=salt),
                  num_queries=8, salt=salt)
    assert verify(field, spec, load_proof(dump_proof(proof)), num_queries=8).accepted


# --- randomized end-to-end trials -------------------------------------------


def test_random_specs_prove_and_verify_both_modes():
    rng = random.Random(79)
    for _ in range(10):
        q = rng.choice((61, 211))
        field = PrimeField(q)
        spec = random_spec(rng, q)
        trace = simulate(spec)

        ch = random_challenges(rng, q, spec, num_queries=3)
        replay = ReplayTranscript(q, **ch)
        proof_r = prove(field, spec, trace, replay, num_queries=3)
        assert verify(field, spec, proof_r, ReplayTranscript(q, **ch)).accepted

        fs = FiatShamirTranscript(q, salt=b"trial")
        proof_f = prove(field, spec, trace, fs, num_queries=3, salt=b"trial")
        assert verify(field, spec, proof_f).accepted
        assert load_proof(dump_proof(proof_f)) == proof_f
