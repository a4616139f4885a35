import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_challenges, random_spec
from projstark import reference_example as ref
from projstark.air import (
    InvalidTraceError,
    build_compositions,
    build_numerators,
    build_trace_polys,
    combine,
)
from projstark.channel import FiatShamirTranscript, ReplayTranscript
from projstark.cli import EXIT_OK, main
from projstark.dynamics import StepRecord, SystemSpec, simulate, step_slack
from projstark.field import PrimeField, build_domain
from projstark.fri import num_rounds
from projstark.poly import Polynomial, vanishing
from projstark.protocol import (
    OnlineStageError,
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
        run_online_stage(paper_spec, hostile, max_retries=2)


@pytest.mark.parametrize("record", [
    StepRecord((50,), (1,), (1,), (100,)),
    StepRecord((), (), (), ()),
    StepRecord((3, 97), (1, 1), (1, 1), (100, 60, 0)),
], ids=["narrow", "empty", "wide-delta"])
def test_online_stage_refuses_records_of_the_wrong_width(paper_spec, record):
    log = []
    with pytest.raises(OnlineStageError):
        run_online_stage(paper_spec, lambda k, z, attempt: record, log, max_retries=1)
    assert [e["reason"].split(":")[0] for e in log] == ["wrong-width"] * 2


# --- proving and verifying --------------------------------------------------


def test_paper_replay_proof_accepts(field, paper_spec, paper_proof):
    report = verify(field, paper_spec, paper_proof, paper_transcript())
    assert report.accepted
    assert report.verdict == "accept"
    assert paper_proof.degree_bound == ref.COMBINED_DEGREE_BOUND
    assert paper_proof.fri_final == ref.FINAL_CONSTANT
    assert [q.x for q in paper_proof.queries] == list(ref.SAMPLE_POINTS)


def test_paper_fiat_shamir_proof_accepts(field, paper_spec, paper_fs_proof):
    assert paper_fs_proof.degree_bound == 2 * paper_spec.num_steps - 2
    assert verify(field, paper_spec, paper_fs_proof).accepted


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
    tampered = paper_trace.with_cell("alpha_lo", 4, 1, 2)
    with pytest.raises(InvalidTraceError):
        prove(field, paper_spec, tampered, paper_transcript())


def test_prove_refuses_online_failure(field, paper_spec, paper_trace):
    bad = paper_trace.with_cell("delta", 4, 1, 59)
    with pytest.raises(InvalidTraceError, match="online"):
        prove(field, paper_spec, bad, paper_transcript())


def test_prove_names_the_failing_constraint_and_step(field, paper_spec, paper_trace):
    # a bit of 2 passes the online checks; the step check catches it
    tampered = paper_trace.with_cell("alpha_up", 7, 1, 2)
    with pytest.raises(InvalidTraceError, match=r"constraint transition\[1\] fails at step 7$"):
        prove(field, paper_spec, tampered, paper_transcript())


def _step_check_cases():
    """Seeded (field, spec, trace) triples: honest traces, and traces with one
    cell changed so that the online checks and the boundary condition still
    hold, one of them at the last step."""
    rng = random.Random(89)
    cases = []
    for _ in range(12):
        q = rng.choice((61, 211, 331))
        spec = random_spec(rng, q)
        trace = simulate(spec)
        N = spec.num_steps
        cases.append((PrimeField(q), spec, trace))
        for step in (rng.randrange(N), N - 1):
            section = rng.choice(("z", "alpha_up", "alpha_lo", "delta"))
            i = rng.randrange(spec.n)
            if section == "z":  # the next state of the step, kept inside the box
                row, old = step + 1, trace.z_rows[step + 1][i]
                value = rng.choice([v for v in range(spec.z_lower[i], spec.z_upper[i] + 1)
                                    if v != old])
            else:
                row, old = step, getattr(trace, section + "_rows")[step][i]
                if section == "delta":  # a larger slack passes the online check
                    value = old + rng.randint(1, 5)
                else:  # the online stage does not look at the bits
                    value = rng.choice([v for v in range(q) if v != old])
            cases.append((PrimeField(q), spec, trace.with_cell(section, row, i, value)))
    return cases


STEP_CHECK_CASES = _step_check_cases()


def test_prover_divides_once_for_the_weighted_sum_of_floor_quotients():
    rng = random.Random(97)
    for field, spec, trace in STEP_CHECK_CASES:
        q, N = field.modulus, spec.num_steps
        domain = build_domain(field, N + 1)
        zv = vanishing([e.value for e in domain.elements[:N]], field)
        nums = build_numerators(build_trace_polys(trace, domain), spec, domain)
        gammas = [rng.randrange(1, q) for _ in nums]
        expected = Polynomial.zero(field)
        for gamma, num in zip(gammas, nums, strict=True):
            expected = expected + divmod(num, zv)[0].scale(gamma)
        [quotient] = build_compositions([combine(nums, gammas)], domain, allow_remainder=True)
        assert quotient == expected, (q, spec)
        # and the committed Q opens to that sum at every sample point
        ch = random_challenges(rng, q, spec, num_queries=3)
        ch["gammas"] = gammas
        proof = prove(field, spec, trace, ReplayTranscript(q, **ch), num_queries=3, force=True)
        for query in proof.queries:
            assert query.fri[0][0].value == expected(query.x).value, (q, spec, query.x)


def test_step_check_refuses_exactly_when_a_numerator_leaves_a_remainder():
    outcomes = []
    for field, spec, trace in STEP_CHECK_CASES:
        q, N = field.modulus, spec.num_steps
        domain = build_domain(field, N + 1)
        zv = vanishing([e.value for e in domain.elements[:N]], field)
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
    tampered = paper_trace.with_cell("z", 9, 1, 55)
    transcript = FiatShamirTranscript(ref.MODULUS)
    proof = prove(field, paper_spec, tampered, transcript, num_queries=8, force=True)
    report = verify(field, paper_spec, proof)
    assert not report.accepted
    assert report.stage in ("boundary", "consistency", "fri_query")


def test_forced_boundary_tamper_hits_boundary_stage(field, paper_spec, paper_trace):
    forged = paper_trace.with_cell("z", 0, 1, 99)
    transcript = FiatShamirTranscript(ref.MODULUS)
    proof = prove(field, paper_spec, forged, transcript, num_queries=4, force=True)
    report = verify(field, paper_spec, proof)
    assert not report.accepted
    assert report.stage == "boundary"


def test_verify_rejects_wrong_public_inputs(field, paper_spec, paper_proof):
    other = paper_spec.__class__(
        a_hat=paper_spec.a_hat, z_upper=paper_spec.z_upper, z_lower=paper_spec.z_lower,
        z_init=(3, 99), num_steps=paper_spec.num_steps,
    )
    report = verify(field, other, paper_proof, paper_transcript())
    assert not report.accepted
    assert report.stage == "boundary"  # replay challenges ignore the spec digest


def test_verify_rejects_wrong_modulus(paper_spec, paper_proof):
    report = verify(PrimeField(661), paper_spec, paper_proof, paper_transcript())
    assert not report.accepted
    assert report.stage == "commitment"


def test_verify_rejects_tampered_final(field, paper_spec, paper_proof):
    forged = paper_proof.__class__(
        **{**paper_proof.__dict__, "fri_final": (paper_proof.fri_final + 1) % 331}
    )
    report = verify(field, paper_spec, forged, paper_transcript())
    assert not report.accepted
    assert report.stage == "fri_query"


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
    broken = paper_trace.with_cell("alpha_up", 3, 0, 0)
    with pytest.raises(InvalidTraceError):
        prove(field, paper_spec, broken, forged_transcript(), num_queries=2)
    return prove(field, paper_spec, broken, forged_transcript(), num_queries=2, force=True)


def test_forged_proof_passes_only_its_own_challenges(field, paper_spec, forged_proof):
    assert verify(field, paper_spec, forged_proof, forged_transcript()).accepted


def test_verifier_challenges_reject_forged_proof(field, paper_spec, forged_proof):
    report = verify(field, paper_spec, forged_proof)
    assert (report.verdict, report.stage) == ("reject", "fri_commit")
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

PROOF_KEYS = {"version", "publics", "commitments", "fri_layers", "queries"}


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


def test_proof_json_integers_are_strings(paper_proof):
    doc = proof_to_json(paper_proof)
    assert isinstance(doc["publics"]["q"], str)
    assert isinstance(doc["queries"][0]["x"], str)
    assert isinstance(doc["fri_layers"]["final"], str)


def test_load_proof_rejects_garbage():
    with pytest.raises(ProofFormatError):
        load_proof("not json at all {")
    with pytest.raises(ProofFormatError):
        load_proof('{"version": 1' + "0" * 5000 + "}")
    with pytest.raises(ProofFormatError):
        proof_from_json({"version": 1})


def test_load_proof_rejects_wrong_types(paper_proof):
    doc = proof_to_json(paper_proof)
    doc["publics"]["q"] = 331  # must be a base-10 string
    with pytest.raises(ProofFormatError):
        proof_from_json(doc)


def test_verify_flags_structural_damage(field, paper_spec, paper_proof):
    doc = json.loads(dump_proof(paper_proof))
    doc["queries"][0]["fri"] = doc["queries"][0]["fri"][:-1]
    damaged = proof_from_json(doc)
    with pytest.raises(ProofFormatError):
        verify(field, paper_spec, damaged, paper_transcript())


def test_verify_rejects_tampered_opening(field, paper_spec, paper_proof):
    doc = json.loads(dump_proof(paper_proof))
    values = doc["queries"][0]["trace"]["at_x"]["values"]
    values[7] = str((int(values[7]) + 1) % 331)  # f_delta[1]
    report = verify(field, paper_spec, proof_from_json(doc), paper_transcript())
    assert not report.accepted
    assert report.stage == "commitment"


def test_verify_rejects_tampered_row_at_gx(field, paper_spec, paper_proof):
    doc = json.loads(dump_proof(paper_proof))
    values = doc["queries"][1]["trace"]["at_gx"]["values"]
    values[1] = str((int(values[1]) + 1) % 331)  # f_z[1](g*x), the next state
    report = verify(field, paper_spec, proof_from_json(doc), paper_transcript())
    assert not report.accepted
    assert report.stage == "commitment"


@settings(max_examples=100, deadline=None)
@given(data=st.data(), replay=st.booleans(), side=st.sampled_from(["at_x", "at_gx"]),
       shift=st.integers(1, ref.MODULUS - 1))
def test_verify_rejects_any_tampered_trace_row_value(
    field, paper_spec, paper_proof, paper_fs_proof, data, replay, side, shift
):
    doc = json.loads(dump_proof(paper_proof if replay else paper_fs_proof))
    query = data.draw(st.sampled_from(doc["queries"]), label="query")
    values = query["trace"][side]["values"]
    assert len(values) == 5 * paper_spec.n
    i = data.draw(st.integers(0, len(values) - 1), label="position")
    values[i] = str((int(values[i]) + shift) % ref.MODULUS)
    report = verify(field, paper_spec, proof_from_json(doc),
                    paper_transcript() if replay else None)
    assert not report.accepted
    assert report.stage == "commitment"


def test_proof_commits_the_trace_once(paper_spec, paper_proof):
    doc = proof_to_json(paper_proof)
    assert set(doc["commitments"]) == {"trace", "composition"}
    # one leaf per evaluation point, as for the composition polynomial
    assert doc["commitments"]["trace"]["leaves"] == doc["commitments"]["composition"]["leaves"]
    for qd in doc["queries"]:
        assert set(qd) == {"x", "trace", "fri"}
        assert set(qd["trace"]) == {"at_x", "at_gx"}
        assert all(len(row["values"]) == 5 * paper_spec.n for row in qd["trace"].values())


def test_verify_rejects_wrong_row_width(field, paper_spec, paper_proof):
    for width in (5 * paper_spec.n - 1, 5 * paper_spec.n + 1):
        doc = json.loads(dump_proof(paper_proof))
        row = doc["queries"][0]["trace"]["at_gx"]
        row["values"] = (row["values"] + ["0"])[:width]
        with pytest.raises(ProofFormatError):
            verify(field, paper_spec, proof_from_json(doc), paper_transcript())


def test_verify_rejects_version_1_proof(field, paper_spec, paper_proof):
    doc = proof_to_json(paper_proof)
    doc["version"] = 1
    with pytest.raises(ProofFormatError):
        verify(field, paper_spec, proof_from_json(doc), paper_transcript())


def test_verify_caps_replay_degree_bound(field, paper_spec, paper_proof):
    # a replay proof declaring a bound above 2N-2, with the FRI roots, opening
    # pairs and betas that bound calls for, so only the bound itself is wrong
    doc = proof_to_json(paper_proof)
    bound = 2 * paper_spec.num_steps - 1
    extra = num_rounds(bound) - num_rounds(paper_proof.degree_bound)
    assert extra >= 1
    doc["publics"]["degree_bound"] = str(bound)
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
    doc["publics"]["degree_bound"] = "-1"
    with pytest.raises(ProofFormatError):
        verify(field, paper_spec, proof_from_json(doc), paper_transcript())


def _integer_fields(doc, where=()):
    """Paths to every integer of a dumped proof: JSON ints and base-10 strings."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if key in ("root", "salt", "path"):  # hex strings
            continue
        if isinstance(value, (int, str)):
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
    doc = proof_to_json(paper_proof if replay else paper_fs_proof)
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
    node[key] = value if isinstance(node[key], int) else str(value)
    try:
        report = verify(field, paper_spec, proof_from_json(doc),
                        paper_transcript() if replay else None)
    except ProofFormatError:
        return
    assert report.verdict in ("accept", "reject")


# --- byte identity ------------------------------------------------------------

# SHA-256 of dump_proof (proof version 2: one row-leaf trace tree) for fixed
# inputs; any change to the committed values, their order, the tree hashing or
# the transcript changes a digest.
PINNED_PROOF_DIGESTS = {
    "paper-replay": "aadeadb5942359ad7fbce415ee657d9850eaf91c5f6d9eb8f0375be7dc42c72c",
    "paper-fiat-shamir": "e04c892387adf3f70bb60dc9728197d60da22ead704cbd310fb50e5733760589",
    # q=3001, N+1=40=2^3*5: mixed-radix trace subgroup; FRI layers 1-6 are
    # unions of cosets of subgroups of order 20, 10 and 5
    "q3001-fiat-shamir": "89ac63d168c923a470bd141a777faf0b818b871f4f2fb1e2b6a6cb2336b11603",
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


def test_paper_proofs_are_byte_identical(field, paper_spec, paper_trace, paper_proof):
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
    assert len(proof.fri_comms) == 6
    assert _proof_digest(proof) == PINNED_PROOF_DIGESTS["q3001-fiat-shamir"]


def test_replay_paper_output_is_unchanged(capsys):
    assert main(["replay-paper"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPLAY_PAPER_DIGEST


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
