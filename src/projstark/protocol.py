"""End-to-end orchestration: online stage, proof generation, and verification.

The proof commits the trace as one Merkle tree whose leaf at a point x is the
row of every column interpolant and boundary quotient at x, and commits the
combined composition polynomial and each FRI folding layer as a tree of its
own.  Verification checks commitment openings, the boundary-quotient identity,
recomputation of the composition values from the opened trace rows, and the
FRI folding chain, attributing any failure to the earliest failing stage.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .air import (
    FAMILIES,
    InvalidTraceError,
    build_compositions,
    build_numerators,
    build_trace_polys,
    combine,
    constraints,
    degree_bound,
    lift_trace,
)
from .channel import (
    FiatShamirTranscript,
    MerkleCommitment,
    MerkleTree,
    TranscriptError,
    verify_opening,
)
from .dynamics import ExecutionTrace, StepRecord, StepSource, SystemSpec, online_check
from .field import CyclicDomain, PrimeField, build_domain
from .fri import DegreeTestFailedError, fold, fold_value, num_rounds
from .poly import CosetEvaluator, Polynomial, divide_exact

MAX_FRI_LAYERS = 64
MAX_QUERIES = 1024
PROOF_VERSION = 2


class ProofFormatError(ValueError):
    """Malformed proof: structural problem, distinct from a verification reject."""


class OnlineStageError(RuntimeError):
    """A step source kept failing the online checks past the retry bound."""


@dataclass(frozen=True)
class Opening:
    index: int
    value: int
    path: Tuple[bytes, ...]


@dataclass(frozen=True)
class RowOpening:
    """The trace row at one point: the values of f_z, f_alpha_up, f_alpha_lo,
    f_delta and the boundary quotients, in that order, n values each."""

    index: int
    values: Tuple[int, ...]
    path: Tuple[bytes, ...]


@dataclass(frozen=True)
class ProofQuery:
    x: int
    trace: Tuple[RowOpening, RowOpening]  # trace rows at x and at g*x
    fri: Tuple[Tuple[Opening, Opening], ...]  # per layer j: at x^(2^j) and its negation


@dataclass(frozen=True)
class Proof:
    modulus: int
    num_steps: int
    generator: int
    salt: bytes
    degree_bound: int
    trace_comm: MerkleCommitment
    composition_comm: MerkleCommitment
    fri_comms: Tuple[MerkleCommitment, ...]  # layers 1..rounds-1
    fri_final: int
    queries: Tuple[ProofQuery, ...]
    version: int = PROOF_VERSION


@dataclass(frozen=True)
class VerificationReport:
    verdict: str  # "accept" | "reject"
    stage: Optional[str] = None  # online|boundary|consistency|fri_commit|fri_query|commitment
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"


def _accept() -> VerificationReport:
    return VerificationReport(verdict="accept")


def _reject(stage: str, detail: str) -> VerificationReport:
    return VerificationReport(verdict="reject", stage=stage, detail=detail)


def hash_spec(field: PrimeField, spec: SystemSpec) -> bytes:
    """Binding digest of the public inputs."""
    h = hashlib.sha256()
    h.update(field.modulus.to_bytes(8, "little"))
    h.update(spec.num_steps.to_bytes(8, "little"))
    h.update(spec.n.to_bytes(8, "little"))
    for row in spec.a_hat:
        for v in row:
            h.update(v.to_bytes(8, "little", signed=True))
    for vec in (spec.z_upper, spec.z_lower, spec.z_init):
        for v in vec:
            h.update(v.to_bytes(8, "little", signed=True))
    return h.digest()


def base_eval_domain(field: PrimeField, domain: CyclicDomain) -> List[int]:
    """F_q* minus the trace subgroup, ascending; negation-closed for even order."""
    excluded = {e.value for e in domain.elements}
    return [x for x in range(1, field.modulus) if x not in excluded]


def layer_eval_domains(field: PrimeField, d0: Sequence[int], count: int) -> List[List[int]]:
    """Evaluation domains for FRI layers 0..count-1.

    Each next domain is the squared previous one closed under negation, so the
    pair (y, -y) needed by the folding identity is always committable.
    """
    q = field.modulus
    doms = [list(d0)]
    for _ in range(count - 1):
        squares = {x * x % q for x in doms[-1]}
        doms.append(sorted(squares | {(q - s) % q for s in squares}))
    return doms


class _Committed:
    """Evaluation tables of polynomials on one domain, one Merkle leaf per point."""

    def __init__(self, polys: Sequence[Polynomial], evaluator: CosetEvaluator):
        self.rows = list(zip(*evaluator.evaluate(polys)))
        self.tree = MerkleTree(self.rows)
        self.index = evaluator.index

    def open_row(self, point: int) -> RowOpening:
        i = self.index[point]
        return RowOpening(index=i, values=self.rows[i], path=tuple(self.tree.open(i)))

    def open_at(self, point: int) -> Opening:
        """Opening of a one-polynomial commitment."""
        row = self.open_row(point)
        return Opening(index=row.index, value=row.values[0], path=row.path)


def run_online_stage(
    spec: SystemSpec,
    step_source: StepSource,
    verifier_log: Optional[list] = None,
    *,
    max_retries: int = 3,
) -> ExecutionTrace:
    """Request steps one by one, re-requesting rejected ones up to the retry bound."""
    z_rows: List[Tuple[int, ...]] = [spec.z_init]
    up_rows, lo_rows, d_rows = [], [], []
    for k in range(spec.num_steps):
        accepted = None
        for attempt in range(max_retries + 1):
            rec = step_source(k, z_rows[-1], attempt)
            reason = online_check(spec, rec)
            if verifier_log is not None:
                verifier_log.append(
                    {"step": k, "attempt": attempt,
                     "verdict": "accept" if reason is None else "reject",
                     "reason": reason}
                )
            if reason is None:
                accepted = rec
                break
        if accepted is None:
            raise OnlineStageError(f"step {k} rejected {max_retries + 1} times")
        z_rows.append(accepted.z_next)
        up_rows.append(accepted.alpha_up)
        lo_rows.append(accepted.alpha_lo)
        d_rows.append(accepted.delta)
    return ExecutionTrace(
        spec=spec,
        z_rows=tuple(z_rows),
        alpha_up_rows=tuple(up_rows),
        alpha_lo_rows=tuple(lo_rows),
        delta_rows=tuple(d_rows),
    )


def honest_step_source(spec: SystemSpec) -> StepSource:
    from .dynamics import step_slack

    def source(k: int, z: Tuple[int, ...], attempt: int) -> StepRecord:
        return step_slack(spec, z)

    return source


def prove(
    field: PrimeField,
    spec: SystemSpec,
    trace: ExecutionTrace,
    transcript,
    *,
    num_queries: int = 8,
    force: bool = False,
    salt: bytes = b"",
) -> Proof:
    """Build a proof for the trace.

    The honest path refuses traces that fail the online checks, the boundary
    condition or a step constraint on the lifted rows.  With force=True the
    trace is committed as-is (floor quotients), the dishonest path used to
    exercise the verifier's consistency stage.  Either way Q is the floor
    quotient of the weighted sum of the constraint numerators: one division.
    """
    N = spec.num_steps
    n = spec.n
    q = field.modulus
    if (N + 1) % 2:
        raise ValueError("num_steps + 1 must be even so the evaluation domain is symmetric")
    if not 1 <= num_queries <= MAX_QUERIES:
        raise ValueError(f"num_queries must be in [1, {MAX_QUERIES}]")
    domain = build_domain(field, N + 1)

    if not force:
        for k in range(N):
            reason = online_check(spec, trace.step(k))
            if reason is not None:
                raise InvalidTraceError(f"online check failed at step {k}: {reason}")

    trace = lift_trace(trace, field)
    tp = build_trace_polys(trace, domain)

    x_minus_one = Polynomial(field, (-1, 1))
    boundary_polys = []
    for i in range(n):
        quot, exact = divide_exact(tp.f_z[i] - spec.z_init[i], x_minus_one)
        if not exact and not force:
            raise InvalidTraceError(f"boundary condition violated for coordinate {i}")
        boundary_polys.append(quot)

    if not force:
        # numerator k at g^j is constraint k on rows j and j+1, so it is
        # divisible by Z_N exactly when constraint k holds at every step
        steps = zip(trace.z_rows, trace.z_rows[1:], trace.alpha_up_rows,
                    trace.alpha_lo_rows, trace.delta_rows)
        for j, rows in enumerate(steps):
            for k, value in enumerate(constraints(spec, *rows)):
                if value % q:
                    raise InvalidTraceError(
                        f"constraint {FAMILIES[k // n]}[{k % n}] fails at step {j}")

    transcript.absorb("spec", hash_spec(field, spec))

    g = domain.generator.value
    d0 = base_eval_domain(field, domain)
    ev0 = CosetEvaluator(field, d0, g, N + 1)
    trace_cm = _Committed(
        (*tp.f_z, *tp.f_alpha_up, *tp.f_alpha_lo, *tp.f_delta, *boundary_polys), ev0
    )
    transcript.absorb("trace", trace_cm.tree.root)

    gammas = [transcript.draw("gamma") for _ in range(4 * n)]

    numerators = build_numerators(tp, spec, domain)
    [quotient] = build_compositions([combine(numerators, gammas)], domain, allow_remainder=force)

    if transcript.mode == "replay":
        bound = degree_bound(tp, quotient, N)
    else:
        bound = max(2 * N - 2, 0)
    rounds = num_rounds(bound)

    composition = _Committed([quotient], ev0)
    del ev0  # the FRI layers do not need its table of coset powers
    transcript.absorb("composition", composition.tree.root)
    transcript.absorb("degree_bound", bound.to_bytes(8, "little"))

    domains = layer_eval_domains(field, d0, rounds)
    layer_committed = [composition]
    layer_polys = [quotient]
    betas: List[int] = []
    fri_final = 0
    for j in range(rounds):
        beta = transcript.draw("beta")
        betas.append(beta)
        nxt = fold(layer_polys[-1], beta)
        layer_polys.append(nxt)
        if j < rounds - 1:
            # layer j+1 is a union of cosets of H^(2^(j+1))
            e = 2 ** (j + 1)
            cm = _Committed(
                [nxt], CosetEvaluator(field, domains[j + 1], pow(g, e, q), (N + 1) // gcd(N + 1, e))
            )
            layer_committed.append(cm)
            transcript.absorb(f"fri[{j + 1}]", cm.tree.root)
        else:
            if nxt.reported_degree > 0:
                raise DegreeTestFailedError(
                    f"final FRI layer has degree {nxt.reported_degree} for bound {bound}"
                )
            fri_final = nxt.coeffs[0] if nxt.coeffs else 0
            transcript.absorb("fri_final", fri_final.to_bytes(8, "little"))

    excluded = {e.value for e in domain.elements} | {0}
    queries = []
    for _ in range(num_queries):
        x = transcript.draw("sample_point", exclusions=excluded)
        fri_pairs = []
        y = x
        for j in range(rounds):
            cm = layer_committed[j]
            fri_pairs.append((cm.open_at(y), cm.open_at((q - y) % q)))
            y = y * y % q
        queries.append(
            ProofQuery(
                x=x,
                trace=(trace_cm.open_row(x), trace_cm.open_row(g * x % q)),
                fri=tuple(fri_pairs),
            )
        )

    return Proof(
        modulus=q,
        num_steps=N,
        generator=g,
        salt=salt,
        degree_bound=bound,
        trace_comm=trace_cm.tree.commitment,
        composition_comm=composition.tree.commitment,
        fri_comms=tuple(cm.tree.commitment for cm in layer_committed[1:]),
        fri_final=fri_final,
        queries=tuple(queries),
    )


def _structural_validate(proof: Proof, field: PrimeField, spec: SystemSpec) -> int:
    """Raise ProofFormatError on malformed proofs; return the FRI round count."""
    q = field.modulus
    n = spec.n
    if proof.version != PROOF_VERSION:
        raise ProofFormatError(f"unsupported proof version {proof.version}")
    if len(proof.fri_comms) + 2 > MAX_FRI_LAYERS:
        raise ProofFormatError("too many FRI layers")
    if not 1 <= len(proof.queries) <= MAX_QUERIES:
        raise ProofFormatError("query count out of range")
    if proof.degree_bound < 0:
        raise ProofFormatError("negative degree bound")
    if not 0 <= proof.fri_final < q:
        raise ProofFormatError("final FRI value out of range")
    rounds = num_rounds(proof.degree_bound)
    if len(proof.fri_comms) != rounds - 1:
        raise ProofFormatError(
            f"expected {rounds - 1} intermediate FRI commitments, got {len(proof.fri_comms)}"
        )
    for query in proof.queries:
        if not 0 < query.x < q:
            raise ProofFormatError("query point out of range")
        if len(query.trace) != 2 or any(len(row.values) != 5 * n for row in query.trace):
            raise ProofFormatError(f"each query needs two trace rows of {5 * n} values")
        if len(query.fri) != rounds:
            raise ProofFormatError(f"expected {rounds} FRI opening pairs per query")
        values = [v for row in query.trace for v in row.values]
        values += [o.value for pair in query.fri for o in pair]
        if not all(0 <= v < q for v in values):
            raise ProofFormatError("opened value out of range")
    return rounds


def verify(
    field: PrimeField, spec: SystemSpec, proof: Proof, transcript=None
) -> VerificationReport:
    """Check a proof against the public inputs.

    The challenges come from the caller's transcript, as in `prove`: a
    ReplayTranscript of the caller's challenge lists, or None for a
    Fiat-Shamir transcript salted with the proof's salt; a proof carries no
    challenges.

    Checks, in order, with the stage a failure is reported at: the public
    inputs (commitment), the declared degree bound, at most 2N-2 and equal to
    it under Fiat-Shamir (fri_commit), openings and challenge agreement
    (commitment), the initialization quotient identity (boundary), the
    composition values recomputed from the opened trace rows (consistency),
    and the folding chain (fri_query).
    """
    rounds = _structural_validate(proof, field, spec)
    q = field.modulus
    N = spec.num_steps
    n = spec.n

    if proof.modulus != q or proof.num_steps != N:
        return _reject("commitment", "public inputs do not match the proof")
    if (N + 1) % 2:
        return _reject("commitment", "trace subgroup order must be even")
    domain = build_domain(field, N + 1)
    g = domain.generator.value
    if proof.generator != g:
        return _reject("commitment", f"generator mismatch: {proof.generator} != {g}")

    if transcript is None:
        transcript = FiatShamirTranscript(q, salt=proof.salt)
    replay = transcript.mode == "replay"
    worst = max(2 * N - 2, 0)
    if proof.degree_bound > worst or (not replay and proof.degree_bound != worst):
        return _reject("fri_commit", f"degree bound {proof.degree_bound}: worst case is {worst}")

    transcript.absorb("spec", hash_spec(field, spec))
    transcript.absorb("trace", proof.trace_comm.root)

    excluded = {e.value for e in domain.elements} | {0}
    try:
        gammas = [transcript.draw("gamma") for _ in range(4 * n)]
        transcript.absorb("composition", proof.composition_comm.root)
        transcript.absorb("degree_bound", proof.degree_bound.to_bytes(8, "little"))
        betas = []
        for j in range(rounds):
            betas.append(transcript.draw("beta"))
            if j < rounds - 1:
                transcript.absorb(f"fri[{j + 1}]", proof.fri_comms[j].root)
            else:
                transcript.absorb("fri_final", proof.fri_final.to_bytes(8, "little"))
        expected_xs = [
            transcript.draw("sample_point", exclusions=excluded) for _ in proof.queries
        ]
    except TranscriptError as exc:
        raise ProofFormatError(f"transcript cannot supply the challenges: {exc}") from exc

    d0 = base_eval_domain(field, domain)
    domains = layer_eval_domains(field, d0, rounds)
    index_maps = [{x: i for i, x in enumerate(dm)} for dm in domains]

    # --- stage: commitment ---------------------------------------------------
    def check_opening(cm: MerkleCommitment, opening, leaf: Sequence[int], point: int,
                      layer: int = 0) -> bool:
        if opening.index != index_maps[layer].get(point):
            return False
        try:
            return verify_opening(cm, opening.index, leaf, opening.path)
        except IndexError:
            return False

    for k, (query, expected_x) in enumerate(zip(proof.queries, expected_xs)):
        x = query.x
        if x != expected_x:
            return _reject("commitment", f"query {k}: point {x} does not match challenge")
        for row, point, where in zip(query.trace, (x, g * x % q), ("x", "g*x")):
            if not check_opening(proof.trace_comm, row, row.values, point):
                return _reject("commitment", f"query {k}: bad trace row opening at {where}")
        y = x
        for j in range(rounds):
            cm = proof.composition_comm if j == 0 else proof.fri_comms[j - 1]
            for o, point, where in zip(query.fri[j], (y, (q - y) % q), ("y", "-y")):
                if not check_opening(cm, o, (o.value,), point, layer=j):
                    return _reject("commitment", f"query {k}: bad FRI layer {j} opening at {where}")
            y = y * y % q

    # --- stage: boundary -----------------------------------------------------
    for k, query in enumerate(proof.queries):
        x = query.x
        row = query.trace[0].values
        for i in range(n):
            lhs = (row[i] - spec.z_init[i]) % q
            rhs = row[4 * n + i] * (x - 1) % q
            if lhs != rhs:
                return _reject("boundary", f"query {k}: boundary identity fails for coordinate {i}")

    # --- stage: consistency --------------------------------------------------
    g_pow_n = pow(g, N, q)
    for k, query in enumerate(proof.queries):
        x = query.x
        z_of_x = (pow(x, N + 1, q) - 1) * pow((x - g_pow_n) % q, q - 2, q) % q
        inv_z = pow(z_of_x, q - 2, q)
        row = query.trace[0].values
        z, up, lo, delta = (row[i * n:(i + 1) * n] for i in range(4))
        numerators = constraints(spec, z, query.trace[1].values[:n], up, lo, delta)
        recombined = sum(gm * nm for gm, nm in zip(gammas, numerators)) % q * inv_z % q
        if recombined != query.fri[0][0].value:
            return _reject("consistency", f"query {k}: composition value mismatch at x={x}")

    # --- stage: fri_query ----------------------------------------------------
    for k, query in enumerate(proof.queries):
        y = query.x
        for j in range(rounds):
            pos, neg = query.fri[j]
            computed = fold_value(field, pos.value, neg.value, y, betas[j])
            y = y * y % q
            expected = query.fri[j + 1][0].value if j + 1 < rounds else proof.fri_final
            if computed != expected:
                return _reject("fri_query", f"query {k}: folding identity fails at layer {j}")

    return _accept()


# --- serialization ----------------------------------------------------------


def _opening_to_json(o: Opening) -> dict:
    return {"index": o.index, "value": str(o.value), "path": [p.hex() for p in o.path]}


def _row_to_json(o: RowOpening) -> dict:
    return {"index": o.index, "values": [str(v) for v in o.values],
            "path": [p.hex() for p in o.path]}


def _comm_to_json(c: MerkleCommitment) -> dict:
    return {"root": c.root.hex(), "leaves": c.leaf_count}


def proof_to_json(proof: Proof) -> dict:
    return {
        "version": proof.version,
        "publics": {
            "q": str(proof.modulus),
            "N": str(proof.num_steps),
            "g": str(proof.generator),
            "salt": proof.salt.hex(),
            "degree_bound": str(proof.degree_bound),
        },
        "commitments": {
            "trace": _comm_to_json(proof.trace_comm),
            "composition": _comm_to_json(proof.composition_comm),
        },
        "fri_layers": {
            "roots": [_comm_to_json(c) for c in proof.fri_comms],
            "final": str(proof.fri_final),
        },
        "queries": [
            {
                "x": str(qr.x),
                "trace": {"at_x": _row_to_json(qr.trace[0]), "at_gx": _row_to_json(qr.trace[1])},
                "fri": [
                    {"pos": _opening_to_json(a), "neg": _opening_to_json(b)}
                    for a, b in qr.fri
                ],
            }
            for qr in proof.queries
        ],
    }


def _want(doc: dict, key: str, kind):
    if not isinstance(doc, dict) or key not in doc:
        raise ProofFormatError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ProofFormatError(f"field {key!r} has the wrong type")
    return value


def _int_str(value) -> int:
    if not isinstance(value, str):
        raise ProofFormatError("integer fields must be base-10 strings")
    try:
        return int(value, 10)
    except ValueError as exc:
        raise ProofFormatError(f"bad integer literal {value!r}") from exc


def _hex_bytes(value) -> bytes:
    if not isinstance(value, str):
        raise ProofFormatError("digest fields must be hex strings")
    try:
        return bytes.fromhex(value)
    except ValueError as exc:
        raise ProofFormatError(f"bad hex literal {value!r}") from exc


def _opening_from_json(doc: dict) -> Opening:
    index = _want(doc, "index", int)
    value = _int_str(_want(doc, "value", str))
    path = tuple(_hex_bytes(p) for p in _want(doc, "path", list))
    return Opening(index=index, value=value, path=path)


def _row_from_json(doc: dict) -> RowOpening:
    index = _want(doc, "index", int)
    values = tuple(_int_str(v) for v in _want(doc, "values", list))
    path = tuple(_hex_bytes(p) for p in _want(doc, "path", list))
    return RowOpening(index=index, values=values, path=path)


def _comm_from_json(doc: dict) -> MerkleCommitment:
    root = _hex_bytes(_want(doc, "root", str))
    if len(root) != 32:
        raise ProofFormatError("commitment root must be 32 bytes")
    return MerkleCommitment(root=root, leaf_count=_want(doc, "leaves", int))


def proof_from_json(doc: dict) -> Proof:
    version = _want(doc, "version", int)
    publics = _want(doc, "publics", dict)
    commitments = _want(doc, "commitments", dict)
    fri_layers = _want(doc, "fri_layers", dict)
    queries_doc = _want(doc, "queries", list)

    queries = []
    for qd in queries_doc:
        trace = _want(qd, "trace", dict)
        queries.append(
            ProofQuery(
                x=_int_str(_want(qd, "x", str)),
                trace=(_row_from_json(_want(trace, "at_x", dict)),
                       _row_from_json(_want(trace, "at_gx", dict))),
                fri=tuple(
                    (_opening_from_json(_want(p, "pos", dict)),
                     _opening_from_json(_want(p, "neg", dict)))
                    for p in _want(qd, "fri", list)
                ),
            )
        )

    return Proof(
        version=version,
        modulus=_int_str(_want(publics, "q", str)),
        num_steps=_int_str(_want(publics, "N", str)),
        generator=_int_str(_want(publics, "g", str)),
        salt=_hex_bytes(_want(publics, "salt", str)),
        degree_bound=_int_str(_want(publics, "degree_bound", str)),
        trace_comm=_comm_from_json(_want(commitments, "trace", dict)),
        composition_comm=_comm_from_json(_want(commitments, "composition", dict)),
        fri_comms=tuple(_comm_from_json(c) for c in _want(fri_layers, "roots", list)),
        fri_final=_int_str(_want(fri_layers, "final", str)),
        queries=tuple(queries),
    )


def dump_proof(proof: Proof) -> str:
    return json.dumps(proof_to_json(proof), indent=2)


def load_proof(text: str) -> Proof:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal over 4300 digits
        raise ProofFormatError(f"proof file is not valid JSON: {exc}") from exc
    return proof_from_json(doc)
