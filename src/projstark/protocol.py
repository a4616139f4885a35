"""End-to-end orchestration: online stage, proof generation, and verification.

The proof commits the trace as one Merkle tree whose leaf at a point x is the
row of every column interpolant at x, and commits F, the composition
polynomial plus the AIR's weighted boundary terms, and each FRI folding layer
as a tree of its own, whose leaf at a pair {y, -y} holds both values that one
fold combines. Verification checks commitment openings, recomputation of F's
values from the opened trace rows, and the FRI folding chain, attributing any
failure to the earliest failing stage.
"""

from __future__ import annotations

import binascii
import hashlib
import json
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import lru_cache
from itertools import chain
from typing import (Callable, Dict, List, NewType, Optional, Sequence, Tuple, Union, get_args,
                    get_origin, get_type_hints)

from .air import (
    DEGREE_2_AIR,
    FAMILIES,
    PAPER_AIR,
    Air,
    Column,
    InvalidTraceError,
    boundary_quotient,
    build_compositions,
    build_numerators,
    build_trace_polys,
    by_section,
    combine,
    constraint_count,
    constraints,
    degree_bound,
    lift_trace,
    trace_width,
)
from .channel import (
    FiatShamirTranscript,
    MerkleCommitment,
    MerkleTree,
    ReplayTranscript,
    TranscriptError,
    verify_opening,
)
from .dynamics import (ExecutionTrace, StepRecord, StepSource, SystemSpec, online_check,
                       step_slack)
from .field import CyclicDomain, PrimeField, build_domain
from .fri import fold, fold_value, num_rounds
from .poly import CosetEvaluator, Polynomial

MAX_QUERIES = 1024
MAX_RETRIES = 3  # times the online stage requests a rejected step again
PROOF_VERSION = 19
# cosets of H in the committed domain; Q's degree bound, N - 1 under
# Fiat-Shamir and at most 2N - 2 under replay, is below |H| and 2|H|, so its
# rate there is under 1/16 and 1/8
BLOWUP = 16
DOMAIN_CACHE_SIZE = 4  # (q, N) pairs whose domains and DFT plans are kept


class ProofFormatError(ValueError):
    """Malformed proof: structural problem, distinct from a verification reject."""


class OnlineStageError(RuntimeError):
    """A step source kept failing the online checks past the retry bound."""


def _check_path(path: bytes) -> None:
    if len(path) % 32:
        raise ValueError(f"a path is whole 32-byte digests, got {len(path)} bytes")


@dataclass(frozen=True)
class Opening:
    index: int
    value: int
    path: bytes  # the sibling digests sent, joined from the leaf upward

    def __post_init__(self):
        _check_path(self.path)


@dataclass(frozen=True)
class RowOpening:
    """The trace row at one point: each column interpolant's value, in commitment
    order; the verifier finds its leaf."""

    values: Tuple[int, ...]
    path: bytes

    def __post_init__(self):
        _check_path(self.path)


@dataclass(frozen=True)
class ProofQuery:
    """The openings at the sample point x, which the proof does not carry: the
    verifier draws x and locates each leaf. Each f_j(-y) is in y's leaf too."""

    trace: Tuple[RowOpening, RowOpening]  # trace rows at x and at g*x
    fri: Tuple[Tuple[Opening, int], ...]  # per layer j: at y = x^(2^j), and f_j(-y)


@dataclass(frozen=True)
class Commitments:
    trace: MerkleCommitment
    composition: MerkleCommitment


@dataclass(frozen=True)
class FriLayers:
    """The trees of layers 1..rounds-1, and the last fold's (bound >> rounds) + 1
    coefficients, low degree first, zero-padded: one, a constant, for replay.
    Under Fiat-Shamir `rounds` is _fri_shape's for the proof's query count."""

    roots: Tuple[MerkleCommitment, ...]
    remainder: Tuple[int, ...]


@dataclass(frozen=True)
class Proof:
    """A proof; q, N and g are not in it: the verifier holds or derives them.
    Nor are the sample points: the verifier draws them from its own
    transcript, so it computes each opening's leaf; an FRI index must equal it.
    Every tree lays its domain out coset by coset, each coset in power
    order (_Domains.leaf): the row at g·x is the leaf after x's but at a
    coset's last point, so its path is empty when x's leaf is even, and a
    FRI leaf holds the points |G_j|/2 apart in one coset, y and -y.

    Each query opens the trace rows at x and g·x, then one leaf per FRI layer,
    the one that holds the values at y and -y, F's in layer 0; the last
    layer's fold is checked against the remainder. A tree's openings are one
    batch, in query order (x before g·x): together their paths send the
    minimal multiproof, the sibling digests no opened leaf lets the verifier
    compute, each in the path of the first opening whose leaf is below its
    parent (channel._multiproof), so a leaf opened before sends none.
    """

    version: int
    salt: bytes
    degree_bound: int
    commitments: Commitments
    fri_layers: FriLayers
    queries: Tuple[ProofQuery, ...]


@dataclass(frozen=True)
class VerificationReport:
    """verify's verdict: a reject names the first stage that failed, of those
    below in verify's order, and says why; an accept names none."""

    stage: Optional[str] = None  # queries|salt|fri_commit|commitment|consistency|fri_query
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return self.stage is None

    @property
    def verdict(self) -> str:
        return "accept" if self.accepted else "reject"


def check_publics(q: int, num_steps: int) -> None:
    """Refuse a q too wide for the 8-byte encodings, or an order N + 1 of H that
    is odd (-1 not in H), does not divide q - 1, or is q - 1 itself (H is then
    all of F_q*, and no coset is left to commit on). Call it before
    PrimeField(q), so a huge q is refused before it is tested for primality."""
    if q >= 2**64:
        raise ValueError(f"q must be below 2^64, got a {q.bit_length()}-bit q: the spec digest, "
                         "the transcript and the Merkle leaves encode field values in 8 bytes")
    if (num_steps + 1) % 2:
        raise ValueError(f"N+1={num_steps + 1} must be even so the evaluation domain is symmetric")
    if (q - 1) % (num_steps + 1):
        raise ValueError(f"N+1={num_steps + 1} must divide q-1={q - 1}")
    if num_steps + 1 == q - 1:
        raise ValueError(f"N+1={num_steps + 1} must be below q-1={q - 1}: "
                         "H would be all of F_q*, leaving no coset to commit on")


def _check_num_queries(num_queries: int) -> None:
    """The one range of query counts, for prove, verify and a run config."""
    if not 1 <= num_queries <= MAX_QUERIES:
        raise ValueError(f"num_queries must be in [1, {MAX_QUERIES}], got {num_queries}")


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
    """D0, the domain of FRI layer 0 and of the trace table, in leaf order:
    the union of min(BLOWUP, m - 1) cosets x·H other than H itself, m =
    (q - 1)/|H|, coset by coset, each as x, x·g, ..., x·g^N.

    The cosets are those of x = 2, 3, ..., each new one met in that order; x·H
    is keyed by x^|H|, and H has key 1. So g·y is the point after y, but at
    x·g^N, whose g·y is x. When F_q* has at most BLOWUP cosets besides H, the
    union is all of F_q* minus H. Negation-closed for even |H|, since -1 is
    then in H. Costs O(BLOWUP·|H|) steps, not O(q). Never empty:
    check_publics refuses |H| = q - 1, where no coset besides H exists.
    """
    q = field.modulus
    order = domain.order
    wanted = min(BLOWUP, (q - 1) // order - 1)
    keys = {1}
    points: List[int] = []
    x = 1
    while len(keys) <= wanted:
        x += 1
        key = pow(x, order, q)
        if key not in keys:
            keys.add(key)
            points += [x * h % q for h in domain.elements]
    return points


def layer_eval_domains(field: PrimeField, reps: Sequence[int], order: int,
                       count: int) -> List[Tuple[List[int], int]]:
    """The domains D_j of FRI layers 0..count-1, each as its coset
    representatives and the order of its subgroup G_j: D_0 is the union of
    the cosets r·G_0, r in reps and |G_0| = order, and D_{j+1} is D_j
    squared and closed under negation, so the pair (y, -y) the folding
    identity needs is always committable. So G_{j+1} = ±G_j², of half G_j's
    even order unless that half is odd, and D_{j+1}'s representatives are
    the squares of D_j's, each kept if its coset is new.
    """
    q = field.modulus
    layers = [(list(reps), order)]
    for _ in range(count - 1):
        reps, order = layers[-1]
        order //= 1 + (order % 4 == 0)
        cosets: Dict[int, int] = {}  # (r^2)^|G_{j+1}| -> r^2, the first of each coset
        for r in reps:
            cosets.setdefault(pow(r, 2 * order, q), r * r % q)
        layers.append((list(cosets.values()), order))
    return layers


class _Domains:
    """Everything prove and verify take from (q, N), built once after
    check_publics: the trace subgroup H, its generator g, the largest degree
    bound a proof may declare, the paper AIR's 2N - 2, D0 in leaf order
    (trace_points, from base_eval_domain), from which sample points are
    drawn, and the domains of the num_rounds(2N - 2) FRI layers any accepted
    proof reaches (layers, from layer_eval_domains). verify rejects a
    declared bound above the worst case before it reads a layer. Every tree
    lays its domain out coset by coset, each coset in power order, and leaf
    is the one rule for where a point sits: the trace tree has a leaf per
    point of D0, the tree of layer j one per pair {y, -y} (pair_leaf).

    The coset-DFT plans of the layers are built on first use, so a verifier
    builds none and a Fiat-Shamir prover only those of the layers it
    commits; layer 0's gives both the trace table and F's. Nothing here
    depends on a proof; a plan keeps, per slot width, the power rows of the
    longest list it has evaluated (CosetEvaluator._powers).
    """

    def __init__(self, q: int, num_steps: int):
        check_publics(q, num_steps)
        self.field = PrimeField(q)
        self.subgroup = build_domain(self.field, num_steps + 1)
        self.g = self.subgroup.generator
        self.worst_bound = PAPER_AIR.worst_bound(num_steps)
        self.trace_points = base_eval_domain(self.field, self.subgroup)
        order = self.subgroup.order
        self.layers = layer_eval_domains(self.field, self.trace_points[::order], order,
                                         num_rounds(self.worst_bound))
        # per layer, per coset r·G_j keyed by r^|G_j|: its number and r^(-1)
        self._cosets = [{pow(r, size, q): (k, pow(r, -1, q)) for k, r in enumerate(reps)}
                        for reps, size in self.layers]
        self._log = {h: i for i, h in enumerate(self.subgroup.elements)}  # g^i -> i
        self.plans: Dict[int, CosetEvaluator] = {}

    def size(self, layer: int) -> int:
        """|D_layer|."""
        reps, order = self.layers[layer]
        return len(reps) * order

    def leaf(self, point: int, layer: int = 0) -> int:
        """The position of `point` in D_layer's layout, k·|G| + i for r·w^i in
        coset k, r its representative, G = G_layer and w = g^(|H|/|G|): the
        one rule for which points have a leaf, or ValueError."""
        q, size = self.field.modulus, self.layers[layer][1]
        coset = self._cosets[layer].get(pow(point, size, q)) if 0 < point < q else None
        if coset is None:
            raise ValueError(f"point {point} is not in D{layer}, the domain of FRI layer {layer}")
        return coset[0] * size + self._log[point * coset[1] % q] // (self.subgroup.order // size)

    def pair_leaf(self, layer: int, point: int) -> Tuple[int, int]:
        """The leaf of {point, -point} in the tree of FRI layer `layer`, and the
        side of it `point` sits on. -1 is w^(|G|/2), so in coset k the points
        i and i + |G|/2 share leaf k·|G|/2 + i, on sides 0 and 1."""
        half = self.layers[layer][1] // 2
        coset, i = divmod(self.leaf(point, layer), 2 * half)
        return coset * half + i % half, i // half

    def chain(self, x: int, rounds: int) -> List[int]:
        """x, x^2, x^4, ...: the point of the query at x in each of the first
        `rounds` FRI layers."""
        q = self.field.modulus
        points = [x]
        for _ in range(rounds - 1):
            points.append(points[-1] * points[-1] % q)
        return points

    def evaluator(self, j: int) -> CosetEvaluator:
        """Coset DFT onto D_j in its leaf order; racing threads may each build one."""
        plan = self.plans.get(j)
        if plan is None:
            reps, order = self.layers[j]
            omega = pow(self.g, self.subgroup.order // order, self.field.modulus)
            plan = self.plans[j] = CosetEvaluator(self.field, reps, omega, order)
        return plan


@lru_cache(maxsize=DOMAIN_CACHE_SIZE)
def _domains(q: int, num_steps: int) -> _Domains:
    """The shared _Domains of (q, N); a verifier that checks one system every
    control period builds them once."""
    return _Domains(q, num_steps)


class _Committed:
    """Evaluation tables of polynomials on D0 in leaf order
    (_Domains.trace_points), one Merkle leaf per point: the trace tree.

    The tables are kept by column; a row is built to be hashed, then dropped,
    and built again only if it is opened.
    """

    def __init__(self, tables: List[List[int]], domains: _Domains):
        self.tables = tables
        self.tree = MerkleTree(self.rows())
        self.domains = domains

    def rows(self):
        return zip(*self.tables)

    def open_rows(self, points: Sequence[int]) -> List[RowOpening]:
        """The rows at `points`, in order, opened as one batch."""
        leaves = [self.domains.leaf(p) for p in points]
        return [RowOpening(tuple(t[i] for t in self.tables), path)
                for i, path in zip(leaves, self.tree.open(leaves))]


class _CommittedPairs(_Committed):
    """One polynomial f on the domain D_j of one FRI layer (layer 0: Q), in
    leaf order, one leaf per pair (_Domains.pair_leaf): in each coset, the
    values at points i and i + |G_j|/2, y and -y."""

    def __init__(self, poly: Polynomial, domains: _Domains, layer: int):
        self.layer, self.half = layer, domains.layers[layer][1] // 2
        super().__init__(domains.evaluator(layer).evaluate([poly]), domains)

    def rows(self):
        table, half = self.tables[0], self.half
        return chain.from_iterable(zip(table[k:k + half], table[k + half:k + 2 * half])
                                   for k in range(0, len(table), 2 * half))

    def open_pairs(self, ys: Sequence[int]) -> List[Tuple[Opening, int]]:
        """For each y of `ys`, in order, the opening at y of the leaf of
        {y, -y} and f(-y), the leaf's other value: one batch."""
        table, half = self.tables[0], self.half
        sides = [self.domains.pair_leaf(self.layer, y) for y in ys]
        paths = self.tree.open([leaf for leaf, _ in sides])
        pairs = []
        for (leaf, side), path in zip(sides, paths):
            first = leaf + leaf // half * half  # the table position of its side 0
            row = (table[first], table[first + half])
            pairs.append((Opening(leaf, row[side], path), row[1 - side]))
        return pairs


def run_online_stage(
    spec: SystemSpec,
    step_source: StepSource,
    verifier_log: Optional[list] = None,
) -> ExecutionTrace:
    """Request steps one by one, re-requesting a rejected one up to MAX_RETRIES
    times, then raising OnlineStageError."""

    # yielded one by one, so no record outlives its row of the trace
    def accepted_steps():
        z = spec.z_init
        for k in range(spec.num_steps):
            for attempt in range(MAX_RETRIES + 1):
                rec = step_source(k, z, attempt)
                reason = online_check(spec, rec)
                if verifier_log is not None:
                    verifier_log.append(
                        {"step": k, "attempt": attempt,
                         "verdict": "accept" if reason is None else "reject",
                         "reason": reason}
                    )
                if reason is None:
                    break
            else:
                raise OnlineStageError(f"step {k} rejected {MAX_RETRIES + 1} times")
            yield rec
            z = rec.z_next

    return ExecutionTrace.from_steps(spec, accepted_steps())


def honest_step_source(spec: SystemSpec) -> StepSource:
    def source(k: int, z: Tuple[int, ...], attempt: int) -> StepRecord:
        return step_slack(spec, z)

    return source


def _lift_or_refuse(spec: SystemSpec, trace: ExecutionTrace, field: PrimeField) -> ExecutionTrace:
    """The trace lifted into the field, or InvalidTraceError: the honest
    prover's one decision on a trace, made on its integer rows before any
    value is reduced or polynomial built. Row 0 must be z_init; at each step
    the online checks must pass and every constraint be exactly 0, not merely
    0 mod q, which with bits in {0, 1} and the slack at least the box width
    makes the next state the clamp of A_hat·z. Only then does lift_trace
    reduce the rows.

    `constraints` runs once, on Columns of every step, giving the first step
    where one is not 0 and its first such constraint. online_check runs on
    the columns' minima and on their maxima, which on integers both pass
    exactly when every step does: a bit lies in {0, 1}, the slack above the
    box width and the state in the box exactly when its column's extremes
    do. Only if one fails does it run step by step up to that step, so the
    refusal is that of checking step by step: the boundary, then at each
    step the online checks before the constraints. Both AIRs accept the same
    integer traces; the paper's names the failing constraint.
    """
    n, N = spec.n, spec.num_steps
    for i, (z0, init) in enumerate(zip(trace.z_rows[0], spec.z_init)):
        if z0 != init:
            raise InvalidTraceError(f"boundary condition violated for coordinate {i}")
    # each column over steps 0..N-1, and the state's over steps 1..N
    row = [Column(c) for rows in trace.sections for c in zip(*rows[:N])]
    z_next = [Column(c) for c in zip(*trace.z_rows[1:])]
    values = constraints(spec, row, z_next)
    step, k = min(((next(j for j, v in enumerate(c) if v), k)
                   for k, c in enumerate(values) if any(c)), default=(N, 0))
    columns = [z_next, *by_section(row, n)[1:]]  # a StepRecord's fields, each over every step
    if any(online_check(spec, StepRecord(*(tuple(map(extreme, c)) for c in columns)))
           for extreme in (min, max)):
        for j in range(min(step + 1, N)):
            reason = online_check(spec, trace.step(j))
            if reason is not None:
                raise InvalidTraceError(f"online check failed at step {j}: {reason}")
    if step < N:
        raise InvalidTraceError(f"constraint {FAMILIES[k // n]}[{k % n}] fails at step {step}")
    return lift_trace(trace, field)


def _fri_shape(transcript, domains: _Domains,
               queries: int) -> Tuple[Air, Callable[[int], Tuple[int, int]]]:
    """The AIR a proof is for, and the rule that gives, from the degree bound
    a proof declares, the bound it must declare and its FRI fold count: the
    one place that differs by transcript. Replay proves the paper's AIR,
    declares the bound it is given, the paper's, and folds it to a constant.
    Fiat-Shamir proves DEGREE_2_AIR, declares its worst case b = N - 1 and
    folds it once; after r folds it folds again only while the 8-byte
    coefficients that fold drops from the remainder, (b >> r) -
    (b >> (r + 1)), outweigh what committing layer r costs the `queries`
    openings: at most one 32-byte digest per level of its pair tree each."""
    if isinstance(transcript, ReplayTranscript):
        return PAPER_AIR, lambda declared: (declared, num_rounds(declared))
    bound, rounds = DEGREE_2_AIR.worst_bound(domains.subgroup.order - 1), 1
    while rounds < len(domains.layers):
        height = (domains.size(rounds) // 2 - 1).bit_length()
        if 8 * ((bound >> rounds) - (bound >> (rounds + 1))) <= 32 * queries * height:
            break
        rounds += 1
    return DEGREE_2_AIR, lambda declared: (bound, rounds)


def _remainder_bytes(remainder: Sequence[int]) -> bytes:
    """What the transcript absorbs for a FRI remainder: each coefficient in 8 bytes LE."""
    return b"".join(c.to_bytes(8, "little") for c in remainder)


def prove(
    field: PrimeField,
    spec: SystemSpec,
    trace: ExecutionTrace,
    transcript,
    *,
    num_queries: int = 8,
    salt: Optional[bytes] = None,
) -> Proof:
    """Build a proof for the trace, or refuse it: with InvalidTraceError if it
    fails the boundary condition, the online checks or a step constraint,
    all decided exactly on its integer rows before any interpolation, and
    with FieldOverflowError if a cell has magnitude >= q.

    The proof carries the transcript's salt, which a Fiat-Shamir verifier
    absorbs first; a replay transcript's is b"". A `salt` that differs from
    the transcript's is a ValueError, raised, like those of bad publics and
    query counts, before the trace is decided.
    """
    check_publics(field.modulus, spec.num_steps)
    _check_num_queries(num_queries)
    if salt not in (None, transcript.salt):
        raise ValueError(f"salt {salt!r} is not the transcript's {transcript.salt!r}")
    return _prove_lifted(field, spec, _lift_or_refuse(spec, trace, field), transcript, num_queries)


def _prove_lifted(field: PrimeField, spec: SystemSpec, trace: ExecutionTrace, transcript,
                  num_queries: int) -> Proof:
    """The proof of a lifted trace, committed as it is: all of prove after its
    decision, so a test that calls it on lift_trace of any trace forges a
    proof with the code that makes an honest one. F is Q, the floor quotient
    of the weighted constraint numerators by Z_N (one division), plus the
    floor quotients of f_z,i by x - 1 weighted by the alphas, one per value
    the AIR binds: none for replay, z_init under Fiat-Shamir."""
    N = spec.num_steps
    q = field.modulus
    domains = _domains(q, N)
    domain = domains.subgroup

    tp = build_trace_polys(trace, domain)

    transcript.absorb("spec", hash_spec(field, spec))

    g = domains.g
    trace_cm = _Committed(domains.evaluator(0).evaluate(tp), domains)
    transcript.absorb("trace", trace_cm.tree.root)

    air, shape = _fri_shape(transcript, domains, num_queries)
    gammas = [transcript.draw("gamma") for _ in range(constraint_count(spec))]
    alphas = [transcript.draw("gamma") for _ in air.boundary(spec)]
    numerators = build_numerators(tp, spec, domain, air)
    [quotient] = build_compositions([combine(numerators, gammas)], domain)
    # F = Q + sum_i alpha_i·floor((f_z,i - z_init,i)/(x - 1)), forged trace or not
    quotient = combine([quotient, *map(boundary_quotient, tp[:len(alphas)])], [1, *alphas])

    bound, rounds = shape(degree_bound(tp, quotient, N))

    composition = _CommittedPairs(quotient, domains, 0)
    transcript.absorb("composition", composition.tree.root)
    transcript.absorb("degree_bound", bound.to_bytes(8, "little"))

    # bound >= deg Q: replay declares at least deg Q, and under Fiat-Shamir
    # deg Q is at most the bound, DEGREE_2_AIR's worst case; so
    # `rounds` folds leave at most (bound >> rounds) + 1 coefficients. Layers
    # 1..rounds-1 are committed; under Fiat-Shamir `rounds` follows from
    # num_queries, as a layer's openings cost each query one path
    layer_committed = [composition]
    folded = quotient
    for j in range(1, rounds + 1):
        folded = fold(folded, transcript.draw("beta"))
        if j < rounds:
            layer_committed.append(_CommittedPairs(folded, domains, j))
            transcript.absorb(f"fri[{j}]", layer_committed[-1].tree.root)
    remainder = folded.coeffs + (0,) * ((bound >> rounds) + 1 - len(folded.coeffs))
    transcript.absorb("fri_remainder", _remainder_bytes(remainder))

    xs = [transcript.draw("sample_point", domains.trace_points) for _ in range(num_queries)]
    rows = trace_cm.open_rows([p for x in xs for p in (x, g * x % q)])  # at x, g·x
    chains = [domains.chain(x, rounds) for x in xs]
    pairs = [cm.open_pairs([chain[j] for chain in chains])
             for j, cm in enumerate(layer_committed)]
    queries = [ProofQuery(trace=(rows[2 * k], rows[2 * k + 1]),
                          fri=tuple(layer[k] for layer in pairs))
               for k in range(num_queries)]

    return Proof(
        version=PROOF_VERSION,
        salt=transcript.salt,
        degree_bound=bound,
        commitments=Commitments(trace_cm.tree.commitment, composition.tree.commitment),
        fri_layers=FriLayers(tuple(cm.tree.commitment for cm in layer_committed[1:]), remainder),
        queries=tuple(queries),
    )


def _structural_validate(proof: Proof, field: PrimeField, spec: SystemSpec, bound: int,
                         rounds: int) -> None:
    """Raise ProofFormatError on a proof malformed for _fri_shape's bound and rounds."""
    q = field.modulus
    width = trace_width(spec)
    if proof.version != PROOF_VERSION:
        raise ProofFormatError(f"unsupported proof version {proof.version}")
    if not 1 <= len(proof.queries) <= MAX_QUERIES:
        raise ProofFormatError("query count out of range")
    if proof.degree_bound < 0:
        raise ProofFormatError("negative degree bound")
    remainder, size = proof.fri_layers.remainder, (bound >> rounds) + 1
    if len(remainder) != size:
        raise ProofFormatError(f"expected {size} remainder coefficients, got {len(remainder)}")
    if not all(0 <= c < q for c in remainder):
        raise ProofFormatError("remainder coefficient out of range")
    if len(proof.fri_layers.roots) != rounds - 1:
        raise ProofFormatError(
            f"expected {rounds - 1} intermediate FRI commitments, got {len(proof.fri_layers.roots)}"
        )
    values: List[int] = []  # every opened value, range-checked at once
    for query in proof.queries:
        if len(query.trace) != 2 or any(len(row.values) != width for row in query.trace):
            raise ProofFormatError(f"each query needs two trace rows of {width} values")
        if len(query.fri) != rounds:
            raise ProofFormatError(f"expected {rounds} FRI opening pairs per query")
        values += query.trace[0].values + query.trace[1].values
        values += [v for pos, neg in query.fri for v in (pos.value, neg)]
    if min(values) < 0 or max(values) >= q:  # a query has two rows of width > 0
        raise ProofFormatError("opened value out of range")


def verify(
    field: PrimeField, spec: SystemSpec, proof: Proof, transcript=None, *, num_queries: int = 1
) -> VerificationReport:
    """Check a proof against the public inputs.

    The challenges come from the caller's transcript, as in `prove`: a
    ReplayTranscript of the caller's challenge lists, or None for a
    Fiat-Shamir transcript salted with the proof's salt; a proof carries no
    challenges. The least number of queries it must answer is the caller's
    `num_queries` too, never the proof's.

    An error's type names the party at fault. The caller's, as in `prove`: a
    ValueError for a (q, N) check_publics refuses, a `num_queries` outside [1,
    MAX_QUERIES] or a replay sample point outside D0, a TranscriptError for
    fewer replay gammas than the spec's constraint_count. The proof's:
    ProofFormatError, also for FRI layers or a remainder not of the shape
    _fri_shape gives for its declared bound and, under Fiat-Shamir, the number
    of queries it answers, and when its rounds or queries need more betas or
    sample points than the replay lists hold. Every check looks at the sample
    points the transcript draws. Checks, in order, with the stage a failure is
    reported at: at least `num_queries` queries answered (queries), the
    proof's salt the transcript's, b"" for replay (salt), the declared degree
    bound, at most the paper AIR's worst case 2N - 2 and under Fiat-Shamir
    equal to DEGREE_2_AIR's, N - 1 (fri_commit),
    each commitment's leaf count, the leaf of each FRI opening, and each
    tree's openings at the leaves of the sample points, checked as one batch,
    each FRI pair's two values in one leaf (commitment: a path of the wrong
    length or a leaf opened twice with two rows is named by its tree and
    query, a root mismatch by its tree and both roots, computed and
    committed), F's value recomputed from the opened trace rows, with the
    terms (z_i(x) - z_init,i)/(x - 1) under Fiat-Shamir (consistency), and
    the folding chain, whose last fold must be the remainder's value
    (fri_query). A reject that compares two values names both.
    """
    q = field.modulus
    N = spec.num_steps
    domains = _domains(q, N)
    g = domains.g
    _check_num_queries(num_queries)
    if transcript is None:
        transcript = FiatShamirTranscript(q, salt=proof.salt)
    air, shape = _fri_shape(transcript, domains, len(proof.queries))
    bound, rounds = shape(proof.degree_bound)
    _structural_validate(proof, field, spec, bound, rounds)
    if len(proof.queries) < num_queries:
        return VerificationReport("queries", f"the proof answers {len(proof.queries)} queries, "
                                  f"the verifier asks for {num_queries}")

    if proof.salt != transcript.salt:
        return VerificationReport("salt", f"the proof's salt is {proof.salt!r}, "
                                  f"the verifier's {transcript.salt!r}")
    if proof.degree_bound != bound or bound > domains.worst_bound:
        return VerificationReport("fri_commit", f"degree bound {proof.degree_bound}: "
                                  f"worst case is {min(bound, domains.worst_bound)}")

    transcript.absorb("spec", hash_spec(field, spec))
    comms, fri = proof.commitments, proof.fri_layers
    transcript.absorb("trace", comms.trace.root)
    gammas = [transcript.draw("gamma") for _ in range(constraint_count(spec))]  # the spec's
    alphas = [transcript.draw("gamma") for _ in air.boundary(spec)]

    try:  # as many as the proof's rounds and queries need
        transcript.absorb("composition", comms.composition.root)
        transcript.absorb("degree_bound", proof.degree_bound.to_bytes(8, "little"))
        betas = []
        for j in range(rounds):
            betas.append(transcript.draw("beta"))
            if j < rounds - 1:
                transcript.absorb(f"fri[{j + 1}]", fri.roots[j].root)
        transcript.absorb("fri_remainder", _remainder_bytes(fri.remainder))
        xs = [transcript.draw("sample_point", domains.trace_points) for _ in proof.queries]
    except TranscriptError as exc:
        raise ProofFormatError(f"transcript cannot supply the challenges: {exc}") from exc
    leaves = [(domains.leaf(x), domains.leaf(g * x % q)) for x in xs]  # rows at x, g·x

    # --- stage: commitment ---------------------------------------------------
    layer_comms = (comms.composition, *fri.roots)
    trees = [("trace", comms.trace, domains.size(0))]
    trees += [(f"layer {j}", cm, domains.size(j) // 2) for j, cm in enumerate(layer_comms)]
    for name, cm, count in trees:
        if cm.leaf_count != count:
            return VerificationReport("commitment",
                                      f"{name} tree has {cm.leaf_count} leaves, not {count}")

    # one batch per tree, in the order prove opened them: the trace rows query
    # by query, at x then g·x, and each layer's pairs query by query
    chains = [domains.chain(x, rounds) for x in xs]
    trace_openings = [(i, row.values, row.path)
                      for query, pair in zip(proof.queries, leaves)
                      for row, i in zip(query.trace, pair)]
    batches = [("trace", comms.trace, trace_openings,
                lambda o: f"query {o // 2} at {('x', 'g*x')[o % 2]}")]
    for j, cm in enumerate(layer_comms):
        openings = []
        for k, (query, chain) in enumerate(zip(proof.queries, chains)):
            leaf, side = domains.pair_leaf(j, chain[j])
            pos, neg = query.fri[j]
            if pos.index != leaf:
                return VerificationReport("commitment", f"query {k}: FRI layer {j} opens "
                                          f"leaf {pos.index}, not {leaf}")
            openings.append((leaf, (pos.value, neg) if side == 0 else (neg, pos.value), pos.path))
        batches.append((f"layer {j}", cm, openings, lambda o: f"query {o}"))
    for name, cm, openings, where in batches:
        verdict = verify_opening(cm, openings)
        if not verdict:
            at = "" if verdict.opening is None else f", {where(verdict.opening)}"
            return VerificationReport("commitment", f"{name} tree{at}: {verdict.reason}")

    # --- stage: consistency --------------------------------------------------
    g_pow_n = pow(g, N, q)
    for k, (query, x) in enumerate(zip(proof.queries, xs)):
        # 1/Z_N(x) = (x - g^N)/(x^(N+1) - 1) and 1/(x - 1) share one inversion
        row, cyclic = query.trace[0].values, pow(x, N + 1, q) - 1
        numerators = constraints(spec, row, query.trace[1].values, air)
        weighted = sum(gm * nm for gm, nm in zip(gammas, numerators)) * (x - g_pow_n) * (x - 1)
        weighted += sum(a * (z - z0) for a, z, z0 in zip(alphas, row, air.boundary(spec))) * cyclic
        recombined = weighted * pow(cyclic * (x - 1), -1, q) % q
        opened = query.fri[0][0].value
        if recombined != opened:
            return VerificationReport(
                "consistency", f"query {k}: composition value mismatch at x={x}: "
                f"opened F(x) = {opened}, recomputed from the trace rows {recombined}")

    # --- stage: fri_query ----------------------------------------------------
    remainder = Polynomial(field, fri.remainder)
    for k, query in enumerate(proof.queries):
        for j, y in enumerate(chains[k]):
            pos, neg = query.fri[j]
            computed = fold_value(field, pos.value, neg, y, betas[j])
            if j + 1 < rounds:
                expected, where = query.fri[j + 1][0].value, f"layer {j + 1} opens"
            else:
                expected, where = remainder.evaluate(y * y % q), "the remainder gives"
            if computed != expected:
                return VerificationReport(
                    "fri_query", f"query {k}: folding identity fails at layer {j}: "
                    f"folded {computed}, {where} {expected}")

    return VerificationReport()


# --- serialization ----------------------------------------------------------
#
# A dataclass declares its document: an object keyed by its field names and no
# other key, a field with a default may be left out, or, for a record type in
# POSITIONAL, the list of its fields' values in declaration order. Tuple[X, ...]
# is a list, a fixed Tuple[X, Y] a list of that length, Optional[X] null or an
# X, bytes the one padded standard base64 string b2a_base64 writes for them (a
# Merkle path is one such string: its digests joined), int a JSON integer and
# Base10 an integer or the one base-10 string str() writes for it. Counts and
# ranges are the caller's.

# The records a proof sends once per query, written without their keys; the
# sections around them stay objects, whose keys name what they hold.
POSITIONAL = frozenset({Opening, RowOpening})

Base10 = NewType("Base10", int)  # hand-written files may spell an integer as a string


def _list(v) -> list:
    # iterating a dict or a string instead would not fail
    if type(v) is not list:
        raise TypeError(f"expected a list, got {type(v).__name__}")
    return v


def _int(v) -> int:
    # JSON true and false load as bool, a subclass of int, but are no integer
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {type(v).__name__}")
    return v


def _base64(v) -> bytes:
    # TypeError unless v is a str or bytes, which JSON never gives. a2b_base64
    # skips characters outside the alphabet (such as URL-safe base64's "-" and
    # "_") and reads an extra "=" or spare bits set in the last character, so
    # only the round trip leaves one spelling
    value = binascii.a2b_base64(v)
    if binascii.b2a_base64(value, newline=False).decode() != v:
        raise ValueError(f"{v[:80]!r} is not padded standard base64 with no other character")
    return value


def _base10(v) -> int:
    if type(v) is not str:
        return _int(v)
    value = int(v, 10)  # which also reads spaces, "+", "_", leading zeros and non-ASCII digits
    if str(value) != v:
        raise ValueError(f"{v[:80]!r} is not an integer's one base-10 spelling")
    return value


_LEAVES = {int: _int, bytes: _base64, Base10: _base10}


def _list_reader(items: Sequence[Callable], build: Callable) -> Callable:
    """A list of len(items) values, value k read by items[k], passed to build."""
    size = len(items)

    def read_list(doc):
        if len(_list(doc)) != size:
            raise ValueError(f"expected a list of {size} values, got {len(doc)}")
        return build(*[read(v) for read, v in zip(items, doc)])

    return read_list


def _object_reader(cls) -> Callable:
    hints = get_type_hints(cls)
    parts = [(f.name, reader(hints[f.name])) for f in fields(cls)]
    if cls in POSITIONAL:
        return _list_reader([read for _, read in parts], cls)
    optional = {f.name for f in fields(cls) if f.default is not MISSING}

    def read_fields(doc):  # by position, which a proof's many small objects make worth it
        value = cls(*[read(doc[name]) for name, read in parts])
        if len(doc) != len(parts):  # every key read is a field's, so one is left over
            raise ValueError(f"unknown key {min(doc.keys() - dict(parts).keys())!r}")
        return value

    def read_object(doc):  # a hand-written document, so an error names its field
        if type(doc) is not dict:
            raise TypeError(f"expected an object, got {type(doc).__name__}")
        given = {}
        for name, read in parts:
            if name in doc or name not in optional:
                try:
                    given[name] = read(doc[name])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{name}: {exc}") from exc
        if len(doc) != len(given):
            raise ValueError(f"unknown key {min(doc.keys() - dict(parts).keys())!r}")
        return cls(**given)

    return read_object if optional else read_fields


def _read_ints(doc) -> tuple:
    # one scan of the types; only a list holding another type is read value by
    # value, which names the first
    return tuple(doc) if {int}.issuperset(map(type, _list(doc))) else tuple(map(_int, doc))


@lru_cache(maxsize=None)
def reader(tp) -> Callable:
    """The function that reads a value of type `tp` from its JSON form, built
    once per type; call it inside `reading`."""
    if is_dataclass(tp):
        return _object_reader(tp)
    if tp in _LEAVES:
        return _LEAVES[tp]
    args = get_args(tp)
    if get_origin(tp) is Union and args[1:] == (type(None),):
        item = reader(args[0])
        return lambda doc: None if doc is None else item(doc)
    if get_origin(tp) is not tuple:
        raise TypeError(f"a field of type {tp} has no JSON form")
    if args == (int, Ellipsis):
        return _read_ints
    if args[-1] is Ellipsis:
        item = reader(args[0])
        return lambda doc: tuple(map(item, _list(doc)))
    return _list_reader([reader(a) for a in args], lambda *values: values)


@contextmanager
def reading(error: Callable[[str], Exception]):
    """The one error boundary of a reader: a missing key, a key no field has, a
    wrong type or spelling, or a value a dataclass refuses becomes `error`."""
    try:
        yield
    except KeyError as exc:
        raise error(f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise error(str(exc)) from exc


_read_proof = reader(Proof)


def _as_json(obj):
    """json.dumps's hook: bytes as padded standard base64, a dataclass as its
    instance dict, its fields, or as their values for a POSITIONAL record."""
    if type(obj) is bytes:
        return binascii.b2a_base64(obj, newline=False).decode()
    return list(vars(obj).values()) if type(obj) in POSITIONAL else vars(obj)


def dump_proof(proof: Proof) -> str:
    # a proof is a tree: no value in it can hold itself
    return json.dumps(proof, default=_as_json, separators=(",", ":"), check_circular=False)


def proof_to_json(proof: Proof) -> dict:
    """The document dump_proof writes."""
    return json.loads(dump_proof(proof))


def proof_from_json(doc) -> Proof:
    """The Proof in a document, read inside one boundary; its version first, so
    a document of another version is refused as such."""
    with reading(ProofFormatError):
        if _int(doc["version"]) != PROOF_VERSION:
            raise ValueError(f"unsupported proof version {doc['version']}")
        return _read_proof(doc)


def load_proof(text: str) -> Proof:
    # no proof has whitespace, a "-" or a backslash, so this refuses -0 for 0, an
    # escape such as \u0061 for "a" and spaced texts; key order is not checked
    if any(c in text for c in "-\\ \n\r\t"):
        raise ProofFormatError("a proof text has no '-', no '\\' and no whitespace")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, huge literal, deep nesting
        raise ProofFormatError(f"proof file is not valid JSON: {exc}") from exc
    return proof_from_json(doc)
