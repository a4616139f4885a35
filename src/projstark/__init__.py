"""Two-stage integrity proofs for projected linear control dynamics.

Cheap per-step inequality checks run online; the offline stage commits the
execution trace as low-degree polynomials over a prime field, divides the
random-weighted constraint numerators once by their vanishing polynomial, and
FRI-tests that quotient.
"""

from .air import (
    FieldOverflowError,
    InvalidTraceError,
    TracePolynomials,
    build_compositions,
    build_numerators,
    build_trace_polys,
    combine,
    degree_bound,
    lift_trace,
)
from .channel import (
    FiatShamirTranscript,
    MerkleCommitment,
    MerkleTree,
    ReplayTranscript,
    TranscriptError,
    verify_opening,
)
from .dynamics import (
    ExecutionTrace,
    Lemma1Error,
    StepRecord,
    SystemSpec,
    lemma1_solve,
    online_check,
    simulate,
    step_project,
    step_slack,
)
from .field import (
    CyclicDomain,
    FieldElement,
    FieldMismatchError,
    NoSubgroupError,
    PrimeField,
    build_domain,
)
from .fri import (
    DegreeTestFailedError,
    FriLayer,
    commit_phase,
    fold,
    split_even_odd,
)
from .poly import NEG_INF, Polynomial, divide_exact, interpolate, vanishing
from .protocol import (
    OnlineStageError,
    Proof,
    ProofFormatError,
    VerificationReport,
    dump_proof,
    load_proof,
    prove,
    run_online_stage,
    verify,
)

__version__ = "0.1.0"
