"""Two-stage integrity proofs for projected linear control dynamics.

Cheap per-step inequality checks run online; the offline stage commits the
execution trace as low-degree polynomials over a prime field, divides the
random-weighted constraint numerators once by their vanishing polynomial, and
FRI-tests that quotient.
"""

from .air import (
    FieldOverflowError,
    InvalidTraceError,
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
    OpeningVerdict,
    ReplayTranscript,
    TranscriptError,
    verify_opening,
)
from .dynamics import (
    ExecutionTrace,
    StepRecord,
    SystemSpec,
    online_check,
    simulate,
    step_slack,
)
from .field import (
    CyclicDomain,
    NoSubgroupError,
    PrimeField,
    build_domain,
)
from .fri import fold
from .poly import Polynomial, interpolate, vanishing
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
