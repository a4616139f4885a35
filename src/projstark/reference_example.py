"""Built-in worked example over F_331 with its published golden values.

The fixture pins the full pipeline end to end: subgroup listing, trace
interpolant degrees, composition degrees, the weighted combination, the FRI
folding layers, and the query-phase chains for both sample points.  The degree
tables list the two bit-constraint families in presentation order (lower bit
before upper bit), while the combination weights are consumed in equation
order; both conventions are reproduced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .air import (by_section, build_compositions, build_numerators, build_trace_polys, combine,
                  degree_bound)
from .channel import ReplayTranscript
from .dynamics import SystemSpec, simulate
from .field import PrimeField, build_domain
from .fri import fold, fold_value
from .protocol import prove, verify

MODULUS = 331

SYSTEM = SystemSpec(
    a_hat=((1, 0), (-1, 1)),
    z_upper=(100, 100),
    z_lower=(0, 40),
    z_init=(3, 100),
    num_steps=29,
)

GENERATOR = 2
SUBGROUP = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 181, 31, 62, 124, 248, 165,
    330, 329, 327, 323, 315, 299, 267, 203, 75, 150, 300, 269, 207, 83, 166,
)

# the two state columns, then two per other section, in reverse SECTIONS order
TRACE_DEGREES = (0, 29, 0, 28, 0, 28, 0, 0)

# (q11, q21, q12, q22, then the lower-bit pair, then the upper-bit pair)
COMPOSITION_DEGREES = (0, 28, 0, 28, 0, 27, 0, 0)
# where those quotients sit in the weight-draw order (transition, slack, upper, lower)
COMPOSITION_ORDER = (0, 1, 2, 3, 6, 7, 4, 5)

GAMMAS = (261, 308, 225, 47, 236, 41, 43, 212)
BETAS = (149, 200, 23, 106, 252)
SAMPLE_POINTS = (87, 291)

COMBINED_DEGREE_BOUND = 28
Q_COEFFS = (
    72, 260, 273, 61, 25, 37, 225, 18, 311, 255, 292, 157, 83, 151,
    31, 172, 203, 244, 39, 65, 136, 317, 91, 84, 238, 325, 94, 24, 275,
)

LAYER_COEFFS = (
    (85, 94, 242, 259, 241, 184, 74, 172, 149, 125, 36, 29, 6, 29, 275),
    (18, 75, 300, 50, 324, 209, 179, 275),
    (88, 126, 166, 215),
    (204, 117),
    (229,),
)
LAYER_DEGREES = (14, 7, 3, 1, 0)
FINAL_CONSTANT = 229

QUERY_CHAINS = {
    87: (128, 22, 101, 39, 229),
    291: (324, 35, 219, 110, 229),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    expected: object
    actual: object


def run_replay() -> List[CheckResult]:
    """Recompute the whole worked example and diff every golden value."""
    checks: List[CheckResult] = []

    def record(name, expected, actual):
        checks.append(CheckResult(name=name, ok=expected == actual, expected=expected, actual=actual))

    field = PrimeField(MODULUS)
    domain = build_domain(field, SYSTEM.num_steps + 1)
    record("generator", GENERATOR, domain.generator)
    record("subgroup", SUBGROUP, domain.elements)

    trace = simulate(SYSTEM)
    record("z2-at-20", 40, trace.z_rows[20][1])

    tp = build_trace_polys(trace, domain)
    state, *others = by_section(tp, SYSTEM.n)
    columns = [p for section in (state, *reversed(others)) for p in section]
    record("trace-degrees", TRACE_DEGREES, tuple(p.reported_degree for p in columns))

    numerators = build_numerators(tp, SYSTEM, domain)
    quotients = build_compositions(numerators, domain)
    record("composition-degrees", COMPOSITION_DEGREES,
           tuple(quotients[k].reported_degree for k in COMPOSITION_ORDER))

    # as the prover builds Q: the weighted numerators, divided once
    [q_poly] = build_compositions([combine(numerators, GAMMAS)], domain)
    bound = degree_bound(tp, q_poly, SYSTEM.num_steps)
    record("combined-degree-bound", COMBINED_DEGREE_BOUND, bound)
    record("combined-coefficients", Q_COEFFS, q_poly.coeffs)

    layers = [q_poly]
    for beta in BETAS:
        layers.append(fold(layers[-1], beta))
    for idx, expected in enumerate(LAYER_COEFFS, start=1):
        record(f"fri-layer-{idx}", expected, layers[idx].coeffs)
    record("fri-layer-degrees", LAYER_DEGREES,
           tuple(layers[idx].reported_degree for idx in range(1, 6)))
    record("fri-final", FINAL_CONSTANT, layers[-1].coeffs[0] if layers[-1].coeffs else 0)

    for x, expected_chain in QUERY_CHAINS.items():
        chain = []
        y = x
        for j in range(5):
            pos = layers[j].evaluate(y)
            neg = layers[j].evaluate(-y)
            chain.append(fold_value(field, pos, neg, y, BETAS[j]))
            y = y * y % MODULUS
        record(f"query-chain-{x}", expected_chain, tuple(chain))

    def transcript():
        return ReplayTranscript(MODULUS, gammas=GAMMAS, betas=BETAS, sample_points=SAMPLE_POINTS)

    proof = prove(field, SYSTEM, trace, transcript(), num_queries=len(SAMPLE_POINTS))
    record("proof-degree-bound", COMBINED_DEGREE_BOUND, proof.degree_bound)
    record("proof-fri-final", (FINAL_CONSTANT,), proof.fri_layers.remainder)
    report = verify(field, SYSTEM, proof, transcript(), num_queries=len(SAMPLE_POINTS))
    record("proof-verdict", "accept", report.verdict)
    for query, x in zip(proof.queries, SAMPLE_POINTS):
        chain = []
        y = x
        for j in range(5):
            pos, neg = query.fri[j]
            chain.append(fold_value(field, pos.value, neg, y, BETAS[j]))
            y = y * y % MODULUS
        record(f"proof-query-chain-{x}", QUERY_CHAINS[x], tuple(chain))

    return checks

