"""Per-layer metrics: which end-to-end metric each one should move and on which
workload, and how traced spans are attributed to it. Their names, units and
better directions are read from BENCHMARK.json.

Every traced frame is charged to exactly one time metric with its self time,
so within one phase (the online stage, prove, dump, load or verify) the time
metrics add up to the phase's wall time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable

from tracer import Span

# Name, unit and better direction of every per-layer metric, in report order.
# Values are per proof: one online stage, prove, dump, load and verify.
PER_LAYER = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]

# metric -> (end-to-end metrics it should move, workload where it should move
# them, with in parentheses where it should move them little or not at all)
MOVES: Dict[str, tuple] = {
    name: (moves, on)
    for names, moves, on in (
        ("poly.evaluate_s poly.evaluate_calls", "prove_s", "field-q12289 (paper-q64)"),
        ("channel.merkle_build_s channel.merkle_leaves channel.merkle_leaf_fill",
         "prove_s, peak_rss_mb", "field-q12289 (paper-q64)"),
        ("poly.interpolate_s poly.interpolate_calls poly.mul_s poly.divmod_s "
         "poly.vanishing_s air.lift_trace_s air.build_trace_polys_self_s "
         "air.build_numerators_self_s air.build_compositions_self_s air.combine_s",
         "prove_s", "trace-q769 (field-q12289)"),
        ("fri.fold_s fri.fold_calls fri.fold_value_s fri.fold_value_calls fri.rounds",
         "prove_s, verify_ms", "all (small today)"),
        ("channel.merkle_open_s channel.merkle_open_calls channel.verify_opening_s "
         "channel.verify_opening_calls", "verify_ms, prove_s", "paper-q64 (trace-q769)"),
        ("channel.transcript_s channel.draw_calls", "verify_ms", "paper-q64"),
        ("protocol.prove_self_s protocol.prove_domain_s", "prove_s", "field-q12289"),
        ("protocol.verify_domain_s protocol.verify_self_s", "verify_ms",
         "field-q12289 (paper-q64)"),
        ("protocol.dump_proof_s protocol.load_proof_s protocol.proof_bytes.commitments "
         "protocol.proof_bytes.trace_openings protocol.proof_bytes.fri_openings",
         "verify_ms, proof_kb", "paper-q64"),
        ("dynamics.online_stage_self_s dynamics.online_check_s dynamics.online_check_calls "
         "dynamics.clamped_share", "online_step_us", "trace-q769"),
        ("field.build_domain_s", "setup_s, verify_ms", "all"),
        ("trace.overhead", "none (traced prove_s / untraced prove_s)", "all"),
    )
    for name in names.split()
}

# The phases one proof goes through, as the benchmark calls them.
PHASES = ("protocol.run_online_stage", "protocol.prove", "protocol.dump_proof",
          "protocol.load_proof", "protocol.verify")

# traced name -> (self-time metric, call-count metric or None)
_ATTRIBUTION = {
    "protocol.run_online_stage": ("dynamics.online_stage_self_s", None),
    "protocol.prove": ("protocol.prove_self_s", None),
    "protocol.dump_proof": ("protocol.dump_proof_s", None),
    "protocol.load_proof": ("protocol.load_proof_s", None),
    "protocol.verify": ("protocol.verify_self_s", None),
    "protocol.build_domain": ("field.build_domain_s", None),
    "protocol.lift_trace": ("air.lift_trace_s", None),
    "protocol.build_trace_polys": ("air.build_trace_polys_self_s", None),
    "protocol.build_numerators": ("air.build_numerators_self_s", None),
    "protocol.build_compositions": ("air.build_compositions_self_s", None),
    "protocol.combine": ("air.combine_s", None),
    "protocol.fold": ("fri.fold_s", "fri.fold_calls"),
    "protocol.online_check": ("dynamics.online_check_s", "dynamics.online_check_calls"),
    "protocol.verify_opening": ("channel.verify_opening_s", "channel.verify_opening_calls"),
    "protocol.fold_value": ("fri.fold_value_s", "fri.fold_value_calls"),
    "air.interpolate": ("poly.interpolate_s", "poly.interpolate_calls"),
    "air.vanishing": ("poly.vanishing_s", None),
    "Polynomial.__mul__": ("poly.mul_s", None),
    "Polynomial.__divmod__": ("poly.divmod_s", None),
    "Polynomial.evaluate": ("poly.evaluate_s", "poly.evaluate_calls"),
    "MerkleTree.__init__": ("channel.merkle_build_s", None),
    "MerkleTree.open": ("channel.merkle_open_s", "channel.merkle_open_calls"),
    "FiatShamirTranscript.absorb": ("channel.transcript_s", None),
    "FiatShamirTranscript.draw": ("channel.transcript_s", "channel.draw_calls"),
}

# The evaluation domains are prover bookkeeping under prove and the verifier's
# O(q) index maps under verify.
_DOMAIN_METRIC = {"protocol.prove": "protocol.prove_domain_s",
                  "protocol.verify": "protocol.verify_domain_s"}


def _metrics_of(name: str, phase: str):
    if name in ("protocol.base_eval_domain", "protocol.layer_eval_domains"):
        return _DOMAIN_METRIC[phase], None
    return _ATTRIBUTION[name]


def phase_breakdown(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """phase -> time metric -> seconds of self time charged to it."""
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        time_metric, _ = _metrics_of(span.name, span.phase)
        out[span.phase][time_metric] += span.self_s
        for name, stats in span.calls.items():
            time_metric, _ = _metrics_of(name, span.phase)
            out[span.phase][time_metric] += stats.self_s
    return out


def call_counts(spans: Iterable[Span]) -> Dict[str, int]:
    """Call-count metric -> calls, over all given spans."""
    out: Dict[str, int] = defaultdict(int)
    for span in spans:
        _, count_metric = _metrics_of(span.name, span.phase)
        if count_metric:
            out[count_metric] += 1
        for name, stats in span.calls.items():
            _, count_metric = _metrics_of(name, span.phase)
            if count_metric:
                out[count_metric] += stats.count
    return out


def phase_walls(spans: Iterable[Span]) -> Dict[str, float]:
    """phase -> wall seconds of its outermost span."""
    return {s.name: s.duration_s for s in spans if s.name == s.phase}
