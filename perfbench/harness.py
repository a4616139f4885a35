"""The closed loop the benchmark measures, with its correctness gate.

One client in one thread. Each iteration draws a fresh z_init and salt, runs
the online stage with the honest step source on it (and on further fresh
z_inits, for more online samples), proves, dumps, loads and verifies the
proof once, and verifies a tampered copy. No timed operation runs twice on
the same input, so memoising on an input cannot pass for a speed-up. Every operation that fails
(an exception on the honest path, an honest proof rejected, a dump/load round
trip that is not equal, a tampered proof accepted, a replay golden mismatch)
is counted against the operations attempted.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

import layers
from speed import SpeedProbe
from tracer import Tracer, clock
from workloads import Inputs, Workload, clamped_share

from projstark import FiatShamirTranscript, PrimeField, ProofFormatError, build_domain
from projstark import protocol
from projstark.fri import num_rounds
from projstark.reference_example import run_replay


TAIL_BEYOND = 10


@dataclass
class Sample:
    """One iteration's timed operations, as (start, end) on clock(), and sizes."""

    label: int = 0
    online: List[Tuple[float, float]] = field(default_factory=list)
    prove: Tuple[float, float] = (0.0, 0.0)
    verify: Tuple[float, float] = (0.0, 0.0)  # load_proof + verify
    proof_bytes: int = 0
    clamped_share: float = 0.0
    proof_stats: Dict[str, float] = field(default_factory=dict)  # traced runs only


def _nodes(obj, field_names, path=()):
    """(path, node) for every dataclass in obj whose fields are field_names."""
    if dataclasses.is_dataclass(obj):
        fields = dataclasses.fields(obj)
        if {f.name for f in fields} == field_names:
            yield path, obj
            return
        for f in fields:
            yield from _nodes(getattr(obj, f.name), field_names, path + (f.name,))
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from _nodes(item, field_names, path + (i,))


def _replace_at(obj, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(head, str):
        return dataclasses.replace(obj, **{head: _replace_at(getattr(obj, head), rest, new)})
    return obj[:head] + (_replace_at(obj[head], rest, new),) + obj[head + 1:]


def tamper(proof, modulus: int, seed: int):
    """Copy of the proof with one opened value, chosen by the seed, changed."""
    rng = random.Random(seed)
    path, opening = rng.choice(list(_nodes(proof, {"index", "value", "path"})))
    value = (opening.value + rng.randrange(1, modulus)) % modulus
    return _replace_at(proof, path, dataclasses.replace(opening, value=value))


def _dumped_size(doc) -> int:
    return len(json.dumps(doc, indent=2))


def proof_section_bytes(proof) -> Dict[str, int]:
    """Bytes of the dumped proof that each section accounts for: the size of
    the dump minus its size with that section emptied."""
    doc = protocol.proof_to_json(proof)
    total = _dumped_size(doc)

    def without(edit) -> int:
        trimmed = json.loads(json.dumps(doc))
        edit(trimmed)
        return total - _dumped_size(trimmed)

    def no_commitments(d):
        d["commitments"] = {}
        d["fri_layers"]["roots"] = []

    def no_trace_openings(d):
        for query in d["queries"]:
            for key in list(query):
                if key not in ("x", "fri"):
                    query[key] = []

    def no_fri_openings(d):
        for query in d["queries"]:
            query["fri"] = []

    return {
        "protocol.proof_bytes.commitments": without(no_commitments),
        "protocol.proof_bytes.trace_openings": without(no_trace_openings),
        "protocol.proof_bytes.fri_openings": without(no_fri_openings),
    }


def proof_stats(proof) -> Dict[str, float]:
    """Per-layer figures read off a proof: section bytes, FRI rounds, and the
    leaves the prover committed with their share of the padded trees."""
    comms = [c for _, c in _nodes(proof, {"root", "leaf_count"})]
    leaves = sum(c.leaf_count for c in comms)
    padded = sum(1 << (c.leaf_count - 1).bit_length() for c in comms)
    return {
        **proof_section_bytes(proof),
        "fri.rounds": num_rounds(proof.degree_bound),
        "channel.merkle_leaves": leaves,
        "channel.merkle_leaf_fill": leaves / padded,
    }


class Harness:
    """Set-up shared by every proof of a run, and the closed loop over it."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.field = PrimeField(workload.modulus)
        # prove and verify derive the domain themselves; building it here
        # puts its cost in set-up and fails early if the subgroup is missing
        self.domain = build_domain(self.field, workload.num_steps + 1)
        self.inputs = Inputs(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)
            print(f"perfbench: {self.workload.name}: {what}", file=sys.stderr)

    def _online(self, spec, sample: Sample):
        self.attempted += 1
        step_source = protocol.honest_step_source(spec)
        start = clock()
        trace = protocol.run_online_stage(spec, step_source)
        sample.online.append((start, clock()))
        return trace

    def iteration(self, tracer: Optional[Tracer] = None, label: int = 0,
                  online_runs: Optional[int] = None) -> Optional[Sample]:
        """One pass of the closed loop; None when an operation failed.

        The proof's own online stage is followed by online_runs - 1 more
        (the workload's count by default), each on a fresh z_init. With a
        tracer, the proof's online stage, prove, dump, load and verify are
        recorded under `label`; the other online stages and the tampered
        verify are not.
        """
        w = self.workload
        runs = w.online_runs if online_runs is None else online_runs
        inp = self.inputs.next_proof()
        sample = Sample(label=label)

        def record(on: bool) -> None:
            if tracer is not None:
                tracer.iteration = label if on else None

        record(True)
        try:
            trace = self._online(inp.spec, sample)
            record(False)
            for _ in range(runs - 1):
                self._online(self.inputs.next_spec(), sample)
            sample.clamped_share = clamped_share(trace)
            record(True)

            self.attempted += 1
            transcript = FiatShamirTranscript(w.modulus, salt=inp.salt)
            start = clock()
            proof = protocol.prove(self.field, inp.spec, trace, transcript,
                                   num_queries=w.queries, salt=inp.salt)
            sample.prove = (start, clock())
            text = protocol.dump_proof(proof)
            sample.proof_bytes = len(text.encode())

            self.attempted += 1
            start = clock()
            loaded = protocol.load_proof(text)
            report = protocol.verify(self.field, inp.spec, loaded)
            sample.verify = (start, clock())
            record(False)
            if not report.accepted:
                self._fail(f"honest proof rejected: {report.stage}: {report.detail}")
                return None
            self.attempted += 1
            if loaded != proof:
                self._fail("dump/load round trip changed the proof")
                return None

            self.attempted += 1
            bad = tamper(loaded, w.modulus, inp.tamper_seed)
            try:
                accepted = protocol.verify(self.field, inp.spec, bad).accepted
            except ProofFormatError:
                accepted = False
            if accepted:
                self._fail("tampered proof accepted")
                return None
        except Exception as exc:  # noqa: BLE001 - the loop counts it and goes on
            self._fail(f"{type(exc).__name__} on the honest path: {exc}")
            return None
        finally:
            record(False)
        if tracer is not None:
            sample.proof_stats = proof_stats(proof)
        return sample

    def replay_gate(self) -> None:
        """Every golden value of the built-in worked example must reproduce."""
        self.attempted += 1
        bad = [c.name for c in run_replay() if not c.ok]
        if bad:
            self._fail(f"replay golden mismatch: {', '.join(bad)}")

    def loop(self, seconds: float, tracer: Optional[Tracer] = None,
             min_proofs: int = TAIL_BEYOND + 1) -> List[Sample]:
        """Iterate for `seconds` and at least `min_proofs` times (by default
        enough for a verify tail with TAIL_BEYOND samples beyond it);
        successful samples only."""
        samples = []
        deadline = clock() + seconds
        i = 0
        while i < min_proofs or clock() < deadline:
            sample = self.iteration(tracer, label=i)
            if sample is not None:
                samples.append(sample)
            i += 1
        return samples


def tail(values) -> Dict[str, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return {"value": ordered[rank], "percentile": 100.0 * (rank + 1) / n, "samples": n}


def end_to_end(workload: Workload, samples: List[Sample], speed: SpeedProbe) -> Dict[str, dict]:
    """End-to-end metrics, each time scaled to reference speed by the speed
    probes around its operation (see speed.py); wall-clock medians beside."""
    def timed(intervals, scale: float) -> List[Tuple[float, float]]:
        return [(wall * scale, scaled * scale)
                for wall, scaled in (speed.timed(*iv) for iv in intervals)]

    def summary(values, unit: str) -> dict:
        return {"value": median(k for _, k in values), "unit": unit,
                "wall": median(v for v, _ in values)}

    prove = timed((s.prove for s in samples), 1.0)
    verify = timed((s.verify for s in samples), 1e3)
    online = timed((iv for s in samples for iv in s.online), 1e6 / workload.num_steps)
    verify_tail = tail([k for _, k in verify])
    return {
        "prove_s": summary(prove, "s"),
        "verify_ms": summary(verify, "ms"),
        "verify_ms_tail": {**verify_tail, "unit": "ms",
                           "wall": tail([v for v, _ in verify])["value"]},
        "proof_kb": {"value": median(s.proof_bytes / 1024 for s in samples), "unit": "KiB"},
        "online_step_us": summary(online, "us"),
    }


def per_layer(samples: List[Sample], tracer: Tracer, untraced: List[Sample],
              speed: SpeedProbe) -> dict:
    """Median per proof of every per-layer metric, with times at reference
    speed, and the median share of prove and of verify (load_proof + verify)
    that each time metric takes. `untraced` gives the overhead's base. The
    speed probes that interrupt a traced call count in its time."""
    spans_of: Dict[object, list] = defaultdict(list)
    for span in tracer.spans:
        spans_of[span.iteration].append(span)
    rows, prove_times = [], []
    shares: Dict[str, List[Dict[str, float]]] = {"prove": [], "verify": []}
    for sample in samples:
        spans = spans_of[sample.label]
        breakdown = layers.phase_breakdown(spans)
        walls = layers.phase_walls(spans)
        k = speed.factor(sample.online[0][0], sample.verify[1])
        row: Dict[str, float] = defaultdict(float)
        for phase in layers.PHASES:
            for metric, seconds in breakdown[phase].items():
                row[metric] += seconds * k
        row.update(layers.call_counts(spans))
        row.update(sample.proof_stats)
        row["dynamics.clamped_share"] = sample.clamped_share
        rows.append(row)

        prove_wall = walls["protocol.prove"]
        prove_times.append((prove_wall - speed.busy(*sample.prove))
                           * speed.factor(*sample.prove))
        shares["prove"].append(
            {m: v / prove_wall for m, v in breakdown["protocol.prove"].items()})
        verify_wall = walls["protocol.load_proof"] + walls["protocol.verify"]
        verify_share: Dict[str, float] = defaultdict(float)
        for phase in ("protocol.load_proof", "protocol.verify"):
            for metric, seconds in breakdown[phase].items():
                verify_share[metric] += seconds / verify_wall
        shares["verify"].append(verify_share)

    metrics = {
        m["name"]: {"value": median(row.get(m["name"], 0.0) for row in rows),
                    "unit": m["unit"]}
        for m in layers.PER_LAYER if m["name"] != "trace.overhead"
    }
    traced_prove_s = median(prove_times)
    untraced_prove_s = median(speed.timed(*s.prove)[1] for s in untraced)
    metrics["trace.overhead"] = {"value": traced_prove_s / untraced_prove_s, "unit": "ratio"}
    share_medians = {
        kind: {m: median(d.get(m, 0.0) for d in dicts)
               for m in sorted({m for d in dicts for m in d})}
        for kind, dicts in shares.items()
    }
    return {"metrics": metrics, "shares": share_medians, "traced_prove_s": traced_prove_s,
            "untraced_prove_s": untraced_prove_s}
