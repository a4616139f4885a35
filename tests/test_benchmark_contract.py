"""What the benchmark under perfbench/ takes from projstark, checked here.

The benchmark wraps projstark's functions by name, finds a proof's openings
by their dataclass's field names, and sizes a proof's sections by the keys of
its document. A change to the package that breaks any of these makes every
benchmark run fail, so the tier-1 suite checks them on a paper Fiat-Shamir
proof. perfbench/ is imported, never edited.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from projstark import protocol
from projstark import reference_example as ref
from projstark.channel import FiatShamirTranscript
from projstark.protocol import ProofFormatError, prove, verify

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
from tracer import Tracer, projstark_targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SALT = b"bench-contract"


@pytest.fixture(scope="module")
def proof(field, paper_spec, paper_trace):
    transcript = FiatShamirTranscript(ref.MODULUS, salt=SALT)
    return prove(field, paper_spec, paper_trace, transcript, num_queries=8, salt=SALT)


def test_every_tracer_target_resolves_and_a_traced_iteration_fails_nothing():
    # install wraps each name where its callers resolve it; one closed-loop
    # pass of the benchmark's first run, traced paper-q64 (64 queries), with
    # its tampered copy and the replay gate, fails no operation; uninstall
    # puts every original back
    targets = projstark_targets()
    originals = [vars(t.owner)[t.attr] for t in targets]
    bench = harness.Harness(WORKLOADS["paper-q64"], seed=1)
    with Tracer(targets) as tracer:
        assert all(vars(t.owner)[t.attr].__wrapped__ is o for t, o in zip(targets, originals))
        sample = bench.iteration(tracer, label=0)
        bench.replay_gate()
    assert not tracer.installed
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(targets, originals))
    assert (bench.failed, bench.failures) == (0, [])
    assert sample is not None and sample.proof_bytes > 0
    assert {"protocol.prove", "protocol.verify", "protocol.load_proof"} <= {
        s.name for s in tracer.spans}


def test_tamper_changes_one_opening_and_verify_rejects_it(field, paper_spec, proof):
    # one FRI opening per query: the records whose fields are exactly
    # {index, value, path}, at the paths the harness edits by
    found = list(harness._nodes(proof, {"index", "value", "path"}))
    assert len(found) == len(proof.queries) and len(proof.fri_layers.roots) == 0
    assert all(type(node) is protocol.Opening for _, node in found)
    for seed in range(20):
        bad = harness.tamper(proof, ref.MODULUS, seed)
        changed = [(a, b) for (_, a), (_, b) in zip(found, harness._nodes(
            bad, {"index", "value", "path"})) if a != b]
        assert len(changed) == 1
        (was, now), = changed
        assert dataclasses.replace(now, value=was.value) == was
        try:
            accepted = verify(field, paper_spec, bad).accepted
        except ProofFormatError:
            accepted = False
        assert not accepted, seed


def test_proof_stats_reads_every_section(proof):
    stats = harness.proof_stats(proof)
    sections = {k: v for k, v in stats.items() if k.startswith("protocol.proof_bytes.")}
    assert set(sections) == {f"protocol.proof_bytes.{s}"
                             for s in ("commitments", "trace_openings", "fri_openings")}
    assert all(v > 0 for v in sections.values())
    assert stats["channel.merkle_leaves"] > 0 and 0 < stats["channel.merkle_leaf_fill"] <= 1
    assert stats["fri.rounds"] >= 1


def test_a_traced_paper_q64_run_exits_0_and_is_correct():
    # the whole traced run, as CI's smoke step runs it: its worker, the
    # per-layer metrics and the phase breakdown, none of which the in-process
    # iteration above reaches; any error there exits 1. About 1.5 s
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-q64", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
