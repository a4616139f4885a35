"""Tests of the benchmark's tracer, inputs and tail.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import layers  # noqa: E402
from harness import Harness, TAIL_BEYOND, tail  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, projstark_targets  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload  # noqa: E402

from projstark import protocol  # noqa: E402

# A seeded system small enough to prove in milliseconds.
TINY = Workload(name="tiny", modulus=257, num_steps=15, dim=2, queries=4, online_runs=2)
PAPER_FEW_QUERIES = dataclasses.replace(WORKLOADS["paper-q64"], queries=4)


def current_objects():
    return {(t.owner, t.attr): vars(t.owner)[t.attr] for t in projstark_targets()}


def assert_unwrapped():
    for (owner, attr), obj in current_objects().items():
        assert not hasattr(obj, "__wrapped__"), f"{owner.__name__}.{attr} is still wrapped"


@pytest.mark.parametrize("workload", [TINY, PAPER_FEW_QUERIES], ids=lambda w: w.name)
def test_traced_run_restores_every_wrapped_name(workload):
    before = current_objects()
    harness = Harness(workload, seed=3)
    tracer = Tracer(projstark_targets())
    with tracer:
        assert all(vars(o)[a] is not before[(o, a)] for o, a in before)
        samples = harness.loop(0, tracer)
    assert not tracer.installed
    after = current_objects()
    assert all(after[key] is before[key] for key in before)
    assert harness.failed == 0 and samples
    assert {s.phase for s in tracer.spans} == set(layers.PHASES)


def test_untraced_run_installs_no_wrapper(monkeypatch):
    checked = []
    honest = protocol.honest_step_source

    def checking_source(spec):
        step = honest(spec)

        def source(k, z, attempt):
            assert_unwrapped()
            checked.append(k)
            return step(k, z, attempt)

        return source

    monkeypatch.setattr(protocol, "honest_step_source", checking_source)
    harness = Harness(TINY, seed=5)
    assert harness.iteration() is not None
    assert checked and harness.failed == 0


def test_prove_layer_self_times_add_up_to_prove_wall_time():
    harness = Harness(TINY, seed=7)
    tracer = Tracer(projstark_targets())
    with tracer:
        samples = harness.loop(0, tracer)
    resolution = time.get_clock_info("perf_counter").resolution
    for sample in samples:
        spans = tracer.iteration_spans(sample.label)
        breakdown = layers.phase_breakdown(spans)
        wall = layers.phase_walls(spans)["protocol.prove"]
        prove = breakdown["protocol.prove"]
        assert set(prove) <= set(layers.MOVES)
        assert "protocol.prove_self_s" in prove and "poly.evaluate_s" in prove
        frames = sum(1 + sum(c.count for c in s.calls.values()) for s in spans)
        assert abs(sum(prove.values()) - wall) <= resolution * frames + 1e-12


def test_inputs_repeat_for_a_seed_and_fit_the_field():
    a, b = Inputs(TINY, 11), Inputs(TINY, 11)
    assert a.spec == b.spec
    assert [a.next_proof() for _ in range(3)] == [b.next_proof() for _ in range(3)]
    assert Inputs(TINY, 12).spec != a.spec


def test_tail_has_ten_samples_beyond_it():
    values = list(range(200))
    t = tail(values)
    assert sum(v > t["value"] for v in values) == TAIL_BEYOND
    assert t["samples"] == 200



def test_each_online_stage_and_verify_gets_its_own_input(monkeypatch):
    seen = {"online": [], "verify": []}
    run_online_stage, load_proof = protocol.run_online_stage, protocol.load_proof

    def recording_online_stage(spec, step_source):
        seen["online"].append(tuple(spec.z_init))
        return run_online_stage(spec, step_source)

    def recording_load_proof(text):
        seen["verify"].append(text)
        return load_proof(text)

    monkeypatch.setattr(protocol, "run_online_stage", recording_online_stage)
    monkeypatch.setattr(protocol, "load_proof", recording_load_proof)
    harness = Harness(dataclasses.replace(TINY, online_runs=4), seed=9)
    samples = harness.loop(0, min_proofs=3)
    assert harness.failed == 0 and len(samples) == 3
    assert len(seen["online"]) == 12 and len(set(seen["online"])) == 12
    assert len(seen["verify"]) == 3 and len(set(seen["verify"])) == 3


def test_speed_probe_time_is_taken_out_and_the_handler_restored():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.durations) >= 5
    wall, scaled = speed.timed(start, end)
    assert wall == pytest.approx(end - start - sum(speed.durations))
    assert scaled > 0
