"""One measuring process of a benchmark run; run.py starts it.

It imports projstark from the checkout's src/, sets up the workload (field,
domain, seeded inputs, one warm-up proof), reports its set-up time measured
from --t0 (the launcher's monotonic clock just before the process started)
less the speed probes' time and scaled by their speed (see speed.py), and
unless --setup-only runs the closed loop. It prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from speed import SpeedProbe

    with SpeedProbe() as speed:
        return measure(args, speed, time.perf_counter())


def measure(args, speed, started: float) -> int:
    """Set up and measure with the speed probes running since `started`."""
    sys.path.insert(0, str(SRC))
    import projstark

    if Path(projstark.__file__).resolve().parent != (SRC / "projstark").resolve():
        print(f"perfbench: imported projstark from {projstark.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from harness import Harness, end_to_end, per_layer
    from tracer import Tracer, projstark_targets
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    harness = Harness(workload, args.seed)
    harness.iteration(online_runs=1)  # warm-up: its checks count, its timings do not
    setup_end = time.perf_counter()
    setup_wall_s = time.monotonic() - args.t0 - speed.busy(started, setup_end)
    out = {"setup_s": setup_wall_s * speed.factor(started, setup_end),
           "setup_wall_s": setup_wall_s}

    if not args.setup_only:
        if args.trace:
            # the traced run reports no verify tail, so one proof per half will do
            untraced = harness.loop(args.seconds / 2, min_proofs=1)
            tracer = Tracer(projstark_targets())
            with tracer:
                traced = harness.loop(args.seconds / 2, tracer, min_proofs=1)
            out.update(per_layer(traced, tracer, untraced, speed))
            out["spans"] = tracer.to_json()
        else:
            samples = harness.loop(args.seconds)
            out["metrics"] = end_to_end(workload, samples, speed)
        if workload.paper_system:
            harness.replay_gate()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out.update(attempted=harness.attempted, failed=harness.failed, failures=harness.failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
