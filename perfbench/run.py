"""projstark benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. With --trace 0 it prints every
end-to-end metric with its unit; with --trace 1 it prints every per-layer
metric, the layer shares of prove and verify, and the tracing overhead. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; its metrics are those BENCHMARK.json lists
for the mode. verify_ms_tail and error_rate are printed and recorded but not
listed there: a run of field-q12289 or trace-q769 holds only 11 to 20
distinct proofs, so its verify "tail" is a low percentile of few samples,
and error_rate is 0 whenever the result is correct. The full record, with nproc and the Python
version, goes to .perfbench-results/. Exits 1 when any operation failed and 2
when the checkout holds no projstark sources.

With --trace 0, set-up runs SETUP_RUNS times in fresh processes (the last one
goes on to measure). Each set-up is timed from just before its process starts
to the end of the warm-up proof, and setup_s is the median. Times are scaled
to the reference speed of speed.py, with wall-clock medians kept in the
record.
peak_rss_mb is the ru_maxrss of the measuring process, which runs nothing but
this workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import MOVES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench-results"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_RUNS = 3
RUN_LIMIT_S = 170  # the whole run, every child process included


def spawn(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    # String hashing decides the layout of the interpreter's dicts and with it
    # a few per cent of its speed, which would otherwise change from process
    # to process; a fixed hash seed keeps that out of the run-to-run spread.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    t0 = time.monotonic()
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - t0, 1.0), cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def report_end_to_end(metrics: dict, setup: list, failed: int, attempted: int) -> None:
    tail = metrics["verify_ms_tail"]
    notes = {
        "verify_ms_tail": f"(p{tail['percentile']:.1f} of {tail['samples']} samples)",
        "setup_s": f"(median of {len(setup)} set-ups)",
    }
    for name, m in metrics.items():
        wall = f"(wall {m['wall']:.4f}) " if "wall" in m else ""
        print(f"{name:<16} {m['value']:>12.4f} {m['unit']:<5} {wall}{notes.get(name, '')}")
    print(f"{'error_rate':<16} {failed / attempted:>12.4f} ratio "
          f"({failed} of {attempted} operations failed)")


def report_per_layer(result: dict) -> None:
    for name, m in result["metrics"].items():
        moves, on = MOVES[name]
        print(f"{name:<38} {m['value']:>14.6g} {m['unit']:<6} moves {moves} on {on}")
    print(f"tracing overhead: traced prove {result['traced_prove_s']:.4f} s / "
          f"untraced prove {result['untraced_prove_s']:.4f} s")
    for kind, shares in result["shares"].items():
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        print(f"share of {kind}: " + ", ".join(f"{m} {v:.1%}" for m, v in ranked if v >= 0.005))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "projstark" / "__init__.py").is_file():
        print(f"perfbench: no projstark sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = json.loads(BENCHMARK.read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup_runs = [spawn(args, deadline, setup_only=True)
                      for _ in range(0 if args.trace else SETUP_RUNS - 1)]
        main_run = spawn(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    runs = setup_runs + [main_run]
    setup = [r["setup_s"] for r in runs]
    setup_wall = [r["setup_wall_s"] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} nproc {len(os.sched_getaffinity(0))} "
          f"python {platform.python_version()}")
    if args.trace:
        metrics = main_run["metrics"]
        report_per_layer(main_run)
    else:
        metrics = dict(main_run["metrics"])
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s",
                              "wall": statistics.median(setup_wall)}
        metrics["peak_rss_mb"] = {"value": main_run["peak_rss_mb"], "unit": "MiB"}
        report_end_to_end(metrics, setup, failed, attempted)

    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    record = {
        "workload": args.workload, "why": whys[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "setup_s_samples": setup, "attempted": attempted, "failed": failed,
        "failures": [f for r in runs for f in r["failures"]],
        "metrics": metrics,
    }
    if args.trace:
        record["layers"] = {n: {"moves": MOVES[n][0], "on": MOVES[n][1]} for n in metrics}
        record["shares"] = main_run["shares"]
        record["spans"] = main_run["spans"]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in bench["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
