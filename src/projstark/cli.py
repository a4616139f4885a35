"""Command-line front end.

Exit codes are a stable contract: 0 accept/success, 2 configuration error,
3 prover-side invalid input, 4 verification reject, 5 malformed proof,
6 replay mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from . import reference_example
from .air import FieldOverflowError, InvalidTraceError, constraint_count
from .channel import FiatShamirTranscript, ReplayTranscript, TranscriptError
from .dynamics import SECTIONS, ExecutionTrace, SystemSpec
from .field import PrimeField
from .protocol import (Base10, ProofFormatError, _as_json, _check_num_queries, _domains, _int,
                       dump_proof, honest_step_source, load_proof, prove, reader, reading,
                       run_online_stage, verify)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVER = 3
EXIT_REJECT = 4
EXIT_MALFORMED = 5
EXIT_REPLAY_MISMATCH = 6


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    field: PrimeField
    spec: SystemSpec
    queries: int
    challenges: Optional[dict]  # replayed as given; None for a Fiat–Shamir run


# The files the CLI reads, declared as the proof is; only a key with a default may be left out


@dataclass(frozen=True)
class Challenges:
    gammas: Tuple[Base10, ...] = ()
    betas: Tuple[Base10, ...] = ()
    sample_points: Tuple[Base10, ...] = ()


@dataclass(frozen=True)
class ConfigDocument:
    A_hat: Tuple[Tuple[Base10, ...], ...]
    N: Base10
    z_upper: Tuple[Base10, ...]
    z_lower: Tuple[Base10, ...]
    z_init: Tuple[Base10, ...]
    q: Base10
    queries: Base10 = 8
    challenges: Optional[Challenges] = None


@dataclass(frozen=True)
class TraceDocument:  # one key per section of dynamics.SECTIONS, in its order
    z: Tuple[Tuple[Base10, ...], ...]
    alpha_up: Tuple[Tuple[Base10, ...], ...]
    alpha_lo: Tuple[Tuple[Base10, ...], ...]
    delta: Tuple[Tuple[Base10, ...], ...]
    version: int = 1


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge literal, deep nesting
        raise ConfigError(f"{what} is not valid JSON: {exc}")


def load_config(path: str) -> RunConfig:
    """A replay run when the config has a challenges block, else a Fiat–Shamir run."""
    with reading(ConfigError):
        doc = reader(ConfigDocument)(_read_json(path, "config"))
        spec = SystemSpec(doc.A_hat, doc.z_upper, doc.z_lower, doc.z_init, doc.N)
        domains = _domains(doc.q, spec.num_steps)
        _check_num_queries(doc.queries)

    if doc.challenges is None:
        return RunConfig(domains.field, spec, doc.queries, None)
    challenges = {k: list(v) for k, v in vars(doc.challenges).items()}
    # not betas, whose count depends on the degree bound
    for name, needed in (("gammas", constraint_count(spec)), ("sample_points", doc.queries)):
        if len(challenges[name]) < needed:
            raise ConfigError(f"replay needs at least {needed} challenges.{name}, "
                              f"got {len(challenges[name])}")
    try:  # each as a transcript can draw it: in [1, q), a sample point in D0
        ReplayTranscript(doc.q, **challenges)
        for i, v in enumerate(challenges["sample_points"]):
            domains.leaf(v)
    except TranscriptError as exc:
        raise ConfigError(f"challenges.{exc}") from exc
    except ValueError:
        raise ConfigError(f"challenges.sample_points[{i}] = {v} "
                          "is not in the committed domain D0") from None
    return RunConfig(domains.field, spec, doc.queries, challenges)


def _make_transcript(config: RunConfig, salt: bytes):
    if config.challenges is None:
        return FiatShamirTranscript(config.field.modulus, salt=salt)
    return ReplayTranscript(config.field.modulus, **config.challenges)


def load_trace(path: str, spec: SystemSpec) -> ExecutionTrace:
    with reading(ConfigError):
        doc = _read_json(path, "trace")
        # the version first, so a file of another version is refused as such
        if type(doc) is dict and _int(doc.get("version", 1)) != TraceDocument.version:
            raise ValueError(f"unsupported trace version {doc['version']}")
        doc = reader(TraceDocument)(doc)
        return ExecutionTrace(spec, *(getattr(doc, name) for name in SECTIONS))


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def _write_trace(path: str, trace: ExecutionTrace) -> None:
    doc = TraceDocument(*trace.sections)
    _write_out(path, json.dumps(doc, default=_as_json, indent=2))


def _print_trace_table(trace: ExecutionTrace) -> None:
    """One line per row k, each section's cells under its initials and
    coordinate (`au1` for alpha_up[0]), `-` past the section's last row."""
    n = trace.spec.n
    header = ["k"] + ["".join(w[0] for w in name.split("_")) + str(i + 1)
                      for name in SECTIONS for i in range(n)]
    print("  ".join(f"{h:>6}" for h in header))
    for k in range(max(map(len, trace.sections))):
        cells = [str(k)]
        for rows in trace.sections:
            cells += map(str, rows[k]) if k < len(rows) else ["-"] * n
        print("  ".join(f"{c:>6}" for c in cells))


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    log: list = []
    trace = run_online_stage(config.spec, honest_step_source(config.spec), log)
    for entry in log:
        reason = f" ({entry['reason']})" if entry["reason"] else ""
        print(f"online step {entry['step']}: {entry['verdict']}{reason}")
    _print_trace_table(trace)
    if args.out:
        _write_trace(args.out, trace)
        print(f"trace written to {args.out}")
    return EXIT_OK


def cmd_prove(args) -> int:
    config = load_config(args.config)
    trace = load_trace(args.trace, config.spec)
    # the seed salts only fiat-shamir transcripts; replay challenges are fixed
    transcript = _make_transcript(config, os.environ.get("PROJSTARK_SEED", "").encode())
    try:
        proof = prove(
            config.field, config.spec, trace, transcript,
            num_queries=config.queries, force=args.force_commit,
        )
    except (InvalidTraceError, FieldOverflowError, TranscriptError) as exc:
        print(f"prover error: {exc}", file=sys.stderr)
        return EXIT_PROVER
    _write_out(args.out, dump_proof(proof))
    print(f"proof written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = load_config(args.config)
    try:
        with open(args.proof) as fh:
            proof = load_proof(fh.read())
        report = verify(config.field, config.spec, proof, _make_transcript(config, proof.salt),
                        num_queries=config.queries)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read proof: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ProofFormatError as exc:
        print(f"malformed proof: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    if report.accepted:
        print("verdict: accept")
        return EXIT_OK
    print(f"verdict: reject at stage {report.stage}: {report.detail}")
    return EXIT_REJECT


def cmd_replay_paper(args) -> int:
    checks = reference_example.run_replay()
    failed = [c for c in checks if not c.ok]
    for c in checks:
        if c.ok:
            print(f"ok       {c.name}")
        else:
            print(f"MISMATCH {c.name}: expected {c.expected!r}, got {c.actual!r}")
    if failed:
        print(f"{len(failed)} of {len(checks)} golden checks diverged")
        return EXIT_REPLAY_MISMATCH
    print("all golden degree tables, coefficient lists, and query chains reproduced")
    return EXIT_OK


def cmd_tamper(args) -> int:
    config = load_config(args.config)
    trace = load_trace(args.trace, config.spec)
    try:
        tampered = trace.with_cell(args.section, args.row, args.index, args.value)
    except (IndexError, ValueError) as exc:
        raise ConfigError(str(exc))
    out = args.out or args.trace
    _write_trace(out, tampered)
    print(f"tampered trace written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projstark",
        description="Prove and verify the computational integrity of projected linear dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the dynamics and write the execution trace")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="trace output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prove", help="produce a proof from a trace file")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force-commit", action="store_true",
                   help="commit an inconsistent trace instead of refusing (soundness demos)")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("verify", help="verify a proof against the configured public inputs")
    p.add_argument("--config", required=True)
    p.add_argument("--proof", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay-paper", help="recompute the built-in worked example")
    p.set_defaults(func=cmd_replay_paper)

    p = sub.add_parser("tamper", help="edit one trace cell in place")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--section", required=True, choices=list(SECTIONS))
    p.add_argument("--row", required=True, type=int)
    p.add_argument("--index", required=True, type=int)
    p.add_argument("--value", required=True, type=int)
    p.add_argument("--out", help="write to this path instead of in place")
    p.set_defaults(func=cmd_tamper)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
