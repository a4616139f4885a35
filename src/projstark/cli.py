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
from typing import List, Optional, Sequence

from . import reference_example
from .air import FieldOverflowError, InvalidTraceError
from .channel import FiatShamirTranscript, ReplayTranscript, TranscriptError
from .dynamics import ExecutionTrace, SystemSpec, online_check, simulate
from .field import PrimeField
from .protocol import (MAX_QUERIES, ProofFormatError, check_publics, dump_proof, load_proof,
                       prove, verify)

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
    mode: str
    queries: int
    challenges: Optional[dict]


def _as_int(value, what: str) -> int:
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ConfigError(f"{what}: bad integer literal {value!r}")
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{what} must be an integer or base-10 string")


def _int_list(values, what: str) -> List[int]:
    if not isinstance(values, list):
        raise ConfigError(f"{what} must be a list")
    return [_as_int(v, what) for v in values]


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge literal, deep nesting
        raise ConfigError(f"{what} is not valid JSON: {exc}")


def load_config(path: str) -> RunConfig:
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    q = _as_int(doc.get("q", "331"), "q")
    if "A_hat" not in doc:
        raise ConfigError("missing A_hat")
    if not isinstance(doc["A_hat"], list):
        raise ConfigError("A_hat must be a list")
    a_hat = tuple(tuple(_int_list(row, "A_hat row")) for row in doc["A_hat"])
    try:
        spec = SystemSpec(
            a_hat=a_hat,
            z_upper=tuple(_int_list(doc.get("z_upper", []), "z_upper")),
            z_lower=tuple(_int_list(doc.get("z_lower", []), "z_lower")),
            z_init=tuple(_int_list(doc.get("z_init", []), "z_init")),
            num_steps=_as_int(doc.get("N", 0), "N"),
        )
        check_publics(q, spec.num_steps)  # before PrimeField tests q for primality
        field = PrimeField(q)
    except ValueError as exc:
        raise ConfigError(str(exc))

    mode = doc.get("mode", "fiat-shamir")
    if not isinstance(mode, str):
        raise ConfigError("mode must be a string")
    mode = mode.replace("_", "-")
    if mode not in ("replay", "fiat-shamir"):
        raise ConfigError(f"mode must be replay or fiat-shamir, got {mode!r}")

    queries = _as_int(doc.get("queries", 8), "queries")
    if not 1 <= queries <= MAX_QUERIES:
        raise ConfigError(f"queries must be in [1, {MAX_QUERIES}], got {queries}")

    challenges = None
    if "challenges" in doc:
        ch = doc["challenges"]
        if not isinstance(ch, dict):
            raise ConfigError("challenges must be an object")
        challenges = {
            "gammas": _int_list(ch.get("gammas", []), "gammas"),
            "betas": _int_list(ch.get("betas", []), "betas"),
            "sample_points": _int_list(ch.get("sample_points", []), "sample_points"),
        }
    if mode == "replay" and challenges is None:
        raise ConfigError("replay mode needs a challenges block")
    return RunConfig(field=field, spec=spec, mode=mode, queries=queries, challenges=challenges)


def _make_transcript(config: RunConfig, salt: bytes):
    if config.mode == "replay":
        return ReplayTranscript(config.field.modulus, **config.challenges)
    return FiatShamirTranscript(config.field.modulus, salt=salt)


def _salt(config: RunConfig) -> bytes:
    # seed only perturbs fiat-shamir transcripts; replay challenges are fixed
    if config.mode == "replay":
        return b""
    return os.environ.get("PROJSTARK_SEED", "").encode()


def trace_to_json(trace: ExecutionTrace) -> dict:
    def rows(rs):
        return [[str(v) for v in row] for row in rs]

    return {
        "version": 1,
        "z": rows(trace.z_rows),
        "alpha_up": rows(trace.alpha_up_rows),
        "alpha_lo": rows(trace.alpha_lo_rows),
        "delta": rows(trace.delta_rows),
    }


def trace_from_json(doc: dict, spec: SystemSpec) -> ExecutionTrace:
    if not isinstance(doc, dict):
        raise ConfigError("trace file must be a JSON object")

    def rows(key):
        if key not in doc:
            raise ConfigError(f"trace file missing {key!r}")
        if not isinstance(doc[key], list):
            raise ConfigError(f"trace {key!r} must be a list of rows")
        return tuple(tuple(_int_list(row, f"{key} row")) for row in doc[key])

    try:
        return ExecutionTrace(
            spec=spec,
            z_rows=rows("z"),
            alpha_up_rows=rows("alpha_up"),
            alpha_lo_rows=rows("alpha_lo"),
            delta_rows=rows("delta"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def load_trace(path: str, spec: SystemSpec) -> ExecutionTrace:
    return trace_from_json(_read_json(path, "trace"), spec)


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def _print_trace_table(trace: ExecutionTrace) -> None:
    n = trace.spec.n
    header = ["k"] + [f"z{i + 1}" for i in range(n)] \
        + [f"au{i + 1}" for i in range(n)] + [f"al{i + 1}" for i in range(n)] \
        + [f"d{i + 1}" for i in range(n)]
    print("  ".join(f"{h:>6}" for h in header))
    for k, z in enumerate(trace.z_rows):
        cells = [str(k)] + [str(v) for v in z]
        if k < trace.spec.num_steps:
            cells += [str(v) for v in trace.alpha_up_rows[k]]
            cells += [str(v) for v in trace.alpha_lo_rows[k]]
            cells += [str(v) for v in trace.delta_rows[k]]
        else:
            cells += ["-"] * (3 * n)
        print("  ".join(f"{c:>6}" for c in cells))


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    trace = simulate(config.spec)
    for k in range(config.spec.num_steps):
        reason = online_check(config.spec, trace.step(k))
        verdict = "accept" if reason is None else f"reject ({reason})"
        print(f"online step {k}: {verdict}")
    _print_trace_table(trace)
    if args.out:
        _write_out(args.out, json.dumps(trace_to_json(trace), indent=2))
        print(f"trace written to {args.out}")
    return EXIT_OK


def cmd_prove(args) -> int:
    config = load_config(args.config)
    trace = load_trace(args.trace, config.spec)
    salt = _salt(config)
    transcript = _make_transcript(config, salt)
    try:
        proof = prove(
            config.field, config.spec, trace, transcript,
            num_queries=config.queries, force=args.force_commit, salt=salt,
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
        report = verify(config.field, config.spec, proof, _make_transcript(config, proof.salt))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read proof: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ProofFormatError as exc:
        print(f"malformed proof: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    # the prover picks how many queries to answer; the config sets the least
    # number the verifier takes
    if report.accepted and len(proof.queries) < config.queries:
        print(f"verdict: reject: the proof answers {len(proof.queries)} queries, "
              f"the config asks for {config.queries}")
        return EXIT_REJECT
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
    _write_out(out, json.dumps(trace_to_json(tampered), indent=2))
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
    p.add_argument("--section", required=True, choices=["z", "alpha_up", "alpha_lo", "delta"])
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
