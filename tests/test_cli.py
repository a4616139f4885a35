import dataclasses
import hashlib
import json
import re
import typing
from pathlib import Path

import pytest

from conftest import WRAPPING_SYSTEM, keyed, positional, replay_config, wrapping_trace
from test_protocol import PINNED_PROOF_DIGESTS
from projstark import field as field_module
from projstark import reference_example as ref
from projstark.channel import FiatShamirTranscript, ReplayTranscript
from projstark.cli import (
    EXIT_CONFIG,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_PROVER,
    EXIT_REJECT,
    EXIT_REPLAY_MISMATCH,
    ConfigDocument,
    ConfigError,
    RunConfig,
    TraceDocument,
    _make_transcript,
    load_config,
    load_trace,
    main,
)
from projstark.dynamics import SystemSpec, simulate
from projstark.field import PrimeField
from projstark.protocol import MAX_QUERIES, Base10, _domains

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(replay_config()))
    return str(path)


@pytest.fixture()
def fs_config_path(tmp_path):
    doc = replay_config()
    del doc["challenges"]
    path = tmp_path / "fs-config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def trace_path(tmp_path, config_path):
    out = str(tmp_path / "trace.json")
    assert main(["simulate", "--config", config_path, "--out", out]) == EXIT_OK
    return out


def test_load_config_parses_replay_example(config_path):
    config = load_config(config_path)
    assert config.field.modulus == 331
    assert config.spec.num_steps == 29
    assert config.challenges["gammas"] == list(ref.GAMMAS)


def test_simulate_writes_trace_and_reports(tmp_path, config_path, capsys):
    out = str(tmp_path / "trace.json")
    assert main(["simulate", "--config", config_path, "--out", out]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "online step 0: accept" in printed
    assert "online step 28: accept" in printed
    doc = json.loads(Path(out).read_text())
    assert len(doc["z"]) == 30
    assert doc["z"][20] == [3, 40]
    assert doc["delta"][0] == [100, 60]


def test_config_rejects_composite_modulus(tmp_path):
    doc = replay_config()
    doc["q"] = "330"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


def test_config_rejects_bad_subgroup(tmp_path):
    doc = replay_config()
    doc["N"] = "6"  # N+1 = 7 does not divide 330
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


def test_config_rejects_missing_file(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_config_rejects_overlong_integer_literal(tmp_path):
    # json refuses integer literals over 4300 digits with a plain ValueError
    path = tmp_path / "long.json"
    text = json.dumps({**replay_config(), "N": 0})
    path.write_text(text.replace('"N": 0', '"N": ' + "7" * 5001))
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


# deep enough that json.loads raises RecursionError on every supported Python
NESTED = "[" * 100_000


def test_deeply_nested_json_files_keep_the_exit_code_contract(tmp_path, config_path,
                                                              trace_path):
    nested = tmp_path / "nested.json"
    nested.write_text(NESTED)
    assert main(["verify", "--config", config_path, "--proof", str(nested)]) == EXIT_MALFORMED
    assert main(["simulate", "--config", str(nested)]) == EXIT_CONFIG
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", str(nested),
                 "--out", proof]) == EXIT_CONFIG


def test_huge_modulus_is_refused_before_any_primality_test(tmp_path, monkeypatch, capsys):
    q = 2**9689 - 1  # a 2917-digit prime

    def no_primality_test(n):
        raise AssertionError("q was tested for primality before its size was checked")

    monkeypatch.setattr(field_module, "is_prime", no_primality_test)
    path = _write_config(tmp_path, {**replay_config(), "q": str(q)})
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "must be below 2^64, got a 9689-bit q" in err
    assert str(q)[:20] not in err


def test_config_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"q": "331\xff"}')
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


def _write_config(tmp_path, doc, name="edited.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_queries_above_max_is_a_config_error(tmp_path, trace_path, capsys):
    doc = replay_config()
    doc["queries"] = 2000
    assert doc["queries"] > MAX_QUERIES
    path = _write_config(tmp_path, doc)
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", path, "--trace", trace_path, "--out", proof]) == EXIT_CONFIG
    assert "queries" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, MAX_QUERIES + 1])
def test_a_config_query_count_is_refused_as_prove_and_verify_refuse_it(tmp_path, count):
    path = _write_config(tmp_path, _fs_doc(queries=count))
    with pytest.raises(ConfigError, match=rf"^num_queries must be in \[1, 1024\], got {count}$"):
        load_config(path)


@pytest.mark.parametrize("key", ["N", "z_upper", "z_lower", "z_init", "q"])
def test_a_config_without_a_key_no_config_can_leave_out_is_refused_by_name(tmp_path, key,
                                                                           capsys):
    doc = _fs_doc()
    del doc[key]
    path = _write_config(tmp_path, doc)
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    assert f"missing field '{key}'" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=f"^missing field '{key}'$"):
        load_config(path)


def test_a_config_replays_exactly_when_it_has_a_challenges_block(tmp_path):
    # null stands for a left-out block, as for any Optional field
    for transcript, doc in ((ReplayTranscript, replay_config()),
                            (FiatShamirTranscript, _fs_doc()),
                            (FiatShamirTranscript, _fs_doc(challenges=None))):
        config = load_config(_write_config(tmp_path, doc))
        assert type(_make_transcript(config, b"")) is transcript


@pytest.mark.parametrize("mode", ["replay", "fiat-shamir"])
def test_a_config_that_names_a_mode_is_refused(tmp_path, capsys, mode):
    # the challenges block alone picks the transcript, so no key says it again
    for doc in (replay_config(), _fs_doc()):
        path = _write_config(tmp_path, {**doc, "mode": mode})
        assert main(["simulate", "--config", path]) == EXIT_CONFIG
        assert "unknown key 'mode'" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="^unknown key 'mode'$"):
            load_config(path)


def test_the_paper_replay_config_runs_from_the_cli_to_the_pinned_proof(tmp_path):
    # a replay config spells out every key a config has
    keys = {"A_hat", "N", "z_upper", "z_lower", "z_init", "q", "queries", "challenges"}
    assert {f.name for f in dataclasses.fields(ConfigDocument)} == keys
    doc = replay_config()
    assert set(doc) == keys
    config = _write_config(tmp_path, doc)
    trace, proof = str(tmp_path / "trace.json"), tmp_path / "proof.json"
    assert main(["simulate", "--config", config, "--out", trace]) == EXIT_OK
    assert main(["prove", "--config", config, "--trace", trace, "--out", str(proof)]) == EXIT_OK
    assert main(["verify", "--config", config, "--proof", str(proof)]) == EXIT_OK
    digest = hashlib.sha256(proof.read_bytes()).hexdigest()
    assert digest == PINNED_PROOF_DIGESTS["paper-replay"]


def test_config_negative_queries_is_a_config_error(tmp_path, trace_path):
    path = _write_config(tmp_path, {**replay_config(), "queries": -3})
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", path, "--trace", trace_path, "--out", proof]) == EXIT_CONFIG


def test_config_zero_queries_is_a_config_error(tmp_path, trace_path):
    zero = _write_config(tmp_path, _fs_doc(queries=0), "zero.json")
    three = _write_config(tmp_path, _fs_doc(queries=3), "three.json")
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", zero, "--trace", trace_path, "--out", proof]) == EXIT_CONFIG
    assert main(["prove", "--config", three, "--trace", trace_path, "--out", proof]) == EXIT_OK
    assert len(json.loads(Path(proof).read_text())["queries"]) == 3


@pytest.mark.parametrize("option", [["--mode", "fiat-shamir"], ["--mode", "replay"],
                                    ["--queries", "3"]])
def test_prove_takes_mode_and_queries_from_the_config_only(tmp_path, config_path, trace_path,
                                                           option, capsys):
    # verify reads the mode from the config alone, so prove does too: a proof
    # made in another mode than the config's is refused as malformed
    proof = str(tmp_path / "proof.json")
    with pytest.raises(SystemExit) as exc:
        main(["prove", "--config", config_path, "--trace", trace_path, "--out", proof, *option])
    assert exc.value.code == 2  # argparse's usage error
    assert "unrecognized arguments" in capsys.readouterr().err


def _fs_doc(**fields):
    doc = replay_config()
    del doc["challenges"]
    doc.update(fields)
    return doc


@pytest.mark.parametrize("field,index", [
    ("A_hat", (0, 0)), ("A_hat", (1, 1)), ("z_upper", (0,)), ("z_lower", (1,)), ("z_init", (0,)),
])
@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70])
def test_config_rejects_spec_integers_beyond_64_bits(tmp_path, field, index, value):
    doc = _fs_doc()
    cell = doc[field]
    for i in index[:-1]:
        cell = cell[i]
    cell[index[-1]] = str(value)
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, doc))


def test_spec_integer_beyond_64_bits_is_a_config_error_for_prove_and_verify(
    tmp_path, fs_config_path, trace_path, capsys
):
    # z1 stays 0, so A_hat[0][0] = 2^70 still gives a trace that fits in the field
    big = _write_config(tmp_path, _fs_doc(
        A_hat=[[str(2**70), "0"], ["-1", "1"]], z_init=["0", "40"]))
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path, "--out", proof]) == EXIT_OK
    assert main(["prove", "--config", big, "--trace", trace_path, "--out", proof]) == EXIT_CONFIG
    assert main(["verify", "--config", big, "--proof", proof]) == EXIT_CONFIG
    assert "A_hat" in capsys.readouterr().err


def test_modulus_of_2_to_the_64_or_more_is_a_config_error_for_prove_and_verify(
    tmp_path, fs_config_path, trace_path, capsys
):
    # 2^89 - 1 is prime and N + 1 = 30 divides q - 1: only the 8-byte encodings rule it out
    big = _write_config(tmp_path, _fs_doc(q=str(2**89 - 1)))
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path, "--out", proof]) == EXIT_OK
    assert main(["prove", "--config", big, "--trace", trace_path, "--out", proof]) == EXIT_CONFIG
    assert main(["verify", "--config", big, "--proof", proof]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("must be below 2^64") == 2


def test_config_accepts_spec_integers_at_the_64_bit_edges(tmp_path):
    doc = _fs_doc(A_hat=[[str(2**63 - 1), str(-(2**63))], ["-1", "1"]],
                  z_lower=[str(-(2**63)), "40"], z_upper=[str(2**63 - 1), "100"],
                  z_init=["0", "40"])
    spec = load_config(_write_config(tmp_path, doc)).spec
    assert spec.a_hat[0] == (2**63 - 1, -(2**63))
    assert (spec.z_lower[0], spec.z_upper[0]) == (-(2**63), 2**63 - 1)


def test_config_rejects_non_list_a_hat(tmp_path):
    path = _write_config(tmp_path, _fs_doc(A_hat=5))
    assert main(["simulate", "--config", path]) == EXIT_CONFIG


def test_zero_dimension_config_is_a_config_error(tmp_path, capsys):
    # an empty A_hat leaves the trace no column to commit
    doc = {"q": "331", "A_hat": [], "z_upper": [], "z_lower": [], "z_init": [], "N": "29"}
    path = _write_config(tmp_path, doc)
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"z": [[]] * 30, "alpha_up": [[]] * 29,
                                 "alpha_lo": [[]] * 29, "delta": [[]] * 29}))
    proof = tmp_path / "proof.json"
    proof.write_text("{}")
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    assert main(["prove", "--config", path, "--trace", str(trace),
                 "--out", str(tmp_path / "out.json")]) == EXIT_CONFIG
    assert main(["verify", "--config", path, "--proof", str(proof)]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("at least one row") == 3


def test_prove_and_verify_replay(tmp_path, config_path, trace_path):
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", trace_path, "--out", proof]) == EXIT_OK
    doc = keyed(json.loads(Path(proof).read_text()))
    assert doc["degree_bound"] == ref.COMBINED_DEGREE_BOUND
    assert doc["fri_layers"]["remainder"] == [ref.FINAL_CONSTANT]
    # a proof carries no sample point, nor a trace row's leaf: each query's
    # layer-0 FRI opening sits at the leaf of x's pair {x, -x}
    domains = _domains(ref.MODULUS, ref.SYSTEM.num_steps)
    assert ([q["fri"][0][0]["index"] for q in doc["queries"]]
            == [domains.pair_leaf(0, x)[0] for x in ref.SAMPLE_POINTS])
    assert all(set(row) == {"values", "path"} for q in doc["queries"] for row in q["trace"])
    assert "challenges" not in doc
    assert main(["verify", "--config", config_path, "--proof", proof]) == EXIT_OK


def test_verify_follows_the_config_mode(tmp_path, config_path, fs_config_path, trace_path,
                                       capsys):
    # a replay proof checked under a fiat-shamir config meets the verifier's
    # own FRI shape, the degree-2 AIR's N - 1 = 28 folded once, not the one
    # the prover replayed
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", trace_path, "--out", proof]) == EXIT_OK
    assert main(["verify", "--config", fs_config_path, "--proof", proof]) == EXIT_MALFORMED
    assert "expected 15 remainder coefficients, got 1" in capsys.readouterr().err


def test_prove_and_verify_fiat_shamir(tmp_path, fs_config_path, config_path, trace_path):
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path,
                 "--out", proof]) == EXIT_OK
    doc = json.loads(Path(proof).read_text())
    assert "challenges" not in doc
    assert main(["verify", "--config", fs_config_path, "--proof", proof]) == EXIT_OK


@pytest.mark.parametrize("edit, code", [
    ("append", EXIT_MALFORMED), ("drop", EXIT_MALFORMED), ("q", EXIT_MALFORMED),
    ("change", EXIT_REJECT),
])
def test_verify_refuses_or_rejects_an_edited_remainder(tmp_path, fs_config_path, trace_path,
                                                       edit, code):
    # N - 1 = 28 folded once leaves 15 coefficients, each in [0, q): one
    # more, one fewer or one equal to q is a malformed proof; one changed is
    # absorbed into the transcript, which then draws other sample points
    proof = tmp_path / "proof.json"
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path,
                 "--out", str(proof)]) == EXIT_OK
    doc = json.loads(proof.read_text())
    remainder = doc["fri_layers"]["remainder"]
    assert len(remainder) == 15
    if edit == "append":
        remainder.append(0)
    elif edit == "drop":
        remainder.pop()
    elif edit == "q":
        remainder[-1] = ref.MODULUS
    else:
        remainder[-1] = (remainder[-1] + 1) % ref.MODULUS
    proof.write_text(json.dumps(doc, separators=(",", ":")))
    assert main(["verify", "--config", fs_config_path, "--proof", str(proof)]) == code


def test_verify_rejects_a_replay_proof_with_a_salt(tmp_path, config_path, trace_path, capsys):
    # a replay transcript salts nothing, so a replay proof's salt is empty
    proof = tmp_path / "proof.json"
    assert main(["prove", "--config", config_path, "--trace", trace_path,
                 "--out", str(proof)]) == EXIT_OK
    doc = json.loads(proof.read_text())
    assert doc["salt"] == ""
    doc["salt"] = "eA=="  # b"x"
    proof.write_text(json.dumps(doc, separators=(",", ":")))
    capsys.readouterr()
    assert main(["verify", "--config", config_path, "--proof", str(proof)]) == EXIT_REJECT
    assert "verdict: reject at stage salt: the proof's salt is b'x'" in capsys.readouterr().out


def test_verify_holds_a_proof_to_the_config_queries(tmp_path, trace_path, capsys):
    # the prover picks how many queries it answers; the verifier's config
    # sets the least number it accepts
    one = _write_config(tmp_path, _fs_doc(queries=1), "one.json")
    eight = _write_config(tmp_path, _fs_doc(queries=8), "eight.json")
    few, many = str(tmp_path / "few.json"), str(tmp_path / "many.json")
    assert main(["prove", "--config", one, "--trace", trace_path, "--out", few]) == EXIT_OK
    assert main(["prove", "--config", eight, "--trace", trace_path, "--out", many]) == EXIT_OK
    assert main(["verify", "--config", one, "--proof", few]) == EXIT_OK
    assert main(["verify", "--config", one, "--proof", many]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--config", eight, "--proof", few]) == EXIT_REJECT
    out = capsys.readouterr().out
    assert "answers 1 queries" in out and "asks for 8" in out


def test_seed_env_perturbs_fiat_shamir(tmp_path, fs_config_path, config_path, trace_path,
                                       monkeypatch):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    monkeypatch.setenv("PROJSTARK_SEED", "alpha")
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path, "--out", a]) == EXIT_OK
    monkeypatch.setenv("PROJSTARK_SEED", "beta")
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path, "--out", b]) == EXIT_OK
    doc_a, doc_b = (keyed(json.loads(Path(p).read_text())) for p in (a, b))
    assert doc_a["salt"] != doc_b["salt"]
    assert ([q["fri"][0][0]["index"] for q in doc_a["queries"]]
            != [q["fri"][0][0]["index"] for q in doc_b["queries"]])
    assert main(["verify", "--config", fs_config_path, "--proof", a]) == EXIT_OK
    assert main(["verify", "--config", fs_config_path, "--proof", b]) == EXIT_OK
    # a replay transcript absorbs nothing, so the seed salts no replay proof
    assert main(["prove", "--config", config_path, "--trace", trace_path, "--out", a]) == EXIT_OK
    assert json.loads(Path(a).read_text())["salt"] == ""


def test_tamper_then_prove_refuses(tmp_path, config_path, trace_path):
    tampered = str(tmp_path / "tampered.json")
    assert main(["tamper", "--config", config_path, "--trace", trace_path,
                 "--section", "delta", "--row", "3", "--index", "1", "--value", "59",
                 "--out", tampered]) == EXIT_OK
    assert json.loads(Path(tampered).read_text())["delta"][3] == [100, 59]
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", tampered,
                 "--out", proof]) == EXIT_PROVER


def test_tamper_force_commit_verify_rejects(tmp_path, fs_config_path, config_path, trace_path):
    tampered = str(tmp_path / "tampered.json")
    assert main(["tamper", "--config", config_path, "--trace", trace_path,
                 "--section", "z", "--row", "7", "--index", "1", "--value", "50",
                 "--out", tampered]) == EXIT_OK
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", fs_config_path, "--trace", tampered,
                 "--out", proof, "--force-commit"]) == EXIT_OK
    assert main(["verify", "--config", fs_config_path, "--proof", proof]) == EXIT_REJECT


def test_tamper_in_place_default(tmp_path, config_path, trace_path):
    assert main(["tamper", "--config", config_path, "--trace", trace_path,
                 "--section", "z", "--row", "1", "--index", "0", "--value", "9"]) == EXIT_OK
    assert json.loads(Path(trace_path).read_text())["z"][1] == [9, 97]


def test_tamper_out_of_range_cell(tmp_path, config_path, trace_path):
    assert main(["tamper", "--config", config_path, "--trace", trace_path,
                 "--section", "delta", "--row", "40", "--index", "0",
                 "--value", "0"]) == EXIT_CONFIG


def test_verify_malformed_proof_file(tmp_path, config_path):
    bad = tmp_path / "bad-proof.json"
    bad.write_text("this is not a proof")
    assert main(["verify", "--config", config_path, "--proof", str(bad)]) == EXIT_MALFORMED
    assert main(["verify", "--config", config_path,
                 "--proof", str(tmp_path / "missing.json")]) == EXIT_MALFORMED


def test_verify_non_utf8_proof_file(tmp_path, config_path):
    bad = tmp_path / "latin1-proof.json"
    bad.write_bytes(b'{"version": "2\xff"}')
    assert main(["verify", "--config", config_path, "--proof", str(bad)]) == EXIT_MALFORMED


def test_verify_structurally_damaged_proof(tmp_path, config_path, trace_path):
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", trace_path, "--out", proof]) == EXIT_OK
    doc = json.loads(Path(proof).read_text())
    doc["queries"][0]["fri"] = doc["queries"][0]["fri"][:-1]
    Path(proof).write_text(json.dumps(doc))
    assert main(["verify", "--config", config_path, "--proof", proof]) == EXIT_MALFORMED


def test_verify_tampered_opening_rejects(tmp_path, config_path, trace_path):
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", trace_path, "--out", proof]) == EXIT_OK
    doc = keyed(json.loads(Path(proof).read_text()))
    values = doc["queries"][0]["trace"][0]["values"]
    values[1] = (values[1] + 1) % 331  # f_z[1]
    # a proof has no whitespace
    Path(proof).write_text(json.dumps(positional(doc), separators=(",", ":")))
    assert main(["verify", "--config", config_path, "--proof", proof]) == EXIT_REJECT


def test_replay_paper_passes_and_is_deterministic(capsys):
    assert main(["replay-paper"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["replay-paper"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "MISMATCH" not in first
    assert "all golden" in first
    assert EXIT_REPLAY_MISMATCH == 6  # contract value, replay-paper returns it on divergence


def test_trace_file_must_match_spec(tmp_path, config_path, trace_path):
    edits = [
        ("z", lambda rows: rows[:-1]),  # one row short
        ("z", lambda rows: 5),  # not a list of rows
        ("delta", lambda rows: [5] + rows[1:]),  # a row that is a number
        ("z", lambda rows: [row[:1] for row in rows]),  # rows narrower than n
        ("alpha_up", lambda rows: [rows[0][:1]] + rows[1:]),
        ("z", lambda rows: [row + ["0"] for row in rows]),  # rows wider than n
        ("delta", lambda rows: rows[:-1] + [rows[-1] + ["0"]]),
    ]
    proof = str(tmp_path / "proof.json")
    for key, edit in edits:
        doc = json.loads(Path(trace_path).read_text())
        doc[key] = edit(doc[key])
        bad = tmp_path / "bad-trace.json"
        bad.write_text(json.dumps(doc))
        assert main(["prove", "--config", config_path, "--trace", str(bad),
                     "--out", proof]) == EXIT_CONFIG, (key, doc[key])


def test_unwritable_output_is_a_config_error(tmp_path, config_path, trace_path, capsys):
    missing = tmp_path / "no-such-dir"
    assert main(["simulate", "--config", config_path,
                 "--out", str(missing / "trace.json")]) == EXIT_CONFIG
    assert main(["prove", "--config", config_path, "--trace", trace_path,
                 "--out", str(missing / "proof.json")]) == EXIT_CONFIG
    assert main(["tamper", "--config", config_path, "--trace", trace_path,
                 "--section", "z", "--row", "1", "--index", "0", "--value", "9",
                 "--out", str(missing / "bad.json")]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("cannot write") == 3
    assert not missing.exists()



def _places(tp, doc, where=(), field=None):
    """(where, tp, nullable, field) for every value of a document of the
    declared type tp, the root first, found by walking the declaration: the
    value's path in the document, its type with Optional taken off, whether
    null may stand for it, and (dataclass, field name, required) where the
    value is a field's."""
    nullable = typing.get_origin(tp) is typing.Union
    if nullable:
        tp = typing.get_args(tp)[0]
    yield where, tp, nullable, field
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            yield from _places(hints[f.name], doc[f.name], where + (f.name,),
                               (tp, f.name, f.default is dataclasses.MISSING))
    elif typing.get_origin(tp) is tuple:
        for i, item in enumerate(doc):
            yield from _places(typing.get_args(tp)[0], item, where + (i,))


def _declared(tp):
    """(dataclass, field name, required) of every field reachable from tp."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            yield tp, f.name, f.default is dataclasses.MISSING
            yield from _declared(hints[f.name])
    for arg in typing.get_args(tp):
        yield from _declared(arg)


def _json_types(tp) -> tuple:
    if dataclasses.is_dataclass(tp):
        return (dict,)
    if typing.get_origin(tp) is tuple:
        return (list,)
    return {int: (int,), Base10: (int, str)}[tp]


def _at(doc, where):
    for key in where:
        doc = doc[key]
    return doc


JSON_VALUES = (None, True, 0, 1.5, "x", [], {})
DELETE, UNKNOWN = object(), object()


def _refuses_every_wrong_type(tmp_path, cls, base, read, command):
    """Every value of the document `base` of dataclass `cls` replaced by a
    JSON value of each other type, every required key deleted, and a key no
    field declares added to every object: `read` must raise ConfigError on
    each such file and `command` exit with code 2. Returns the case count."""
    path = tmp_path / "edited.json"
    fields, cases = set(), 0
    for where, tp, nullable, field in _places(cls, base):
        value = _at(base, where)
        assert type(value) in _json_types(tp), where
        edits = [v for v in JSON_VALUES
                 if type(v) not in _json_types(tp) and not (nullable and v is None)]
        edits += ["x"] if tp is Base10 else []  # a string, but no base-10 one
        if field:
            fields.add(field)
            edits += [DELETE] if field[2] else []
        edits += [UNKNOWN] if dataclasses.is_dataclass(tp) else []
        for edit in edits:
            doc = json.loads(json.dumps(base))
            if edit is UNKNOWN:
                _at(doc, where)["unknown"] = 0
            elif edit is DELETE:
                del _at(doc, where[:-1])[where[-1]]
            elif where:
                _at(doc, where[:-1])[where[-1]] = edit
            else:
                doc = edit
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError):
                read(str(path))
            assert main(command(str(path))) == EXIT_CONFIG, (where, edit)
            cases += 1
    assert fields == set(_declared(cls))  # a field added later is covered too
    return cases


def test_load_config_refuses_every_wrong_type(tmp_path, capsys):
    base = replay_config()
    cases = _refuses_every_wrong_type(tmp_path, ConfigDocument, base, load_config,
                                      lambda path: ["simulate", "--config", path])
    assert cases > 6 * (len(ref.GAMMAS) + len(ref.BETAS) + len(ref.SAMPLE_POINTS))
    assert "unknown key 'unknown'" in capsys.readouterr().err


def test_load_trace_refuses_every_wrong_type(tmp_path, capsys):
    # a 3-step system over F_13 keeps the walk short: every node of its trace
    # file is tried
    config = _write_config(tmp_path, {"q": "13", "N": 3, "A_hat": [[1]], "z_upper": [5],
                                      "z_lower": [0], "z_init": [2]}, "small.json")
    trace = tmp_path / "trace.json"
    assert main(["simulate", "--config", config, "--out", str(trace)]) == EXIT_OK
    base = json.loads(trace.read_text())
    spec = load_config(config).spec
    out = str(tmp_path / "proof.json")
    cases = _refuses_every_wrong_type(
        tmp_path, TraceDocument, base, lambda path: load_trace(path, spec),
        lambda path: ["prove", "--config", config, "--trace", path, "--out", out])
    assert cases > 6 * (4 + 3 * 3)
    assert "unknown key 'unknown'" in capsys.readouterr().err
    assert not Path(out).exists()


def test_a_misspelled_config_key_is_refused_by_name(tmp_path, capsys):
    # read with the defaults for "queries" and "challenges", this config would
    # prove and verify 8 queries in fiat-shamir mode
    doc = json.loads((CONFIGS / "babybear.json").read_text())
    doc["querys"] = doc.pop("queries") * 8
    path = _write_config(tmp_path, doc)
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    assert "unknown key 'querys'" in capsys.readouterr().err
    doc["queries"] = doc.pop("querys")
    doc["challenge"] = replay_config()["challenges"]
    path = _write_config(tmp_path, doc)
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    assert "unknown key 'challenge'" in capsys.readouterr().err


@pytest.mark.parametrize("where,text", [
    (("N",), " 2_9\n"), (("queries",), "+\u0662"), (("q",), "0331"), (("N",), "029"),
    (("z_lower", 0), "-0"), (("challenges", "gammas", 0), "\u0662\u0666\u0661"),
], ids=["spaced-underscored", "plus-arabic-indic", "zero-led-q", "zero-led-N", "minus-zero",
        "arabic-indic"])
def test_a_config_integer_has_one_spelling(tmp_path, capsys, where, text):
    # int() reads each of these texts as the number str() writes without them
    doc = replay_config()
    assert str(_at(doc, where)) == str(int(text, 10))
    _at(doc, where[:-1])[where[-1]] = text
    path = _write_config(tmp_path, doc)
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    assert "base-10 spelling" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        load_config(path)


def test_a_trace_file_of_another_version_is_refused(tmp_path, config_path, trace_path, capsys):
    doc = json.loads(Path(trace_path).read_text())
    doc["version"] = 7
    path = tmp_path / "v7.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "proof.json"
    assert main(["prove", "--config", config_path, "--trace", str(path),
                 "--out", str(out)]) == EXIT_CONFIG
    assert "unsupported trace version 7" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError):
        load_trace(str(path), ref.SYSTEM)
    # the version is read first, so a later version may rename what this one reads
    doc["version"] = 2
    doc["states"] = doc.pop("z")
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="^unsupported trace version 2$"):
        load_trace(str(path), ref.SYSTEM)


@pytest.mark.parametrize("where,value,message", [
    ("gammas", "331", r"challenges\.gammas\[0\] = 331 is not in \[1, 331\)"),
    ("gammas", "592", r"challenges\.gammas\[0\] = 592 is not in \[1, 331\)"),
    ("betas", "0", r"challenges\.betas\[0\] = 0 is not in \[1, 331\)"),
    ("sample_points", "1",
     r"challenges\.sample_points\[0\] = 1 is not in the committed domain D0"),
], ids=["gamma-q", "gamma-above-q", "beta-zero", "sample-point-in-H"])
def test_a_replay_challenge_no_transcript_can_draw_is_a_config_error(
        tmp_path, config_path, trace_path, capsys, where, value, message):
    # read mod q, "592" would be the gamma 261 and "331" the gamma 0; 1 lies
    # in H, which no sample point is drawn from
    honest = str(tmp_path / "honest.json")
    assert main(["prove", "--config", config_path, "--trace", trace_path,
                 "--out", honest]) == EXIT_OK
    doc = replay_config()
    doc["challenges"][where][0] = value
    path = _write_config(tmp_path, doc)
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", path, "--trace", trace_path, "--out", proof]) == EXIT_CONFIG
    assert main(["verify", "--config", path, "--proof", honest]) == EXIT_CONFIG
    assert re.search(message, capsys.readouterr().err)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


PAPER_CHALLENGES = replay_config()["challenges"]


@pytest.mark.parametrize("challenges,message", [
    ({**PAPER_CHALLENGES, "gammas": PAPER_CHALLENGES["gammas"][:2]},
     r"replay needs at least 8 challenges\.gammas, got 2"),
    ({**PAPER_CHALLENGES, "sample_points": PAPER_CHALLENGES["sample_points"][:1]},
     r"replay needs at least 2 challenges\.sample_points, got 1"),
    ({}, r"replay needs at least 8 challenges\.gammas, got 0"),
], ids=["two-gammas", "one-sample-point", "empty-block"])
def test_a_replay_config_with_too_few_challenges_is_a_config_error(
        tmp_path, config_path, trace_path, capsys, challenges, message):
    # a proof takes 4n gammas and `queries` sample points, both known from the
    # config, so too few is the config's fault, for prove and verify alike
    honest = str(tmp_path / "honest.json")
    assert main(["prove", "--config", config_path, "--trace", trace_path,
                 "--out", honest]) == EXIT_OK
    path = _write_config(tmp_path, {**replay_config(), "challenges": challenges})
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", path, "--trace", trace_path, "--out", proof]) == EXIT_CONFIG
    assert main(["verify", "--config", path, "--proof", honest]) == EXIT_CONFIG
    assert len(re.findall(message, capsys.readouterr().err)) == 2  # prove's and verify's
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_cli_prove_refuses_a_step_that_holds_only_mod_q(tmp_path, capsys):
    spec = WRAPPING_SYSTEM
    config = _write_config(tmp_path, {
        "q": 331, "A_hat": spec.a_hat, "z_upper": spec.z_upper, "z_lower": spec.z_lower,
        "z_init": spec.z_init, "N": spec.num_steps})
    trace = wrapping_trace()
    trace_file = tmp_path / "wrapped.json"
    trace_file.write_text(json.dumps({"z": trace.z_rows, "alpha_up": trace.alpha_up_rows,
                                      "alpha_lo": trace.alpha_lo_rows,
                                      "delta": trace.delta_rows}))
    out = tmp_path / "proof.json"
    assert main(["prove", "--config", config, "--trace", str(trace_file),
                 "--out", str(out)]) == EXIT_PROVER
    assert "constraint transition[0] fails at step 0" in capsys.readouterr().err
    assert not out.exists()


def _spelled(doc, spell):
    """doc with every integer and every base-10 string spelled by `spell`."""
    if isinstance(doc, dict):
        return {k: _spelled(v, spell) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_spelled(v, spell) for v in doc]
    if isinstance(doc, str) and doc.lstrip("-").isdigit() or type(doc) is int:
        return spell(int(doc))
    return doc


BOX = SystemSpec(a_hat=((1, 0), (-1, 1)), z_upper=(100, 100), z_lower=(0, 40),
                 z_init=(3, 100), num_steps=255)


@pytest.mark.parametrize("name,q", [("babybear.json", 2**31 - 2**27 + 1),
                                    ("goldilocks.json", 2**64 - 2**32 + 1)])
def test_stock_configs_load_to_their_values(name, q):
    expected = RunConfig(PrimeField(q), BOX, 8, None)
    assert load_config(str(CONFIGS / name)) == expected


def test_the_long_horizon_config_loads_to_its_values():
    expected = RunConfig(PrimeField(65537), dataclasses.replace(BOX, num_steps=4095), 8, None)
    assert load_config(str(CONFIGS / "horizon-q65537.json")) == expected


@pytest.mark.parametrize("spell", [str, int])
def test_replay_config_loads_the_same_in_either_spelling(tmp_path, spell):
    path = _write_config(tmp_path, _spelled(replay_config(), spell))
    challenges = {"gammas": list(ref.GAMMAS), "betas": list(ref.BETAS),
                  "sample_points": list(ref.SAMPLE_POINTS)}
    assert load_config(path) == RunConfig(PrimeField(ref.MODULUS), ref.SYSTEM,
                                          len(ref.SAMPLE_POINTS), challenges)


def test_trace_files_load_the_same_in_either_spelling(tmp_path, trace_path):
    # trace files used to be written with every cell a base-10 string
    trace = simulate(ref.SYSTEM)
    written = json.loads(Path(trace_path).read_text())
    as_strings = _spelled(written, str)
    assert as_strings["version"] == "1"
    as_strings["version"] = 1
    assert as_strings["z"][20] == ["3", "40"] and as_strings["delta"][0] == ["100", "60"]
    for doc in (written, as_strings):
        path = tmp_path / "spelled.json"
        path.write_text(json.dumps(doc, indent=2))
        assert load_trace(str(path), ref.SYSTEM) == trace
