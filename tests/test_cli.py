import json
from pathlib import Path

import pytest

from projstark import reference_example as ref
from projstark.cli import (
    EXIT_CONFIG,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_PROVER,
    EXIT_REJECT,
    EXIT_REPLAY_MISMATCH,
    ConfigError,
    load_config,
    main,
)
from projstark.protocol import MAX_QUERIES


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(ref.replay_config()))
    return str(path)


@pytest.fixture()
def fs_config_path(tmp_path):
    doc = ref.replay_config()
    doc["mode"] = "fiat-shamir"
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
    assert config.mode == "replay"
    assert config.challenges["gammas"] == list(ref.GAMMAS)


def test_simulate_writes_trace_and_reports(tmp_path, config_path, capsys):
    out = str(tmp_path / "trace.json")
    assert main(["simulate", "--config", config_path, "--out", out]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "online step 0: accept" in printed
    assert "online step 28: accept" in printed
    doc = json.loads(Path(out).read_text())
    assert len(doc["z"]) == 30
    assert doc["z"][20] == ["3", "40"]
    assert doc["delta"][0] == ["100", "60"]


def test_config_rejects_composite_modulus(tmp_path):
    doc = ref.replay_config()
    doc["q"] = "330"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


def test_config_rejects_bad_subgroup(tmp_path):
    doc = ref.replay_config()
    doc["N"] = "6"  # N+1 = 7 does not divide 330
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


def test_config_rejects_missing_file(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_config_rejects_overlong_integer_literal(tmp_path):
    # json refuses integer literals over 4300 digits with a plain ValueError
    path = tmp_path / "long.json"
    text = json.dumps({**ref.replay_config(), "N": 0})
    path.write_text(text.replace('"N": 0', '"N": ' + "7" * 5001))
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


def test_config_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"q": "331\xff"}')
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


def test_replay_mode_requires_challenges(tmp_path):
    doc = ref.replay_config()
    del doc["challenges"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


def _write_config(tmp_path, doc, name="edited.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_queries_above_max_is_a_config_error(tmp_path, trace_path, capsys):
    doc = ref.replay_config()
    doc["queries"] = 2000
    assert doc["queries"] > MAX_QUERIES
    path = _write_config(tmp_path, doc)
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", path, "--trace", trace_path, "--out", proof]) == EXIT_CONFIG
    assert "queries" in capsys.readouterr().err


def test_prove_negative_queries_option_is_a_config_error(tmp_path, config_path, trace_path):
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", trace_path, "--out", proof,
                 "--queries", "-3"]) == EXIT_CONFIG


def test_prove_zero_queries_option_is_a_config_error(tmp_path, fs_config_path, trace_path):
    # 0 used to be ignored, falling back to the config's count
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path, "--out", proof,
                 "--queries", "0"]) == EXIT_CONFIG
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path, "--out", proof,
                 "--queries", "3"]) == EXIT_OK
    assert len(json.loads(Path(proof).read_text())["queries"]) == 3


def _fs_doc(**fields):
    doc = ref.replay_config()
    doc["mode"] = "fiat-shamir"
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


def test_prove_and_verify_replay(tmp_path, config_path, trace_path):
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", trace_path, "--out", proof]) == EXIT_OK
    doc = json.loads(Path(proof).read_text())
    assert doc["publics"]["degree_bound"] == str(ref.COMBINED_DEGREE_BOUND)
    assert doc["fri_layers"]["final"] == str(ref.FINAL_CONSTANT)
    assert [q["x"] for q in doc["queries"]] == [str(x) for x in ref.SAMPLE_POINTS]
    assert "challenges" not in doc
    assert main(["verify", "--config", config_path, "--proof", proof]) == EXIT_OK


def test_verify_follows_the_config_mode(tmp_path, config_path, fs_config_path, trace_path):
    # a replay proof checked under a fiat-shamir config meets the verifier's
    # own challenges, not the ones the prover replayed
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", trace_path, "--out", proof]) == EXIT_OK
    assert main(["verify", "--config", fs_config_path, "--proof", proof]) == EXIT_REJECT


def test_prove_and_verify_fiat_shamir(tmp_path, fs_config_path, config_path, trace_path):
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path,
                 "--out", proof]) == EXIT_OK
    doc = json.loads(Path(proof).read_text())
    assert "challenges" not in doc
    assert main(["verify", "--config", fs_config_path, "--proof", proof]) == EXIT_OK


def test_seed_env_perturbs_fiat_shamir(tmp_path, fs_config_path, trace_path, monkeypatch):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    monkeypatch.setenv("PROJSTARK_SEED", "alpha")
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path, "--out", a]) == EXIT_OK
    monkeypatch.setenv("PROJSTARK_SEED", "beta")
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path, "--out", b]) == EXIT_OK
    doc_a, doc_b = json.loads(Path(a).read_text()), json.loads(Path(b).read_text())
    assert doc_a["publics"]["salt"] != doc_b["publics"]["salt"]
    assert [q["x"] for q in doc_a["queries"]] != [q["x"] for q in doc_b["queries"]]
    assert main(["verify", "--config", fs_config_path, "--proof", a]) == EXIT_OK
    assert main(["verify", "--config", fs_config_path, "--proof", b]) == EXIT_OK


def test_tamper_then_prove_refuses(tmp_path, config_path, trace_path):
    tampered = str(tmp_path / "tampered.json")
    assert main(["tamper", "--config", config_path, "--trace", trace_path,
                 "--section", "delta", "--row", "3", "--index", "1", "--value", "59",
                 "--out", tampered]) == EXIT_OK
    assert json.loads(Path(tampered).read_text())["delta"][3] == ["100", "59"]
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
    assert json.loads(Path(trace_path).read_text())["z"][1] == ["9", "97"]


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
    doc = json.loads(Path(proof).read_text())
    values = doc["queries"][0]["trace"]["at_x"]["values"]
    values[1] = str((int(values[1]) + 1) % 331)  # f_z[1]
    Path(proof).write_text(json.dumps(doc))
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


def test_config_mode_must_be_a_string(tmp_path):
    path = _write_config(tmp_path, _fs_doc(mode=5))
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    with pytest.raises(ConfigError):
        load_config(path)


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
