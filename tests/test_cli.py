import json

import pytest

from projstark import reference_example as ref
from projstark.cli import (
    EXIT_CONFIG,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_PROVER,
    EXIT_REJECT,
    EXIT_REPLAY_MISMATCH,
    load_config,
    main,
)


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
    doc = json.loads(open(out).read())
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


def test_prove_and_verify_replay(tmp_path, config_path, trace_path):
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", trace_path, "--out", proof]) == EXIT_OK
    doc = json.loads(open(proof).read())
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
    doc = json.loads(open(proof).read())
    assert "challenges" not in doc
    assert main(["verify", "--config", fs_config_path, "--proof", proof]) == EXIT_OK


def test_seed_env_perturbs_fiat_shamir(tmp_path, fs_config_path, trace_path, monkeypatch):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    monkeypatch.setenv("PROJSTARK_SEED", "alpha")
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path, "--out", a]) == EXIT_OK
    monkeypatch.setenv("PROJSTARK_SEED", "beta")
    assert main(["prove", "--config", fs_config_path, "--trace", trace_path, "--out", b]) == EXIT_OK
    doc_a, doc_b = json.loads(open(a).read()), json.loads(open(b).read())
    assert doc_a["publics"]["salt"] != doc_b["publics"]["salt"]
    assert [q["x"] for q in doc_a["queries"]] != [q["x"] for q in doc_b["queries"]]
    assert main(["verify", "--config", fs_config_path, "--proof", a]) == EXIT_OK
    assert main(["verify", "--config", fs_config_path, "--proof", b]) == EXIT_OK


def test_tamper_then_prove_refuses(tmp_path, config_path, trace_path):
    tampered = str(tmp_path / "tampered.json")
    assert main(["tamper", "--config", config_path, "--trace", trace_path,
                 "--section", "delta", "--row", "3", "--index", "1", "--value", "59",
                 "--out", tampered]) == EXIT_OK
    assert json.loads(open(tampered).read())["delta"][3] == ["100", "59"]
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
    assert json.loads(open(trace_path).read())["z"][1] == ["9", "97"]


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
    doc = json.loads(open(proof).read())
    doc["queries"][0]["fri"] = doc["queries"][0]["fri"][:-1]
    open(proof, "w").write(json.dumps(doc))
    assert main(["verify", "--config", config_path, "--proof", proof]) == EXIT_MALFORMED


def test_verify_tampered_opening_rejects(tmp_path, config_path, trace_path):
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", trace_path, "--out", proof]) == EXIT_OK
    doc = json.loads(open(proof).read())
    values = doc["queries"][0]["trace"]["at_x"]["values"]
    values[1] = str((int(values[1]) + 1) % 331)  # f_z[1]
    open(proof, "w").write(json.dumps(doc))
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
    doc = json.loads(open(trace_path).read())
    doc["z"] = doc["z"][:-1]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(doc))
    proof = str(tmp_path / "proof.json")
    assert main(["prove", "--config", config_path, "--trace", str(short),
                 "--out", proof]) == EXIT_CONFIG
