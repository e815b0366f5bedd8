from __future__ import annotations

import json

import pytest

from airo.bundle import canonical_bytes, parse_bundle
from airo.errors import InvalidLabel, MalformedSyntax
from airo.invoke import Interface, ModelConfig, complete
from airo.provenance import (Digest, InteractionLog, InvocationRecord, new_run, parse_log,
                             record_invocation, sha256_hex, sha256_of_text)
from airo.template import render_taxonomy_prompt

from test_bundle import NOTE, make_raw
from test_invoke import stub_config


def test_sha256_known_vectors():
    # frozen from an independent SHA-256 implementation (coreutils sha256sum)
    assert sha256_hex(b"").hex == \
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert sha256_hex(b"abc").hex == \
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_digest_format_invariant():
    digest = sha256_hex(b"anything")
    assert len(digest.hex) == 64
    assert digest.hex == digest.hex.lower()
    assert digest.algorithm == "sha256"
    with pytest.raises(ValueError):
        Digest(hex="ZZ" * 32)
    with pytest.raises(ValueError):
        Digest(hex="ab")
    with pytest.raises(ValueError):
        Digest(hex="a" * 64, algorithm="md5")


def invocation_for(bundle, prompt_fixture="fixture response"):
    prompt = render_taxonomy_prompt(bundle)
    return complete(prompt, stub_config(), fixtures={"fx": prompt_fixture})


def test_record_invocation_hashes_prompt_response_bundle():
    bundle = parse_bundle(make_raw([NOTE]))
    invocation = invocation_for(bundle)
    record = record_invocation(invocation, bundle, paths=["/tmp/bundle.json"], host="box")
    assert record.prompt_sha256 == sha256_of_text(invocation.prompt.text)
    assert record.response_sha256 == sha256_of_text("fixture response")
    assert record.bundle_sha256 == sha256_hex(canonical_bytes(bundle))
    assert record.prompt_text == invocation.prompt.text
    assert record.source_paths == ("/tmp/bundle.json",)
    assert record.host_id == "box"
    assert record.linkage_findings() == []


def test_identical_interactions_identical_digest_triples():
    bundle = parse_bundle(make_raw([NOTE]))
    a = record_invocation(invocation_for(bundle), bundle)
    b = record_invocation(invocation_for(bundle), bundle)
    triple = lambda r: (r.prompt_sha256, r.response_sha256, r.bundle_sha256)  # noqa: E731
    assert triple(a) == triple(b)


def test_bundle_edit_changes_bundle_digest():
    original = parse_bundle(make_raw([NOTE]))
    edited = parse_bundle(make_raw([dict(NOTE, summary=NOTE["summary"] + "!")]))
    rec_a = record_invocation(invocation_for(original), original)
    rec_b = record_invocation(invocation_for(original), edited)
    assert rec_a.bundle_sha256 != rec_b.bundle_sha256
    # direct re-hash oracle
    assert rec_b.bundle_sha256 == sha256_hex(canonical_bytes(edited))


def test_linkage_findings_detect_tampered_text():
    bundle = parse_bundle(make_raw([NOTE]))
    record = record_invocation(invocation_for(bundle), bundle)
    tampered = InvocationRecord.from_dict(
        {**record.to_dict(), "response_text": "someone edited this"})
    assert any("response_text" in f for f in tampered.linkage_findings())


def test_new_run_normalization():
    assert new_run("background") == "ro-background"
    assert new_run("Background Review") == "ro-background-review"
    with pytest.raises(InvalidLabel):
        new_run("")
    with pytest.raises(InvalidLabel):
        new_run("bad/label")


def test_run_id_pattern_enforced():
    with pytest.raises(ValueError):
        InteractionLog(run_id="background")
    with pytest.raises(ValueError):
        InteractionLog(run_id="ro-UPPER")
    InteractionLog(run_id="ro-ok-1")


def test_log_append_only_ordering():
    bundle = parse_bundle(make_raw([NOTE]))
    record = record_invocation(invocation_for(bundle), bundle)
    log = InteractionLog(run_id="ro-x")
    log.append(record)
    early = InvocationRecord.from_dict(
        {**record.to_dict(), "started_at": "1999-01-01T00:00:00Z",
         "ended_at": "1999-01-01T00:00:01Z"})
    with pytest.raises(ValueError, match="precedes"):
        log.append(early)
    assert len(log.records) == 1


def test_log_serialization_round_trip():
    bundle = parse_bundle(make_raw([NOTE]))
    log = InteractionLog(run_id="ro-x")
    log.append(record_invocation(invocation_for(bundle), bundle, paths=["p"], host="h"))
    parsed = parse_log(log.to_bytes())
    assert parsed.run_id == log.run_id
    assert parsed.created_at == log.created_at
    assert parsed.records == log.records
    assert parsed.canonical_bytes() == log.canonical_bytes()


def test_parse_log_rejects_garbage():
    with pytest.raises(MalformedSyntax):
        parse_log(b"not a log")


@pytest.mark.parametrize("missing", ["started_at", "ended_at"])
def test_parse_log_rejects_a_record_without_timestamps(missing):
    bundle = parse_bundle(make_raw([NOTE]))
    log = InteractionLog(run_id="ro-x")
    log.append(record_invocation(invocation_for(bundle), bundle))
    data = log.to_dict()
    del data["records"][0][missing]
    with pytest.raises(MalformedSyntax):
        parse_log(json.dumps(data).encode())


def test_canonical_log_bytes_configuration_is_covered():
    # the config is part of the hashed serialization, not separately digested
    bundle = parse_bundle(make_raw([NOTE]))
    log = InteractionLog(run_id="ro-x", created_at="2026-01-01T00:00:00Z")
    log.append(record_invocation(invocation_for(bundle), bundle))
    record = log.records[0]
    changed = ModelConfig.from_dict({**record.config.to_dict(), "model_name": "other"})
    other = InteractionLog(run_id="ro-x", created_at="2026-01-01T00:00:00Z")
    other.append(InvocationRecord.from_dict({**record.to_dict(), "config": changed.to_dict()}))
    assert log.canonical_bytes() != other.canonical_bytes()


def test_stub_interface_requires_no_endpoint():
    config = ModelConfig(interface=Interface.OFFLINE_STUB, model_name="m", temperature=0.0,
                         top_p=1.0, max_tokens=10, stub_fixture="fx")
    assert config.endpoint == ""
