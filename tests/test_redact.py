from __future__ import annotations

import hashlib
import json

import pytest

from airo.invoke import Interface, ModelConfig
from airo.provenance import InteractionLog, InvocationRecord, sha256_of_text
from airo.redact import (GENERALIZED_ENDPOINT, RedactionPolicy, Tier, check_redaction,
                         generalize_endpoint, parse_redacted_log, redact)
from airo.template import Stage


def make_log(n: int = 2, endpoint: str = "https://inference.internal.lab:8443/v1",
             run_id: str = "ro-test") -> InteractionLog:
    config = ModelConfig(interface=Interface.OPENAI_COMPATIBLE, model_name="m",
                         temperature=0.2, top_p=1.0, max_tokens=1200, endpoint=endpoint)
    log = InteractionLog(run_id=run_id, created_at="2026-01-02T03:04:05Z")
    for index in range(n):
        prompt = f"prompt text number {index} with enough length"
        response = f"response text number {index} with enough length"
        log.append(InvocationRecord(
            stage=Stage.TAXONOMY if index == 0 else Stage.SYNTHESIS,
            config=config,
            prompt_sha256=sha256_of_text(prompt),
            response_sha256=sha256_of_text(response),
            bundle_sha256=sha256_of_text("the bundle"),
            started_at=f"2026-01-02T03:04:{5 + index:02d}Z",
            ended_at=f"2026-01-02T03:04:{6 + index:02d}Z",
            attempt=1,
            prompt_text=prompt,
            response_text=response,
            source_paths=(f"/home/alice/run/bundle{index}.json",),
            host_id="workstation-7.internal"))
    return log


GOLDEN_SHA256 = {
    "private": "8bae20aa741777c4e8a906528eda65c8fc605a09aa0bdc4a0133039c06b2724f",
    "canonical": "65a16c2662ccfbcedcc84f7ec68b11d0351b60648f34adf7e0698087bb75e709",
    Tier.PUBLIC: "3e252d4fe860d0523fb3dfaa16df120487f205f10bf36847de1358a39c1017e7",
    Tier.REVIEWER: "4650b138b27c896d9ececde224321bbcbb794024cb16bcafcf4f9b89d6d5d7b6",
    Tier.AUDITOR: "2234ced942c432c5c4bc0176371c980b4d3005468093223eba643e329b70ba21",
}


def test_serialized_log_bytes_are_pinned():
    # both log forms are released or hashed as bytes; any format drift must be deliberate
    digest = lambda raw: hashlib.sha256(raw).hexdigest()  # noqa: E731
    assert digest(make_log().to_bytes()) == GOLDEN_SHA256["private"]
    assert digest(make_log().canonical_bytes()) == GOLDEN_SHA256["canonical"]
    for tier in Tier:
        redacted = redact(make_log(), RedactionPolicy.for_tier(tier))
        assert digest(redacted.to_bytes()) == GOLDEN_SHA256[tier], tier


def test_tier_flag_invariants():
    # the tier sets every flag; stored flags that contradict it are rejected on load
    for tier in Tier:
        stored = RedactionPolicy.for_tier(tier).to_dict()
        assert RedactionPolicy.from_dict(stored) == RedactionPolicy.for_tier(tier)
        for flag in ("drop_timestamps", "drop_raw_text", "drop_paths_and_host",
                     "generalize_endpoint"):
            with pytest.raises(ValueError):
                RedactionPolicy.from_dict({**stored, flag: not stored[flag]})
    auditor = RedactionPolicy.for_tier("auditor")
    assert not auditor.drop_raw_text
    assert auditor.drop_timestamps and auditor.drop_paths_and_host


def test_reviewer_redaction_drops_texts_timestamps_paths():
    redacted = redact(make_log(), RedactionPolicy.for_tier(Tier.REVIEWER))
    assert len(redacted.records) == 2
    data = redacted.to_dict()
    for record in data["records"]:
        assert "prompt_text" not in record
        assert "response_text" not in record
        assert "started_at" not in record and "ended_at" not in record
        assert "source_paths" not in record and "host_id" not in record
        assert record["prompt_sha256"]["hex"]
        assert record["config"]["temperature"] == 0.2
    serialized = redacted.to_bytes().decode()
    assert "alice" not in serialized and "workstation-7" not in serialized


def test_digest_triples_preserved_bitwise():
    log = make_log()
    redacted = redact(log, RedactionPolicy.for_tier(Tier.REVIEWER))
    for source, red in zip(log.records, redacted.records):
        assert source.prompt_sha256 == red.prompt_sha256
        assert source.response_sha256 == red.response_sha256
        assert source.bundle_sha256 == red.bundle_sha256


def test_endpoint_generalization():
    # hosts and their idempotence are covered per tier by ENDPOINT_FORMS below
    assert generalize_endpoint("not a url", Tier.AUDITOR) == GENERALIZED_ENDPOINT
    assert generalize_endpoint("", Tier.REVIEWER) == ""
    assert generalize_endpoint("", Tier.PUBLIC) == GENERALIZED_ENDPOINT


# endpoint -> its form at reviewer and auditor tier; public always gets the constant
ENDPOINT_FORMS = {
    "https://inference.internal.lab:8443/v1": "https://internal.lab",
    "http://localhost:8080/v1": "http://localhost",
    "http://10.0.0.5:80/v1": GENERALIZED_ENDPOINT,
    "http://167772165/v1": GENERALIZED_ENDPOINT,  # a resolver reads this as 10.0.0.5
    "https://[fe80::1]:8443/v1": GENERALIZED_ENDPOINT,
    "https://[fe80::1%25eth0]:8443/v1": GENERALIZED_ENDPOINT,
    "http://[2001:db8::7]/v1": GENERALIZED_ENDPOINT,
    "https://[::ffff:10.0.0.5]/v1": GENERALIZED_ENDPOINT,
    "https://user@[fe80::1]/v1": GENERALIZED_ENDPOINT,
    "https://[fe80::1/v1": GENERALIZED_ENDPOINT,  # unclosed bracket: urlsplit refuses it
    # bracketed name that is no address: refused by urlsplit on newer Pythons,
    # parsed to host "gpu-host" on older ones; collapses either way
    "https://[gpu-host]/v1": GENERALIZED_ENDPOINT,
}


@pytest.mark.parametrize("tier", list(Tier), ids=lambda tier: tier.value)
@pytest.mark.parametrize("endpoint", sorted(ENDPOINT_FORMS))
def test_endpoint_generalization_per_host(endpoint, tier):
    expected = GENERALIZED_ENDPOINT if tier is Tier.PUBLIC else ENDPOINT_FORMS[endpoint]
    once = generalize_endpoint(endpoint, tier)
    assert once == expected
    assert generalize_endpoint(once, tier) == once


def test_public_tier_collapses_endpoint_to_constant():
    redacted = redact(make_log(), RedactionPolicy.for_tier(Tier.PUBLIC))
    assert all(r.config.endpoint == GENERALIZED_ENDPOINT for r in redacted.records)


def test_auditor_keeps_raw_text_drops_timestamps():
    redacted = redact(make_log(), RedactionPolicy.for_tier(Tier.AUDITOR))
    record = redacted.records[0]
    assert record.prompt_text is not None and record.response_text is not None
    assert "started_at" not in record.to_dict()
    assert sha256_of_text(record.prompt_text) == record.prompt_sha256


def test_redaction_idempotent():
    for tier in Tier:
        policy = RedactionPolicy.for_tier(tier)
        once = redact(make_log(), policy)
        twice = redact(once, policy)
        assert twice == once


def test_redacted_from_links_to_source_log():
    from airo.provenance import sha256_hex
    log = make_log()
    redacted = redact(log, RedactionPolicy.for_tier(Tier.REVIEWER))
    assert redacted.redacted_from_sha256 == sha256_hex(log.canonical_bytes())


def test_redacted_log_serialization_round_trip():
    redacted = redact(make_log(), RedactionPolicy.for_tier(Tier.REVIEWER))
    parsed = parse_redacted_log(redacted.to_bytes())
    assert parsed == redacted


def test_check_redaction_flags_paths_and_timestamps():
    redacted = redact(make_log(), RedactionPolicy.for_tier(Tier.REVIEWER))
    assert check_redaction(redacted) == []

    # sneak a path and a timestamp into retained fields via raw json surgery
    data = json.loads(redacted.to_bytes())
    data["records"][0]["config"]["model_name"] = "/home/alice/secret-model"
    data["records"][1]["config"]["model_name"] = "built 2025-01-02T03:04:05Z"
    doctored = parse_redacted_log(json.dumps(data).encode())
    findings = check_redaction(doctored)
    patterns = {finding.pattern for finding in findings}
    assert "local path" in patterns and "timestamp" in patterns
    assert any("records[0]" in finding.field_path for finding in findings)


def test_reviewer_completeness_on_fixture():
    log = make_log()
    serialized = redact(log, RedactionPolicy.for_tier(Tier.REVIEWER)).to_bytes().decode()
    for record in log.records:
        assert record.prompt_text not in serialized
        assert record.response_text not in serialized
