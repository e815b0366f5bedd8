from __future__ import annotations

import hashlib
import json
import platform
import shutil
from datetime import datetime, timezone
from pathlib import Path

import pytest

import airo.provenance
from airo import cli, rundir
from airo.bundle import canonical_bytes, parse_bundle
from airo.errors import (DanglingEntity, ManifestMalformed, ManifestMissing, MissingSection,
                         UnredactedLeak)
from airo.provenance import sha256_hex
from airo.redact import GENERALIZED_ENDPOINT, RedactionPolicy, Tier
from airo.rocrate import (MANIFEST_NAME, Role, build_card, card_bundle_digest, pack,
                          read_crate_members, read_manifest, write_zip_deterministic)

from conftest import run_pipeline

CARD_SECTION_NAMES = ("run_id", "research_topic", "model_configuration", "artifacts_released",
                      "intended_use", "human_oversight", "disclosure", "limitations",
                      "reproducibility_note")


def test_build_card_nine_sections_and_config(demo_run):
    run_dir, _ = demo_run
    card = build_card(run_dir)
    data = vars(card)
    assert set(data) == set(CARD_SECTION_NAMES)
    for key, value in data.items():
        assert value, f"card section {key} is empty"
    config = data["model_configuration"]
    assert config["temperature"] == 0.2
    assert config["top_p"] == 1.0
    assert config["max_tokens"] == 1200
    bundle = parse_bundle((run_dir / rundir.BUNDLE).read_bytes())
    assert config["input_bundle_sha256"] == sha256_hex(canonical_bytes(bundle)).hex


def test_card_markdown_carries_everything(demo_run):
    run_dir, _ = demo_run
    markdown = build_card(run_dir).to_markdown()
    for heading in ("Model Configuration", "Artifacts Released", "Intended Use",
                    "Human Oversight", "Disclosure", "Limitations", "Reproducibility Note"):
        assert f"## {heading}" in markdown
    assert "Temperature: 0.2" in markdown
    assert "Top-p: 1.0" in markdown
    assert "Max tokens: 1200" in markdown
    assert card_bundle_digest(markdown) is not None


def test_card_missing_disclosure_section(demo_copy):
    run_dir, _ = demo_copy
    sections_path = run_dir / rundir.CARD_SECTIONS
    sections = json.loads(sections_path.read_text())
    sections["disclosure"] = "   "
    sections_path.write_text(json.dumps(sections))
    with pytest.raises(MissingSection, match="Disclosure"):
        build_card(run_dir)


def test_pack_contents_and_membership(demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    assert len(members) >= 8
    expected = {"card.md", "code/taxonomy.tmpl", "code/synthesis.tmpl", "inputs/bundle.json",
                "outputs/taxonomy.json", "outputs/draft.md", "outputs/audit.csv",
                "provenance/interaction_log.redacted.json", MANIFEST_NAME}
    assert set(members) == expected


def test_pack_deterministic(demo_copy):
    run_dir, _ = demo_copy
    policy = RedactionPolicy.for_tier(Tier.REVIEWER)
    first = pack(run_dir, policy, out_path=run_dir / "a.zip").read_bytes()
    second = pack(run_dir, policy, out_path=run_dir / "b.zip").read_bytes()
    assert sha256_hex(first) == sha256_hex(second)


def test_pack_never_ships_the_unredacted_log(demo_copy):
    run_dir, _ = demo_copy
    private = (run_dir / rundir.INTERACTION_LOG).read_bytes()
    for tier in Tier:
        assert cli.main(["redact", "--tier", tier.value, "--run-dir", str(run_dir)]) == 0
        crate = pack(run_dir, RedactionPolicy.for_tier(tier),
                     out_path=run_dir / f"{tier.value}.zip")
        members = read_crate_members(crate)
        assert "interaction_log.json" not in {name.rsplit("/", 1)[-1] for name in members}
        assert private not in members.values()


def test_pack_refuses_raw_text_under_dropping_policy(demo_copy, auditor_run, tmp_path):
    run_dir, _ = demo_copy
    auditor_dir, _ = auditor_run
    # simulate a stale auditor-tier redaction left in the run directory
    shutil.copy(auditor_dir / rundir.REDACTED_LOG, run_dir / rundir.REDACTED_LOG)
    with pytest.raises(UnredactedLeak, match="raw text"):
        pack(run_dir, RedactionPolicy.for_tier(Tier.REVIEWER))


@pytest.mark.parametrize("endpoint, leaks", [
    ("https://inference.internal.lab:8443/v1", True),
    ("https://internal.lab", False),
    (GENERALIZED_ENDPOINT, False),
    ("", False),
], ids=["raw", "generalized", "constant", "empty"])
def test_pack_refuses_a_non_generalized_endpoint(demo_copy, endpoint, leaks):
    run_dir, _ = demo_copy
    log_path = run_dir / rundir.REDACTED_LOG
    data = json.loads(log_path.read_text())
    data["records"][0]["config"]["endpoint"] = endpoint
    log_path.write_text(json.dumps(data))
    if leaks:
        with pytest.raises(UnredactedLeak, match="endpoint"):
            pack(run_dir, RedactionPolicy.for_tier(Tier.REVIEWER))
    else:
        assert pack(run_dir, RedactionPolicy.for_tier(Tier.REVIEWER)).is_file()


@pytest.mark.parametrize("requested", [Tier.PUBLIC, Tier.AUDITOR])
def test_pack_refuses_a_redacted_log_at_another_tier(demo_copy, requested):
    run_dir, _ = demo_copy
    # the run was redacted at reviewer tier, which keeps the endpoint's domain
    log_path = run_dir / rundir.REDACTED_LOG
    data = json.loads(log_path.read_text())
    data["records"][0]["config"]["endpoint"] = "https://internal.lab"
    log_path.write_text(json.dumps(data))
    with pytest.raises(UnredactedLeak, match="at tier reviewer, not the requested"):
        pack(run_dir, RedactionPolicy.for_tier(requested))


def test_pack_missing_artifact_is_dangling(demo_copy):
    run_dir, _ = demo_copy
    (run_dir / rundir.DRAFT_MD).unlink()
    with pytest.raises(DanglingEntity, match="draft.md"):
        pack(run_dir, RedactionPolicy.for_tier(Tier.REVIEWER))


def test_read_manifest_bijection_and_roles(demo_run):
    _, crate = demo_run
    manifest = read_manifest(crate)
    members = set(read_crate_members(crate)) - {MANIFEST_NAME}
    assert {entity.id for entity in manifest.entities} == members
    assert all(entity.role in (Role.CODE, Role.DATA, Role.PROVENANCE)
               for entity in manifest.entities)
    by_id = {entity.id: entity for entity in manifest.entities}
    assert by_id["code/taxonomy.tmpl"].role is Role.CODE
    assert by_id["inputs/bundle.json"].role is Role.DATA
    assert by_id["provenance/interaction_log.redacted.json"].role is Role.PROVENANCE
    assert by_id["card.md"].role is Role.PROVENANCE


def test_manifest_digests_and_produced_by(demo_run):
    _, crate = demo_run
    manifest = read_manifest(crate)
    members = read_crate_members(crate)
    for entity in manifest.entities:
        assert entity.sha256 is not None
        assert entity.sha256 == sha256_hex(members[entity.id])
    by_id = {action.id: action for action in manifest.actions}
    assert by_id["#taxonomy-invocation"].results == ("outputs/taxonomy.json",)
    assert by_id["#synthesis-invocation"].results == ("outputs/draft.md",)
    assert by_id["#claim-audit"].results == ("outputs/audit.csv",)
    assert by_id["#taxonomy-invocation"].log_record == 0
    assert by_id["#synthesis-invocation"].log_record == 1


def test_read_manifest_missing(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    del members[MANIFEST_NAME]
    out = tmp_path / "nomanifest.zip"
    write_zip_deterministic(out, members)
    with pytest.raises(ManifestMissing):
        read_manifest(out)


def test_read_manifest_dangling_entity_on_deleted_member(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    del members["outputs/draft.md"]
    out = tmp_path / "deleted.zip"
    write_zip_deterministic(out, members)
    with pytest.raises(DanglingEntity, match="outputs/draft.md"):
        read_manifest(out)


def test_read_manifest_unlisted_member(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    members["outputs/surprise.txt"] = b"not in the manifest"
    out = tmp_path / "unlisted.zip"
    write_zip_deterministic(out, members)
    with pytest.raises(ManifestMalformed, match="surprise"):
        read_manifest(out)


def test_read_manifest_malformed_json(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    members[MANIFEST_NAME] = b"{ nope"
    out = tmp_path / "badjson.zip"
    write_zip_deterministic(out, members)
    with pytest.raises(ManifestMalformed):
        read_manifest(out)


def test_manifest_is_rocrate_shaped(demo_run):
    _, crate = demo_run
    data = json.loads(read_crate_members(crate)[MANIFEST_NAME])
    assert data["@context"] == "https://w3id.org/ro/crate/1.1/context"
    graph = {node["@id"]: node for node in data["@graph"]}
    assert graph[MANIFEST_NAME]["about"] == {"@id": "./"}
    root = graph["./"]
    assert root["@type"] == "Dataset"
    parts = {ref["@id"] for ref in root["hasPart"]}
    assert parts == set(read_crate_members(crate)) - {MANIFEST_NAME}


# SHA-256 of the demo crate at each tier, built under the frozen clock and host below.
DEMO_CRATE_SHA256 = {
    "public": "ff5358058afc0e1bc090be4fc121dc0b44722da4d5f938f4d89916822268e9f1",
    "reviewer": "cce31dcfc4c791c21a23bae5e9604700fecf1c4f940e9f229c64afcd4e2e0af2",
    "auditor": "f7c4a8ea24e573d65b1200f78c70fae2cf19d666eb854298d384e89face3c3a4",
}


class _FrozenDatetime(datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime(2026, 1, 2, 3, 4, 5, tzinfo=timezone.utc)


@pytest.mark.parametrize("tier", sorted(DEMO_CRATE_SHA256))
def test_demo_crate_bytes_are_pinned(tmp_path, monkeypatch, tier):
    # a refactor must leave the released bytes alone; any format drift must be deliberate.
    # Every timestamp comes from airo.provenance's clock (InteractionLog's default_factory
    # binds utc_now_rfc3339, which reads the module's datetime). The host and the
    # run-relative paths reach the crate through the private log's digest.
    monkeypatch.setattr(airo.provenance, "datetime", _FrozenDatetime)
    monkeypatch.setattr(platform, "node", lambda: "golden-host")
    monkeypatch.chdir(tmp_path)
    crate = run_pipeline(Path("run"), label="demo", tier=tier)
    assert hashlib.sha256(crate.read_bytes()).hexdigest() == DEMO_CRATE_SHA256[tier]
