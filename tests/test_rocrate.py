from __future__ import annotations

import json
import shutil

import pytest

from airo import rundir
from airo.bundle import canonical_bytes, parse_bundle
from airo.errors import (DanglingEntity, ManifestMalformed, ManifestMissing, MissingSection,
                         UnredactedLeak)
from airo.provenance import sha256_hex
from airo.redact import GENERALIZED_ENDPOINT, RedactionPolicy, Tier
from airo.rocrate import (MANIFEST_NAME, Role, build_card, card_bundle_digest, pack,
                          read_crate_members, read_manifest, write_zip_deterministic)

CARD_SECTION_NAMES = ("run_id", "research_topic", "model_configuration", "artifacts_released",
                      "intended_use", "human_oversight", "disclosure", "limitations",
                      "reproducibility_note")


def test_build_card_nine_sections_and_config(demo_run):
    run_dir, _ = demo_run
    card = build_card(run_dir)
    data = card.to_dict()
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


def test_pack_refuses_unredacted_log_in_payload(demo_copy):
    run_dir, _ = demo_copy
    with pytest.raises(UnredactedLeak, match="interaction_log.json"):
        pack(run_dir, RedactionPolicy.for_tier(Tier.REVIEWER),
             extra_paths=(rundir.INTERACTION_LOG,))


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
    assert manifest.entity("code/taxonomy.tmpl").role is Role.CODE
    assert manifest.entity("inputs/bundle.json").role is Role.DATA
    assert manifest.entity("provenance/interaction_log.redacted.json").role is Role.PROVENANCE
    assert manifest.entity("card.md").role is Role.PROVENANCE


def test_manifest_digests_and_produced_by(demo_run):
    _, crate = demo_run
    manifest = read_manifest(crate)
    members = read_crate_members(crate)
    for entity in manifest.entities:
        assert entity.sha256 is not None
        assert entity.sha256 == sha256_hex(members[entity.id])
    assert manifest.entity("outputs/taxonomy.json").produced_by == "#taxonomy-invocation"
    assert manifest.entity("outputs/draft.md").produced_by == "#synthesis-invocation"
    assert manifest.entity("outputs/audit.csv").produced_by == "#claim-audit"
    by_id = {action.id: action for action in manifest.actions}
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
