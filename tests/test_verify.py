from __future__ import annotations

import json

import pytest

from airo import rundir
from airo.errors import CrateUnreadable, SourceMismatch, ToolkitError
from airo.provenance import parse_log
from airo.rocrate import MANIFEST_NAME, read_crate_members, write_zip_deterministic
from airo.verify import (CheckName, CheckStatus, verify_against_source, verify_crate)

from conftest import run_pipeline

INVENTED_DRAFT = """RELATED WORK (DRAFT)

A paragraph citing a known source (Alvarez et al. 2021; P1) and an invented one
(Nobody 1999; P9).

CLAIM CHECKLIST
- Claim with real support [P1]
- Claim citing an id outside the bundle [P9]
"""


def statuses(report):
    return {check.name: check.status for check in report.checks}


def test_untampered_crate_five_pass(demo_run):
    _, crate = demo_run
    report = verify_crate(crate)
    assert len(report.checks) == 5
    assert [check.name.value for check in report.checks] == [
        "NotesInspectable", "StructureConforms", "ClaimMapping",
        "HashIntegrity", "InputDerivation"]
    assert all(check.status is CheckStatus.PASS for check in report.checks)
    assert report.overall is CheckStatus.PASS


def test_reviewer_tier_raw_text_subcheck_reported_skipped(demo_run):
    _, crate = demo_run
    report = verify_crate(crate)
    hash_check = report.check(CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.PASS
    assert any("skipped" in finding for finding in hash_check.findings)


def test_auditor_tier_rehashes_raw_texts(auditor_run):
    _, crate = auditor_run
    report = verify_crate(crate)
    hash_check = report.check(CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.PASS
    assert not any("skipped" in finding for finding in hash_check.findings)


def test_draft_byte_flip_fails_hash_and_claim_mapping(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    draft = bytearray(members["outputs/draft.md"])
    # flip a byte inside a checklist claim so the recomputed audit differs too
    position = bytes(draft).index(b"Content addressing detects") + 3
    draft[position] ^= 0x01
    members["outputs/draft.md"] = bytes(draft)
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)

    report = verify_crate(tampered)
    result = statuses(report)
    assert result[CheckName.HASH_INTEGRITY] is CheckStatus.FAIL
    assert result[CheckName.CLAIM_MAPPING] is CheckStatus.FAIL
    assert result[CheckName.NOTES_INSPECTABLE] is CheckStatus.PASS
    assert result[CheckName.STRUCTURE_CONFORMS] is CheckStatus.PASS
    assert result[CheckName.INPUT_DERIVATION] is CheckStatus.PASS
    assert report.overall is CheckStatus.FAIL


def test_invented_citation_crate_fails_claim_mapping(tmp_path):
    crate = run_pipeline(tmp_path / "run", label="invented",
                         stubs={"synthesis_demo": INVENTED_DRAFT})
    report = verify_crate(crate)
    claim_check = report.check(CheckName.CLAIM_MAPPING)
    assert claim_check.status is CheckStatus.FAIL
    assert any("InventedCitation" in finding for finding in claim_check.findings)
    # the packed audit itself recorded the invented row, so only closure fails
    assert report.check(CheckName.HASH_INTEGRITY).status is CheckStatus.PASS


def test_bundle_tamper_breaks_derivation(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    data = json.loads(members["inputs/bundle.json"])
    data["notes"][0]["summary"] += " edited after the run"
    members["inputs/bundle.json"] = json.dumps(data, indent=2).encode()
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)

    report = verify_crate(tampered)
    result = statuses(report)
    assert result[CheckName.HASH_INTEGRITY] is CheckStatus.FAIL
    assert result[CheckName.INPUT_DERIVATION] is CheckStatus.FAIL


def test_unreadable_archive(tmp_path):
    bogus = tmp_path / "not-a-zip.zip"
    bogus.write_bytes(b"this is not an archive")
    with pytest.raises(CrateUnreadable):
        verify_crate(bogus)


def test_report_markdown_and_dict(demo_run):
    _, crate = demo_run
    report = verify_crate(crate)
    markdown = report.to_markdown()
    for name in ("NotesInspectable", "StructureConforms", "ClaimMapping",
                 "HashIntegrity", "InputDerivation"):
        assert name in markdown
    assert report.to_dict()["overall"] == "Pass"


def test_verify_against_source_match(demo_run):
    run_dir, crate = demo_run
    result = verify_against_source(crate, run_dir / rundir.INTERACTION_LOG)
    assert result.status is CheckStatus.PASS
    assert result.findings == []


def test_verify_against_source_different_run(tmp_path, demo_run):
    _, crate = demo_run
    other = run_pipeline(tmp_path / "other", label="other")
    other_log = tmp_path / "other" / rundir.INTERACTION_LOG
    with pytest.raises(SourceMismatch):
        verify_against_source(crate, other_log)


def test_verify_against_source_edited_response(tmp_path, demo_run):
    run_dir, crate = demo_run
    log = parse_log((run_dir / rundir.INTERACTION_LOG).read_bytes())
    data = log.to_dict()
    data["records"][1]["response_text"] = data["records"][1]["response_text"] + " EDITED"
    edited = tmp_path / "edited_log.json"
    edited.write_text(json.dumps(data))

    result = verify_against_source(crate, edited)
    assert result.status is CheckStatus.FAIL
    assert any("record 1" in finding and "re-hash" in finding for finding in result.findings)


def _node(manifest, node_id):
    return next(node for node in manifest["@graph"] if node["@id"] == node_id)


HOSTILE_MANIFESTS = {
    "action-object-not-a-reference":
        lambda manifest: _node(manifest, "#taxonomy-invocation").update(object=["x"]),
    "digest-not-a-string": lambda manifest: _node(manifest, "outputs/draft.md").update(sha256=5),
    "graph-not-a-list": lambda manifest: manifest.update({"@graph": 5}),
    "id-not-a-string": lambda manifest: _node(manifest, "outputs/draft.md").update({"@id": 5}),
    "type-not-a-string":
        lambda manifest: _node(manifest, "outputs/draft.md").update({"@type": 5}),
}


@pytest.mark.parametrize("mutation", sorted(HOSTILE_MANIFESTS))
def test_hostile_manifest_shape_is_a_finding(tmp_path, demo_run, mutation):
    _, crate = demo_run
    members = read_crate_members(crate)
    manifest = json.loads(members[MANIFEST_NAME])
    HOSTILE_MANIFESTS[mutation](manifest)
    members[MANIFEST_NAME] = json.dumps(manifest).encode()
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)

    hash_check = verify_crate(tampered).check(CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert any(finding.startswith("manifest unusable") for finding in hash_check.findings)


def test_non_string_raw_text_in_crate_log_is_a_finding(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    data = json.loads(members["provenance/interaction_log.redacted.json"])
    data["records"][0]["prompt_text"] = 5
    members["provenance/interaction_log.redacted.json"] = json.dumps(data).encode()
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)

    hash_check = verify_crate(tampered).check(CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert any("redacted log unreadable" in finding for finding in hash_check.findings)


def test_non_string_raw_text_in_source_log_is_an_error(tmp_path, demo_run):
    run_dir, crate = demo_run
    data = json.loads((run_dir / rundir.INTERACTION_LOG).read_bytes())
    data["records"][0]["prompt_text"] = 5
    edited = tmp_path / "edited_log.json"
    edited.write_text(json.dumps(data))
    with pytest.raises(ToolkitError):
        verify_against_source(crate, edited)
