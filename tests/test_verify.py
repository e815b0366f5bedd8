from __future__ import annotations

import json
import struct
import warnings
import zipfile

import pytest

from airo import cli, rundir
from airo.errors import CrateUnreadable, MalformedSyntax, SourceMismatch, ToolkitError
from airo.provenance import parse_log, sha256_hex
from airo.rocrate import MANIFEST_NAME, read_crate_members, write_zip_deterministic
from airo.verify import (CheckName, CheckStatus, verify_against_source, verify_crate)

from conftest import PRIVATE_ONLY_FIELDS, run_pipeline

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


def test_skip_note_does_not_hide_a_digest_mismatch(tmp_path, demo_run):
    # a member whose name starts like the tier-skip note must still be hash-checked
    _, crate = demo_run
    members = read_crate_members(crate)
    members["skipped:note.txt"] = b"tampered after packing"
    manifest = json.loads(members[MANIFEST_NAME])
    manifest["@graph"].append({"@id": "skipped:note.txt", "@type": "File",
                               "additionalType": "data",
                               "sha256": sha256_hex(b"as packed").hex})
    members[MANIFEST_NAME] = json.dumps(manifest).encode()
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)

    report = verify_crate(tampered)
    hash_check = report.check(CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert any(finding.startswith("skipped:note.txt: digest mismatch")
               for finding in hash_check.findings)
    assert report.overall is CheckStatus.FAIL


def test_duplicate_member_name_is_unreadable(tmp_path, demo_run, capsys):
    # a forged first copy of the draft ahead of the genuine one
    run_dir, crate = demo_run
    members = read_crate_members(crate)
    forged = tmp_path / "forged.zip"
    with warnings.catch_warnings(), zipfile.ZipFile(forged, "w") as zf:
        warnings.simplefilter("ignore", UserWarning)  # zipfile warns on the duplicate name
        zf.writestr("outputs/draft.md", members["outputs/draft.md"] + b"forged\n")
        for name, data in members.items():
            zf.writestr(name, data)

    with pytest.raises(CrateUnreadable, match="more than once"):
        verify_crate(forged)
    with pytest.raises(CrateUnreadable, match="more than once"):
        verify_against_source(forged, run_dir / rundir.INTERACTION_LOG)
    capsys.readouterr()
    assert cli.main(["verify", str(forged)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "more than once" in err


def _deflated_copy(crate, target):
    """The crate's members re-zipped with ZIP_DEFLATED, which pack never writes."""
    with zipfile.ZipFile(target, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for name, data in read_crate_members(crate).items():
            zf.writestr(name, data)
    return target


def _flip_deflate_stream(archive, name):
    """Flip the first two bytes of a member's deflate stream in place."""
    data = bytearray(archive.read_bytes())
    with zipfile.ZipFile(archive) as zf:
        offset = zf.getinfo(name).header_offset
    name_length, extra_length = struct.unpack("<HH", data[offset + 26:offset + 30])
    start = offset + 30 + name_length + extra_length
    data[start] ^= 0xFF
    data[start + 1] ^= 0xFF
    archive.write_bytes(bytes(data))


@pytest.mark.parametrize("corrupt", [False, True], ids=["deflated", "corrupt-deflate-stream"])
def test_compressed_member_is_unreadable(tmp_path, demo_run, capsys, corrupt):
    run_dir, crate = demo_run
    deflated = _deflated_copy(crate, tmp_path / "deflated.zip")
    if corrupt:
        _flip_deflate_stream(deflated, "outputs/draft.md")

    with pytest.raises(CrateUnreadable, match="compressed"):
        verify_crate(deflated)
    with pytest.raises(CrateUnreadable, match="compressed"):
        verify_against_source(deflated, run_dir / rundir.INTERACTION_LOG)
    capsys.readouterr()
    assert cli.main(["verify", str(deflated)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "compressed" in err


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


def _crate_with_record_field(tmp_path, crate, field, value):
    """A copy of ``crate`` whose first log record has ``field`` set to ``value``, with a
    manifest consistent with the edit, so only the log's content can fail the crate."""
    members = read_crate_members(crate)
    name = "provenance/interaction_log.redacted.json"
    data = json.loads(members[name])
    data["records"][0][field] = value
    members[name] = json.dumps(data).encode()
    manifest = json.loads(members[MANIFEST_NAME])
    _node(manifest, name)["sha256"] = sha256_hex(members[name]).hex
    members[MANIFEST_NAME] = json.dumps(manifest).encode()
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)
    return tampered


@pytest.mark.parametrize("field", sorted(PRIVATE_ONLY_FIELDS))
def test_private_field_in_crate_log_is_a_finding(tmp_path, demo_run, field):
    _, crate = demo_run
    tampered = _crate_with_record_field(tmp_path, crate, field, PRIVATE_ONLY_FIELDS[field])

    hash_check = verify_crate(tampered).check(CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert any("redacted log unreadable" in finding for finding in hash_check.findings)


MISTYPED_RECORD_FIELDS = {
    "private-source_paths-string": ("private", "source_paths", "bundle.json"),
    "private-source_paths-non-string-item": ("private", "source_paths", ["bundle.json", 5]),
    "private-attempt-string": ("private", "attempt", "one"),
    "private-attempt-bool": ("private", "attempt", True),
    "private-attempt-zero": ("private", "attempt", 0),
    "private-ended_at-int": ("private", "ended_at", 5),
    "private-host_id-list": ("private", "host_id", ["workstation-7"]),
    "crate-attempt-string": ("crate", "attempt", "one"),
    "crate-attempt-bool": ("crate", "attempt", True),
    "crate-attempt-zero": ("crate", "attempt", 0),
}


@pytest.mark.parametrize("log, field, value", list(MISTYPED_RECORD_FIELDS.values()),
                         ids=list(MISTYPED_RECORD_FIELDS))
def test_mistyped_record_field_makes_the_log_unreadable(tmp_path, demo_run, log, field, value):
    run_dir, crate = demo_run
    if log == "private":
        data = json.loads((run_dir / rundir.INTERACTION_LOG).read_bytes())
        data["records"][0][field] = value
        with pytest.raises(MalformedSyntax, match="interaction log unreadable"):
            parse_log(json.dumps(data).encode())
    else:
        tampered = _crate_with_record_field(tmp_path, crate, field, value)
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
