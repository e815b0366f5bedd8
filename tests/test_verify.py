from __future__ import annotations

import json
import struct
import sys
import warnings
import zipfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from airo import cli, rundir
from airo.errors import CrateUnreadable, MalformedSyntax, ToolkitError
from airo.provenance import parse_log, sha256_hex
from airo.redact import Tier
from airo.rocrate import (MANIFEST_NAME, PACKED_MEMBERS, REDACTED_LOG_MEMBER,
                          read_crate_members, write_zip_deterministic)
from airo.verify import (CheckName, CheckStatus, VerificationReport, verify_against_source,
                         verify_crate, verify_members)

from conftest import PIPELINE, PRIVATE_ONLY_FIELDS, UNDECODABLE_JSON, check_of, run_pipeline

INVENTED_DRAFT = """RELATED WORK (DRAFT)

A paragraph citing a known source (Alvarez et al. 2021; P1) and an invented one
(Nobody 1999; P9).

CLAIM CHECKLIST
- Claim with real support [P1]
- Claim citing an id outside the bundle [P9]
"""


DRAFT_NOT_LOGGED = "no synthesis record in the redacted log wrote outputs/draft.md"


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
    hash_check = check_of(report, CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.PASS
    assert any("skipped" in finding for finding in hash_check.findings)


def test_skip_note_does_not_hide_a_digest_mismatch(tmp_path, demo_run):
    # a finding about a member whose name starts like the tier-skip note must still count:
    # here a member pack never writes, listed in the manifest under a digest it does not have
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
    hash_check = check_of(report, CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert hash_check.findings[0] == "skipped:note.txt: not a member pack writes"
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
    hash_check = check_of(report, CheckName.HASH_INTEGRITY)
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
    assert result[CheckName.INPUT_DERIVATION] is CheckStatus.FAIL  # no logged call wrote it
    assert check_of(report, CheckName.INPUT_DERIVATION).findings == [DRAFT_NOT_LOGGED]
    assert report.overall is CheckStatus.FAIL


def test_resealed_hand_edited_draft_fails_input_derivation(tmp_path, demo_run):
    # one word of the prose edited after the run, the manifest digest recomputed: every
    # other check passes, but no logged synthesis call returned these bytes
    _, crate = demo_run
    draft = read_crate_members(crate)["outputs/draft.md"]
    edited = draft.replace(b"a complementary stance", b"a different stance", 1)
    assert edited != draft
    report = verify_crate(_crate_with_member(tmp_path, crate, "outputs/draft.md", edited))
    assert [(check.name, check.findings) for check in report.checks
            if check.status is CheckStatus.FAIL] == [
        (CheckName.INPUT_DERIVATION, [DRAFT_NOT_LOGGED])]
    assert report.overall is CheckStatus.FAIL


def test_invented_citation_crate_fails_claim_mapping(tmp_path):
    crate = run_pipeline(tmp_path / "run", label="invented",
                         stubs={"synthesis_demo": INVENTED_DRAFT})
    report = verify_crate(crate)
    claim_check = check_of(report, CheckName.CLAIM_MAPPING)
    assert claim_check.status is CheckStatus.FAIL
    assert any("InventedCitation" in finding for finding in claim_check.findings)
    # the packed audit itself recorded the invented row, so only closure fails
    assert check_of(report, CheckName.HASH_INTEGRITY).status is CheckStatus.PASS


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


def _central_entry(data: bytes, name: str) -> int:
    """The offset of member ``name``'s central directory header in the archive ``data``."""
    end = data.rindex(b"PK\x05\x06")
    offset, = struct.unpack_from("<I", data, end + 16)
    while True:
        name_length, extra_length, comment_length = struct.unpack_from("<HHH", data, offset + 28)
        if data[offset + 46:offset + 46 + name_length] == name.encode():
            return offset
        offset += 46 + name_length + extra_length + comment_length


def _set_flag(data: bytearray, entry: int, bit: int) -> None:
    flags, = struct.unpack_from("<H", data, entry + 8)
    struct.pack_into("<H", data, entry + 8, flags | bit)


def _encrypted(data: bytearray, entry: int) -> None:
    _set_flag(data, entry, 0x1)  # general purpose flag bit 0: encrypted


def _name_not_utf8(data: bytearray, entry: int) -> None:
    _set_flag(data, entry, 0x800)  # bit 11: the name is UTF-8, which 0xff never is
    data[entry + 46] = 0xFF


def _size_past_end(data: bytearray, entry: int) -> None:
    struct.pack_into("<II", data, entry + 20, len(data), len(data))  # stored size, size


def _version_unsupported(data: bytearray, entry: int) -> None:
    data[entry + 6] = 0xFF  # version needed to extract: 25.5


def _name_empty(data: bytearray, entry: int) -> None:
    # pack writes no extra field and no comment, so the name's bytes become the comment
    name_length, = struct.unpack_from("<H", data, entry + 28)
    struct.pack_into("<HHH", data, entry + 28, 0, 0, name_length)


@pytest.mark.parametrize("hostile_edit",
                         [_encrypted, _name_not_utf8, _size_past_end, _version_unsupported,
                          _name_empty],
                         ids=["encrypted", "name-not-utf-8", "size-past-end",
                              "version-unsupported", "name-empty"])
def test_hostile_archive_is_unreadable_not_a_crash(tmp_path, demo_run, capsys, hostile_edit):
    run_dir, crate = demo_run
    data = bytearray(crate.read_bytes())
    hostile_edit(data, _central_entry(data, "outputs/draft.md"))
    hostile = tmp_path / "hostile.zip"
    hostile.write_bytes(bytes(data))

    with pytest.raises(CrateUnreadable):
        verify_crate(hostile)
    with pytest.raises(CrateUnreadable):
        verify_against_source(hostile, run_dir / rundir.INTERACTION_LOG)
    capsys.readouterr()
    assert cli.main(["verify", str(hostile)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_crate_gives_a_report_or_crate_unreadable(tmp_path, demo_run, data):
    # one to three bytes set anywhere; a negative offset counts from the end, where the
    # central directory that zipfile trusts lies
    _, crate = demo_run
    raw = bytearray(crate.read_bytes())
    edits = data.draw(st.lists(st.tuples(st.integers(-len(raw), len(raw) - 1),
                                         st.integers(0, 255)), min_size=1, max_size=3))
    for offset, value in edits:
        raw[offset] = value
    mutated = tmp_path / "mutated.zip"
    mutated.write_bytes(raw)
    try:
        report = verify_crate(mutated)
    except CrateUnreadable:
        return
    assert isinstance(report, VerificationReport) and len(report.checks) == 5


def test_public_tier_crate_verifies(tmp_path):
    crate = run_pipeline(tmp_path / "run", label="public-demo", tier="public")
    assert verify_crate(crate).overall is CheckStatus.PASS


def test_unreadable_log_finding_names_the_log_once(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    members[REDACTED_LOG_MEMBER] = b""
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)

    hash_check = check_of(verify_crate(tampered), CheckName.HASH_INTEGRITY)
    assert hash_check.findings[-1] == ("redacted log unreadable: "
                                       "Expecting value: line 1 column 1 (char 0)")


def _crate_without(tmp_path, crate, names, edit=None):
    """A copy of ``crate`` without the members ``names`` or their manifest entries, so the
    manifest still agrees with the archive; ``edit`` may change the manifest further."""
    members = {name: data for name, data in read_crate_members(crate).items()
               if name not in names}
    manifest = json.loads(members[MANIFEST_NAME])
    manifest["@graph"] = [node for node in manifest["@graph"] if node["@id"] not in names]
    root = _node(manifest, "./")
    root["hasPart"] = [ref for ref in root["hasPart"] if ref["@id"] not in names]
    if edit is not None:
        edit(manifest)
    members[MANIFEST_NAME] = json.dumps(manifest).encode()
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)
    return tampered


def test_card_removed_with_its_manifest_entry_fails_derivation(tmp_path, demo_run):
    _, crate = demo_run
    report = verify_crate(_crate_without(tmp_path, crate, ["card.md"]))
    derivation = check_of(report, CheckName.INPUT_DERIVATION)
    assert derivation.status is CheckStatus.FAIL
    assert derivation.findings == ["card.md missing from crate"]
    hash_check = check_of(report, CheckName.HASH_INTEGRITY)  # pack always writes a card
    assert hash_check.status is CheckStatus.FAIL
    assert [f for f in hash_check.findings if not f.startswith("skipped:")] == [
        "card.md missing from crate"]
    assert report.overall is CheckStatus.FAIL


@pytest.fixture(scope="module")
def crate_per_tier(demo_run, auditor_run, tmp_path_factory):
    public = run_pipeline(tmp_path_factory.mktemp("public") / "run", label="public-demo",
                          tier="public")
    return {"public": public, "reviewer": demo_run[1], "auditor": auditor_run[1]}


# (prefix of a card line, what a forger writes there); none of it is backed by the crate
CARD_FORGERIES = {
    "model": ("- Model: ", "- Model: a-model-never-called"),
    "interface": ("- Interface: ", "- Interface: openai-compatible"),
    "temperature": ("- Temperature: ", "- Temperature: 0.0"),
    "run-id": ("Run ID: ", "Run ID: ro-another-run"),
    "research-topic": ("Research Topic: ", "Research Topic: A topic the bundle never names"),
    "released-artifact": ("- outputs/audit.csv: ",
                          "- outputs/audit.csv: every claim verified by a second model"),
    "narrative-heading": ("## Disclosure", "## Nothing To Disclose"),
}


@pytest.mark.parametrize("tier", ["public", "reviewer", "auditor"])
@pytest.mark.parametrize("prefix, forged", CARD_FORGERIES.values(), ids=list(CARD_FORGERIES))
def test_card_that_contradicts_the_crate_fails_derivation(tmp_path, crate_per_tier, tier,
                                                         prefix, forged):
    # the card's manifest digest is recomputed, so the crate agrees with itself
    crate = crate_per_tier[tier]
    lines = read_crate_members(crate)["card.md"].decode().split("\n")
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    packed, lines[index] = lines[index], forged
    report = verify_crate(_crate_with_member(tmp_path, crate, "card.md",
                                             "\n".join(lines).encode()))
    assert check_of(report, CheckName.INPUT_DERIVATION).findings == [
        f"card.md line {index + 1}: packed {forged!r}, derived {packed!r}"]
    assert [check.name for check in report.checks if check.status is CheckStatus.FAIL] == [
        CheckName.INPUT_DERIVATION]


def test_a_title_holding_a_narrative_heading_verifies(tmp_path):
    # the heading inside the title is part of the card's head, not the start of its narrative
    run_dir = tmp_path / "run"
    assert cli.main(["init", "demo", "--run-dir", str(run_dir)]) == 0
    bundle_path = run_dir / rundir.BUNDLE
    bundle = json.loads(bundle_path.read_bytes())
    bundle["title"] = "Drafting\n\n## Intended Use\n\nwith headings"
    bundle_path.write_text(json.dumps(bundle), encoding="utf-8")
    for step in PIPELINE:
        assert cli.main(step + ["--run-dir", str(run_dir)]) == 0, step
    crate, = (run_dir / rundir.CRATE_DIR).glob("*.crate.zip")
    assert "## Intended Use\n\nwith headings" in read_crate_members(crate)["card.md"].decode()
    report = verify_crate(crate)
    assert [(check.name, check.findings) for check in report.checks
            if check.status is CheckStatus.FAIL] == []
    assert report.overall is CheckStatus.PASS


def test_log_with_no_records_backs_no_card(tmp_path, demo_run):
    _, crate = demo_run
    report = verify_crate(_crate_with_log(tmp_path, crate, lambda data: data.update(records=[])))
    derivation = check_of(report, CheckName.INPUT_DERIVATION)
    assert derivation.status is CheckStatus.FAIL
    assert derivation.findings == [DRAFT_NOT_LOGGED]
    assert report.overall is CheckStatus.FAIL


def test_log_without_the_synthesis_record_backs_no_card(tmp_path, demo_run):
    _, crate = demo_run
    report = verify_crate(_crate_with_log(tmp_path, crate,
                                          lambda data: data.update(records=data["records"][:1])))
    assert check_of(report, CheckName.INPUT_DERIVATION).findings == [DRAFT_NOT_LOGGED]
    assert report.overall is CheckStatus.FAIL


# whether the run starts from a fresh init instead of the demo pipeline; the steps, each
# with its exit code, OTHER standing for a config naming other-model; and whether the card
# must state other-model
CARD_CASES = {
    "failed taxonomy call after the draft": (
        False, [(["taxonomy", "--stub", "bad", "--config", "OTHER"], 1)], False),
    "failed draft call after the draft": (
        False, [(["draft", "--stub", "blank", "--config", "OTHER"], 1)], False),
    "draft re-run under another config": (
        False, [(["draft", "--stub", "synthesis_demo", "--config", "OTHER"], 0), (["audit"], 0)],
        True),
    "failed draft call before the draft": (
        True, [(["taxonomy", "--stub", "taxonomy_demo"], 0),
               (["draft", "--stub", "blank", "--config", "OTHER"], 1),
               (["draft", "--stub", "synthesis_demo"], 0), (["audit"], 0)], False),
}


def _run_steps(run_dir, tmp_path, steps):
    """Run ``steps`` in run_dir, then redact, card and pack; returns the crate and the demo
    config's model."""
    config = json.loads((run_dir / rundir.CONFIG).read_text())
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**config, "model_name": "other-model"}))
    (run_dir / rundir.FIXTURES_DIR / "bad.txt").write_text("not json")
    (run_dir / rundir.FIXTURES_DIR / "blank.txt").write_text("")
    for argv, code in steps + [(["redact"], 0), (["card"], 0), (["pack"], 0)]:
        argv = [str(other) if arg == "OTHER" else arg for arg in argv]
        assert cli.main(argv + ["--run-dir", str(run_dir)]) == code, argv
    state = rundir.RunDirectory(run_dir).load_state()
    return run_dir / rundir.CRATE_DIR / f"{state.run_id}.crate.zip", config["model_name"]


@pytest.mark.parametrize("fresh, steps, other", CARD_CASES.values(), ids=list(CARD_CASES))
def test_the_card_states_the_model_of_the_call_that_wrote_the_draft(demo_copy, tmp_path,
                                                                    fresh, steps, other):
    # the log is append-only: a failed or re-run call may sit after, or before, the draft's own
    run_dir = demo_copy[0]
    if fresh:
        run_dir = tmp_path / "fresh"
        assert cli.main(["init", "demo", "--run-dir", str(run_dir)]) == 0
    crate, demo_model = _run_steps(run_dir, tmp_path, steps)
    stated, passed_over = ("other-model", demo_model) if other else (demo_model, "other-model")
    card = read_crate_members(crate)["card.md"].decode()
    assert f"\n- Model: {stated}\n" in card and passed_over not in card
    source_log = str(run_dir / rundir.INTERACTION_LOG)
    assert cli.main(["verify", str(crate), "--source-log", source_log]) == 0


def test_a_card_naming_the_failed_call_model_fails_derivation(demo_copy, tmp_path):
    crate, demo_model = _run_steps(demo_copy[0], tmp_path,
                                   CARD_CASES["failed taxonomy call after the draft"][1])
    card = read_crate_members(crate)["card.md"].decode()
    forged = card.replace(f"\n- Model: {demo_model}\n", "\n- Model: other-model\n")
    assert forged != card
    report = verify_crate(_crate_with_member(tmp_path, crate, "card.md", forged.encode()))
    assert [check.name for check in report.checks if check.status is CheckStatus.FAIL] == [
        CheckName.INPUT_DERIVATION]


def _drop_refs(names):
    """A manifest edit that drops every action's references to ``names``."""
    def edit(manifest):
        for node in manifest["@graph"]:
            for key in ("object", "result"):
                if key in node:
                    node[key] = [ref for ref in node[key] if ref["@id"] not in names]
    return edit


@pytest.mark.parametrize("names", [[name] for name in PACKED_MEMBERS]
                         + [["code/taxonomy.tmpl", "code/synthesis.tmpl"]], ids="+".join)
def test_crate_without_a_packed_member_fails_hash_integrity(tmp_path, demo_run, names):
    # the member, its manifest entry and every reference to it are gone, so only the
    # list of what pack writes can tell that it is missing
    _, crate = demo_run
    report = verify_crate(_crate_without(tmp_path, crate, names, _drop_refs(names)))
    hash_check = check_of(report, CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert [f for f in hash_check.findings if not f.startswith("skipped:")] == [
        f"{name} missing from crate" for name in names]
    assert report.overall is CheckStatus.FAIL


def _rename_audit_result(manifest):
    _node(manifest, "#claim-audit")["result"] = [{"@id": "outputs/elsewhere.csv"}]


NOT_PACKS_MANIFEST = (f"{MANIFEST_NAME} is not the manifest pack writes for run ro-demo and "
                      f"these members")

ABSENT_ACTION_MEMBERS = {
    "templates-removed": (["code/taxonomy.tmpl", "code/synthesis.tmpl"], None, [
        "code/taxonomy.tmpl missing from crate", "code/synthesis.tmpl missing from crate"]),
    "result-renamed": ([], _rename_audit_result, [NOT_PACKS_MANIFEST]),
}


@pytest.mark.parametrize("case", sorted(ABSENT_ACTION_MEMBERS))
def test_action_naming_a_non_member_fails_hash_integrity(tmp_path, demo_run, case):
    _, crate = demo_run
    names, edit, expected = ABSENT_ACTION_MEMBERS[case]
    report = verify_crate(_crate_without(tmp_path, crate, names, edit))
    hash_check = check_of(report, CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert [f for f in hash_check.findings if not f.startswith("skipped:")] == expected
    assert report.overall is CheckStatus.FAIL


def test_member_pack_never_writes_fails_hash_integrity(tmp_path, demo_run, capsys):
    # a private note listed in the manifest under its own digest: the leak gate scans only
    # the log, so only the list of what pack writes can refuse it
    _, crate = demo_run
    members = read_crate_members(crate)
    members["notes/private.txt"] = b"see /home/alice/secret\n"
    manifest = json.loads(members[MANIFEST_NAME])
    manifest["@graph"].append({"@id": "notes/private.txt", "@type": ["File"],
                               "additionalType": "data", "description": "run artifact",
                               "sha256": sha256_hex(members["notes/private.txt"]).hex})
    _node(manifest, "./")["hasPart"].append({"@id": "notes/private.txt"})
    members[MANIFEST_NAME] = json.dumps(manifest).encode()
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)

    report = verify_crate(tampered)
    hash_check = check_of(report, CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert [f for f in hash_check.findings if not f.startswith("skipped:")] == [
        "notes/private.txt: not a member pack writes"]
    assert [check.name for check in report.checks if check.status is CheckStatus.FAIL] == [
        CheckName.HASH_INTEGRITY]
    capsys.readouterr()
    assert cli.main(["verify", str(tampered)]) == 1
    assert "notes/private.txt" in capsys.readouterr().out


def _relabel_run(manifest):
    _node(manifest, "./")["identifier"] = "ro-someone-else"
    manifest["@graph"].remove(_node(manifest, "#claim-audit"))
    _node(manifest, "#taxonomy-invocation")["result"] = [{"@id": "outputs/draft.md"}]


REWRITTEN_MANIFESTS = {
    "position-not-an-index":
        lambda manifest: _node(manifest, "#synthesis-invocation").update(
            position={"not": "an index"}),
    "run-relabelled-audit-dropped-result-repointed": _relabel_run,
}


@pytest.mark.parametrize("case", sorted(REWRITTEN_MANIFESTS))
def test_manifest_pack_would_not_write_fails_hash_integrity(tmp_path, demo_run, case):
    # every member digest still matches; only the rebuilt manifest tells the edit apart
    _, crate = demo_run
    report = verify_crate(_crate_without(tmp_path, crate, [], REWRITTEN_MANIFESTS[case]))
    hash_check = check_of(report, CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert [f for f in hash_check.findings if not f.startswith("skipped:")] == [
        NOT_PACKS_MANIFEST]
    assert report.overall is CheckStatus.FAIL


def _other_values(value) -> list:
    """JSON values unlike ``value``; for an int, also the bool ``==`` takes for equal to it."""
    if type(value) is int:
        return [value + 1, bool(value)]
    if type(value) is str:
        return [value + "~"]
    if type(value) is list:
        return [value[:-1] if len(value) > 1 else value + value]
    return [{**value, "@id": value["@id"] + "~"}]  # every object value is a reference


def test_every_manifest_value_is_checked(demo_run):
    # each value of each node of the demo manifest changed in turn, digests left as packed
    _, crate = demo_run
    members = read_crate_members(crate)
    manifest = json.loads(members[MANIFEST_NAME])
    places = [(manifest, key) for key in manifest if key != "@graph"]
    places += [(node, key) for node in manifest["@graph"] for key in node]
    cases, undetected = 0, []
    for node, key in places:
        original = node[key]
        for value in _other_values(original):
            node[key] = value
            edited = dict(members, **{MANIFEST_NAME: json.dumps(manifest).encode()})
            hashes = check_of(verify_members(edited), CheckName.HASH_INTEGRITY)
            if hashes.status is CheckStatus.PASS:
                undetected.append((node.get("@id"), key, value))
            cases += 1
        node[key] = original
    assert cases >= 70
    assert undetected == []


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
    result = verify_against_source(crate, other_log)
    assert result.status is CheckStatus.FAIL
    assert result.findings == ["run id mismatch: crate ro-demo, source ro-other"]


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


# a field of the first record of the crate's log -> the value a forger puts there, with the
# manifest digest recomputed, so only the escrow check can tell
FORGED_RECORD_FIELDS = {
    "config": ("config", lambda config: dict(config, model_name="a-model-never-called",
                                             temperature=0.0)),
    "attempt": ("attempt", lambda attempt: attempt + 1),
    "stage": ("stage", lambda stage: "synthesis"),
}


@pytest.mark.parametrize("case", sorted(FORGED_RECORD_FIELDS))
def test_forged_record_field_fails_the_escrow_check(tmp_path, demo_run, case):
    run_dir, crate = demo_run
    field, forge = FORGED_RECORD_FIELDS[case]
    tampered = _crate_with_log(tmp_path, crate, lambda data: data["records"][0].update(
        {field: forge(data["records"][0][field])}))

    result = verify_against_source(tampered, run_dir / rundir.INTERACTION_LOG)
    assert result.status is CheckStatus.FAIL
    assert result.findings == [f"record 0: {field} differs between source log and redacted log"]


def _node(manifest, node_id):
    return next(node for node in manifest["@graph"] if node["@id"] == node_id)


NO_DRAFT_DIGEST = ["outputs/draft.md: no digest recorded"]

# manifest edit -> the findings it gives
HOSTILE_MANIFESTS = {
    "action-object-not-a-reference": (
        lambda manifest: _node(manifest, "#taxonomy-invocation").update(object=["x"]),
        [NOT_PACKS_MANIFEST]),
    "digest-not-a-string": (
        lambda manifest: _node(manifest, "outputs/draft.md").update(sha256=5), NO_DRAFT_DIGEST),
    "graph-not-a-list": (lambda manifest: manifest.update({"@graph": 5}),
                         [f"{name}: no digest recorded" for name in PACKED_MEMBERS]),
    "id-not-a-string": (
        lambda manifest: _node(manifest, "outputs/draft.md").update({"@id": 5}), NO_DRAFT_DIGEST),
    "type-not-a-string": (
        lambda manifest: _node(manifest, "outputs/draft.md").update({"@type": 5}),
        [NOT_PACKS_MANIFEST]),
}


@pytest.mark.parametrize("mutation", sorted(HOSTILE_MANIFESTS))
def test_hostile_manifest_shape_is_a_finding(tmp_path, demo_run, mutation):
    _, crate = demo_run
    members = read_crate_members(crate)
    manifest = json.loads(members[MANIFEST_NAME])
    edit, expected = HOSTILE_MANIFESTS[mutation]
    edit(manifest)
    members[MANIFEST_NAME] = json.dumps(manifest).encode()
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)

    hash_check = check_of(verify_crate(tampered), CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert [f for f in hash_check.findings if not f.startswith("skipped:")] == expected


def test_non_string_raw_text_in_crate_log_is_a_finding(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    data = json.loads(members[REDACTED_LOG_MEMBER])
    data["records"][0]["prompt_text"] = 5
    members[REDACTED_LOG_MEMBER] = json.dumps(data).encode()
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)

    hash_check = check_of(verify_crate(tampered), CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert any("redacted log unreadable" in finding for finding in hash_check.findings)


def _crate_with_member(tmp_path, crate, name, data: bytes):
    """A copy of ``crate`` whose member ``name`` holds ``data``, with its manifest digest
    recomputed, so only the member's content can fail the crate."""
    members = read_crate_members(crate)
    members[name] = data
    if name != MANIFEST_NAME:
        manifest = json.loads(members[MANIFEST_NAME])
        _node(manifest, name)["sha256"] = sha256_hex(data).hex
        members[MANIFEST_NAME] = json.dumps(manifest).encode()
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)
    return tampered


def _crate_with_log(tmp_path, crate, edit):
    """A copy of ``crate`` whose redacted log's JSON ``edit`` changed, with a manifest
    consistent with the edit, so only the log's content can fail the crate."""
    data = json.loads(read_crate_members(crate)[REDACTED_LOG_MEMBER])
    edit(data)
    return _crate_with_member(tmp_path, crate, REDACTED_LOG_MEMBER, json.dumps(data).encode())


def _crate_with_record_field(tmp_path, crate, field, value):
    """A copy of ``crate`` whose first log record has ``field`` set to ``value``."""
    return _crate_with_log(tmp_path, crate, lambda data: data["records"][0].update({field: value}))


def test_public_crate_whose_log_leaks_fails_hash_integrity(tmp_path):
    # every raw prompt and response and an internal endpoint put back into a public crate's
    # log, its manifest digest recomputed: the crate agrees with itself, but not with its tier
    run_dir = tmp_path / "run"
    crate = run_pipeline(run_dir, label="public-demo", tier="public")
    private = parse_log((run_dir / rundir.INTERACTION_LOG).read_bytes())

    def leak(data):
        for record, source in zip(data["records"], private.records, strict=True):
            record.update(prompt_text=source.prompt_text, response_text=source.response_text)
            record["config"]["endpoint"] = "https://gpu.internal.lab:8443/v1"

    report = verify_crate(_crate_with_log(tmp_path, crate, leak))
    hash_check = check_of(report, CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert hash_check.findings == [
        "redacted log record 0 retains raw text under a text-dropping policy (tier public)",
        "redacted log record 1 retains raw text under a text-dropping policy (tier public)",
        "redacted log record 0 carries a non-generalized endpoint",
        "redacted log record 1 carries a non-generalized endpoint"]
    assert [check.name for check in report.checks if check.status is CheckStatus.FAIL] == [
        CheckName.HASH_INTEGRITY]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: no member states the tier the crate "
                                       "was packed at, so verify trusts the log's own label")
def test_public_crate_whose_log_is_relabelled_auditor_fails(tmp_path):
    # the raw texts put back under an auditor policy: the log agrees with the tier it claims
    run_dir = tmp_path / "run"
    crate = run_pipeline(run_dir, label="public-demo", tier="public")
    private = parse_log((run_dir / rundir.INTERACTION_LOG).read_bytes())

    def relabel(data):
        data["policy"] = Tier.AUDITOR.policy_dict()
        for record, source in zip(data["records"], private.records, strict=True):
            record.update(prompt_text=source.prompt_text, response_text=source.response_text)

    assert verify_crate(_crate_with_log(tmp_path, crate, relabel)).overall is CheckStatus.FAIL

@pytest.mark.parametrize("field", sorted(PRIVATE_ONLY_FIELDS))
def test_private_field_in_crate_log_is_a_finding(tmp_path, demo_run, field):
    _, crate = demo_run
    tampered = _crate_with_record_field(tmp_path, crate, field, PRIVATE_ONLY_FIELDS[field])

    hash_check = check_of(verify_crate(tampered), CheckName.HASH_INTEGRITY)
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
        hash_check = check_of(verify_crate(tampered), CheckName.HASH_INTEGRITY)
        assert hash_check.status is CheckStatus.FAIL
        assert any("redacted log unreadable" in finding for finding in hash_check.findings)


def test_wrong_typed_model_configuration_makes_the_log_unreadable(tmp_path, demo_run):
    # the values a log's configuration could be forged to hold, manifest digest recomputed
    _, crate = demo_run

    def mistype(data):
        data["records"][0]["config"].update(model_name={"a": 1}, seed=[[["x"]]],
                                            max_tokens=True)

    report = verify_crate(_crate_with_log(tmp_path, crate, mistype))
    hash_check = check_of(report, CheckName.HASH_INTEGRITY)
    assert hash_check.status is CheckStatus.FAIL
    assert [finding for finding in hash_check.findings
            if finding.startswith("redacted log unreadable: ")] == [
        "redacted log unreadable: field 'model_name' must be str, got dict"]
    assert report.overall is CheckStatus.FAIL


def test_non_string_raw_text_in_source_log_is_an_error(tmp_path, demo_run):
    run_dir, crate = demo_run
    data = json.loads((run_dir / rundir.INTERACTION_LOG).read_bytes())
    data["records"][0]["prompt_text"] = 5
    edited = tmp_path / "edited_log.json"
    edited.write_text(json.dumps(data))
    with pytest.raises(ToolkitError):
        verify_against_source(crate, edited)


# member -> (the check that reports it, the start of its finding)
JSON_MEMBERS = {
    "inputs/bundle.json": (CheckName.NOTES_INSPECTABLE, "bundle invalid: bundle unreadable: "),
    "outputs/taxonomy.json": (CheckName.STRUCTURE_CONFORMS, "taxonomy invalid: taxonomy unreadable: "),
    REDACTED_LOG_MEMBER: (CheckName.HASH_INTEGRITY, "redacted log unreadable: "),
    MANIFEST_NAME: (CheckName.HASH_INTEGRITY, f"manifest unusable: {MANIFEST_NAME} unreadable: "),
}


@pytest.mark.parametrize("kind", sorted(UNDECODABLE_JSON))
@pytest.mark.parametrize("name", sorted(JSON_MEMBERS))
def test_undecodable_json_member_is_a_finding(tmp_path, demo_run, capsys, name, kind):
    if kind == "long-int" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no digit limit for int conversion")
    _, crate = demo_run
    tampered = _crate_with_member(tmp_path, crate, name, UNDECODABLE_JSON[kind])

    report = verify_crate(tampered)
    check, finding = JSON_MEMBERS[name]
    assert check_of(report, check).status is CheckStatus.FAIL
    assert any(f.startswith(finding) for f in check_of(report, check).findings)
    capsys.readouterr()
    assert cli.main(["verify", str(tampered)]) == 1
    out, err = capsys.readouterr()
    assert out.endswith("overall: FAIL\n") and err == ""


# json.loads decodes a lone surrogate escape to a str that UTF-8 cannot encode, so hashing
# the bundle or a retained raw text would raise: the reader refuses the member instead
LONE_SURROGATE_MEMBERS = {
    "bundle": ("demo_run", "inputs/bundle.json", CheckName.NOTES_INSPECTABLE,
               "bundle invalid: bundle unreadable: ",
               lambda data: data.update(title=data["title"] + "\ud800")),
    "auditor-log-prompt": ("auditor_run", REDACTED_LOG_MEMBER, CheckName.HASH_INTEGRITY,
                           "redacted log unreadable: ",
                           lambda data: data["records"][0].update(
                               prompt_text=data["records"][0]["prompt_text"] + "\udc00")),
}


@pytest.mark.parametrize("case", sorted(LONE_SURROGATE_MEMBERS))
def test_lone_surrogate_in_a_member_is_a_finding(tmp_path, request, capsys, case):
    run, name, check, finding, edit = LONE_SURROGATE_MEMBERS[case]
    _, crate = request.getfixturevalue(run)
    data = json.loads(read_crate_members(crate)[name])
    edit(data)
    tampered = _crate_with_member(tmp_path, crate, name, json.dumps(data).encode())

    report = verify_crate(tampered)
    assert check_of(report, check).status is CheckStatus.FAIL
    refused = [f for f in check_of(report, check).findings if f.startswith(finding)]
    assert len(refused) == 1 and refused[0].endswith("surrogates not allowed")
    capsys.readouterr()
    assert cli.main(["verify", str(tampered)]) == 1
    out, err = capsys.readouterr()
    assert out.endswith("overall: FAIL\n") and err == ""


def test_oversized_audit_csv_field_is_a_finding(tmp_path, demo_run):
    # csv refuses a field longer than csv.field_size_limit(), 131,072 characters by default
    _, crate = demo_run
    packed = read_crate_members(crate)["outputs/audit.csv"]
    oversized = packed + b'"' + b"x" * 200_000 + b'",P1,supported,\r\n'
    tampered = _crate_with_member(tmp_path, crate, "outputs/audit.csv", oversized)

    claims = check_of(verify_crate(tampered), CheckName.CLAIM_MAPPING)
    assert claims.status is CheckStatus.FAIL
    assert [f for f in claims.findings if f.startswith("audit CSV unreadable: ")] == [
        "audit CSV unreadable: audit CSV is not readable CSV: "
        "field larger than field limit (131072)"]
