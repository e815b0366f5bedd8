from __future__ import annotations

import hashlib
import json
import platform
import shutil
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import airo.provenance
from airo import cli, rundir
from airo.bundle import canonical_bytes, parse_bundle, replace
from airo.errors import (DanglingEntity, MalformedSyntax, MissingSection, SourceMismatch,
                         UnredactedLeak)
from airo.provenance import Interface, ModelConfig, parse_log, sha256_hex
from airo.redact import GENERALIZED_ENDPOINT, Tier, redact
from airo.rocrate import (MANIFEST_NAME, PACKED_MEMBERS, REDACTED_LOG_MEMBER, SOURCES, STAGES,
                          build_card, card_narrative, manifest_json, pack, read_crate_members,
                          read_manifest, render_card, write_zip_deterministic)
from airo.verify import CheckName, verify_crate

from conftest import PIPELINE, check_of, run_id_of, run_pipeline

CARD_SECTIONS = ("Run ID", "Research Topic", "Model Configuration", "Artifacts Released",
                 "Intended Use", "Human Oversight", "Disclosure", "Limitations",
                 "Reproducibility Note")
NARRATIVE_TITLES = CARD_SECTIONS[4:]


def card_sections(markdown: str) -> dict[str, str]:
    """The card's sections by title: two ``Title: value`` lines, then ``## Title`` blocks."""
    head, *blocks = markdown.split("\n## ")
    sections = dict(line.split(": ", 1) for line in head.splitlines() if ": " in line)
    sections.update(block.split("\n", 1) for block in blocks)
    return {title: text.strip() for title, text in sections.items()}


def test_build_card_nine_sections_and_config(demo_run):
    run_dir, _ = demo_run
    sections = card_sections(build_card(rundir.RunDirectory(run_dir), run_id_of(run_dir)))
    assert list(sections) == list(CARD_SECTIONS)
    for title, text in sections.items():
        assert text, f"card section {title} is empty"
    assert sections["Run ID"] == rundir.RunDirectory(run_dir).load_state().run_id
    config = sections["Model Configuration"].splitlines()
    assert "- Temperature: 0.2" in config
    assert "- Top-p: 1.0" in config
    assert "- Max tokens: 1200" in config
    bundle = parse_bundle((run_dir / rundir.BUNDLE).read_bytes())
    assert f"- Input bundle SHA-256: `{sha256_hex(canonical_bytes(bundle)).hex}`" in config


def test_card_markdown_carries_everything(demo_run):
    run_dir, _ = demo_run
    markdown = build_card(rundir.RunDirectory(run_dir), run_id_of(run_dir))
    for heading in ("Model Configuration", "Artifacts Released", "Intended Use",
                    "Human Oversight", "Disclosure", "Limitations", "Reproducibility Note"):
        assert f"## {heading}" in markdown
    assert "Temperature: 0.2" in markdown
    assert "Top-p: 1.0" in markdown
    assert "Max tokens: 1200" in markdown
    bundle = parse_bundle((run_dir / rundir.BUNDLE).read_bytes())
    config = parse_log((run_dir / rundir.INTERACTION_LOG).read_bytes()).records[-1].config
    sections = json.loads((run_dir / rundir.CARD_SECTIONS).read_text())  # in card order
    narrative = dict(zip(NARRATIVE_TITLES, (text.strip() for text in sections.values())))
    assert markdown == render_card(run_id_of(run_dir), bundle.title,
                                   sha256_hex(canonical_bytes(bundle)).hex, config, narrative)


def test_card_missing_disclosure_section(demo_copy):
    run_dir, _ = demo_copy
    sections_path = run_dir / rundir.CARD_SECTIONS
    sections = json.loads(sections_path.read_text())
    sections["disclosure"] = "   "
    sections_path.write_text(json.dumps(sections))
    with pytest.raises(MissingSection, match="Disclosure"):
        build_card(rundir.RunDirectory(run_dir), run_id_of(run_dir))


def test_a_log_without_the_synthesis_record_backs_no_card(demo_copy):
    run_dir, _ = demo_copy
    log_path = run_dir / rundir.INTERACTION_LOG
    log = json.loads(log_path.read_text())
    log["records"] = log["records"][:1]
    log_path.write_text(json.dumps(log))
    with pytest.raises(MissingSection, match="Model Configuration"):
        build_card(rundir.RunDirectory(run_dir), run_id_of(run_dir))


def test_a_live_endpoint_renders_the_same_card_at_every_tier(demo_run):
    # the card is built from the private log and packed at any tier, so it may say only
    # what every tier's redacted log still backs: that some endpoint was called, not which
    run_dir, _ = demo_run
    log = parse_log((run_dir / rundir.INTERACTION_LOG).read_bytes())
    live = replace(log.records[-1].config, interface=Interface.OPENAI_COMPATIBLE,
                   endpoint="https://gpu.internal.lab:8443/v1", stub_fixture=None)
    log = replace(log, records=[replace(record, config=live) for record in log.records])
    narrative = dict.fromkeys(NARRATIVE_TITLES, "Written by the authors.")
    private = render_card(log.run_id, "A topic", "0" * 64, live, narrative)
    assert f"- Endpoint: {GENERALIZED_ENDPOINT}\n" in private
    assert "internal.lab" not in private
    for tier in Tier:
        redacted = redact(log, tier).records[-1].config
        assert render_card(log.run_id, "A topic", "0" * 64, redacted, narrative) == private, tier


# Narrative text made of pieces that could confuse a splitter: every section heading,
# carriage returns, bare newlines, heading markers and non-ASCII text
_NARRATIVE_TEXT = st.lists(
    st.sampled_from([f"\n\n## {title}\n\n" for title in NARRATIVE_TITLES]
                    + ["\r", "\r\n", "\n", "\n\n## ", "\u00e9\u6f22"])
    | st.text(st.characters(codec="utf-8"), max_size=12), max_size=8).map("".join)


@given(st.tuples(*[_NARRATIVE_TEXT] * len(NARRATIVE_TITLES)).map(
    lambda texts: dict(zip(NARRATIVE_TITLES, texts))),  # in card order
    _NARRATIVE_TEXT, _NARRATIVE_TEXT)
def test_a_split_card_renders_back_to_the_same_bytes(narrative, title, model_name):
    # the title and the model name are in the card's head, and may hold heading lines too
    config = ModelConfig(interface=Interface.OFFLINE_STUB, model_name=model_name,
                         temperature=0.2, top_p=1.0, max_tokens=1200)
    card = render_card("ro-demo", title, "0" * 64, config, narrative)
    head = render_card("ro-demo", title, "0" * 64, config, {})
    assert render_card("ro-demo", title, "0" * 64, config,
                       card_narrative(card, head)) == card


def test_pack_contents_and_membership(demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    assert len(members) >= 8
    expected = {"card.md", "code/taxonomy.tmpl", "code/synthesis.tmpl", "inputs/bundle.json",
                "outputs/taxonomy.json", "outputs/draft.md", "outputs/audit.csv",
                "provenance/interaction_log.redacted.json", MANIFEST_NAME}
    assert set(members) == expected


def _pack(run_dir: Path, tier: Tier = Tier.REVIEWER, run_id: str | None = None) -> Path:
    """``pack`` of the run in ``run_dir``, as run ``run_id`` if given, into its ``out.zip``."""
    return pack(rundir.RunDirectory(run_dir), run_id or run_id_of(run_dir), tier,
                run_dir / "out.zip")


def test_pack_deterministic(demo_copy):
    run_dir, _ = demo_copy
    run, run_id = rundir.RunDirectory(run_dir), run_id_of(run_dir)
    first = pack(run, run_id, Tier.REVIEWER, run_dir / "a.zip").read_bytes()
    second = pack(run, run_id, Tier.REVIEWER, run_dir / "b.zip").read_bytes()
    assert sha256_hex(first) == sha256_hex(second)


def test_pack_never_ships_the_unredacted_log(demo_copy):
    run_dir, _ = demo_copy
    private = (run_dir / rundir.INTERACTION_LOG).read_bytes()
    for tier in Tier:
        assert cli.main(["redact", "--tier", tier.value, "--run-dir", str(run_dir)]) == 0
        crate = _pack(run_dir, tier)
        members = read_crate_members(crate)
        assert "interaction_log.json" not in {name.rsplit("/", 1)[-1] for name in members}
        assert private not in members.values()


def test_pack_refuses_raw_text_under_dropping_policy(demo_copy, auditor_run, tmp_path):
    run_dir, _ = demo_copy
    auditor_dir, _ = auditor_run
    # simulate a stale auditor-tier redaction left in the run directory
    shutil.copy(auditor_dir / rundir.REDACTED_LOG, run_dir / rundir.REDACTED_LOG)
    with pytest.raises(UnredactedLeak, match="raw text"):
        _pack(run_dir)


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
            _pack(run_dir)
    else:
        assert _pack(run_dir).is_file()


@pytest.mark.parametrize("requested", [Tier.PUBLIC, Tier.AUDITOR])
def test_pack_refuses_a_redacted_log_at_another_tier(demo_copy, requested):
    run_dir, _ = demo_copy
    # the run was redacted at reviewer tier, which keeps the endpoint's domain
    log_path = run_dir / rundir.REDACTED_LOG
    data = json.loads(log_path.read_text())
    data["records"][0]["config"]["endpoint"] = "https://internal.lab"
    log_path.write_text(json.dumps(data))
    with pytest.raises(UnredactedLeak, match="at tier reviewer, not the requested"):
        _pack(run_dir, requested)


def test_the_stage_table_is_closed(demo_run):
    # a row names only stages there are and members pack ships, from files a run holds
    run_dir, _ = demo_run
    stages = {name for name, (handler, _, _) in cli.COMMANDS.items()
              if getattr(handler, "func", None) is cli._run_stage}
    assert stages == set(STAGES)
    for prerequisites, action in STAGES.values():
        assert set(prerequisites) <= set(STAGES)
        if action:
            _, _, objects, results, _ = action
            assert set(objects) | set(results) <= set(PACKED_MEMBERS)
    assert [source for source in SOURCES.values() if not (run_dir / source).is_file()] == []


def test_pack_missing_artifact_is_dangling(demo_copy):
    run_dir, _ = demo_copy
    (run_dir / rundir.DRAFT_MD).unlink()
    with pytest.raises(DanglingEntity, match="draft.md"):
        _pack(run_dir)


def test_pack_names_the_missing_run_directory_files(demo_copy):
    # the run-directory paths an operator can restore, not the crate members they become
    run_dir, _ = demo_copy
    for source in (rundir.BUNDLE, rundir.SYNTHESIS_TMPL):
        (run_dir / source).unlink()
    with pytest.raises(DanglingEntity) as refused:
        _pack(run_dir)
    assert str(refused.value) == ("run directory is missing required file(s): "
                                  "templates/synthesis.tmpl, bundle.json")


def test_pack_refuses_a_redacted_log_of_another_run(demo_copy):
    # run.json hand-edited to name another run after redact: the crate would name one run in
    # its manifest and another in its log, so pack refuses and writes nothing
    run_dir, _ = demo_copy
    state_path = run_dir / rundir.STATE
    state = json.loads(state_path.read_text())
    state["run_id"] = "ro-someone-else"
    state_path.write_text(json.dumps(state))
    crates = run_dir / rundir.CRATE_DIR
    before = sorted(crates.iterdir())
    with pytest.raises(SourceMismatch, match="ro-someone-else"):
        _pack(run_dir, run_id="ro-someone-else")
    assert cli.main(["pack", "--run-dir", str(run_dir)]) == 1
    assert sorted(crates.iterdir()) == before


def test_pack_refuses_a_draft_edited_after_card(demo_copy, capsys):
    # card read the draft before the edit, and the edit marks no stage stale: without the
    # refusal the crate would fail InputDerivation, since no logged call wrote this draft
    run_dir, crate = demo_copy
    draft = run_dir / rundir.DRAFT_MD
    edited = draft.read_bytes().replace(b"a complementary stance", b"a different stance", 1)
    assert edited != draft.read_bytes()
    draft.write_bytes(edited)
    crate.unlink()
    state = (run_dir / rundir.STATE).read_bytes()
    capsys.readouterr()
    assert cli.main(["pack", "--tier", "reviewer", "--run-dir", str(run_dir)]) == 1
    assert capsys.readouterr().err == (
        "error: SourceMismatch: no synthesis record in the redacted log wrote outputs/draft.md; "
        "re-run draft and the stages after it\n")
    assert list((run_dir / rundir.CRATE_DIR).iterdir()) == []
    assert (run_dir / rundir.STATE).read_bytes() == state


def test_pack_refuses_a_draft_swapped_after_card_for_another_logged_call(tmp_path, capsys):
    # both drafts were logged, so the restored one has a record; but the card was built
    # from the other, and states another model, so the crate would fail InputDerivation
    run_dir = tmp_path / "run"
    args = ["--run-dir", str(run_dir)]
    for step in (["init", "demo"], PIPELINE[1], PIPELINE[2]):
        assert cli.main(step + args) == 0
    draft = run_dir / rundir.DRAFT_MD
    first = draft.read_bytes()
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**json.loads((run_dir / rundir.CONFIG).read_text()),
                                 "model_name": "other-model"}))
    (run_dir / rundir.FIXTURES_DIR / "other.txt").write_bytes(
        first.replace(b"a complementary stance", b"a different stance", 1))
    assert cli.main(["draft", "--stub", "other", "--config", str(other)] + args) == 0
    assert draft.read_bytes() != first
    for step in (["audit"], ["redact"], ["card"]):
        assert cli.main(step + args) == 0
    assert b"\n- Model: other-model\n" in (run_dir / rundir.CARD_MD).read_bytes()
    draft.write_bytes(first)
    state = (run_dir / rundir.STATE).read_bytes()
    capsys.readouterr()
    assert cli.main(["pack"] + args) == 1
    assert capsys.readouterr().err == (
        "error: SourceMismatch: card.md does not state the configuration of the synthesis "
        "record that wrote outputs/draft.md; re-run draft and the stages after it\n")
    assert list((run_dir / rundir.CRATE_DIR).iterdir()) == []
    assert (run_dir / rundir.STATE).read_bytes() == state


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2(a): STAGES fixes each CreateAction's "
                                       "position at 0 and 1, whatever the log holds")
def test_each_create_action_names_the_record_that_wrote_its_result(tmp_path):
    # a failed taxonomy attempt before the good one moves every later call down the log
    run_dir = tmp_path / "run"
    assert cli.main(["init", "demo", "--run-dir", str(run_dir)]) == 0
    (run_dir / rundir.FIXTURES_DIR / "bad.txt").write_text("not json")
    assert cli.main(["taxonomy", "--stub", "bad", "--run-dir", str(run_dir)]) == 1
    for step in PIPELINE[1:]:
        assert cli.main(step + ["--run-dir", str(run_dir)]) == 0, step
    members = read_crate_members(run_dir / rundir.CRATE_DIR / "ro-demo.crate.zip")
    records = json.loads(members[REDACTED_LOG_MEMBER])["records"]
    positions = {node["@id"]: node["position"]
                 for node in json.loads(members[MANIFEST_NAME])["@graph"] if "position" in node}
    assert records[positions["#taxonomy-invocation"]]["stage"] == "taxonomy"
    synthesis = records[positions["#synthesis-invocation"]]
    assert synthesis["stage"] == "synthesis"
    assert synthesis["response_sha256"]["hex"] == sha256_hex(members["outputs/draft.md"]).hex

def _hash_findings(crate: Path) -> list[str]:
    findings = check_of(verify_crate(crate), CheckName.HASH_INTEGRITY).findings
    return [finding for finding in findings if not finding.startswith("skipped:")]


def test_read_manifest_bijection_and_roles(demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    assert read_manifest(crate) == {name: sha256_hex(data).hex for name, data in members.items()
                                    if name != MANIFEST_NAME}
    roles = {node["@id"]: node["additionalType"]
             for node in json.loads(members[MANIFEST_NAME])["@graph"] if "sha256" in node}
    assert roles == {"code/taxonomy.tmpl": "code", "code/synthesis.tmpl": "code",
                     "inputs/bundle.json": "data", "outputs/taxonomy.json": "data",
                     "outputs/draft.md": "data", "outputs/audit.csv": "data",
                     REDACTED_LOG_MEMBER: "provenance", "card.md": "provenance"}


def test_manifest_digests_and_produced_by(demo_run):
    run_dir, crate = demo_run
    members = read_crate_members(crate)
    manifest = json.loads(members[MANIFEST_NAME])
    assert manifest == manifest_json(run_id_of(run_dir), read_manifest(crate))
    actions = {node["@id"]: node for node in manifest["@graph"]
               if node["@type"] == "CreateAction"}
    assert actions["#taxonomy-invocation"]["result"] == [{"@id": "outputs/taxonomy.json"}]
    assert actions["#synthesis-invocation"]["result"] == [{"@id": "outputs/draft.md"}]
    assert actions["#claim-audit"]["result"] == [{"@id": "outputs/audit.csv"}]
    assert actions["#taxonomy-invocation"]["position"] == 0
    assert actions["#synthesis-invocation"]["position"] == 1


def test_read_manifest_missing(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    del members[MANIFEST_NAME]
    out = tmp_path / "nomanifest.zip"
    write_zip_deterministic(out, members)
    assert read_manifest(out) == {}
    assert _hash_findings(out) == [f"{MANIFEST_NAME} missing from crate"]


def test_read_manifest_dangling_entity_on_deleted_member(tmp_path, demo_run):
    # the manifest still records the deleted member; verify names it once
    _, crate = demo_run
    members = read_crate_members(crate)
    del members["outputs/draft.md"]
    out = tmp_path / "deleted.zip"
    write_zip_deterministic(out, members)
    assert "outputs/draft.md" in read_manifest(out)
    assert _hash_findings(out) == ["outputs/draft.md missing from crate"]


def test_read_manifest_unlisted_member(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    members["outputs/surprise.txt"] = b"not in the manifest"
    out = tmp_path / "unlisted.zip"
    write_zip_deterministic(out, members)
    assert "outputs/surprise.txt" not in read_manifest(out)
    assert _hash_findings(out) == ["outputs/surprise.txt: not a member pack writes"]


def test_read_manifest_malformed_json(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    members[MANIFEST_NAME] = b"{ nope"
    out = tmp_path / "badjson.zip"
    write_zip_deterministic(out, members)
    with pytest.raises(MalformedSyntax, match="unreadable"):
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
