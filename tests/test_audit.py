from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given

from airo.audit import (AuditRow, AuditStatus, ClaimEntry, HUMAN_CHECK_MARKER,
                        InlineCitation, audit_draft, inline_findings,
                        parse_draft, read_audit_csv, resolve_claim, write_audit_csv)
from airo.errors import (AlreadySupported, IndexOutOfRange, MalformedChecklistEntry,
                         MalformedSyntax, MissingChecklist, MissingHeader)
from strategies import audit_rows, draft_to_text, drafts

from test_bundle import assert_same_record
from test_template import bundle_with

FIXTURE = """RELATED WORK (DRAFT)

First paragraph about methods (Author1 2021; P1) with more text.

Second paragraph noting open questions [NEEDS HUMAN CHECK] and a comparison
(Author2 2022; P2).

CLAIM CHECKLIST
- First claim about methods [P1]
- Comparative claim [P1, P2]
- Open claim with no support [NEEDS HUMAN CHECK]
"""


def test_parse_fixture_draft():
    draft = parse_draft(FIXTURE)
    assert draft.header == "RELATED WORK (DRAFT)"
    assert len(draft.body) == 2
    assert len(draft.checklist) == 3
    assert draft.checklist[0].supporting_ids == ("P1",)
    assert draft.checklist[1].supporting_ids == ("P1", "P2")
    assert draft.checklist[2].needs_human_check
    assert draft.checklist[2].supporting_ids == ()


def test_inline_citation_extraction():
    draft = parse_draft("RELATED WORK (DRAFT)\n\nText (Smith et al. 2020; P3) more.\n\n"
                        "CLAIM CHECKLIST\n- c [P3]\n")
    assert len(draft.inline_citations) == 1
    cite = draft.inline_citations[0]
    assert cite.citation == "Smith et al. 2020"
    assert cite.note_id == "P3"
    assert cite.paragraph == 0
    assert draft.body[0][cite.offset] == "("


def test_marker_positions_recorded():
    draft = parse_draft(FIXTURE)
    assert len(draft.body_markers) == 1
    paragraph, offset = draft.body_markers[0]
    assert paragraph == 1
    assert draft.body[1][offset:offset + len(HUMAN_CHECK_MARKER)] == HUMAN_CHECK_MARKER


def test_marker_conservation_on_fixture():
    draft = parse_draft(FIXTURE)
    raw_count = FIXTURE.count(HUMAN_CHECK_MARKER)
    flagged = sum(1 for entry in draft.checklist if entry.needs_human_check)
    assert raw_count == flagged + len(draft.body_markers)


def test_missing_header():
    with pytest.raises(MissingHeader):
        parse_draft("Some text\n\nCLAIM CHECKLIST\n- c [P1]\n")


def test_missing_checklist():
    with pytest.raises(MissingChecklist):
        parse_draft("RELATED WORK (DRAFT)\n\nBody only.\n")


def test_empty_checklist_with_body_is_missing():
    with pytest.raises(MissingChecklist, match="no entries"):
        parse_draft("RELATED WORK (DRAFT)\n\nBody.\n\nCLAIM CHECKLIST\n")


def test_malformed_checklist_entry_carries_line_number():
    text = "RELATED WORK (DRAFT)\n\nBody.\n\nCLAIM CHECKLIST\n- ok [P1]\nprose line\n"
    with pytest.raises(MalformedChecklistEntry) as err:
        parse_draft(text)
    assert err.value.line == 7
    with pytest.raises(MalformedChecklistEntry, match="invalid token"):
        parse_draft("RELATED WORK (DRAFT)\n\nBody.\n\nCLAIM CHECKLIST\n- claim [P1, 9x]\n")
    with pytest.raises(MalformedChecklistEntry, match="no claim text"):
        parse_draft("RELATED WORK (DRAFT)\n\nBody.\n\nCLAIM CHECKLIST\n- [P1]\n")


def test_bullet_without_ids_or_marker_still_parses():
    draft = parse_draft("RELATED WORK (DRAFT)\n\nBody.\n\nCLAIM CHECKLIST\n- bare claim\n")
    assert draft.checklist[0].supporting_ids == ()
    assert not draft.checklist[0].needs_human_check


def test_audit_statuses():
    bundle = bundle_with(2)
    draft = parse_draft(
        "RELATED WORK (DRAFT)\n\nBody.\n\nCLAIM CHECKLIST\n"
        "- supported claim [P1]\n"
        "- invented claim [P7]\n"
        "- flagged claim [NEEDS HUMAN CHECK]\n"
        "- bare claim\n"
        "- flagged with unknown id [P7] [NEEDS HUMAN CHECK]\n")
    rows = audit_draft(draft, bundle)
    assert [row.status for row in rows] == [
        AuditStatus.SUPPORTED, AuditStatus.INVENTED_CITATION,
        AuditStatus.NEEDS_HUMAN_CHECK, AuditStatus.UNSUPPORTED,
        AuditStatus.NEEDS_HUMAN_CHECK]  # explicit flag wins regardless of ids
    assert rows[0].cited == (("Author1 2021", "pid1"),)
    assert rows[1].cited == ()  # P7 resolves to nothing


def test_citation_closure_of_supported_rows():
    bundle = bundle_with(3)
    draft = parse_draft(FIXTURE.replace("Author1", "X"))
    rows = audit_draft(draft, bundle)
    known = set(bundle.note_ids)
    for row in rows:
        if row.status is AuditStatus.SUPPORTED:
            assert set(row.supporting_ids) <= known


def test_inline_findings_split_errors_and_info():
    bundle = bundle_with(2)
    draft = parse_draft(
        "RELATED WORK (DRAFT)\n\nKnown (A 2021; P1) unknown (B 2022; P9) "
        "orphan (C 2023; P2).\n\nCLAIM CHECKLIST\n- claim [P1]\n")
    errors, info = inline_findings(draft, bundle)
    assert len(errors) == 1 and "P9" in errors[0]
    assert len(info) == 1 and "P2" in info[0]


def test_parsed_records_are_constructed_records():
    draft = parse_draft(FIXTURE)
    for parsed, constructed in zip(draft.checklist, [
            ClaimEntry("First claim about methods", ("P1",), False),
            ClaimEntry("Comparative claim", ("P1", "P2"), False),
            ClaimEntry("Open claim with no support", (), True)], strict=True):
        assert_same_record(parsed, constructed)
    for parsed, constructed in zip(draft.inline_citations, [
            InlineCitation("Author1 2021", "P1", 0, draft.body[0].index("(Author1")),
            InlineCitation("Author2 2022", "P2", 1, draft.body[1].index("(Author2"))],
            strict=True):
        assert_same_record(parsed, constructed)

    rows = audit_draft(draft, bundle_with(2))
    cite1, cite2 = ("Author1 2021", "pid1"), ("Author2 2022", "pid2")
    for parsed, constructed in zip(rows, [
            AuditRow("First claim about methods", ("P1",), (cite1,), AuditStatus.SUPPORTED),
            AuditRow("Comparative claim", ("P1", "P2"), (cite1, cite2), AuditStatus.SUPPORTED),
            AuditRow("Open claim with no support", (), (), AuditStatus.NEEDS_HUMAN_CHECK)],
            strict=True):
        assert_same_record(parsed, constructed)

    rows = resolve_claim(rows, 2, "checked by hand")
    for parsed, constructed in zip(read_audit_csv(write_audit_csv(rows)), [
            AuditRow("First claim about methods", ("P1",), (), AuditStatus.SUPPORTED),
            AuditRow("Comparative claim", ("P1", "P2"), (), AuditStatus.SUPPORTED),
            AuditRow("Open claim with no support", (), (), AuditStatus.NEEDS_HUMAN_CHECK,
                     "checked by hand")], strict=True):
        assert_same_record(parsed, constructed)


@pytest.mark.parametrize("status", ["bogus", "Supported", "SUPPORTED", "supported ", ""])
def test_unknown_audit_status_is_malformed(status):
    data = write_audit_csv([AuditRow("claim", ("P1",), (), AuditStatus.SUPPORTED)])
    with pytest.raises(MalformedSyntax) as raised:
        read_audit_csv(data.replace(b",supported,", f",{status},".encode()))
    assert str(raised.value) == f"unknown audit status {status!r}"


def test_csv_header_only_for_empty_rows():
    data = write_audit_csv([])
    assert data.decode().strip() == "claim,cited_ids,status,resolver_note"


def test_csv_three_rows_four_lines():
    rows = [AuditRow("a", ("P1",), (), AuditStatus.SUPPORTED)] * 3
    lines = write_audit_csv(rows).decode().strip().splitlines()
    assert len(lines) == 4


def test_csv_quotes_commas():
    rows = [AuditRow("claim, with comma", ("P1",), (), AuditStatus.SUPPORTED)]
    data = write_audit_csv(rows)
    parsed = next(iter(csv.reader(io.StringIO(data.decode()))))
    assert parsed == ["claim", "cited_ids", "status", "resolver_note"]
    back = read_audit_csv(data)
    assert back[0].claim == "claim, with comma"
    assert back[0].supporting_ids == ("P1",)


def test_resolve_claim_records_note_without_status_change():
    rows = [AuditRow("a", (), (), AuditStatus.NEEDS_HUMAN_CHECK)]
    updated = resolve_claim(rows, 0, "verified against DOI landing page")
    assert updated[0].resolver_note == "verified against DOI landing page"
    assert updated[0].status is AuditStatus.NEEDS_HUMAN_CHECK
    assert rows[0].resolver_note is None  # input untouched


def test_resolve_claim_errors():
    rows = [AuditRow("a", ("P1",), (), AuditStatus.SUPPORTED),
            AuditRow("b", (), (), AuditStatus.UNSUPPORTED)]
    with pytest.raises(AlreadySupported):
        resolve_claim(rows, 0, "note")
    with pytest.raises(IndexOutOfRange):
        resolve_claim(rows, 5, "note")
    resolve_claim(rows, 1, "ok")


def test_draft_round_trip_fixture():
    draft = parse_draft(FIXTURE)
    assert parse_draft(draft_to_text(draft)) == draft


@given(drafts())
def test_draft_round_trip_property(draft):
    assert parse_draft(draft_to_text(draft)) == draft


@given(audit_rows())
def test_csv_round_trip_property(row):
    data = write_audit_csv([row])
    back = read_audit_csv(data)
    assert len(back) == 1
    got = back[0]
    assert (got.claim, got.supporting_ids, got.status, got.resolver_note) == \
           (row.claim, row.supporting_ids, row.status, row.resolver_note)
