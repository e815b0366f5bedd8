from __future__ import annotations

import csv
import io
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from airo.audit import (AuditRow, AuditStatus, CHECKLIST_HEADING, CSV_HEADER, ClaimEntry,
                        DRAFT_HEADER, HUMAN_CHECK_MARKER, InlineCitation, audit_draft,
                        inline_findings,
                        parse_draft, read_audit_csv, resolve_audit_row,
                        write_audit_csv, write_audit_rows)
from airo.bundle import ID_PATTERN
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


def test_marker_conservation_on_fixture():
    draft = parse_draft(FIXTURE)
    raw_count = FIXTURE.count(HUMAN_CHECK_MARKER)
    flagged = sum(1 for entry in draft.checklist if entry.needs_human_check)
    assert raw_count == flagged + sum(p.count(HUMAN_CHECK_MARKER) for p in draft.body)


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


# The checklist parser as it was written before it became one pattern per line and str
# methods: a regex per bullet for the bullet, one for the trailing id group and one for the
# id separators. The parser must agree with it on every line.
_REFERENCE_BULLET_RE = re.compile(r"^\s*[-*]\s+(.*)$")
_REFERENCE_TRAILING_IDS_RE = re.compile(r"\[([^\[\]]*)\]\s*$")
_REFERENCE_ID_SEPARATOR_RE = re.compile(r"[\s,]+")


def _reference_bullet(content: str, line_number: int) -> ClaimEntry:
    flagged = HUMAN_CHECK_MARKER in content
    text = content.replace(HUMAN_CHECK_MARKER, " ")
    ids: tuple[str, ...] = ()
    match = _REFERENCE_TRAILING_IDS_RE.search(text.rstrip())
    if match:
        tokens = [tok for tok in _REFERENCE_ID_SEPARATOR_RE.split(match.group(1).strip()) if tok]
        bad = [tok for tok in tokens if not ID_PATTERN.fullmatch(tok)]
        if bad:
            raise MalformedChecklistEntry(
                f"trailing id group contains invalid token(s): {', '.join(bad)}", line_number)
        ids = tuple(tokens)
        text = text.rstrip()[: match.start()]
    claim = " ".join(text.split())
    if not claim:
        raise MalformedChecklistEntry("checklist entry has no claim text", line_number)
    return ClaimEntry(claim, ids, flagged)


def reference_checklist(lines: list[str], checklist_index: int) -> list[ClaimEntry]:
    entries = []
    for offset, line in enumerate(lines[checklist_index + 1:]):
        line_number = checklist_index + 2 + offset
        if not line.strip():
            continue
        match = _REFERENCE_BULLET_RE.match(line)
        if not match:
            raise MalformedChecklistEntry(
                f"expected a '-' or '*' bullet, got: {line.strip()!r}", line_number)
        entries.append(_reference_bullet(match.group(1), line_number))
    return entries


_SPACE = st.sampled_from(["", " ", "  ", "\t", "\u3000", "\x1f", "\xa0"])
_ID_TOKENS = st.sampled_from(["P1", "N00012", "a", "Z9", "1x", "a-b", "\u00e9", "[", "]", ""])


@st.composite
def _bullet_lines(draw) -> str:
    """Checklist lines near the grammar's edges: markers, odd spacing, commas, bad tokens,
    stray brackets and empty claims."""
    words = draw(st.lists(st.sampled_from(["claim", "text.", "(P1)", "[x]", "a]", "[b",
                                           HUMAN_CHECK_MARKER, "[NEEDS HUMAN", "", ","])
                          | st.text(max_size=3), max_size=4))
    line = draw(st.sampled_from(["- ", "* ", "  -  ", "\t*\t", "-", "*", "+ ", "", " "]))
    line += draw(_SPACE).join(words)
    if draw(st.booleans()):
        separator = draw(st.sampled_from([",", ", ", " ", " ,\t", ",,", "\xa0"]))
        line += draw(_SPACE) + "[" + draw(_SPACE) + separator.join(
            draw(st.lists(_ID_TOKENS, max_size=3))) + draw(_SPACE) + "]"
    return line + draw(st.sampled_from(["", " ", "\t", HUMAN_CHECK_MARKER,
                                        " " + HUMAN_CHECK_MARKER, "\u3000"]))


@settings(max_examples=500)
@given(st.lists(_bullet_lines(), max_size=4))
def test_checklist_parser_agrees_with_the_reference(bullets):
    text = "\n".join([DRAFT_HEADER, CHECKLIST_HEADING, *bullets]) + "\n"
    try:
        expected = reference_checklist(text.splitlines(), 1)
    except MalformedChecklistEntry as err:
        with pytest.raises(MalformedChecklistEntry) as got:
            parse_draft(text)
        assert (str(got.value), got.value.line) == (str(err), err.line)
    else:
        checklist = parse_draft(text).checklist
        assert checklist == tuple(expected)
        for parsed, constructed in zip(checklist, expected, strict=True):
            assert_same_record(parsed, constructed)


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
    for parsed, constructed in zip(rows, [
            AuditRow("First claim about methods", ("P1",), AuditStatus.SUPPORTED),
            AuditRow("Comparative claim", ("P1", "P2"), AuditStatus.SUPPORTED),
            AuditRow("Open claim with no support", (), AuditStatus.NEEDS_HUMAN_CHECK)],
            strict=True):
        assert_same_record(parsed, constructed)

    resolved, previous = resolve_audit_row(write_audit_csv(rows), 2, "checked by hand")
    assert previous is None
    for parsed, constructed in zip(read_audit_csv(resolved), [
            AuditRow("First claim about methods", ("P1",), AuditStatus.SUPPORTED),
            AuditRow("Comparative claim", ("P1", "P2"), AuditStatus.SUPPORTED),
            AuditRow("Open claim with no support", (), AuditStatus.NEEDS_HUMAN_CHECK,
                     "checked by hand")], strict=True):
        assert_same_record(parsed, constructed)


@pytest.mark.parametrize("status", ["bogus", "Supported", "SUPPORTED", "supported ", ""])
def test_unknown_audit_status_is_malformed(status):
    data = write_audit_csv([AuditRow("claim", ("P1",), AuditStatus.SUPPORTED)])
    with pytest.raises(MalformedSyntax) as raised:
        read_audit_csv(data.replace(b",supported,", f",{status},".encode()))
    assert str(raised.value) == f"unknown audit status {status!r}"


def test_csv_header_only_for_empty_rows():
    data = write_audit_csv([])
    assert data.decode().strip() == "claim,cited_ids,status,resolver_note"


def test_csv_three_rows_four_lines():
    rows = [AuditRow("a", ("P1",), AuditStatus.SUPPORTED)] * 3
    lines = write_audit_csv(rows).decode().strip().splitlines()
    assert len(lines) == 4


def test_csv_quotes_commas():
    rows = [AuditRow("claim, with comma", ("P1",), AuditStatus.SUPPORTED)]
    data = write_audit_csv(rows)
    parsed = next(iter(csv.reader(io.StringIO(data.decode()))))
    assert parsed == ["claim", "cited_ids", "status", "resolver_note"]
    back = read_audit_csv(data)
    assert back[0].claim == "claim, with comma"
    assert back[0].supporting_ids == ("P1",)


def _audit_rows(cells: list[list[str]]) -> list[AuditRow]:
    """The rows ``read_audit_csv`` reads from a table whose data rows have ``cells``."""
    return [AuditRow(claim, tuple(filter(None, ids.split(";"))), AuditStatus(status),
                     note or None) for claim, ids, status, note in cells]


def test_resolve_row_records_note_without_status_change():
    data, previous = resolve_audit_row(write_audit_rows([["a", "", "needs_human_check", ""]]),
                                       0, "verified against DOI landing page")
    assert previous is None
    assert read_audit_csv(data) == _audit_rows(
        [["a", "", "needs_human_check", "verified against DOI landing page"]])
    data, previous = resolve_audit_row(data, 0, "second look")
    assert previous == "verified against DOI landing page"
    assert read_audit_csv(data) == _audit_rows([["a", "", "needs_human_check", "second look"]])


def test_resolve_row_errors():
    data = write_audit_rows([["a", "P1", "supported", ""], ["b", "", "unsupported", ""]])
    with pytest.raises(AlreadySupported) as raised:
        resolve_audit_row(data, 0, "note")
    assert str(raised.value) == "row 0 is already supported; nothing to resolve"
    with pytest.raises(IndexOutOfRange) as raised:
        resolve_audit_row(data, 5, "note")
    assert str(raised.value) == "row index 5 out of range 0..1"
    assert read_audit_csv(data) == _audit_rows([["a", "P1", "supported", ""],
                                                ["b", "", "unsupported", ""]])
    assert resolve_audit_row(data, 1, "ok")[1] is None


# Cells that exercise CSV quoting: delimiters, quotes, spaces, every line end, a line
# separator that str.splitlines breaks at and csv does not, text of 1 to 4 UTF-8 bytes a
# character, and the empty string (NUL is out: csv.reader refuses it before Python 3.11)
_CELLS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\u2028", "x", "\u00e9",
                                  "\u6f22", "\U0001f600"]), max_size=8)
_TABLES = st.lists(st.tuples(_CELLS, _CELLS, st.sampled_from([s.value for s in AuditStatus]),
                             _CELLS).map(list), min_size=1, max_size=6)


def _unresolved_index(draw, rows) -> int:
    unresolved = [index for index, row in enumerate(rows) if row[2] != "supported"]
    assume(unresolved)
    return draw(st.sampled_from(unresolved))


def _row_line(row: list[str]) -> str:
    """``row``'s line as ``write_audit_rows`` writes it."""
    return write_audit_rows([row])[len(write_audit_rows([])):].decode("utf-8")


@settings(max_examples=300)
@given(_TABLES, _CELLS, st.data())
def test_resolving_a_written_table_writes_it_with_the_one_note_changed(rows, note, data):
    index = _unresolved_index(data.draw, rows)
    resolved, previous = resolve_audit_row(write_audit_rows(rows), index, note)
    assert previous == (rows[index][3] or None)
    rows[index][3] = note
    assert resolved == write_audit_rows(rows)


@st.composite
def _hand_formatted_tables(draw):
    """(rows, index, text before row ``index``, its line, text after it) of a table formatted
    by hand: any cell may be quoted, each line ends in LF, CR or CRLF, blank lines follow any
    line, and the last line may have no end."""
    rows = draw(_TABLES)
    index = _unresolved_index(draw, rows)
    pieces = []  # per line: its cells, its end, and the blank lines after it
    for fields in [list(CSV_HEADER), *rows]:
        cells = ['"%s"' % cell.replace('"', '""')
                 if draw(st.booleans()) or any(c in cell for c in ',"\r\n') else cell
                 for cell in fields]
        ends = [draw(st.sampled_from(["\n", "\r", "\r\n"]))]
        for _ in range(draw(st.integers(0, 2))):  # a CR then an LF would be one CRLF
            ends.append(draw(st.sampled_from(
                ["\r", "\r\n"] if ends[-1] == "\r" else ["\n", "\r", "\r\n"])))
        pieces.append([",".join(cells), ends[0], "".join(ends[1:])])
    if draw(st.booleans()):
        pieces[-1][1:] = ["", ""]
    before = "".join("".join(piece) for piece in pieces[:index + 1])
    after = pieces[index + 1][2] + "".join("".join(piece) for piece in pieces[index + 2:])
    return rows, index, before, "".join(pieces[index + 1][:2]), after


@settings(max_examples=300)
@given(_hand_formatted_tables(), _CELLS)
def test_resolving_a_hand_formatted_table_rewrites_only_the_row_lines(table, note):
    rows, index, before, line, after = table
    data = (before + line + after).encode("utf-8")
    assert read_audit_csv(data) == _audit_rows(rows)
    resolved, previous = resolve_audit_row(data, index, note)
    assert previous == (rows[index][3] or None)
    rows[index][3] = note
    assert resolved == (before + _row_line(rows[index]) + after).encode("utf-8")
    assert read_audit_csv(resolved) == _audit_rows(rows)


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
