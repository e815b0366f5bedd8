"""Draft parsing and claim auditing.

Draft grammar (what the synthesis output spec instructs, pinned here so
fixtures stay stable):

* first nonblank line is exactly ``RELATED WORK (DRAFT)``, optionally
  prefixed with markdown ``#`` marks;
* body paragraphs follow, separated by blank lines;
* a line exactly ``CLAIM CHECKLIST`` (same ``#`` allowance) starts the
  checklist; after it only blank lines and bullets (``-`` or ``*``) may appear;
* a bullet is ``- <claim text> [<id>, <id>]`` with ids in a trailing square
  bracket group, and/or the literal marker ``[NEEDS HUMAN CHECK]`` anywhere
  in the bullet;
* inline citations in the body use ``(<citation text>; <id>)``.

A bullet with neither ids nor the marker still parses (the model violated
its contract); the audit surfaces it as Unsupported rather than refusing to
look at the draft.
"""

from __future__ import annotations

import csv
import io
import re
from .bundle import ID_PATTERN, FrozenRecord, InputBundle, restore_all
from .errors import (AlreadySupported, IndexOutOfRange, MalformedChecklistEntry,
                     MalformedSyntax, MissingChecklist, MissingHeader)
from enum import Enum

DRAFT_HEADER = "RELATED WORK (DRAFT)"
CHECKLIST_HEADING = "CLAIM CHECKLIST"
HUMAN_CHECK_MARKER = "[NEEDS HUMAN CHECK]"

_BULLET_RE = re.compile(r"^\s*[-*]\s+(.*)$")
_INLINE_CITATION_RE = re.compile(r"\(([^();]+);\s*([A-Za-z][A-Za-z0-9]*)\)")


class AuditStatus(Enum):
    SUPPORTED = "supported"
    NEEDS_HUMAN_CHECK = "needs_human_check"
    UNSUPPORTED = "unsupported"
    INVENTED_CITATION = "invented_citation"


_STATUS_BY_VALUE = {status.value: status for status in AuditStatus}


class ClaimEntry(FrozenRecord):
    claim: str
    supporting_ids: tuple[str, ...]
    needs_human_check: bool


class InlineCitation(FrozenRecord):
    citation: str
    note_id: str
    paragraph: int
    offset: int


class DraftArtifact(FrozenRecord):
    body: tuple[str, ...]
    checklist: tuple[ClaimEntry, ...]
    inline_citations: tuple[InlineCitation, ...] = ()


class AuditRow(FrozenRecord):
    claim: str
    supporting_ids: tuple[str, ...]
    status: AuditStatus
    resolver_note: str | None = None


def _strip_heading(line: str) -> str:
    return line.strip().lstrip("#").strip()


def _parse_checklist(lines: list[str], first_line_number: int) -> list[ClaimEntry]:
    """The entries of the checklist lines, the first of which is line ``first_line_number``.

    A bullet's ids are the tokens of its trailing id group: the text after its
    last ``[``, when the bullet, markers taken out and trailing whitespace
    stripped, ends at the first ``]`` after that ``[``.
    """
    states = []
    for line_number, line in enumerate(lines, first_line_number):
        match = _BULLET_RE.match(line)
        if match is None:
            if line.strip():
                raise MalformedChecklistEntry(
                    f"expected a '-' or '*' bullet, got: {line.strip()!r}", line_number)
            continue
        content = match[1]
        flagged = HUMAN_CHECK_MARKER in content
        text = (content.replace(HUMAN_CHECK_MARKER, " ") if flagged else content).rstrip()
        ids: tuple[str, ...] = ()
        start = text.rfind("[")
        if text.endswith("]") and start >= 0 and text.find("]", start) == len(text) - 1:
            ids = tuple(text[start + 1:-1].replace(",", " ").split())
            if not all(map(ID_PATTERN.fullmatch, ids)):
                bad = [tok for tok in ids if not ID_PATTERN.fullmatch(tok)]
                raise MalformedChecklistEntry(
                    f"trailing id group contains invalid token(s): {', '.join(bad)}", line_number)
            text = text[:start]
        claim = " ".join(text.split())
        if not claim:
            raise MalformedChecklistEntry("checklist entry has no claim text", line_number)
        states.append({"claim": claim, "supporting_ids": ids, "needs_human_check": flagged})
    return restore_all(ClaimEntry, states)


def parse_draft(raw: str) -> DraftArtifact:
    """Split a draft into body paragraphs and checklist entries, checking its header."""
    lines = raw.splitlines()

    header_index = None
    for index, line in enumerate(lines):
        if line.strip():
            if _strip_heading(line) == DRAFT_HEADER:
                header_index = index
            break
    if header_index is None:
        raise MissingHeader(f"draft must start with the line {DRAFT_HEADER!r}")

    checklist_index = None
    for index in range(header_index + 1, len(lines)):
        if _strip_heading(lines[index]) == CHECKLIST_HEADING:
            checklist_index = index
            break
    if checklist_index is None:
        raise MissingChecklist(f"draft has no {CHECKLIST_HEADING!r} section")

    body_lines = lines[header_index + 1:checklist_index]
    paragraphs: list[str] = []
    block: list[str] = []
    for line in body_lines:
        if line.strip():
            block.append(line)
        elif block:
            paragraphs.append("\n".join(block))
            block = []
    if block:
        paragraphs.append("\n".join(block))

    entries = _parse_checklist(lines[checklist_index + 1:], checklist_index + 2)
    if paragraphs and not entries:
        raise MissingChecklist("claim checklist has no entries")

    citations = restore_all(InlineCitation, [
        {"citation": match[1].strip(), "note_id": match[2], "paragraph": p_index,
         "offset": match.start()}
        for p_index, paragraph in enumerate(paragraphs)
        for match in _INLINE_CITATION_RE.finditer(paragraph)])

    return DraftArtifact(body=tuple(paragraphs), checklist=tuple(entries),
                         inline_citations=tuple(citations))


def audit_draft(draft: DraftArtifact, bundle: InputBundle) -> list[AuditRow]:
    """One row per checklist claim, in checklist order.

    Status precedence: an explicit human-check flag wins, then any id outside
    the bundle, then the no-ids case, then Supported.
    """
    known = bundle.known_ids
    states = []
    for entry in draft.checklist:
        if entry.needs_human_check:
            status = AuditStatus.NEEDS_HUMAN_CHECK
        elif not all(map(known.__contains__, entry.supporting_ids)):
            status = AuditStatus.INVENTED_CITATION
        elif not entry.supporting_ids:
            status = AuditStatus.UNSUPPORTED
        else:
            status = AuditStatus.SUPPORTED
        states.append({"claim": entry.claim, "supporting_ids": entry.supporting_ids,
                       "status": status, "resolver_note": None})
    return restore_all(AuditRow, states)


def inline_findings(draft: DraftArtifact, bundle: InputBundle) -> tuple[list[str], list[str]]:
    """(errors, informational) findings about inline body citations.

    Errors: inline ids absent from the bundle (citation-closure violations).
    Informational: inline ids no checklist claim refers to (orphans).
    """
    known = bundle.known_ids
    checklist_ids = {i for entry in draft.checklist for i in entry.supporting_ids}
    errors = []
    info = []
    for cite in draft.inline_citations:
        if cite.note_id not in known:
            errors.append(f"invented inline citation ({cite.citation}; {cite.note_id}) at "
                          f"paragraph {cite.paragraph + 1}, offset {cite.offset}")
        elif cite.note_id not in checklist_ids:
            info.append(f"inline citation id {cite.note_id} not referenced by any checklist "
                        f"claim (paragraph {cite.paragraph + 1}, offset {cite.offset})")
    return errors, info


CSV_HEADER = ("claim", "cited_ids", "status", "resolver_note")


def write_audit_rows(rows: list[list[str]]) -> bytes:
    """RFC-4180-style CSV of the header and ``rows``, each row its four cells."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerows([CSV_HEADER, *rows])
    return buffer.getvalue().encode("utf-8")


def _read_audit_table(data: bytes) -> tuple[list[str], list[tuple[list[str], int, int]]]:
    """An audit CSV's lines, and its checked data rows as (four cells, first line, end line)."""
    try:  # newline="" splits at \r, \n and \r\n alone, the line ends csv.reader knows
        lines = io.StringIO(data.decode("utf-8"), newline="").readlines()
        reader = csv.reader(lines)
        records = [(fields, reader.line_num) for fields in reader]  # with the line it ends
    except UnicodeDecodeError as err:
        raise MalformedSyntax(f"audit CSV is not UTF-8: {err}") from err
    except csv.Error as err:  # e.g. a field longer than csv.field_size_limit()
        raise MalformedSyntax(f"audit CSV is not readable CSV: {err}") from err
    if not records:
        raise MalformedSyntax("audit CSV is empty")
    if tuple(records[0][0]) != CSV_HEADER:
        raise MalformedSyntax(f"audit CSV header must be {','.join(CSV_HEADER)}")
    rows = [(fields, start, end)  # a record starts at the line the one before it ends
            for (_, start), (fields, end) in zip(records, records[1:]) if fields]
    for fields, _, _ in rows:
        if len(fields) != 4:
            raise MalformedSyntax(f"audit CSV row has {len(fields)} fields, expected 4")
        if fields[2] not in _STATUS_BY_VALUE:
            raise MalformedSyntax(f"unknown audit status {fields[2]!r}")
    return lines, rows


def write_audit_csv(rows: list[AuditRow]) -> bytes:
    """The audit CSV of ``rows``; ids joined with ';' inside the cited_ids field."""
    return write_audit_rows([[row.claim, ";".join(row.supporting_ids), row.status.value,
                              row.resolver_note or ""] for row in rows])


def read_audit_csv(data: bytes) -> list[AuditRow]:
    """Parse an audit CSV back into rows; blank lines are skipped."""
    return restore_all(AuditRow, [{"claim": claim,
                                   "supporting_ids": tuple(filter(None, ids.split(";"))),
                                   "status": _STATUS_BY_VALUE[status],
                                   "resolver_note": note or None}
                                  for (claim, ids, status, note), _, _
                                  in _read_audit_table(data)[1]])


def resolve_audit_row(data: bytes, index: int, note: str) -> tuple[bytes, str | None]:
    """``data`` with row ``index``'s resolver note set, and the note it replaces; that row is
    rewritten as ``write_audit_rows`` writes it, and every other cell and byte stays as is."""
    lines, rows = _read_audit_table(data)
    if not 0 <= index < len(rows):
        raise IndexOutOfRange(f"row index {index} out of range 0..{len(rows) - 1}")
    fields, start, end = rows[index]
    if fields[2] == AuditStatus.SUPPORTED.value:
        raise AlreadySupported(f"row {index} is already supported; nothing to resolve")
    previous, fields[3] = fields[3] or None, note
    lines[start:end] = [write_audit_rows([fields]).decode("utf-8").partition("\r\n")[2]]
    return "".join(lines).encode("utf-8"), previous


def write_audit_markdown(rows: list[AuditRow], errors: list[str] | None = None,
                         info: list[str] | None = None) -> str:
    lines = ["# Claim audit", "", "| # | status | ids | claim |", "|---|---|---|---|"]
    for index, row in enumerate(rows):
        ids = ";".join(row.supporting_ids) or "-"
        claim = row.claim.replace("|", "\\|")
        lines.append(f"| {index} | {row.status.value} | {ids} | {claim} |")
    if errors:
        lines += ["", "## Citation-closure violations", ""] + [f"- {e}" for e in errors]
    if info:
        lines += ["", "## Informational", ""] + [f"- {n}" for n in info]
    return "\n".join(lines) + "\n"
