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
from dataclasses import dataclass, replace

from .bundle import ID_PATTERN, InputBundle, restore
from .errors import (AlreadySupported, IndexOutOfRange, MalformedChecklistEntry,
                     MalformedSyntax, MissingChecklist, MissingHeader)
from enum import Enum

DRAFT_HEADER = "RELATED WORK (DRAFT)"
CHECKLIST_HEADING = "CLAIM CHECKLIST"
HUMAN_CHECK_MARKER = "[NEEDS HUMAN CHECK]"

_BULLET_RE = re.compile(r"^\s*[-*]\s+(.*)$")
_TRAILING_IDS_RE = re.compile(r"\[([^\[\]]*)\]\s*$")
_INLINE_CITATION_RE = re.compile(r"\(([^();]+);\s*([A-Za-z][A-Za-z0-9]*)\)")
_ID_SEPARATOR_RE = re.compile(r"[\s,]+")


class AuditStatus(Enum):
    SUPPORTED = "supported"
    NEEDS_HUMAN_CHECK = "needs_human_check"
    UNSUPPORTED = "unsupported"
    INVENTED_CITATION = "invented_citation"


_STATUS_BY_VALUE = {status.value: status for status in AuditStatus}


@dataclass(frozen=True)
class ClaimEntry:
    claim: str
    supporting_ids: tuple[str, ...]
    needs_human_check: bool


@dataclass(frozen=True)
class InlineCitation:
    citation: str
    note_id: str
    paragraph: int
    offset: int


@dataclass(frozen=True)
class DraftArtifact:
    header: str
    body: tuple[str, ...]
    checklist: tuple[ClaimEntry, ...]
    inline_citations: tuple[InlineCitation, ...] = ()
    body_markers: tuple[tuple[int, int], ...] = ()  # (paragraph index, char offset)


@dataclass(frozen=True)
class AuditRow:
    claim: str
    supporting_ids: tuple[str, ...]
    cited: tuple[tuple[str, str], ...]  # (citation text, pid) for ids known to the bundle
    status: AuditStatus
    resolver_note: str | None = None


def _strip_heading(line: str) -> str:
    return line.strip().lstrip("#").strip()


def _parse_bullet(content: str, line_number: int) -> ClaimEntry:
    flagged = HUMAN_CHECK_MARKER in content
    text = content.replace(HUMAN_CHECK_MARKER, " ")
    ids: tuple[str, ...] = ()
    match = _TRAILING_IDS_RE.search(text.rstrip())
    if match:
        tokens = [tok for tok in _ID_SEPARATOR_RE.split(match.group(1).strip()) if tok]
        bad = [tok for tok in tokens if not ID_PATTERN.fullmatch(tok)]
        if bad:
            raise MalformedChecklistEntry(
                f"trailing id group contains invalid token(s): {', '.join(bad)}", line_number)
        ids = tuple(tokens)
        text = text.rstrip()[: match.start()]
    claim = " ".join(text.split())
    if not claim:
        raise MalformedChecklistEntry("checklist entry has no claim text", line_number)
    return restore(ClaimEntry, {"claim": claim, "supporting_ids": ids,
                                "needs_human_check": flagged})


def parse_draft(raw: str) -> DraftArtifact:
    """Split a draft into header, body paragraphs, and checklist entries."""
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

    entries: list[ClaimEntry] = []
    for offset, line in enumerate(lines[checklist_index + 1:]):
        line_number = checklist_index + 2 + offset
        if not line.strip():
            continue
        match = _BULLET_RE.match(line)
        if not match:
            raise MalformedChecklistEntry(
                f"expected a '-' or '*' bullet, got: {line.strip()!r}", line_number)
        entries.append(_parse_bullet(match.group(1), line_number))
    if paragraphs and not entries:
        raise MissingChecklist("claim checklist has no entries")

    citations = []
    markers = []
    for p_index, paragraph in enumerate(paragraphs):
        for match in _INLINE_CITATION_RE.finditer(paragraph):
            citations.append(restore(InlineCitation, {
                "citation": match.group(1).strip(), "note_id": match.group(2),
                "paragraph": p_index, "offset": match.start()}))
        start = 0
        while (found := paragraph.find(HUMAN_CHECK_MARKER, start)) != -1:
            markers.append((p_index, found))
            start = found + len(HUMAN_CHECK_MARKER)

    return DraftArtifact(header=DRAFT_HEADER, body=tuple(paragraphs),
                         checklist=tuple(entries),
                         inline_citations=tuple(citations), body_markers=tuple(markers))


def audit_draft(draft: DraftArtifact, bundle: InputBundle) -> list[AuditRow]:
    """One row per checklist claim, in checklist order.

    Status precedence: an explicit human-check flag wins, then any id outside
    the bundle, then the no-ids case, then Supported.
    """
    known = bundle.known_ids
    rows: list[AuditRow] = []
    for entry in draft.checklist:
        notes = [bundle.note(i) for i in entry.supporting_ids if i in known]
        cited = tuple((note.citation, note.pid) for note in notes)
        if entry.needs_human_check:
            status = AuditStatus.NEEDS_HUMAN_CHECK
        elif len(notes) < len(entry.supporting_ids):
            status = AuditStatus.INVENTED_CITATION
        elif not entry.supporting_ids:
            status = AuditStatus.UNSUPPORTED
        else:
            status = AuditStatus.SUPPORTED
        rows.append(restore(AuditRow, {"claim": entry.claim,
                                       "supporting_ids": entry.supporting_ids,
                                       "cited": cited, "status": status,
                                       "resolver_note": None}))
    return rows


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
        where = f"paragraph {cite.paragraph + 1}, offset {cite.offset}"
        if cite.note_id not in known:
            errors.append(f"invented inline citation ({cite.citation}; {cite.note_id}) at {where}")
        elif cite.note_id not in checklist_ids:
            info.append(f"inline citation id {cite.note_id} not referenced by any "
                        f"checklist claim ({where})")
    return errors, info


CSV_HEADER = ("claim", "cited_ids", "status", "resolver_note")


def write_audit_csv(rows: list[AuditRow]) -> bytes:
    """RFC-4180-style CSV; ids joined with ';' inside the cited_ids field."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([row.claim, ";".join(row.supporting_ids),
                         row.status.value, row.resolver_note or ""])
    return buffer.getvalue().encode("utf-8")


def read_audit_csv(data: bytes) -> list[AuditRow]:
    """Parse an audit CSV back into rows; cited pairs are not stored in the CSV."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise MalformedSyntax(f"audit CSV is not UTF-8: {err}") from err
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedSyntax("audit CSV is empty") from None
    if tuple(header) != CSV_HEADER:
        raise MalformedSyntax(f"audit CSV header must be {','.join(CSV_HEADER)}")
    rows = []
    for fields in reader:
        if not fields:
            continue
        if len(fields) != 4:
            raise MalformedSyntax(f"audit CSV row has {len(fields)} fields, expected 4")
        claim, ids, status, note = fields
        parsed_status = _STATUS_BY_VALUE.get(status)
        if parsed_status is None:
            raise MalformedSyntax(f"unknown audit status {status!r}")
        rows.append(restore(AuditRow, {"claim": claim,
                                       "supporting_ids": tuple(filter(None, ids.split(";"))),
                                       "cited": (), "status": parsed_status,
                                       "resolver_note": note or None}))
    return rows


def write_audit_markdown(rows: list[AuditRow], errors: list[str] | None = None,
                         info: list[str] | None = None) -> str:
    lines = ["# Claim audit", "", "| # | status | ids | claim |", "|---|---|---|---|"]
    for index, row in enumerate(rows):
        ids = ";".join(row.supporting_ids) or "-"
        claim = row.claim.replace("|", "\\|")
        lines.append(f"| {index} | {row.status.value} | {ids} | {claim} |")
    if any(row.resolver_note for row in rows):
        lines += ["", "## Resolver notes", ""]
        lines += [f"- row {i}: {row.resolver_note}"
                  for i, row in enumerate(rows) if row.resolver_note]
    if errors:
        lines += ["", "## Citation-closure violations", ""] + [f"- {e}" for e in errors]
    if info:
        lines += ["", "## Informational", ""] + [f"- {n}" for n in info]
    return "\n".join(lines) + "\n"


def resolve_claim(rows: list[AuditRow], index: int, note: str) -> list[AuditRow]:
    """Attach a resolver note; the status never changes here (edits belong to the
    manuscript, not the audit record). Returns a new row list."""
    if not 0 <= index < len(rows):
        raise IndexOutOfRange(f"row index {index} out of range 0..{len(rows) - 1}")
    row = rows[index]
    if row.status is AuditStatus.SUPPORTED:
        raise AlreadySupported(f"row {index} is already supported; nothing to resolve")
    updated = list(rows)
    updated[index] = replace(row, resolver_note=note)
    return updated
