"""Hypothesis strategies shared by the property and acceptance tests."""

from __future__ import annotations

from hypothesis import strategies as st

from airo.audit import (AuditRow, AuditStatus, ClaimEntry, DraftArtifact,
                        CHECKLIST_HEADING, DRAFT_HEADER, HUMAN_CHECK_MARKER, parse_draft)
from airo.bundle import InputBundle, NoteRecord

note_ids = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,5}", fullmatch=True)


@st.composite
def bundles(draw, alphabet=st.characters(codec="utf-8")) -> InputBundle:
    """Valid bundles whose free-text fields are drawn from ``alphabet``."""
    any_text = st.text(alphabet, max_size=60)
    nonempty_text = st.text(alphabet, min_size=1, max_size=60)
    ids = draw(st.lists(note_ids, min_size=1, max_size=6, unique=True))
    notes = tuple(
        NoteRecord(id=nid,
                   pid=draw(nonempty_text),
                   citation=draw(nonempty_text),
                   summary=draw(nonempty_text),
                   strengths=draw(any_text),
                   limitations=draw(any_text),
                   relation=draw(any_text))
        for nid in ids)
    return InputBundle(title=draw(any_text), contribution=draw(any_text),
                       target_words=draw(st.integers(50, 5000)), notes=notes)


# Single-line prose that cannot collide with the draft grammar's structure:
# no brackets (id groups / markers), no newlines, stable under whitespace
# collapsing, and never a heading line.
_PROSE_ALPHABET = ("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,;:'()!?")


def _prose(max_size: int):
    return (st.text(alphabet=_PROSE_ALPHABET, min_size=1, max_size=max_size)
            .map(lambda s: " ".join(s.split()))
            .filter(lambda s: s and s not in (DRAFT_HEADER, CHECKLIST_HEADING)))


@st.composite
def claim_entries(draw) -> ClaimEntry:
    return ClaimEntry(claim=draw(_prose(80)),
                      supporting_ids=tuple(draw(st.lists(note_ids, max_size=3, unique=True))),
                      needs_human_check=draw(st.booleans()))


def draft_to_text(draft: DraftArtifact) -> str:
    """Serialize back to the draft grammar; parse_draft(draft_to_text(d)) == d."""
    parts = [DRAFT_HEADER, ""]
    for paragraph in draft.body:
        parts += [paragraph, ""]
    parts.append(CHECKLIST_HEADING)
    for entry in draft.checklist:
        line = f"- {entry.claim}"
        if entry.supporting_ids:
            line += f" [{', '.join(entry.supporting_ids)}]"
        if entry.needs_human_check:
            line += f" {HUMAN_CHECK_MARKER}"
        parts.append(line)
    return "\n".join(parts) + "\n"


@st.composite
def drafts(draw) -> DraftArtifact:
    artifact = DraftArtifact(
        header=DRAFT_HEADER,
        body=tuple(draw(st.lists(_prose(120), max_size=4))),
        checklist=tuple(draw(st.lists(claim_entries(), min_size=1, max_size=5))))
    # normalize derived fields (inline citations, markers) the same way the
    # parser computes them, so equality compares like with like
    return parse_draft(draft_to_text(artifact))


# the CSV contract covers commas/quotes/newlines; bare CR and NUL are outside
# what the csv module can round-trip and outside any realistic claim text
_csv_text = st.text(max_size=60).filter(lambda s: "\r" not in s and "\x00" not in s)


@st.composite
def audit_rows(draw) -> AuditRow:
    return AuditRow(claim=draw(_csv_text),
                    supporting_ids=tuple(draw(st.lists(note_ids, max_size=3, unique=True))),
                    cited=(),
                    status=draw(st.sampled_from(AuditStatus)),
                    resolver_note=draw(st.none() | _csv_text.filter(bool)))
