"""Hypothesis strategies shared by the property and acceptance tests."""

from __future__ import annotations

import time

from hypothesis import strategies as st

from airo.audit import (AuditRow, AuditStatus, ClaimEntry, DraftArtifact,
                        CHECKLIST_HEADING, DRAFT_HEADER, HUMAN_CHECK_MARKER, parse_draft)
from airo.bundle import InputBundle, NoteRecord
from airo.provenance import (InteractionLog, Interface, InvocationRecord, ModelConfig, Stage,
                             sha256_hex)
from airo.redact import Tier
from airo.rundir import RunState

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
        body=tuple(draw(st.lists(_prose(120), max_size=4))),
        checklist=tuple(draw(st.lists(claim_entries(), min_size=1, max_size=5))))
    # normalize the derived field (inline citations) the same way the
    # parser computes them, so equality compares like with like
    return parse_draft(draft_to_text(artifact))


# the CSV contract covers commas/quotes/newlines; bare CR and NUL are outside
# what the csv module can round-trip and outside any realistic claim text
_csv_text = st.text(max_size=60).filter(lambda s: "\r" not in s and "\x00" not in s)


@st.composite
def audit_rows(draw) -> AuditRow:
    return AuditRow(claim=draw(_csv_text),
                    supporting_ids=tuple(draw(st.lists(note_ids, max_size=3, unique=True))),
                    status=draw(st.sampled_from(AuditStatus)),
                    resolver_note=draw(st.none() | _csv_text.filter(bool)))


# JSON texts may hold any code point but a lone surrogate, which UTF-8 cannot encode
_json_text = st.text(st.characters(codec="utf-8"), max_size=20)
_timestamps = st.integers(0, 2**32).map(
    lambda seconds: time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(seconds)))
run_ids = st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12).map(
    "ro-".__add__)
digests = st.binary(max_size=8).map(sha256_hex)


@st.composite
def model_configs(draw) -> ModelConfig:
    """Valid configurations; a float field is drawn as an int too, which is kept as given."""
    interface = draw(st.sampled_from(Interface))
    endpoint = draw(_json_text.filter(bool) if interface is Interface.OPENAI_COMPATIBLE
                    else _json_text)
    return ModelConfig(
        interface=interface, model_name=draw(_json_text),
        temperature=draw(st.integers(0, 2) | st.floats(0, 2)),
        top_p=draw(st.just(1) | st.floats(0, 1, exclude_min=True)),
        max_tokens=draw(st.integers(1, 10**6)), endpoint=endpoint,
        seed=draw(st.none() | st.integers(-2**63, 2**63)),
        stub_fixture=draw(st.none() | _json_text))


@st.composite
def invocation_records(draw, redacted: bool = False) -> InvocationRecord:
    """Records of a private log, or with ``redacted`` of a redacted one: no timestamps,
    paths or host."""
    private = {} if redacted else {
        "started_at": draw(_timestamps), "ended_at": draw(_timestamps),
        "source_paths": draw(st.none() | st.lists(_json_text, max_size=3).map(tuple)),
        "host_id": draw(st.none() | _json_text)}
    return InvocationRecord(
        stage=draw(st.sampled_from(Stage)), config=draw(model_configs()),
        prompt_sha256=draw(digests), response_sha256=draw(digests), bundle_sha256=draw(digests),
        started_at=private.get("started_at"), ended_at=private.get("ended_at"),
        attempt=draw(st.integers(1, 9)), prompt_text=draw(st.none() | _json_text),
        response_text=draw(st.none() | _json_text),
        source_paths=private.get("source_paths"), host_id=private.get("host_id"))


run_states = st.builds(RunState, run_id=run_ids,
                       completed=st.lists(st.sampled_from(["taxonomy", "draft", "audit",
                                                           "redact", "card", "pack"]),
                                          unique=True))


@st.composite
def interaction_logs(draw, redacted: bool = False) -> InteractionLog:
    """Private logs, records in ``started_at`` order, or with ``redacted`` redacted ones."""
    records = draw(st.lists(invocation_records(redacted), max_size=3))
    if redacted:
        return InteractionLog(run_id=draw(run_ids), records=records, created_at=None,
                              tier=draw(st.sampled_from(Tier)),
                              redacted_from_sha256=draw(digests))
    records.sort(key=lambda record: record.started_at)
    return InteractionLog(run_id=draw(run_ids), records=records,
                          created_at=draw(_timestamps))
